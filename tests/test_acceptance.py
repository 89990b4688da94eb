"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines immediately).  Heavy shared computations are cached in
module-scoped fixtures so the whole suite stays within a few minutes.
"""

import os
import time
from fractions import Fraction

import pytest

from factsflow.model import validate_solution, InjectionSolution, LdcSolution
from factsflow.formulations import midpoint_susceptances, solve_mpf
from factsflow.maxflow import LiftFailure, max_flow, mff_via_lemma
from factsflow.mip import MffConfig, solve_mff
from factsflow.iterative import multi_start_im
from factsflow.gadgets import ExactCoverInstance, build_choice_network

from conftest import (
    random_meshed_zero_lower,
    random_small_net,
    random_tree,
    random_unbounded_upper,
    tri_network,
)
from gadget_checks import (
    check_reduction,
    degenerate_choice_network,
    enumerate_signs_oracle,
    exact_cover_brute_force,
    verify_choice,
)

TOL = 1e-6


def _report(name: str, detail: str = "") -> None:
    suffix = f" -- {detail}" if detail else ""
    print(f"\n{name}: PASS{suffix}")


# --------------------------------------------------------------------------
# Shared heavy computations


@pytest.fixture(scope="module")
def small_net_results():
    """The 300 mixed random instances with exact and reference optima."""
    out = []
    for seed in range(300):
        net = random_small_net(seed)
        oracle = enumerate_signs_oracle(net)
        exact = solve_mff(net, MffConfig(gap_tol=1e-9))
        out.append((net, oracle.value, exact))
    return out


@pytest.fixture(scope="module")
def tree_results():
    out = []
    for seed in range(200):
        net = random_tree(seed)
        lift = mff_via_lemma(net)
        mf = max_flow(net)
        exact = solve_mff(net, MffConfig(gap_tol=1e-9), warm_start=lift.solution)
        out.append((net, mf.value, lift, exact))
    return out


@pytest.fixture(scope="module")
def meshed_results():
    out = []
    for seed in range(200):
        net = random_meshed_zero_lower(seed)
        lift = mff_via_lemma(net)
        mf = max_flow(net)
        exact = solve_mff(net, MffConfig(gap_tol=1e-9), warm_start=lift.solution)
        out.append((net, mf.value, lift, exact))
    return out


@pytest.fixture(scope="module")
def unbounded_results():
    out = []
    for seed in range(100):
        net = random_unbounded_upper(seed)
        mf = max_flow(net)
        try:
            lift = mff_via_lemma(net)
        except LiftFailure as failure:
            out.append((net, mf.value, None, failure))
            continue
        exact = solve_mff(net, MffConfig(gap_tol=1e-9), warm_start=lift.solution)
        out.append((net, mf.value, lift, exact))
    return out


# --------------------------------------------------------------------------
# Criterion 1: the three-bus fixtures


def test_criterion_1_fixture_values():
    start = time.monotonic()
    tri = tri_network(facts=False)
    tri_f = tri_network(facts=True)

    mpf = solve_mpf(tri, {ln.key: 1.0 for ln in tri.lines})
    assert mpf.value == pytest.approx(12.0, abs=TOL)

    mf = max_flow(tri_f)
    assert mf.value == pytest.approx(14.0, abs=TOL)

    exact = solve_mff(tri_f, MffConfig(gap_tol=1e-9))
    assert exact.objective == pytest.approx(14.0, abs=TOL)
    assert validate_solution(tri_f, exact.solution).ok

    oracle = enumerate_signs_oracle(tri_f)
    assert oracle.value == pytest.approx(14.0, abs=TOL)

    im = multi_start_im(tri_f)
    for which, run in im.runs.items():
        assert run.value == pytest.approx(14.0, abs=TOL), which
        assert run.trace.iterations <= 3, which

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("criterion 1",
            f"fixed optimum 12, exact = max flow = 14, all starts <= 3 "
            f"rounds, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# Criterion 2: reference-equivalence of the exact solver


def test_criterion_2_oracle_equivalence(small_net_results):
    start = time.monotonic()
    worst = 0.0
    for net, reference, exact in small_net_results:
        gap = abs(reference - exact.objective)
        worst = max(worst, gap)
        assert gap <= TOL
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report("criterion 2",
            f"300 instances, worst |exact - reference| = {worst:.2e}")


# --------------------------------------------------------------------------
# Criterion 3: the three constructive special cases


def test_criterion_3_trees(tree_results):
    worst = 0.0
    for net, mf_value, lift, exact in tree_results:
        assert abs(lift.value - mf_value) <= TOL
        assert abs(exact.objective - mf_value) <= TOL
        assert validate_solution(net, lift.solution, TOL).ok
        worst = max(worst, abs(exact.objective - mf_value))
    _report("criterion 3 (trees)", f"200 trees, worst gap {worst:.2e}")


def test_criterion_3_zero_lower_meshes(meshed_results):
    worst = 0.0
    for net, mf_value, lift, exact in meshed_results:
        assert abs(lift.value - mf_value) <= TOL
        assert abs(exact.objective - mf_value) <= TOL
        assert validate_solution(net, lift.solution, TOL).ok
        worst = max(worst, abs(exact.objective - mf_value))
    _report("criterion 3 (zero-lower meshes)", f"200 meshes, worst gap {worst:.2e}")


def test_criterion_3_unbounded_upper(unbounded_results):
    lifted = failed = 0
    for net, mf_value, lift, exact in unbounded_results:
        if lift is None:
            failed += 1  # reported, not asserted: retries exhausted
            continue
        lifted += 1
        assert abs(lift.value - mf_value) <= TOL
        assert abs(exact.objective - mf_value) <= TOL
        assert validate_solution(net, lift.solution, TOL).ok
    _report("criterion 3 (unbounded upper)",
            f"{lifted} certified, {failed} lift retries exhausted (reported)")


# --------------------------------------------------------------------------
# Criterion 4: heuristic properties on every instance family above


def _check_im_properties(net, exact_value, mf_value):
    im = multi_start_im(net)
    for run in im.runs.values():
        values = [v for _, v in run.trace.steps]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-9
        assert run.trace.iterations <= 1000
    mpf = solve_mpf(net, midpoint_susceptances(net)).value
    assert mpf <= im.value + TOL
    assert im.value <= exact_value + TOL
    assert exact_value <= mf_value + TOL
    assert validate_solution(net, im.solution, TOL).ok


def test_criterion_4_im_properties(small_net_results, tree_results,
                                   meshed_results, unbounded_results):
    count = 0
    for net, _oracle, exact in small_net_results:
        _check_im_properties(net, exact.objective, max_flow(net).value)
        count += 1
    for net, mf_value, lift, exact in tree_results[:60]:
        _check_im_properties(net, exact.objective, mf_value)
        count += 1
    for net, mf_value, lift, exact in meshed_results[:60]:
        _check_im_properties(net, exact.objective, mf_value)
        count += 1
    for net, mf_value, lift, exact in unbounded_results[:40]:
        if lift is None:
            continue
        _check_im_properties(net, exact.objective, mf_value)
        count += 1
    _report("criterion 4",
            f"{count} instances: monotone traces, bounded rounds, sandwich")


# --------------------------------------------------------------------------
# Criterion 5: large published case (environment permitting)


def test_criterion_5_polish_case_reproduction():
    path = os.environ.get(
        "FACTSFLOW_POLISH_CASE",
        os.path.join(os.path.dirname(__file__), "..", "data", "case2736sp.m"),
    )
    if not os.path.exists(path):
        pytest.skip(
            "criterion 5 BLOCKED: the 2736-bus Polish case file is not "
            "available in this environment (no network access; set "
            "FACTSFLOW_POLISH_CASE to run). The conversion, congestion and "
            "scenario code paths it exercises are covered on bundled toy "
            "cases in test_caseio/test_cli."
        )
    from factsflow import caseio

    with open(path, "r", encoding="utf-8") as fh:
        raw = caseio.parse_case(fh.read())
    net = caseio.to_network(raw)

    start = time.monotonic()
    low = caseio.apply_congestion_factors(net, 1.5, 1.5)
    value_a = solve_mpf(low, midpoint_susceptances(low)).value
    high = caseio.apply_congestion_factors(net, 2.375, 2.75)
    value_b = solve_mpf(high, midpoint_susceptances(high)).value
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    assert value_a == pytest.approx(270.56, rel=0.01)
    assert value_b == pytest.approx(419.19, rel=0.01)
    _report("criterion 5", f"values {value_a:.2f}/{value_b:.2f} in {elapsed:.0f}s")


# --------------------------------------------------------------------------
# Criterion 6: gadget suite


def test_criterion_6_gadget_verification_and_reduction():
    built = build_choice_network(1)
    unit = verify_choice(built.net, built.port, 1, expected=built.expected_inner_opt)
    assert unit.passed, unit.messages
    assert unit.optimal_emissions == [0.0, 1.0]

    scaled = build_choice_network(3)
    outcome = verify_choice(scaled.net, scaled.port, 3,
                            expected=scaled.expected_inner_opt)
    assert outcome.passed, outcome.messages
    assert outcome.optimal_emissions == [0.0, 3.0]

    control = degenerate_choice_network(1)
    assert not verify_choice(control.net, control.port, 1).passed

    # Exact rational targets.
    inst_small = ExactCoverInstance.from_lists(["a", "b", "c"], [["a", "b", "c"]])
    inst_bad = ExactCoverInstance.from_lists(["a", "b", "c", "d"], [["a", "b", "c"]])
    family = [
        inst_small,
        inst_bad,
        ExactCoverInstance.from_lists([], []),
        ExactCoverInstance.from_lists(list("abcdef"), [list("abc"), list("def")]),
        ExactCoverInstance.from_lists(list("abcdef"), [list("abc"), list("cde")]),
        ExactCoverInstance.from_lists(list("abcdef"),
                                      [list("abc"), list("bcd"), list("def")]),
        ExactCoverInstance.from_lists(list("abcde"), [list("abc"), list("cde")]),
    ]
    agreements = 0
    for inst in family:
        expected_target = (Fraction(3) + Fraction(183, 10) * len(inst.sets)
                           + len(inst.ground))
        check = check_reduction(inst)
        assert check.target == expected_target
        assert check.status == "ok"
        assert check.reaches_target == exact_cover_brute_force(inst), inst
        agreements += 1
    assert check_reduction(inst_small).reaches_target is True
    assert check_reduction(inst_bad).reaches_target is False
    _report("criterion 6",
            f"builder certified at scales 1 and 3; {agreements} reduction "
            f"decisions agree with brute force")


# --------------------------------------------------------------------------
# Criterion 7: validator completeness under mutation


def test_criterion_7_validator_mutations():
    tri = tri_network(facts=False)
    tri_f = tri_network(facts=True)
    base = solve_mpf(tri, {ln.key: 1.0 for ln in tri.lines})
    assert validate_solution(tri, base, TOL).ok

    flagged = 0

    # conservation: one flow nudged
    flow = dict(base.injections.flow)
    flow[("g", "b")] += 0.1
    mutant = LdcSolution(base.susceptance, base.theta,
                         InjectionSolution(flow, base.injections.gen,
                                           base.injections.load))
    assert not validate_solution(tri, mutant, TOL).ok
    flagged += 1

    # power law: one angle nudged
    theta = dict(base.theta)
    theta["b"] += 0.1
    mutant = LdcSolution(base.susceptance, theta, base.injections)
    assert not validate_solution(tri, mutant, TOL).ok
    flagged += 1

    # susceptance interval: rest-point value pushed outside
    zero = LdcSolution(
        susceptance={ln.key: ln.s_min for ln in tri_f.lines},
        theta={b.id: 0.0 for b in tri_f.buses},
        injections=InjectionSolution({}, {}, {}),
    )
    sus = dict(zero.susceptance)
    sus[("g", "l")] = 2.0
    mutant = LdcSolution(sus, zero.theta, zero.injections)
    assert not validate_solution(tri_f, mutant, TOL).ok
    flagged += 1

    # capacity: the whole point scaled past the weakest line
    scale = 1.5
    mutant = LdcSolution(
        dict(base.susceptance),
        {b: v * scale for b, v in base.theta.items()},
        InjectionSolution(
            {k: v * scale for k, v in base.injections.flow.items()},
            {k: v * scale for k, v in base.injections.gen.items()},
            {k: v * scale for k, v in base.injections.load.items()},
        ),
    )
    assert not validate_solution(tri, mutant, TOL).ok
    flagged += 1

    _report("criterion 7", f"{flagged}/4 independent condition mutations flagged")
