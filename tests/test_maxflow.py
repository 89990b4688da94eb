"""Maximum flow, cycle cancellation and the constructive lifts."""

import math

import pytest

from factsflow.model import (
    Bus,
    BusKind,
    InjectionSolution,
    InputError,
    LdcSolution,
    Line,
    Network,
    check_kirchhoff,
    validate_solution,
)
from factsflow.maxflow import (
    LiftInfeasible,
    cancel_cycles,
    lift_flow_to_ldc,
    max_flow,
    mff_via_lemma,
)
from factsflow.mip import MffConfig, solve_mff

from conftest import (
    random_meshed_zero_lower,
    random_tree,
    random_unbounded_upper,
    tri_network,
)


def free_tri(s_lo=0.0, s_hi=math.inf):
    return Network(
        buses=(Bus("g", BusKind.GENERATOR), Bus("b"), Bus("l", BusKind.LOAD)),
        lines=(
            Line("g", "l", s_lo, s_hi, 10.0),
            Line("g", "b", s_lo, s_hi, 10.0),
            Line("b", "l", s_lo, s_hi, 4.0),
        ),
    )


class TestMaxFlow:
    def test_single_line(self, single_line):
        assert max_flow(single_line).value == pytest.approx(5.0)

    def test_tri_saturates_both_paths(self, tri):
        mf = max_flow(tri)
        assert mf.value == pytest.approx(14.0)
        assert check_kirchhoff(tri, mf.injections)

    def test_disconnected_generator(self):
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD)),
            lines=(),
        )
        assert max_flow(net).value == 0.0

    def test_infinite_capacity_path_is_an_input_error(self):
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD)),
            lines=(Line("g", "l", 1.0, 1.0, math.inf),),
        )
        with pytest.raises(InputError, match="infinite-capacity path"):
            max_flow(net)

    def test_returned_flow_is_acyclic(self):
        for seed in range(20):
            net = random_meshed_zero_lower(seed, max_buses=12)
            mf = max_flow(net)
            again = cancel_cycles(net, mf.injections)
            assert again.flow == mf.injections.flow


class TestCancelCycles:
    def test_acyclic_input_unchanged(self, tri):
        mf = max_flow(tri)
        out = cancel_cycles(tri, mf.injections)
        assert out.flow == mf.injections.flow

    def test_pure_circulation_vanishes(self):
        net = Network(
            buses=(Bus("a"), Bus("b"), Bus("c")),
            lines=(Line("a", "b", 1, 1, 5.0), Line("b", "c", 1, 1, 5.0),
                   Line("c", "a", 1, 1, 5.0)),
        )
        inj = InjectionSolution(
            flow={("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "a"): 1.0},
            gen={}, load={},
        )
        out = cancel_cycles(net, inj)
        assert all(v == 0.0 for v in out.flow.values())

    def test_cycle_off_the_search_root(self):
        # The search enters at a, so the cycle b-c-d closes below its root.
        net = Network(
            buses=(Bus("a"), Bus("b"), Bus("c"), Bus("d")),
            lines=(Line("a", "b", 1, 1, 5.0), Line("b", "c", 1, 1, 5.0),
                   Line("c", "d", 1, 1, 5.0), Line("d", "b", 1, 1, 5.0)),
        )
        inj = InjectionSolution(
            flow={("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "d"): 3.0, ("d", "b"): 2.0},
            gen={}, load={},
        )
        out = cancel_cycles(net, inj)
        assert out.flow == {("a", "b"): 1.0, ("b", "c"): 0.0, ("c", "d"): 1.0, ("d", "b"): 0.0}

    def test_superimposed_circulation_cancels(self, tri):
        # Push a circulation big enough to reverse the direct line; the
        # cancellation must restore an acyclic flow with the same
        # injections and no larger magnitudes.
        mf = max_flow(tri)
        pert = dict(mf.injections.flow)
        t = 11.0
        pert[("g", "b")] += t
        pert[("b", "l")] += t
        pert[("g", "l")] -= t
        inj = InjectionSolution(flow=pert, gen=dict(mf.injections.gen),
                                load=dict(mf.injections.load))
        assert check_kirchhoff(tri, inj)
        out = cancel_cycles(tri, inj)
        assert check_kirchhoff(tri, out)
        for key in pert:
            assert abs(out.flow[key]) <= abs(pert[key]) + 1e-12
        assert out.flow == cancel_cycles(tri, out).flow  # acyclic fixpoint


class TestLift:
    def test_any_tree_flow_lifts(self):
        for seed in range(25):
            net = random_tree(seed, max_buses=15)
            mf = max_flow(net)
            sol = lift_flow_to_ldc(net, mf.injections)
            assert validate_solution(net, sol).ok
            assert "solution.power_law" not in validate_solution(net, sol, 1e-7).codes()

    def test_free_intervals_lift_the_max_flow(self, tri):
        mf = max_flow(tri)
        net = free_tri()
        sol = lift_flow_to_ldc(net, mf.injections)
        assert validate_solution(net, sol).ok
        assert sol.value == pytest.approx(14.0)

    def test_fixed_susceptance_flow_is_not_liftable(self, tri):
        mf = max_flow(tri)  # 14 is unreachable at s == 1 (optimum is 12)
        with pytest.raises(LiftInfeasible):
            lift_flow_to_ldc(tri, mf.injections)


class TestMffViaLemma:
    def test_star_tree(self):
        star = Network(
            buses=(Bus("c", BusKind.GENERATOR), Bus("x", BusKind.LOAD),
                   Bus("y", BusKind.LOAD), Bus("z", BusKind.LOAD)),
            lines=(Line("c", "x", 1, 1, 1.0), Line("c", "y", 1, 1, 1.0),
                   Line("c", "z", 1, 1, 1.0)),
        )
        lift = mff_via_lemma(star)
        assert lift.kind == "tree"
        assert lift.value == pytest.approx(3.0)
        assert validate_solution(star, lift.solution).ok

    def test_zero_lower_tri(self):
        net = free_tri(0.0, 1.0)
        lift = mff_via_lemma(net)
        assert lift.kind == "zero_lower"
        assert lift.value == pytest.approx(14.0)
        assert validate_solution(net, lift.solution).ok

    def test_mixed_intervals_not_applicable(self):
        net = tri_network(facts=True)
        assert mff_via_lemma(net) is None

    def test_value_matches_exact_solver_on_trees(self):
        for seed in range(30):
            net = random_tree(seed, max_buses=14)
            lift = mff_via_lemma(net)
            exact = solve_mff(net, MffConfig(gap_tol=1e-9),
                              warm_start=lift.solution)
            assert abs(lift.value - exact.objective) <= 1e-6


def scaled_lift_zero_lower(net: Network, inj: InjectionSolution) -> LdcSolution:
    """The explicit scaling construction for all-intervals-``[0, t]`` networks.

    Preliminary angles respect the flow directions (topological ranks of the
    acyclic flow graph), preliminary susceptances follow from the power law,
    and one global scale factor pushes every susceptance under its upper
    limit while angles stretch by the inverse factor.  Lines at rest simply
    take susceptance zero (legal, since every interval starts at zero) with
    their angle difference unconstrained; this sidesteps the equal-angle
    requirement that can clash with the ordering around cycles.  Kept as an
    independent cross-check of ``lift_flow_to_ldc``.
    """
    if not all(ln.s_min == 0.0 for ln in net.lines):
        raise ValueError("construction applies only when every s_min is zero")

    tol = 1e-12
    arcs: dict[str, set[str]] = {b.id: set() for b in net.buses}
    indeg = {b.id: 0 for b in net.buses}
    for ln in net.lines:
        f = float(inj.flow.get(ln.key, 0.0))
        if abs(f) <= tol:
            continue
        lo, hi = (ln.a, ln.b) if f > 0 else (ln.b, ln.a)
        if hi not in arcs[lo]:
            arcs[lo].add(hi)
            indeg[hi] += 1

    order = [b for b in sorted(indeg) if indeg[b] == 0]
    pos = 0
    while pos < len(order):
        cur = order[pos]
        pos += 1
        for nxt in sorted(arcs[cur]):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                order.append(nxt)
    if len(order) != len(net.buses):
        raise LiftInfeasible("flow graph is cyclic; cancel cycles first")

    rank = {b: float(i + 1) for i, b in enumerate(order)}
    changed = True
    while changed:  # ensure every arc strictly increases the rank
        changed = False
        for cur in order:
            for nxt in arcs[cur]:
                if rank[nxt] <= rank[cur]:
                    rank[nxt] = rank[cur] + 1.0
                    changed = True

    s_pre: dict[tuple[str, str], float] = {}
    scale = math.inf
    for ln in net.lines:
        f = float(inj.flow.get(ln.key, 0.0))
        if abs(f) <= tol:
            s_pre[ln.key] = 0.0
            continue
        d = rank[ln.b] - rank[ln.a]
        s_pre[ln.key] = f / d
        if not math.isinf(ln.s_max):
            scale = min(scale, ln.s_max / s_pre[ln.key])
    if math.isinf(scale):
        scale = 1.0

    suscept = {k: scale * v for k, v in s_pre.items()}
    theta = {b.id: rank[b.id] / scale for b in net.buses}
    return LdcSolution(susceptance=suscept, theta=theta, injections=inj)


class TestScalingConstruction:
    def test_matches_the_general_lift(self):
        for seed in range(30):
            net = random_meshed_zero_lower(seed, max_buses=15)
            mf = max_flow(net)
            sol = scaled_lift_zero_lower(net, mf.injections)
            # power law exact, susceptances within [0, t], as constructed
            assert "solution.power_law" not in validate_solution(net, sol, 1e-9).codes()
            for ln in net.lines:
                s = sol.susceptance[ln.key]
                assert -1e-12 <= s <= ln.s_max + 1e-9
            assert validate_solution(net, sol).ok

    def test_rejects_other_interval_shapes(self, tri):
        mf = max_flow(tri)
        with pytest.raises(ValueError):
            scaled_lift_zero_lower(tri, mf.injections)


def test_value_ordering_max_flow_dominates():
    from conftest import random_small_net
    from gadget_checks import enumerate_signs_oracle

    for seed in range(25):
        net = random_small_net(seed, max_lines=6)
        mf = max_flow(net)
        exact = enumerate_signs_oracle(net)
        assert exact.value <= mf.value + 1e-6
