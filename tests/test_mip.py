"""The exact solver: cone-sum relaxation, branch and bound, enumeration reference."""

import math

import pytest

from factsflow.model import Bus, BusKind, InputError, Line, Network, validate_solution
from factsflow.linprog import LpError, LpResult, solve_lp
from factsflow.mip import MffConfig, enumerate_signs_oracle, solve_mff
from factsflow.maxflow import max_flow
from factsflow.formulations import build_mff_relaxation, solve_mpf, midpoint_susceptances

from conftest import (
    random_partly_unbounded,
    random_small_net,
    random_unbounded_upper,
    tri_network,
)


class TestMffRelaxation:
    def test_single_fixed_line_relaxation_reaches_capacity(self, single_line):
        builder, _ = build_mff_relaxation(single_line)
        res = solve_lp(builder.lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(5.0)

    def test_degenerate_intervals_pinch_to_fixed_optimum(self, tri):
        builder, _ = build_mff_relaxation(tri)
        res = solve_lp(builder.lp)
        fixed = solve_mpf(tri, {ln.key: 1.0 for ln in tri.lines})
        assert res.objective == pytest.approx(fixed.value, abs=1e-6)
        assert res.objective == pytest.approx(12.0, abs=1e-6)

    def test_direction_parts_only_on_controllable_lines(self, tri_f):
        builder, parts = build_mff_relaxation(tri_f)
        assert set(parts) == {ln.key for ln in tri_f.facts_lines()} == {("g", "l")}
        for name in builder.lp.names:
            if name.startswith(("dplus", "dminus", "fplus", "fminus")):
                assert name.endswith("[g-l]")

    def test_no_variable_is_a_bit(self, tri_f):
        builder, _ = build_mff_relaxation(tri_f)
        lp = builder.lp
        assert all((lo, hi) != (0.0, 1.0) for lo, hi in zip(lp.lb, lp.ub))
        assert not any(name.startswith("d[") for name in lp.names)


class TestSolveMff:
    def test_tri_f_reaches_fourteen(self, tri_f):
        res = solve_mff(tri_f, MffConfig(gap_tol=1e-9))
        assert res.objective == pytest.approx(14.0, abs=1e-6)
        assert res.gap <= 1e-6
        assert validate_solution(tri_f, res.solution).ok

    def test_fixed_tri_matches_fixed_optimum(self, tri):
        res = solve_mff(tri, MffConfig(gap_tol=1e-9))
        assert res.objective == pytest.approx(12.0, abs=1e-6)

    def test_trees_match_max_flow(self):
        from conftest import random_tree

        for seed in range(15):
            net = random_tree(seed, max_buses=10)
            res = solve_mff(net, MffConfig(gap_tol=1e-9))
            assert abs(res.objective - max_flow(net).value) <= 1e-6

    def test_warm_start_never_worsens(self, tri_f):
        base = solve_mff(tri_f, MffConfig(gap_tol=1e-9))
        again = solve_mff(tri_f, MffConfig(gap_tol=1e-9), warm_start=base.solution)
        assert again.objective >= base.objective - 1e-9

    def test_malformed_warm_start_rejected(self, tri_f):
        from factsflow.model import InjectionSolution, LdcSolution

        bogus = LdcSolution(
            susceptance={ln.key: ln.s_min for ln in tri_f.lines},
            theta={b.id: 0.0 for b in tri_f.buses},
            injections=InjectionSolution(
                flow={("g", "l"): 3.0}, gen={"g": 3.0}, load={"l": 3.0},
            ),
        )
        with pytest.raises(InputError):
            solve_mff(tri_f, warm_start=bogus)

    def test_zero_limits_rejected(self, tri_f):
        with pytest.raises(InputError):
            solve_mff(tri_f, MffConfig(time_limit=0))
        with pytest.raises(InputError):
            solve_mff(tri_f, MffConfig(node_limit=0))

    def test_node_limit_terminates_and_reports(self, tri_f):
        res = solve_mff(tri_f, MffConfig(gap_tol=0.0, node_limit=1))
        assert res.termination in ("node_limit", "optimal", "gap_reached")
        assert res.objective <= res.upper_bound + 1e-9

    def test_node_limit_stops_short_with_a_valid_bound(self):
        net = random_small_net(25)  # a cold solve takes 13 nodes
        res = solve_mff(net, MffConfig(gap_tol=1e-9, node_limit=1))
        assert (res.termination, res.node_count) == ("node_limit", 1)
        assert validate_solution(net, res.solution).ok
        assert res.upper_bound >= enumerate_signs_oracle(net).value - 1e-9
        assert res.upper_bound == pytest.approx(10.25, abs=1e-9)

    def test_time_limit_before_the_root_leaves_no_bound(self):
        net = random_small_net(25)
        res = solve_mff(net, MffConfig(gap_tol=1e-9, time_limit=1e-9))
        assert (res.termination, res.node_count) == ("time_limit", 0)
        assert res.upper_bound == math.inf
        assert res.objective == 0.0
        assert validate_solution(net, res.solution).ok

    def test_failed_node_lp_is_an_error_not_a_prune(self, tri_f, monkeypatch):
        # The all-zero point is feasible at every node, so "infeasible" can
        # only be a numerical failure; pruning on it reported 0 as optimal.
        monkeypatch.setattr("factsflow.mip.solve_lp",
                            lambda lp, **kwargs: LpResult("infeasible", None, None))
        with pytest.raises(LpError):
            solve_mff(tri_f)

    def test_bound_validity_across_instances(self):
        for seed in range(25):
            net = random_small_net(seed, max_lines=6)
            res = solve_mff(net, MffConfig(gap_tol=1e-9))
            assert res.objective <= res.upper_bound + 1e-9
            assert validate_solution(net, res.solution).ok


class TestEnumerateOracle:
    def test_single_controllable_line(self):
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD)),
            lines=(Line("g", "l", 0.5, 2.0, 5.0),),
        )
        best = enumerate_signs_oracle(net)
        assert best.value == pytest.approx(5.0)
        assert validate_solution(net, best).ok

    def test_tri_fixtures(self, tri, tri_f):
        assert enumerate_signs_oracle(tri_f).value == pytest.approx(14.0, abs=1e-6)
        assert enumerate_signs_oracle(tri).value == pytest.approx(12.0, abs=1e-6)

    def test_refuses_oversized_instances(self):
        buses = [Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD)]
        lines = []
        for i in range(18):
            buses.append(Bus(f"j{i}"))
            lines.append(Line("g", f"j{i}", 0.5, 2.0, 1.0))
            lines.append(Line(f"j{i}", "l", 0.5, 2.0, 1.0))
        net = Network(buses=tuple(buses), lines=tuple(lines))
        with pytest.raises(InputError):
            enumerate_signs_oracle(net, max_lines=16)

    def test_agreement_with_branch_and_bound(self):
        for seed in range(60):
            net = random_small_net(seed)
            oracle = enumerate_signs_oracle(net)
            exact = solve_mff(net, MffConfig(gap_tol=1e-9))
            assert abs(oracle.value - exact.objective) <= 1e-6


def _zero_lower_mesh() -> Network:
    """A 7-bus mesh with four ``[0, t]`` lines on which a big-M model once
    pruned the optimum: it reported 20.286282 with that as its bound."""
    g, l, j = BusKind.GENERATOR, BusKind.LOAD, BusKind.JUNCTION
    kinds = (j, g, j, l, l, j, g)
    return Network(
        buses=tuple(Bus(f"m{i}", k) for i, k in enumerate(kinds)),
        lines=(
            Line("m1", "m0", 1.011, 1.011, 3.0),
            Line("m2", "m1", 0.0, 1.051, 3.25),
            Line("m3", "m1", 1.118, 1.118, 2.5),
            Line("m4", "m1", 0.0, 1.019, 8.0),
            Line("m5", "m1", 0.0, 1.976, 7.25),
            Line("m6", "m3", 1.03, 1.03, 6.0),
            Line("m2", "m3", 1.129, 1.129, 0.75),
            Line("m5", "m6", 0.847, 0.847, 6.5),
            Line("m5", "m3", 1.373, 1.373, 6.0),
            Line("m5", "m0", 0.0, 1.494, 1.0),
        ),
    )


class TestColdSolvesMatchOracle:
    """Cold solves (no warm start) against enumeration: the value must match
    and the reported upper bound must not fall below the optimum."""

    @staticmethod
    def _mismatches(nets):
        bad = []
        for label, net in nets:
            try:
                oracle = enumerate_signs_oracle(net, max_lines=9)
            except InputError:
                continue  # too many controllable lines to enumerate quickly
            res = solve_mff(net, MffConfig(gap_tol=1e-9))
            if (abs(res.objective - oracle.value) > 1e-6
                    or res.upper_bound < oracle.value - 1e-6
                    or not validate_solution(net, res.solution).ok):
                bad.append((label, oracle.value, res.objective, res.upper_bound))
        return bad

    def test_unbounded_upper_family(self):
        # A big-M model reported seeds 3, 10, 14, 17, 23 and 26 optimal below
        # the true value; 17 and 26 have nine controllable lines, hence the
        # cap of 9.
        nets = ((seed, random_unbounded_upper(seed, max_buses=9)) for seed in range(30))
        assert self._mismatches(nets) == []

    def test_partly_unbounded_family(self):
        # Seeds 28 and 70 were reported optimal below the true value.
        nets = ((seed, random_partly_unbounded(seed)) for seed in range(100))
        assert self._mismatches(nets) == []

    def test_zero_lower_mesh(self):
        net = _zero_lower_mesh()
        assert enumerate_signs_oracle(net).value == pytest.approx(20.311563, abs=1e-6)
        assert self._mismatches([("mesh", net)]) == []


class TestMonotonicityInRelaxation:
    def test_widening_an_interval_never_hurts(self):
        for seed in range(12):
            net = random_small_net(seed, max_lines=6)
            base = solve_mff(net, MffConfig(gap_tol=1e-9)).objective
            lines = list(net.lines)
            for i, ln in enumerate(lines):
                if math.isinf(ln.s_max):
                    continue
                widened = list(lines)
                widened[i] = Line(ln.a, ln.b, ln.s_min * 0.8, ln.s_max * 1.25,
                                  ln.capacity, kind=ln.kind)
                wider_net = Network(buses=net.buses, lines=tuple(widened))
                wider = solve_mff(wider_net, MffConfig(gap_tol=1e-9)).objective
                assert wider >= base - 1e-6
                break  # one widened line per instance keeps this quick


def test_sandwich_on_tri_variants(tri, tri_f):
    mpf = solve_mpf(tri_f, midpoint_susceptances(tri_f)).value
    mff = solve_mff(tri_f, MffConfig(gap_tol=1e-9)).objective
    mf = max_flow(tri_f).value
    assert mpf <= mff + 1e-6
    assert mff <= mf + 1e-6
