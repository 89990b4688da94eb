"""Fixed-susceptance and fixed-direction programs plus direction utilities."""

import math

import pytest

from factsflow.model import (
    Bus,
    BusKind,
    InputError,
    Line,
    Network,
    validate_solution,
)
from factsflow.formulations import (
    directed_susceptance,
    extract_signs,
    midpoint_susceptances,
    solve_mpf,
    solve_mvf,
)
from factsflow.maxflow import max_flow
from factsflow.mip import enumerate_signs_oracle

from conftest import random_small_net


class TestSolveMpf:
    def test_single_line_hits_capacity(self, single_line):
        result = solve_mpf(single_line, {("g", "l"): 1.0})
        assert result.value == pytest.approx(5.0, abs=1e-9)

    def test_tri_at_unit_susceptance(self, tri):
        result = solve_mpf(tri, {ln.key: 1.0 for ln in tri.lines})
        assert result.value == pytest.approx(12.0, abs=1e-6)
        assert validate_solution(tri, result).ok

    def test_zero_capacities_zero_value(self):
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD)),
            lines=(Line("g", "l", 1.0, 1.0, 0.0),),
        )
        assert solve_mpf(net).value == pytest.approx(0.0, abs=1e-9)

    def test_disconnected_generator_is_fine(self):
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD), Bus("j")),
            lines=(Line("j", "l", 1.0, 1.0, 3.0),),
        )
        assert solve_mpf(net).value == pytest.approx(0.0, abs=1e-9)

    def test_out_of_interval_susceptance_rejected(self, tri_f):
        with pytest.raises(InputError):
            solve_mpf(tri_f, {("g", "l"): 2.0})


class TestSolveMvf:
    def test_single_line_positive_direction(self, single_line):
        result = solve_mvf(single_line, {("g", "l"): 1})
        assert result.value == pytest.approx(5.0, abs=1e-9)

    def test_tri_f_direction_from_mpf(self, tri, tri_f):
        base = solve_mpf(tri, {ln.key: 1.0 for ln in tri.lines})
        pattern = extract_signs(tri_f, base.theta)
        result = solve_mvf(tri_f, pattern)
        assert result.value == pytest.approx(14.0, abs=1e-6)
        assert validate_solution(tri_f, result).ok

    def test_conflicting_directions_force_zero(self):
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("a"), Bus("l", BusKind.LOAD)),
            lines=(Line("g", "a", 1, 1, 5.0), Line("a", "l", 1, 1, 5.0)),
        )
        result = solve_mvf(net, {("g", "a"): 1, ("a", "l"): 0})
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_missing_bit_on_facts_line_rejected(self, tri_f):
        with pytest.raises(InputError):
            solve_mvf(tri_f, {("g", "b"): 1, ("b", "l"): 1})

    def test_fixed_lines_may_omit_bits(self, tri_f):
        result = solve_mvf(tri_f, {("g", "l"): 1})
        assert result.value == pytest.approx(14.0, abs=1e-6)

    def test_infeasible_pin_reports_none(self, single_line):
        assert solve_mvf(single_line, {("g", "l"): 1},
                         pinned_flows={("g", "l"): 99.0}) is None


class TestExtractSigns:
    def test_positive_negative_and_tie(self, tri):
        theta = {"g": 0.0, "b": 0.5, "l": -0.5}
        bits = extract_signs(tri, theta)
        assert bits[("g", "b")] == 1
        assert bits[("g", "l")] == 0
        tie = extract_signs(tri, {"g": 0.0, "b": 0.0, "l": 0.0})
        assert all(bit == 1 for bit in tie.values())


class TestRecoverSusceptances:
    """Susceptances read off an angle part and a flow by ``directed_susceptance``."""

    def _line(self, lo, hi):
        return Line("a", "b", lo, hi, 100.0)

    def test_plain_ratio(self):
        assert directed_susceptance(self._line(1.0, 3.0), 3.0, 6.0) == pytest.approx(2.0)
        # the ratio comes off a solved program's own rows, so it is clamped
        assert directed_susceptance(self._line(1.0, 2.0), 1.0, 5.0) == 2.0

    def test_rest_uses_shrunk_midpoint(self):
        assert directed_susceptance(self._line(1.0, 2.0), 0.0, 0.0) == pytest.approx(1.5)
        # midpoint of [1, 3]
        assert directed_susceptance(self._line(1.0, 10.0), 0.0, 0.0) == pytest.approx(2.0)
        # midpoint of [1, 2]
        assert directed_susceptance(self._line(1.0, math.inf), 0.0, 0.0) == pytest.approx(1.5)

    def test_flow_across_vanishing_angle_has_no_susceptance(self):
        assert directed_susceptance(self._line(1.0, 3.0), 1e-13, 5.0) is None


class TestDominanceProperties:
    def test_mvf_dominates_mpf_and_back(self):
        for seed in range(40):
            net = random_small_net(seed)
            mid = midpoint_susceptances(net)
            mpf = solve_mpf(net, mid)
            pattern = extract_signs(net, mpf.theta)
            mvf = solve_mvf(net, pattern)
            assert mvf.value >= mpf.value - 1e-6
            back = solve_mpf(net, mvf.susceptance)
            assert back.value >= mvf.value - 1e-6
            assert validate_solution(net, mpf).ok
            assert validate_solution(net, mvf).ok

    def test_mvf_bounded_by_exact_and_max_flow(self):
        for seed in range(20):
            net = random_small_net(seed, max_lines=6)
            oracle = enumerate_signs_oracle(net)
            mf = max_flow(net)
            mid = midpoint_susceptances(net)
            mpf = solve_mpf(net, mid)
            pattern = extract_signs(net, mpf.theta)
            mvf = solve_mvf(net, pattern)
            assert mvf.value <= oracle.value + 1e-6
            assert oracle.value <= mf.value + 1e-6
