"""Domain types, network validation and solution validation."""

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
    validate_network,
    validate_solution,
)
from factsflow.caseio import deserialize_solution, serialize_solution
from factsflow.formulations import solve_mpf
from factsflow.mip import solve_mff

from conftest import tri_network


class TestValidateNetwork:
    def test_tri_fixture_is_valid(self, tri):
        assert validate_network(tri).ok

    def test_duplicate_pair(self):
        with pytest.raises(InputError, match="line.duplicate_pair"):
            Network(
                buses=(Bus("a", BusKind.GENERATOR), Bus("b", BusKind.LOAD)),
                lines=(Line("a", "b", 1, 1, 1.0), Line("b", "a", 1, 2, 2.0)),
            )

    def test_inverted_interval(self):
        with pytest.raises(InputError, match="line.bad_interval"):
            Network(
                buses=(Bus("a", BusKind.GENERATOR), Bus("b", BusKind.LOAD)),
                lines=(Line("a", "b", 2.0, 1.0, 1.0),),
            )

    def test_dangling_endpoint(self):
        with pytest.raises(InputError, match="line.dangling_endpoint"):
            Network(
                buses=(Bus("a", BusKind.GENERATOR),),
                lines=(Line("a", "ghost", 1, 1, 1.0),),
            )

    def test_negative_capacity(self):
        with pytest.raises(InputError, match="line.negative_capacity"):
            Network(
                buses=(Bus("a", BusKind.GENERATOR), Bus("b", BusKind.LOAD)),
                lines=(Line("a", "b", 1, 1, -2.0),),
            )

    def test_nan_capacity(self):
        with pytest.raises(InputError, match="line.bad_capacity"):
            Network(
                buses=(Bus("a", BusKind.GENERATOR), Bus("b", BusKind.LOAD)),
                lines=(Line("a", "b", 1, 1, math.nan),),
            )

    def test_zero_capacity_is_warning_only(self):
        net = Network(
            buses=(Bus("a", BusKind.GENERATOR), Bus("b", BusKind.LOAD)),
            lines=(Line("a", "b", 1, 1, 0.0),),
        )
        report = validate_network(net)
        assert report.ok
        assert "line.zero_capacity" in [v.code for v in report.warnings]

    def test_self_loop(self):
        with pytest.raises(InputError, match="line.self_loop"):
            Network(buses=(Bus("a"),), lines=(Line("a", "a", 1, 1, 1.0),))


class TestCheckKirchhoff:
    def test_balanced_single_line(self, single_line):
        inj = InjectionSolution(flow={("g", "l"): 5.0}, gen={"g": 5.0}, load={"l": 5.0})
        assert check_kirchhoff(single_line, inj)

    def test_unbalanced_single_line(self, single_line):
        inj = InjectionSolution(flow={("g", "l"): 5.0}, gen={"g": 4.0}, load={"l": 5.0})
        assert not check_kirchhoff(single_line, inj)

    def test_mpf_solution_balances(self, tri):
        result = solve_mpf(tri, {ln.key: 1.0 for ln in tri.lines})
        assert check_kirchhoff(tri, result.injections)

    def test_unknown_bus_rejected(self, single_line):
        inj = InjectionSolution(flow={}, gen={"nope": 1.0}, load={})
        with pytest.raises(InputError):
            check_kirchhoff(single_line, inj)

    def test_unknown_line_rejected(self, single_line):
        inj = InjectionSolution(flow={("l", "g"): 1.0}, gen={}, load={})
        with pytest.raises(InputError):
            check_kirchhoff(single_line, inj)


@pytest.mark.parametrize("extra, name", [
    ({"susceptance": {("x", "y"): 1.0}}, "('x', 'y')"),
    ({"theta": {"zz": 0.0}}, "'zz'"),
])
def test_unknown_reference_is_rejected(single_line, extra, name):
    """A susceptance of a line, or an angle of a bus, that the network lacks
    is rejected, not skipped."""
    sol = LdcSolution(
        susceptance={("g", "l"): 1.0, **extra.get("susceptance", {})},
        theta={"g": 0.0, "l": 5.0, **extra.get("theta", {})},
        injections=InjectionSolution(flow={("g", "l"): 5.0}, gen={"g": 5.0}, load={"l": 5.0}),
    )
    report = validate_solution(single_line, sol)
    assert report.codes() == ["solution.bad_reference"]
    assert name in str(report)


class TestCheckPowerLaw:
    def _sol(self, net, s, dtheta, f):
        return LdcSolution(
            susceptance={("g", "l"): s},
            theta={"g": 0.0, "l": dtheta},
            injections=InjectionSolution(flow={("g", "l"): f}, gen={"g": f}, load={"l": f}),
        )

    def test_consistent(self, single_line):
        report = validate_solution(single_line, self._sol(single_line, 2.0, 3.0, 6.0))
        assert "solution.power_law" not in report.codes()

    def test_inconsistent(self, single_line):
        report = validate_solution(single_line, self._sol(single_line, 2.0, 3.0, 5.0))
        assert "solution.power_law" in report.codes()


class TestNanFails:
    """A NaN compares false with everything, so a check written as
    ``violation > tol`` would pass it."""

    @staticmethod
    def _nan_angles():
        return LdcSolution(
            susceptance={("g", "l"): 1.0},
            theta={"g": math.nan, "l": math.nan},
            injections=InjectionSolution(flow={("g", "l"): 5.0}, gen={"g": 5.0}, load={"l": 5.0}),
        )

    def test_nan_angles_break_the_power_law(self, single_line):
        sol = self._nan_angles()
        assert validate_solution(single_line, sol).codes() == ["solution.power_law"]
        again = deserialize_solution(serialize_solution(sol))
        assert math.isnan(again.theta["g"])
        assert validate_solution(single_line, again).codes() == ["solution.power_law"]

    def test_nan_flow_breaks_the_capacity(self):
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD)),
            lines=(Line("g", "l", 1.0, 1.0, math.inf),),
        )
        sol = LdcSolution(
            susceptance={("g", "l"): 1.0},
            theta={"g": 0.0, "l": 0.0},
            injections=InjectionSolution(flow={("g", "l"): math.nan}, gen={}, load={}),
        )
        assert "solution.capacity" in validate_solution(net, sol).codes()

    def test_nan_warm_start_refused(self, single_line):
        with pytest.raises(InputError, match="warm start"):
            solve_mff(single_line, warm_start=self._nan_angles())


class TestValidateSolution:
    def test_all_zero_is_valid(self, tri_f):
        sol = LdcSolution(
            susceptance={ln.key: ln.s_min for ln in tri_f.lines},
            theta={b.id: 0.0 for b in tri_f.buses},
            injections=InjectionSolution(flow={}, gen={}, load={}),
        )
        assert validate_solution(tri_f, sol).ok

    def test_capacity_violation_detected(self, tri):
        result = solve_mpf(tri, {ln.key: 1.0 for ln in tri.lines})
        tight = Network(
            buses=tri.buses,
            lines=tuple(
                Line(ln.a, ln.b, ln.s_min, ln.s_max,
                     ln.capacity if ln.key != ("g", "l") else 1.0)
                for ln in tri.lines
            ),
        )
        report = validate_solution(tight, result)
        assert "solution.capacity" in report.codes()

    def test_gen_typing_enforced(self, single_line):
        sol = LdcSolution(
            susceptance={("g", "l"): 1.0},
            theta={"g": 0.0, "l": 1.0},
            injections=InjectionSolution(
                flow={("g", "l"): 1.0}, gen={"g": 1.0}, load={"g": 0.0, "l": 1.0},
            ),
        )
        report = validate_solution(single_line, sol)
        assert report.ok  # zero load entry on a generator bus is fine
        bad = LdcSolution(
            susceptance={("g", "l"): 1.0},
            theta={"g": 0.0, "l": 1.0},
            injections=InjectionSolution(
                flow={("g", "l"): 1.0}, gen={"g": 1.0, "l": 0.5}, load={"l": 1.5},
            ),
        )
        assert "solution.gen_typing" in validate_solution(single_line, bad).codes()


class TestObjectiveConsistency:
    def test_generation_matches_load_when_balanced(self):
        for seed in range(10):
            from conftest import random_small_net
            from factsflow.formulations import midpoint_susceptances

            net = random_small_net(seed)
            result = solve_mpf(net, midpoint_susceptances(net))
            inj = result.injections
            assert check_kirchhoff(net, inj)
            total_gen = sum(inj.gen.values())
            total_load = sum(inj.load.values())
            assert abs(total_gen - total_load) <= 1e-6 * len(net.buses)


class TestMutationSuite:
    """Each feasibility condition, perturbed independently, must be flagged."""

    def _base_solution(self, tri):
        return solve_mpf(tri, {ln.key: 1.0 for ln in tri.lines})

    def test_flow_conservation_mutation(self, tri):
        sol = self._base_solution(tri)
        flow = dict(sol.injections.flow)
        flow[("g", "b")] += 0.1
        mutant = LdcSolution(
            susceptance=dict(sol.susceptance),
            theta=dict(sol.theta),
            injections=InjectionSolution(flow=flow, gen=dict(sol.injections.gen),
                                         load=dict(sol.injections.load)),
        )
        assert "solution.kirchhoff" in validate_solution(tri, mutant).codes()

    def test_power_law_mutation(self, tri):
        sol = self._base_solution(tri)
        theta = dict(sol.theta)
        theta["b"] += 0.1
        mutant = LdcSolution(
            susceptance=dict(sol.susceptance),
            theta=theta,
            injections=sol.injections,
        )
        assert "solution.power_law" in validate_solution(tri, mutant).codes()

    def test_susceptance_range_mutation(self, tri_f):
        zero = LdcSolution(
            susceptance={ln.key: ln.s_min for ln in tri_f.lines},
            theta={b.id: 0.0 for b in tri_f.buses},
            injections=InjectionSolution(flow={}, gen={}, load={}),
        )
        sus = dict(zero.susceptance)
        sus[("g", "l")] = 2.0  # outside [1, 1.25]; flows stay zero
        mutant = LdcSolution(susceptance=sus, theta=dict(zero.theta),
                             injections=zero.injections)
        report = validate_solution(tri_f, mutant)
        assert "solution.susceptance_range" in report.codes()

    def test_capacity_mutation(self, tri):
        sol = self._base_solution(tri)
        scale = 1.5
        mutant = LdcSolution(
            susceptance=dict(sol.susceptance),
            theta={b: v * scale for b, v in sol.theta.items()},
            injections=InjectionSolution(
                flow={k: v * scale for k, v in sol.injections.flow.items()},
                gen={k: v * scale for k, v in sol.injections.gen.items()},
                load={k: v * scale for k, v in sol.injections.load.items()},
            ),
        )
        assert "solution.capacity" in validate_solution(tri, mutant).codes()


def test_components_and_tree_detection():
    net = tri_network()
    assert net.components() == [["b", "g", "l"]]
    assert not net.is_tree()
    star = Network(
        buses=(Bus("c", BusKind.GENERATOR), Bus("x", BusKind.LOAD), Bus("y", BusKind.LOAD)),
        lines=(Line("c", "x", 1, 1, 1.0), Line("c", "y", 1, 1, 1.0)),
    )
    assert star.is_tree()
    island = Network(buses=(Bus("a"), Bus("b")), lines=())
    assert len(island.components()) == 2
    assert island.is_tree()


def test_infinite_s_max_is_the_sentinel():
    ln = Line("a", "b", 1.0, math.inf, 2.0)
    assert math.isinf(ln.s_max)
    assert ln.is_facts
