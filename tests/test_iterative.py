"""The alternating heuristic and its three-start variant."""

import numpy as np
import pytest

from factsflow import formulations, iterative, linprog
from factsflow.model import Bus, BusKind, Line, Network, validate_solution
from factsflow.iterative import multi_start_im, solve_im, start_susceptances
from factsflow.mip import MffConfig, solve_mff
from factsflow.maxflow import max_flow

from conftest import (random_meshed_zero_lower, random_partly_unbounded, random_small_net,
                      random_tree, random_unbounded_upper)
from gadget_checks import enumerate_signs_oracle


class TestSolveIm:
    def test_degenerate_intervals_converge_immediately(self, tri):
        res = solve_im(tri, start_susceptances(tri, "lower"))
        assert res.trace.iterations == 1
        assert res.value == pytest.approx(12.0, abs=1e-6)

    def test_tri_f_from_lower_bound_start(self, tri_f):
        res = solve_im(tri_f, start_susceptances(tri_f, "lower"))
        assert res.value == pytest.approx(14.0, abs=1e-6)
        assert res.trace.iterations <= 3
        phases = [p for p, _ in res.trace.steps]
        values = [v for _, v in res.trace.steps]
        assert phases[:2] == ["mpf", "mvf"]
        assert values[0] == pytest.approx(12.0, abs=1e-6)
        assert values[1] == pytest.approx(14.0, abs=1e-6)
        assert validate_solution(tri_f, res.solution).ok
        assert res.trace.converged

    def test_tree_reaches_max_flow_quickly(self):
        for seed in range(10):
            net = random_tree(seed, max_buses=10)
            res = solve_im(net, start_susceptances(net, "mid"))
            assert res.value == pytest.approx(max_flow(net).value, abs=1e-6)
            assert res.trace.iterations <= 2

    def test_interleaved_values_never_decrease(self):
        for seed in range(40):
            net = random_small_net(seed)
            res = solve_im(net, start_susceptances(net, "lower"))
            values = [v for _, v in res.trace.steps]
            for earlier, later in zip(values, values[1:]):
                assert later >= earlier - 1e-9

    def test_termination_within_budget(self):
        for seed in range(40):
            net = random_small_net(seed)
            res = solve_im(net, start_susceptances(net, "upper"))
            assert res.trace.iterations <= 1000
            assert res.trace.converged


class TestMultiStart:
    def test_degenerate_intervals_yield_identical_starts(self, tri):
        res = multi_start_im(tri)
        values = {round(r.value, 9) for r in res.runs.values()}
        assert len(values) == 1

    def test_tri_f_every_start_reaches_optimum(self, tri_f):
        res = multi_start_im(tri_f)
        for which, run in res.runs.items():
            assert run.value == pytest.approx(14.0, abs=1e-6), which
            assert run.trace.iterations <= 3

    def test_best_dominates_each_start(self):
        for seed in range(20):
            net = random_small_net(seed)
            res = multi_start_im(net)
            for run in res.runs.values():
                assert res.value >= run.value - 1e-12

    def test_soundness_against_enumeration(self):
        for seed in range(30):
            net = random_small_net(seed, max_lines=6)
            res = multi_start_im(net)
            oracle = enumerate_signs_oracle(net)
            assert res.value <= oracle.value + 1e-6
            assert validate_solution(net, res.solution).ok


class TestSharedSolves:
    """The three starts share solved programs without changing any run."""

    def test_each_start_equals_its_own_run(self):
        nets = [random_small_net(seed) for seed in range(30)]
        for family in (random_tree, random_meshed_zero_lower, random_unbounded_upper,
                       random_partly_unbounded):
            nets += [family(seed) for seed in range(3)]
        for net in nets:
            res = multi_start_im(net)
            for which, run in res.runs.items():
                alone = solve_im(net, start_susceptances(net, which))
                assert run.value == alone.value, which
                assert run.trace.steps == alone.trace.steps, which
                assert run.trace.iterations == alone.trace.iterations, which
                assert dict(run.solution.susceptance) == dict(alone.solution.susceptance)

    @staticmethod
    def _count_solves(monkeypatch, net):
        """Run ``multi_start_im`` on ``net``; return it, the keys each solve
        got, the MPFs that started without a basis and, per MVF, whether its
        simplex started from its program's spanning tree (from the slack
        basis when the program is too large for one)."""
        keys = {"mpf": [], "mvf": []}
        cold, from_tree, starts = [], [], []

        def mpf(net_, s=None, **kwargs):
            keys["mpf"].append(tuple((s or {}).get(ln.key, ln.s_min) for ln in net_.lines))
            if kwargs.get("basis") is None:
                cold.append("mpf")
            return formulations.solve_mpf(net_, s, **kwargs)

        def mvf(net_, bits):
            keys["mvf"].append(tuple(bits[ln.key] for ln in net_.facts_lines()))
            del starts[:]
            sol = formulations.solve_mvf(net_, bits)
            tree = formulations.build_mff_relaxation(net_).start_basis()
            (start,) = starts
            from_tree.append(start is None if tree is None else (
                start is not None and np.array_equal(start.columns, tree.columns)
                and np.array_equal(start.status, tree.status)))
            return sol

        def lp(lp_, bound_overrides=None, basis=None):
            starts.append(basis)
            return linprog.solve_lp(lp_, bound_overrides, basis)

        monkeypatch.setattr(iterative, "solve_mpf", mpf)
        monkeypatch.setattr(iterative, "solve_mvf", mvf)
        monkeypatch.setattr(formulations, "solve_lp", lp)
        return multi_start_im(net), keys, cold, from_tree

    def test_no_program_is_solved_twice(self, monkeypatch):
        for seed in range(20):
            _, keys, _, _ = self._count_solves(monkeypatch, random_small_net(seed))
            for phase, seen in keys.items():
                assert len(seen) == len(set(seen)), (seed, phase)

    def test_fixed_network_solves_each_program_once(self, monkeypatch, tri):
        res, keys, _, _ = self._count_solves(monkeypatch, tri)
        assert len(res.runs) == 3
        assert (len(keys["mpf"]), len(keys["mvf"])) == (1, 1)

    def test_starts_that_meet_share_their_direction_solve(self, monkeypatch):
        res, keys, _, _ = self._count_solves(monkeypatch, random_small_net(0))
        rounds = sum(run.trace.iterations for run in res.runs.values())
        assert len(keys["mvf"]) < rounds

    @pytest.mark.parametrize("family", [random_small_net, random_tree, random_meshed_zero_lower,
                                        random_unbounded_upper, random_partly_unbounded])
    def test_one_cold_solve_per_anchor(self, monkeypatch, family):
        """Only the MPF anchor, at ``s_min``, starts without a basis, and every
        MVF starts from its program's spanning tree, as the exact search's
        root does."""
        for seed in range(5):
            net = family(seed)
            _, keys, cold, from_tree = self._count_solves(monkeypatch, net)
            assert cold == ["mpf"], (family.__name__, seed)
            assert keys["mpf"][0] == tuple(ln.s_min for ln in net.lines)
            assert len(from_tree) == len(keys["mvf"]) > 0, (family.__name__, seed)
            assert all(from_tree), (family.__name__, seed)


def test_heuristic_warm_starts_the_exact_solver(tri_f):
    im = multi_start_im(tri_f)
    exact = solve_mff(tri_f, MffConfig(gap_tol=1e-9), warm_start=im.solution)
    assert exact.objective >= im.value - 1e-9


def test_unbounded_interval_start_guard():
    import math

    net = Network(
        buses=(Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD)),
        lines=(Line("g", "l", 0.5, math.inf, 3.0),),
    )
    upper = start_susceptances(net, "upper")
    assert upper[("g", "l")] == pytest.approx(1.5)  # s_min + 1
    mid = start_susceptances(net, "mid")
    assert mid[("g", "l")] == pytest.approx(1.0)  # s_min + 0.5
