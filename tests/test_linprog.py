"""The in-house simplex solver."""

import copy
import math
import random

import numpy as np
import pytest

from factsflow import formulations, linprog
from factsflow.formulations import (
    build_mff_relaxation,
    build_mpf_program,
    extract_signs,
    midpoint_susceptances,
    solve_mpf,
)
from factsflow.linprog import LinearProgram, LpError, lp_format, solve_lp

from conftest import random_meshed_zero_lower

INF = math.inf


def test_single_bounded_variable():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0)
    lp.add_constraint({x: 1.0}, "<=", 3.0)
    lp.set_objective({x: 1.0})
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    assert res.value(x) == pytest.approx(3.0, abs=1e-9)


def test_infeasible():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0)
    lp.add_constraint({x: 1.0}, "<=", -1.0)
    lp.set_objective({x: 1.0})
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0)
    lp.set_objective({x: 1.0})
    assert solve_lp(lp).status == "unbounded"


def test_unbounded_with_constraints_present():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0)
    y = lp.add_var("y", 0.0, 5.0)
    lp.add_constraint({y: 1.0, x: -1.0}, "<=", 2.0)
    lp.set_objective({x: 1.0, y: 1.0})
    assert solve_lp(lp).status == "unbounded"


def test_tiny_cost_ray_is_unbounded():
    """A ray is unbounded at any reduced cost that makes its column eligible.

    HiGHS reads a cost up to its 1e-7 dual feasibility tolerance as zero and
    reports this program optimal at 0, so the exact status is asserted.
    """
    lp = LinearProgram()
    x = lp.add_var("x", 0.0)
    y = lp.add_var("y", 0.0, 1.0)
    lp.add_constraint({y: 1.0}, "<=", 1.0)
    lp.set_objective({x: 1e-9})
    assert solve_lp(lp).status == "unbounded"


def _textbook_program() -> LinearProgram:
    lp = LinearProgram()
    x = lp.add_var("x", 0.0)
    y = lp.add_var("y", 0.0)
    lp.add_constraint({x: 1.0}, "<=", 4.0)
    lp.add_constraint({y: 2.0}, "<=", 12.0)
    lp.add_constraint({x: 3.0, y: 2.0}, "<=", 18.0)
    lp.set_objective({x: 3.0, y: 5.0})
    return lp


def test_textbook_optimum():
    res = solve_lp(_textbook_program())
    assert res.objective == pytest.approx(36.0, abs=1e-9)
    assert (res.value(0), res.value(1)) == (pytest.approx(2.0), pytest.approx(6.0))


def test_free_variables_and_equalities():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0)
    y = lp.add_var("y", -INF, INF)
    lp.add_constraint({x: 1.0, y: 1.0}, "=", 4.0)
    lp.add_constraint({x: 1.0, y: -1.0}, ">=", -2.0)
    lp.set_objective({x: 1.0, y: 2.0})
    res = solve_lp(lp)
    assert res.objective == pytest.approx(7.0, abs=1e-9)


def test_fixed_variables():
    lp = LinearProgram()
    x = lp.add_var("x", 2.0, 2.0)
    y = lp.add_var("y", 0.0, 10.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 5.0)
    lp.set_objective({y: 1.0})
    res = solve_lp(lp)
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    assert res.value(x) == pytest.approx(2.0)


def test_bound_overrides_do_not_mutate():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0, 10.0)
    lp.add_constraint({x: 1.0}, "<=", 8.0)
    lp.set_objective({x: 1.0})
    res = solve_lp(lp, bound_overrides={x: (0.0, 3.0)})
    assert res.objective == pytest.approx(3.0)
    res2 = solve_lp(lp)
    assert res2.objective == pytest.approx(8.0)
    assert lp.ub[x] == 10.0


def test_negative_bounds():
    lp = LinearProgram()
    x = lp.add_var("x", -5.0, 5.0)
    lp.add_constraint({x: 1.0}, ">=", -3.0)
    lp.set_objective({x: -1.0})
    res = solve_lp(lp)
    assert res.objective == pytest.approx(3.0)
    assert res.value(x) == pytest.approx(-3.0)


def test_degenerate_rows():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0, 1.0)
    y = lp.add_var("y", 0.0, 1.0)
    for _ in range(4):  # duplicated rows force degenerate pivots
        lp.add_constraint({x: 1.0, y: 1.0}, "<=", 1.0)
    lp.set_objective({x: 1.0, y: 2.0})
    res = solve_lp(lp)
    assert res.objective == pytest.approx(2.0)


def test_feasible_assignment_is_returned():
    rng = random.Random(5)
    for _ in range(100):
        lp = LinearProgram()
        n = rng.randint(2, 6)
        xs = [lp.add_var(f"v{i}", rng.uniform(-3, 0), rng.uniform(0, 3)) for i in range(n)]
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {i: rng.uniform(-2, 2) for i in rng.sample(range(n), 2)}
            rhs = rng.uniform(-1, 4)
            sense = rng.choice(["<=", ">=", "="])
            lp.add_constraint(coeffs, sense, rhs)
            rows.append((coeffs, sense, rhs))
        lp.set_objective({i: rng.uniform(-1, 1) for i in range(n)})
        res = solve_lp(lp)
        if res.status != "optimal":
            continue
        for coeffs, sense, rhs in rows:
            lhs = sum(c * res.value(i) for i, c in coeffs.items())
            if sense == "<=":
                assert lhs <= rhs + 1e-7
            elif sense == ">=":
                assert lhs >= rhs - 1e-7
            else:
                assert lhs == pytest.approx(rhs, abs=1e-7)
        for i in range(n):
            assert lp.lb[i] - 1e-7 <= res.value(i) <= lp.ub[i] + 1e-7


def test_lp_format_lists_everything():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0, 2.0)
    lp.add_constraint({x: 1.0}, "<=", 1.5)
    lp.set_objective({x: 1.0})
    text = lp_format(lp)
    assert "maximize" in text
    assert "x" in text
    assert "<= 1.5" in text
    assert "bounds" in text


def test_declared_variable_enforcement():
    lp = LinearProgram()
    lp.add_var("x")
    with pytest.raises(ValueError):
        lp.add_constraint({3: 1.0}, "<=", 1.0)
    with pytest.raises(ValueError):
        lp.set_objective({7: 1.0})
    with pytest.raises(ValueError):
        lp.add_var("bad", 2.0, 1.0)


@pytest.mark.parametrize("lo, hi, expected", [
    (-3.0, 5.0, 0.0), (-INF, 5.0, 0.0), (-2.0, INF, 0.0), (-INF, INF, 0.0),
    (2.0, 7.0, 2.0), (-7.0, -2.0, -2.0), (-INF, -1.0, -1.0),
])
def test_start_is_zero_projected_onto_the_bounds(lo, hi, expected):
    # With a zero objective no column is eligible, so the start is returned.
    lp = LinearProgram()
    x = lp.add_var("x", lo, hi)
    y = lp.add_var("y", 0.0, 1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 10.0)
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value(x) == expected


@pytest.mark.parametrize("cost, row, expected", [
    (1.0, None, 5.0),                # upward to the bound: a flip
    (1.0, ("<=", 2.0), 2.0),         # upward until the row binds: a pivot
    (-1.0, None, -3.0),              # downward to the bound: a flip
    (-1.0, (">=", -1.0), -1.0),      # downward until the row binds: a pivot
], ids=["up-flip", "up-pivot", "down-flip", "down-pivot"])
def test_variable_leaves_zero_in_either_direction(cost, row, expected):
    lp = LinearProgram()
    x = lp.add_var("x", -3.0, 5.0)
    y = lp.add_var("y", 0.0, 1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 10.0)
    if row is not None:
        lp.add_constraint({x: 1.0}, *row)
    lp.set_objective({x: cost})
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value(x) == pytest.approx(expected, abs=1e-12)
    assert res.objective == pytest.approx(cost * expected, abs=1e-12)


def test_unrepairable_broken_row_is_infeasible():
    lp = LinearProgram()
    x = lp.add_var("x", 0.0, 2.0)
    y = lp.add_var("y", 0.0, 1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 4.0)
    lp.add_constraint({x: 1.0, y: 1.0}, ">=", 5.0)  # breaks at zero; x + y <= 3
    lp.set_objective({x: 1.0})
    assert solve_lp(lp).status == "infeasible"


def _add_random_vars(lp: LinearProgram, rng: random.Random, n: int) -> None:
    """``n`` variables with finite, one-sided or free bounds."""
    for i in range(n):
        kind = rng.choice(["finite", "finite", "lower", "upper", "free"])
        lo = float(rng.randint(-4, 1)) if kind in ("finite", "lower") else -INF
        hi = lo + rng.randint(0, 5) if kind == "finite" else INF
        if kind == "upper":
            hi = float(rng.randint(-1, 4))
        lp.add_var(f"v{i}", lo, hi)


def _random_program(rng: random.Random) -> LinearProgram:
    """A small program mixing row senses and finite, one-sided and free bounds."""
    lp = LinearProgram()
    n = rng.randint(2, 6)
    _add_random_vars(lp, rng, n)
    for _ in range(rng.randint(1, 5)):
        coeffs = {j: float(rng.randint(-4, 4)) for j in rng.sample(range(n), rng.randint(1, n))}
        lp.add_constraint(coeffs, rng.choice(["<=", "=", ">="]), float(rng.randint(-6, 8)))
    lp.set_objective({j: float(rng.randint(-3, 3)) for j in range(n)})
    return lp


def _highs(lp: LinearProgram, bound_overrides=None) -> tuple[str, float | None]:
    """Status and maximum of ``lp``, with ``bound_overrides`` applied, by scipy's HiGHS."""
    import numpy as np
    from scipy.optimize import linprog

    n = lp.num_vars
    dense = np.zeros((lp.num_rows, n))
    for r, row in enumerate(lp.rows):
        for j, c in row.items():
            dense[r, j] = c
    rhs = np.array(lp.rhs)
    senses = np.array(lp.senses)
    sign = np.where(senses == ">=", -1.0, 1.0)[:, None]
    ub_rows = senses != "="
    cost = np.zeros(n)
    for j, c in lp.objective.items():
        cost[j] = -c
    res = linprog(
        cost,
        A_ub=(sign * dense)[ub_rows] if ub_rows.any() else None,
        b_ub=(sign[:, 0] * rhs)[ub_rows] if ub_rows.any() else None,
        A_eq=dense[~ub_rows] if (~ub_rows).any() else None,
        b_eq=rhs[~ub_rows] if (~ub_rows).any() else None,
        bounds=[(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
                for lo, hi in ((bound_overrides or {}).get(j, (lp.lb[j], lp.ub[j]))
                               for j in range(n))],
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (-res.fun if status == "optimal" else None)


def test_random_programs_match_highs():
    pytest.importorskip("scipy.optimize")
    rng = random.Random(20261018)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        lp = _random_program(rng)
        ours = solve_lp(lp)
        status, value = _highs(lp)
        assert ours.status == status, lp_format(lp)
        seen[status] += 1
        if status == "optimal":
            assert ours.objective == pytest.approx(value, rel=1e-7, abs=1e-7), lp_format(lp)
            assert ours.basis is not None, lp_format(lp)
    assert min(seen.values()) >= 10, seen


def test_programs_without_rows_match_highs():
    """With no row, each column runs to the bound its cost prefers, stays at
    its start on a zero cost, or makes the program unbounded.  Each optimal
    program is solved again from its basis after one bound is tightened."""
    pytest.importorskip("scipy.optimize")
    rng = random.Random(20261020)
    tighten = random.Random(20261023)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(120):
        lp = LinearProgram()
        n = rng.randint(1, 4)
        _add_random_vars(lp, rng, n)
        lp.set_objective({j: float(rng.randint(-2, 2)) for j in range(n)})
        ours = solve_lp(lp)
        status, value = _highs(lp)
        assert ours.status == status, lp_format(lp)
        seen[status] += 1
        if status == "optimal":
            assert ours.objective == pytest.approx(value, rel=1e-9, abs=1e-9), lp_format(lp)
            for j in range(n):
                assert lp.lb[j] <= ours.value(j) <= lp.ub[j]
                if lp.objective[j] == 0.0:
                    assert ours.value(j) == min(max(0.0, lp.lb[j]), lp.ub[j])
            j = tighten.randrange(n)
            lo, hi = lp.lb[j], lp.ub[j]
            at = min(max(round(ours.value(j)) + tighten.randint(-2, 2), lo), hi)
            overrides = {j: (at, hi) if tighten.random() < 0.5 else (lo, at)}
            warm = solve_lp(lp, bound_overrides=overrides, basis=ours.basis)
            status, value = _highs(lp, overrides)
            assert (warm.status, status) == ("optimal", "optimal"), (lp_format(lp), overrides)
            assert warm.objective == pytest.approx(value, rel=1e-9, abs=1e-9), (lp_format(lp), overrides)
    assert seen["infeasible"] == 0 and min(seen["optimal"], seen["unbounded"]) >= 20, seen


@pytest.mark.parametrize("cost", [(2.0, 1.0, -1.0), (-1.0, 0.0, 3.0), (0.0, -2.0, -1.0)])
def test_one_broken_row_of_three_matches_highs(cost):
    pytest.importorskip("scipy.optimize")
    lp = LinearProgram()
    x = lp.add_var("x", 0.0, 10.0)
    y = lp.add_var("y", 0.0, 10.0)
    z = lp.add_var("z", -5.0, 5.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 8.0)
    lp.add_constraint({x: 1.0, z: -1.0}, ">=", 3.0)  # the only row broken at zero
    lp.add_constraint({y: 1.0, z: 1.0}, "=", 0.0)
    lp.set_objective(dict(zip((x, y, z), cost)))
    ours = solve_lp(lp)
    status, value = _highs(lp)
    assert (ours.status, status) == ("optimal", "optimal")
    assert ours.objective == pytest.approx(value, rel=1e-9, abs=1e-9)


def _degenerate_program(rng: random.Random) -> LinearProgram:
    """A program whose start at zero is feasible and highly degenerate.

    Every row has rhs 0 and every variable's bounds contain 0, as in MPF and
    the MFF node LPs.  Bounds straddle zero, touch it or are one-sided or
    free, and some rows are repeated, scaled or with a different sense.
    """
    lp = LinearProgram()
    n = rng.randint(2, 7)
    for i in range(n):
        kind = rng.choice(["straddle", "straddle", "lower", "upper", "free"])
        lo, hi = -INF, INF
        if kind == "straddle":
            lo, hi = -rng.randint(1, 5), rng.randint(1, 5)
        elif kind == "lower":
            lo = -rng.randint(0, 3)
        elif kind == "upper":
            hi = rng.randint(0, 3)
        lp.add_var(f"v{i}", float(lo), float(hi))
    rows = []
    for _ in range(rng.randint(1, 5)):
        coeffs = {j: float(rng.randint(-3, 3)) for j in rng.sample(range(n), rng.randint(1, n))}
        rows.append((coeffs, rng.choice(["<=", "=", ">="])))
    for coeffs, sense in rows[: rng.randint(1, len(rows))]:
        scale = rng.choice([1.0, 1.0, 2.0, -1.0])
        flipped = {"<=": ">=", ">=": "<=", "=": "="}[sense] if scale < 0 else sense
        rows.append(({j: scale * c for j, c in coeffs.items()}, rng.choice([sense, flipped])))
    rng.shuffle(rows)
    for coeffs, sense in rows:
        lp.add_constraint(coeffs, sense, 0.0)
    lp.set_objective({j: float(rng.randint(-3, 3)) for j in range(n)})
    return lp


def test_degenerate_programs_match_highs():
    pytest.importorskip("scipy.optimize")
    rng = random.Random(20261019)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(250):
        lp = _degenerate_program(rng)
        ours = solve_lp(lp)
        status, value = _highs(lp)
        assert ours.status == status, lp_format(lp)
        seen[status] += 1
        if status == "optimal":
            assert ours.objective == pytest.approx(value, rel=1e-7, abs=1e-7), lp_format(lp)
    assert seen["infeasible"] == 0 and min(seen["optimal"], seen["unbounded"]) >= 20, seen


def _tightened(lp: LinearProgram, res, rng: random.Random) -> dict[int, tuple[float, float]]:
    """Bounds inside the old ones on 1-3 variables of ``lp``.

    Each is a fixing, a raised lower bound, a lowered upper bound or a
    narrow window, placed within 2 of the variable's value in ``res`` on
    either side of it, so that some tightenings leave the program
    infeasible.
    """
    overrides = {}
    for j in rng.sample(range(lp.num_vars), rng.randint(1, min(3, lp.num_vars))):
        lo, hi = lp.lb[j], lp.ub[j]
        at = min(max(float(round(res.value(j)) + rng.randint(-2, 2)), lo), hi)
        kind = rng.choice(["fix", "lower", "upper", "window"])
        new_lo = lo if kind == "upper" else at
        new_hi = {"fix": at, "upper": at, "lower": hi}.get(kind, min(hi, at + rng.randint(1, 2)))
        overrides[j] = (new_lo, new_hi)
    return overrides


def test_warm_start_after_tightening_matches_highs(monkeypatch):
    """Each program is solved cold, 1-3 of its bounds are tightened, and it
    is solved again from the cold solve's basis.

    Tightening keeps that basis dual feasible and the dual ratio test keeps
    every reduced cost's sign, so phase 2 never pivots after the dual simplex.
    """
    pytest.importorskip("scipy.optimize")
    phase2_pivots = []
    warm_solve = [False]  # true only while the warm solve_lp call runs
    dual_simplex, pivot = linprog._Tableau.dual_simplex, linprog._Tableau.pivot

    def marking(self, c):
        status = dual_simplex(self, c)
        self.repaired = warm_solve[0]
        return status

    def counting(self, r, j, rows, cols):
        if getattr(self, "repaired", False):
            phase2_pivots.append(j)
        pivot(self, r, j, rows, cols)

    monkeypatch.setattr(linprog._Tableau, "dual_simplex", marking)
    monkeypatch.setattr(linprog._Tableau, "pivot", counting)
    rng = random.Random(20261021)
    seen = {"optimal": 0, "infeasible": 0, "fixed": 0, "nonbasic bound moved": 0,
            "zero left between the bounds": 0}
    for k in range(2000):
        lp = _random_program(rng) if k % 2 else _degenerate_program(rng)
        cold = solve_lp(lp)
        if cold.basis is None:  # not optimal
            continue
        overrides = _tightened(lp, cold, rng)
        warm_solve[0] = True
        warm = solve_lp(lp, bound_overrides=overrides, basis=cold.basis)
        warm_solve[0] = False
        tight = copy.deepcopy(lp)
        for j, (lo, hi) in overrides.items():
            tight.lb[j], tight.ub[j] = lo, hi
            status = cold.basis.status[j]
            seen["fixed"] += lo == hi
            seen["nonbasic bound moved"] += bool(
                (status == linprog._AT_LB and lo != lp.lb[j])
                or (status == linprog._AT_UB and hi != lp.ub[j]))
            seen["zero left between the bounds"] += bool(
                status == linprog._AT_ZERO and (lo >= 0.0 or hi <= 0.0))
        expected, value = _highs(tight)
        assert warm.status == expected, lp_format(tight)
        seen[expected] += 1
        if expected == "optimal":
            assert warm.objective == pytest.approx(value, rel=1e-7, abs=1e-7), lp_format(tight)
    assert min(seen.values()) >= 20, seen
    assert phase2_pivots == []


def test_unchanged_program_resolves_from_its_basis_without_a_pivot(monkeypatch):
    pivots = []
    pivot = linprog._Tableau.pivot

    def counting(self, r, j, rows, cols):
        pivots.append((r, j))
        pivot(self, r, j, rows, cols)

    monkeypatch.setattr(linprog._Tableau, "pivot", counting)
    rng = random.Random(20261022)
    net = random_meshed_zero_lower(3, max_buses=60)
    programs = [build_mff_relaxation(net)[0].lp,
                build_mpf_program(net, midpoint_susceptances(net))[0].lp]
    programs += [_random_program(rng) for _ in range(100)] + [_degenerate_program(rng) for _ in range(100)]
    warm_solves = 0
    for lp in programs:
        cold = solve_lp(lp)
        if cold.basis is None:
            continue
        del pivots[:]
        warm = solve_lp(lp, basis=cold.basis)
        assert pivots == [], lp_format(lp)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-12)
        warm_solves += 1
    assert warm_solves >= 50


# Network programs are hypersparse: a pivot touches a few rows and columns of
# the tableau, so these exercise the skipped entries that the small random
# programs above never leave.  Seed 0 runs past the periodic refactorisation.
@pytest.mark.parametrize("seed", range(5))
def test_network_programs_match_highs(seed):
    pytest.importorskip("scipy.optimize")
    net = random_meshed_zero_lower(seed, max_buses=120)
    mpf, _ = build_mpf_program(net, midpoint_susceptances(net))
    relaxation, _ = build_mff_relaxation(net)
    for lp in (mpf.lp, relaxation.lp):
        ours = solve_lp(lp)
        status, value = _highs(lp)
        assert (ours.status, status) == ("optimal", "optimal")
        assert ours.objective == pytest.approx(value, rel=1e-7, abs=1e-7)


class _DenseTableau(linprog._Tableau):
    """The rank-one update over the whole m x N tableau."""

    def pivot(self, r, j, rows, cols):
        self.T[r, :] /= self.T[r, j]
        colj = self.T[:, j].copy()
        colj[r] = 0.0
        self.T -= np.outer(colj, self.T[r, :])


@pytest.mark.parametrize("seed, program", [(6, "mpf"), (7, "relaxation")])
def test_sparse_pivot_matches_the_dense_update(monkeypatch, seed, program):
    """Each entry that changes gets the dense update's arithmetic, so the
    pivots and ``x`` are the same; ``==`` ignores the sign of an exact zero.
    The seed-6 program refactorises twice between sparse updates."""
    net = random_meshed_zero_lower(seed, max_buses=120)
    if program == "mpf":
        builder, _ = build_mpf_program(net, midpoint_susceptances(net))
    else:
        builder, _ = build_mff_relaxation(net)
    sparse = solve_lp(builder.lp)
    monkeypatch.setattr(linprog, "_Tableau", _DenseTableau)
    dense = solve_lp(builder.lp)
    assert sparse.status == dense.status == "optimal"
    assert np.array_equal(sparse.x, dense.x)


def test_mvf_with_pinned_flows_matches_highs(monkeypatch):
    """Pinned flows are nonzero fixed bounds that break rows at zero, so this
    program's cold solve pivots in the dual simplex before phase 2."""
    pytest.importorskip("scipy.optimize")
    net = random_meshed_zero_lower(2, max_buses=120)
    mpf = solve_mpf(net, midpoint_susceptances(net))
    flows = mpf.injections.flow
    # Half the MPF point is feasible for its own directions.
    pinned = {key: 0.5 * f for key, f in flows.items() if abs(f) > 1e-6}
    pinned = dict(list(pinned.items())[:6])
    solved = []

    def recording(lp, bound_overrides=None):
        solved.append((lp, bound_overrides, solve_lp(lp, bound_overrides)))
        return solved[-1][2]

    monkeypatch.setattr(formulations, "solve_lp", recording)
    assert formulations.solve_mvf(net, extract_signs(net, mpf.theta), pinned_flows=pinned)
    ((lp, overrides, ours),) = solved
    assert any(lo == hi != 0.0 for lo, hi in overrides.values())
    status, value = _highs(lp, overrides)
    assert (ours.status, status) == ("optimal", "optimal")
    assert ours.objective == pytest.approx(value, rel=1e-7, abs=1e-7)


def _values_wrong_once(monkeypatch) -> list[int]:
    """Make ``_Tableau.values`` move ``x`` off its row on its first call
    only, so the final verification fails once; returns the call log."""
    calls = []
    values = linprog._Tableau.values

    def perturbed(self):
        x = values(self)
        calls.append(len(calls))
        if len(calls) == 1:
            x[0] += 1.0
        return x

    monkeypatch.setattr(linprog._Tableau, "values", perturbed)
    return calls


def test_verification_retry_recovers_the_optimum(monkeypatch):
    """A solution that fails the final check is refactorised, phase 2 is run
    again and the check repeated, which the unperturbed optimum passes."""
    lp = _textbook_program()
    expected = solve_lp(lp)
    calls = _values_wrong_once(monkeypatch)
    res = solve_lp(lp)
    assert calls == [0, 1]
    assert (res.status, res.objective) == ("optimal", expected.objective)
    assert np.array_equal(res.x, expected.x)
    assert np.array_equal(res.basis.columns, expected.basis.columns)


def test_verification_retry_must_end_optimal(monkeypatch):
    """The phase 2 re-run of the verification retry is checked: a re-run
    that does not end optimal is a numerical failure, not an optimum."""
    _values_wrong_once(monkeypatch)
    simplex = linprog._Tableau.simplex
    runs = []

    def unbounded_on_rerun(self, c):
        status = simplex(self, c)
        runs.append(status)
        return "unbounded" if len(runs) == 2 else status

    monkeypatch.setattr(linprog._Tableau, "simplex", unbounded_on_rerun)
    with pytest.raises(LpError):
        solve_lp(_textbook_program())
    assert runs == ["optimal", "optimal"]


def test_refactorisation_falls_on_every_300th_exchange_of_its_loop(monkeypatch):
    """Each simplex loop counts its own exchanges from its start, so its
    periodic refactorisations fall on its 300th, 600th, ... pivot whatever
    the other loop did before it.

    At seed 0 the MPF and the MFF relaxation make 505 and 716 primal pivots.
    The MVF with six pinned flows pivots in both loops, with more pivots in
    the two together than 300 past the dual loop's last refactorisation;
    with every flow pinned, the dual loop alone passes 300.
    """
    runs = []  # (loop, pivots, pivots made at each refactorisation)
    simplex, dual_simplex = linprog._Tableau.simplex, linprog._Tableau.dual_simplex
    pivot, refresh = linprog._Tableau.pivot, linprog._Tableau.refresh

    def loop(run):
        def running(self, c):
            self.counts = [run.__name__, 0, []]
            try:
                return run(self, c)
            finally:
                runs.append(tuple(self.counts))
                self.counts = None
        return running

    def counting(self, r, j, rows, cols):
        self.counts[1] += 1
        pivot(self, r, j, rows, cols)

    def recording(self):
        if getattr(self, "counts", None):  # not the start or the final check
            self.counts[2].append(self.counts[1])
        refresh(self)

    monkeypatch.setattr(linprog._Tableau, "simplex", loop(simplex))
    monkeypatch.setattr(linprog._Tableau, "dual_simplex", loop(dual_simplex))
    monkeypatch.setattr(linprog._Tableau, "pivot", counting)
    monkeypatch.setattr(linprog._Tableau, "refresh", recording)
    net = random_meshed_zero_lower(0, max_buses=120)
    mpf, _ = build_mpf_program(net, midpoint_susceptances(net))
    relaxation, _ = build_mff_relaxation(net)
    for lp in (mpf.lp, relaxation.lp):
        assert solve_lp(lp).status == "optimal"
    point = solve_mpf(net, midpoint_susceptances(net))
    flows = {key: 0.5 * f for key, f in point.injections.flow.items() if abs(f) > 1e-6}
    for pinned in (dict(list(flows.items())[:6]), flows):
        assert formulations.solve_mvf(net, extract_signs(net, point.theta), pinned_flows=pinned)

    for name, pivots, refreshes in runs:
        assert refreshes == list(range(300, pivots + 1, 300)), (name, pivots, refreshes)
    assert max(p for name, p, _ in runs if name == "simplex") >= 600
    assert max(p for name, p, _ in runs if name == "dual_simplex") >= 300
    assert any(first[0] == "dual_simplex" and second[0] == "simplex"
               and first[1] % 300 != 0 and first[1] % 300 + second[1] >= 300
               for first, second in zip(runs, runs[1:])), runs


def _counting_pricings(monkeypatch) -> list[int]:
    """Count every full pricing ``c - c_B T`` of nonzero costs (zero costs
    need no product); returns the one-entry count."""
    pricings = [0]
    price = linprog._Tableau.price

    def counting(self, c):
        pricings[0] += bool(c.any())
        price(self, c)

    monkeypatch.setattr(linprog._Tableau, "price", counting)
    return pricings


def test_kept_reduced_costs_track_fresh_prices(monkeypatch):
    """``exchange`` keeps the reduced costs up to date along the pivot row,
    so after every exchange they equal ``c - c_B T`` on the current tableau,
    and a solve prices from scratch only a handful of times: when a loop
    starts on new costs or after exchanges, at each refactorisation and
    before "optimal".

    The seed-0 MPF and MFF relaxation make 505 and 716 primal pivots across
    refactorisations; the child of the relaxation re-solves warm from the
    root's basis, with the dual simplex pivoting on the program's costs.
    """
    pricings = _counting_pricings(monkeypatch)
    exchanges, loops, refreshes = [0], [0], [0]
    exchange, refresh = linprog._Tableau.exchange, linprog._Tableau.refresh
    simplex, dual_simplex = linprog._Tableau.simplex, linprog._Tableau.dual_simplex

    def checking(self, *args):
        exchange(self, *args)
        exchanges[0] += 1
        fresh = self.c - self.c[self.basis] @ self.T
        assert np.abs(self.d - fresh).max() <= 1e-9 * max(1.0, np.abs(self.c).max())

    def counting_refresh(self):
        refreshes[0] += 1
        refresh(self)

    def loop(run):
        def running(self, c):
            loops[0] += 1
            return run(self, c)
        return running

    monkeypatch.setattr(linprog._Tableau, "exchange", checking)
    monkeypatch.setattr(linprog._Tableau, "refresh", counting_refresh)
    monkeypatch.setattr(linprog._Tableau, "simplex", loop(simplex))
    monkeypatch.setattr(linprog._Tableau, "dual_simplex", loop(dual_simplex))

    def counted(*args, **kwargs):
        for count in (pricings, exchanges, loops, refreshes):
            count[0] = 0
        res = solve_lp(*args, **kwargs)
        assert res.status == "optimal"
        # Each loop prices at most twice, on entry and before "optimal".
        assert pricings[0] <= 2 * loops[0] + refreshes[0], (pricings, loops, refreshes)
        return res, exchanges[0], pricings[0]

    net = random_meshed_zero_lower(0, max_buses=120)
    mpf, _ = build_mpf_program(net, midpoint_susceptances(net))
    relaxation, parts = build_mff_relaxation(net)
    _, mpf_pivots, mpf_pricings = counted(mpf.lp)
    root, root_pivots, root_pricings = counted(relaxation.lp)
    assert min(mpf_pivots, root_pivots) > 300  # past a refactorisation
    assert max(mpf_pricings, root_pricings) <= 6  # not one per pivot

    # Pin the cone part carrying the most flow at the root, as a branch does.
    key = max(parts, key=lambda k: abs(root.value(parts[k].fplus) - root.value(parts[k].fminus)))
    bit = 0 if root.value(parts[key].fplus) > root.value(parts[key].fminus) else 1
    overrides = {idx: (0.0, 0.0) for idx in parts[key].against(bit)}
    child, child_pivots, child_pricings = counted(relaxation.lp, overrides, root.basis)
    assert child_pivots > 0
    assert child_pricings <= 4
    assert child.objective <= root.objective + 1e-9


def test_optimal_is_decided_on_fresh_prices(monkeypatch):
    """Kept reduced costs that went wrong mid-run cannot end the solve: the
    primal loop prices afresh before it reports "optimal", and goes on
    pivoting from there."""
    pytest.importorskip("scipy.optimize")
    net = random_meshed_zero_lower(0, max_buses=120)
    mpf, _ = build_mpf_program(net, midpoint_susceptances(net))
    exchanges = [0]
    exchange = linprog._Tableau.exchange

    def forgetting(self, *args):
        exchange(self, *args)
        exchanges[0] += 1
        if exchanges[0] == 100:
            self.d[:] = 0.0  # no column looks eligible any more

    monkeypatch.setattr(linprog._Tableau, "exchange", forgetting)
    ours = solve_lp(mpf.lp)
    status, value = _highs(mpf.lp)
    assert (ours.status, status) == ("optimal", "optimal")
    assert ours.objective == pytest.approx(value, rel=1e-7, abs=1e-7)
    assert exchanges[0] > 100


def test_entering_column_without_a_stable_pivot_fails_loudly(monkeypatch):
    """In max x s.t. 1e-9 x <= 1, x >= 0 the only eligible column has a
    significant reduced cost but a pivot element below the stable pivot
    threshold.  The primal loop refactorises (and re-prices) three times in
    the hope that drift caused it, then raises on the fourth attempt."""
    pricings = _counting_pricings(monkeypatch)
    refreshes = []  # the pricing count after each refactorisation
    refresh = linprog._Tableau.refresh

    def recording(self):
        before = pricings[0]
        refresh(self)
        assert pricings[0] == before + 1
        refreshes.append(pricings[0])

    monkeypatch.setattr(linprog._Tableau, "refresh", recording)
    lp = LinearProgram()
    x = lp.add_var("x")
    lp.add_constraint({x: 1e-9}, "<=", 1.0)
    lp.set_objective({x: 1.0})
    with pytest.raises(LpError, match="no numerically stable pivot available"):
        solve_lp(lp)
    assert refreshes == [2, 3, 4]  # the phase 2 start priced first
    assert pricings[0] == 4
