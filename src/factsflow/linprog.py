"""A small dense linear-programming solver.

The solver implements the bounded-variable simplex method on a dense
tableau: a dual simplex (Koberstein, "The dual simplex method, techniques
for a fast and stable implementation", PhD thesis, Paderborn 2005) reaches a
feasible basis, and a primal simplex with a Bland anti-cycling fallback
then reaches an optimal one.

A cold solve, one given no start basis, starts at zero: each variable
rests at 0 projected onto its bounds and every row's slack is basic, so the
start basis is the identity.  Every basis is dual feasible for zero costs,
so the dual simplex run with zero costs is a primal phase 1 (Maros,
"Computational techniques of the simplex method", 2003): it pivots only
while some slack lies outside its bounds.  When no row breaks at zero, as
for MPF, MVF and the MFF relaxation (whose all-zero operating point is
feasible), it stops at once.

A warm solve starts instead from a given basis: any basis of a program of
the same shape, typically the optimal :attr:`LpResult.basis` of the same
program under other bounds or other coefficients, or a structural start
such as a network program's spanning tree (:func:`rest_basis` writes one
down from its basic columns).  The tableau is refactorised on it, and the
start is priced:

* dual feasible, as a basis stays when bounds only tighten (an MFF branch
  and bound child pins two columns of its parent at zero): the dual
  simplex runs with the program's costs, repairing the basic columns that
  the new bounds put outside their bounds;
* not dual feasible, as after loosened bounds or changed coefficients (an
  MPF started from the MPF at other susceptances): the dual simplex runs
  with zero costs, a primal phase 1 from that basis;
* singular for the program, or with an inverse entry above 1e12: it is
  dropped and the solve starts cold.

Either way, primal phase 2 follows; from a dual feasible basis it finds
nothing eligible.

Each solve counts its work in :attr:`LpResult.stats`: the pivots of each
loop and the refactorisations of the tableau.

The standard form ``A x + s = b`` that every solve works on, the program's
columns then one slack per row, lives in the :class:`LinearProgram`.  The
program is built by appending variables and rows, a block of rows at a
time when they come as an array, and keeps its coefficient matrix current
as it grows.  The first solve after an append copies that matrix beside
the slack identity; every later solve reuses the form, under its own
bounds, so a branch and bound solves one program at every node, and a
program that only grows, such as MPF's rounds of limit rows, pays one
array copy per round.

Both loops change the basis through one method, ``_Tableau.exchange``: it
moves the entering column, rests the leaving one on its bound, pivots,
updates the reduced costs along the new pivot row, and refactorises the
tableau every 300 exchanges of a loop.  The tableau is stored dense, but
network programs make it hypersparse: a pivot updates only the rows with a
nonzero in the entering column and the columns with a nonzero in the pivot
row, and its ratio test reads only the rows the entering column moves.
Every skipped entry would only have a zero subtracted from it, so this
matches the dense update bit for bit, up to the sign of an exact zero.
Solutions are basic, so optimal values such as line capacities are
reproduced exactly rather than to interior-point accuracy.

The reduced costs ``d = c - c_B T`` of the running loop's objective are kept
from pivot to pivot by an O(N) update along the new pivot row (Maros 2003),
not priced in O(m N) each iteration.  They are priced afresh when a loop
starts, unless neither the costs nor the basis changed since the last
pricing; at each refactorisation, which clears their drift along with the
tableau's; and before the primal loop reports an optimum, which it decides
on fresh prices only.

Variables carry individual bounds which may be infinite on either side;
constraints are linear expressions compared to a right-hand side with one of
``<=``, ``=``, ``>=``.  The objective is always maximised.

The dual simplex treats a basic column as feasible within 1e-9 of its
bounds, relative to its magnitude.  The final check on an optimal solution
accepts a row or bound violation up to 1e-7, relative to the magnitude of
the terms involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "LinearProgram",
    "LpResult",
    "LpBasis",
    "LpError",
    "LpStats",
    "solve_lp",
    "rest_basis",
    "lp_format",
]

INF = math.inf

#: Feasibility tolerance of the final verification of an optimal solution.
_FEAS_TOL = 1e-7
#: Reduced costs at or below this magnitude do not make a column eligible.
_COST_EPS = 1e-11
#: A basic column further outside its bounds than this, relative to its
#: magnitude, makes the dual simplex pivot.
_PRIMAL_TOL = 1e-9
#: The dual ratio test ignores entries of the pivot row at or below this.
_DUAL_PIVOT_TOL = 1e-9
#: A reduced cost above this magnitude is significant: the primal simplex
#: fails rather than skip such a column for want of a stable pivot, and a
#: start basis is dual feasible while no reduced cost favours moving a
#: nonbasic column by more.
_SIGNIFICANT_COST = 1e-7
#: A start basis whose inverse has an entry above this in magnitude is
#: treated as singular: the programs here have coefficients of order 1, so
#: such a basis is within rounding of a singular one.
_MAX_START_INVERSE = 1e12

# Nonbasic statuses, then basic.  ``_AT_ZERO`` is a nonbasic column resting
# at 0 strictly between its bounds (either of which may be infinite): it may
# enter in either direction, and a flip leaves it on the bound it ran to.
_AT_LB = 0
_AT_UB = 1
_AT_ZERO = 2
_BASIC = 3
# Whether a nonbasic column may rise, and may fall, from each status, indexed
# by the status plus ``_Tableau.movable``: 0 for a fixed column, 4 otherwise.
_RISES = np.array([False, False, True, False, True, False, True, False])
_FALLS = np.array([False, False, True, False, False, True, True, False])


class LpError(RuntimeError):
    """Numerical failure distinct from an infeasible or unbounded model."""


class LinearProgram:
    """A maximisation LP, built by appending.

    Use :meth:`add_var` to declare variables (returning their index), then
    :meth:`add_constraint` with ``{index: coefficient}`` expressions or
    :meth:`add_rows` with a block of rows as an array, and
    :meth:`set_objective`.  Variables and rows are only ever appended; the
    bounds ``lb`` and ``ub`` are lists that may be edited in place.

    The program keeps its coefficient matrix current as it grows, in an
    array with room to spare on both axes, and holds the one equality
    standard form that :func:`solve_lp` solves (see :func:`_form`).
    That form is built with one array copy on the first solve after an
    append and reused by every later solve, under any bounds.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self._senses: list[str] = []
        self._rhs: list[float] = []
        self._objective: dict[int, float] = {}
        #: Each row: the nonzero coefficients given to add_constraint, or
        #: the variables of a block that add_rows wrote straight into
        #: ``_coef``.
        self._rows: list = []
        #: The coefficients of row i, variable j at ``[i, j]``; zero past
        #: the rows and variables declared so far, and on the rows in
        #: ``_pending``, which :meth:`_matrix` writes in when asked.
        self._coef = np.zeros((0, 0))
        self._pending: list[int] = []
        self._form: _Form | None = None

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF) -> int:
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb {lb} > ub {ub}")
        self.names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self._form = None
        return len(self.names) - 1

    def add_constraint(self, coeffs: dict[int, float], sense: str, rhs: float) -> int:
        if sense not in ("<=", "=", ">="):
            raise ValueError(f"bad sense {sense!r}")
        n = len(self.names)
        for idx in coeffs:
            if not (0 <= idx < n):
                raise ValueError(f"constraint references undeclared variable {idx}")
        self._pending.append(len(self._rows))
        self._rows.append({k: float(v) for k, v in coeffs.items() if v != 0.0})
        self._senses.append(sense)
        self._rhs.append(float(rhs))
        self._form = None
        return len(self._rows) - 1

    def add_rows(self, columns, coeffs, sense: str, rhs=0.0) -> range:
        """Append a row for each row of the 2-D array ``coeffs``, whose
        column ``k`` holds the coefficients of variable ``columns[k]``.  Every
        new row has sense ``sense``; ``rhs`` is one right-hand side for all
        of them or one per row.  Returns the indices of the new rows."""
        if sense not in ("<=", "=", ">="):
            raise ValueError(f"bad sense {sense!r}")
        columns = np.asarray(columns, dtype=np.intp).reshape(-1)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] != columns.size:
            raise ValueError(f"a block of shape {coeffs.shape} does not fit {columns.size} columns")
        k = coeffs.shape[0]
        rhs = np.asarray(rhs, dtype=float)
        rhs = [float(rhs)] * k if rhs.ndim == 0 else rhs.tolist()
        if len(rhs) != k:
            raise ValueError(f"{len(rhs)} right-hand sides for {k} rows")
        ordered = np.sort(columns)
        if ordered.size and not 0 <= ordered[0] <= ordered[-1] < len(self.names):
            bad = ordered[0] if ordered[0] < 0 else ordered[-1]
            raise ValueError(f"constraint references undeclared variable {bad}")
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("a block names a variable twice")
        m = len(self._rows)
        # Zeros are written as +0.0, as the rows add_constraint leaves out.
        self._reserve(m + k)[m:m + k, columns] = np.where(coeffs != 0.0, coeffs, 0.0)
        self._rows.extend([columns] * k)
        self._senses.extend([sense] * k)
        self._rhs.extend(rhs)
        self._form = None
        return range(m, m + k)

    def _reserve(self, rows: int) -> np.ndarray:
        """The coefficient array, grown to hold ``rows`` rows and every
        declared variable; capacity at least doubles on the axis that
        grows."""
        r, c = self._coef.shape
        n = len(self.names)
        if rows > r or n > c:
            coef = np.zeros((max(rows, 2 * r) if rows > r else r,
                             max(n, 2 * c) if n > c else c))
            coef[:r, :c] = self._coef
            self._coef = coef
        return self._coef

    def _matrix(self) -> np.ndarray:
        """The coefficients of the rows and variables declared so far."""
        m = len(self._rows)
        coef = self._reserve(m)
        for i in self._pending:
            row = coef[i]
            for j, v in self._rows[i].items():
                row[j] = v
        self._pending.clear()
        return coef[:m, :len(self.names)]

    def set_objective(self, coeffs: dict[int, float]) -> None:
        n = len(self.names)
        for idx in coeffs:
            if not (0 <= idx < n):
                raise ValueError(f"objective references undeclared variable {idx}")
        self._objective = {k: float(v) for k, v in coeffs.items()}
        self._form = None

    @property
    def num_vars(self) -> int:
        return len(self.names)

    @property
    def num_rows(self) -> int:
        return len(self._senses)

    @property
    def senses(self) -> tuple[str, ...]:
        return tuple(self._senses)

    @property
    def rhs(self) -> tuple[float, ...]:
        return tuple(self._rhs)

    @property
    def objective(self) -> dict[int, float]:
        """The objective's nonzero costs, as a copy."""
        return dict(self._objective)

    @property
    def rows(self) -> list[dict[int, float]]:
        """Each row's nonzero coefficients by variable, in the order they
        were given, as copies."""
        matrix = self._matrix()
        return [dict(row) if isinstance(row, dict)
                else {int(j): float(matrix[i, j]) for j in row if matrix[i, j] != 0.0}
                for i, row in enumerate(self._rows)]


@dataclass(frozen=True)
class LpBasis:
    """A simplex basis over the columns of the standard form: the program's
    variables, then one slack per row.

    ``columns[i]`` is the column basic in row ``i``; ``status`` holds every
    column's status (resting at its lower bound, its upper bound or at zero
    between them, or basic).  It takes O(rows + columns) integers.
    """

    columns: np.ndarray
    status: np.ndarray


@dataclass
class LpStats:
    """The work of one solve, counted by the tableau that reached the
    result: the basis exchanges of the dual and of the primal simplex loop,
    and the factorisations of the tableau (a warm start's first one
    included)."""

    dual_pivots: int = 0
    primal_pivots: int = 0
    refactorisations: int = 0


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None
    x: np.ndarray | None
    #: The final basis when optimal, for a warm solve of the same program;
    #: ``None`` otherwise.
    basis: LpBasis | None = None
    stats: LpStats = field(default_factory=LpStats)

    def value(self, idx: int) -> float:
        assert self.x is not None
        return float(self.x[idx])


def lp_format(lp: LinearProgram) -> str:
    """Render the program as a human-readable text listing."""

    def term(coef: float, idx: int) -> str:
        return f"{coef:+g} {lp.names[idx]}"

    out = ["maximize"]
    obj = " ".join(term(c, j) for j, c in sorted(lp.objective.items())) or "0"
    out.append("  " + obj)
    out.append("subject to")
    for row, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
        expr = " ".join(term(c, j) for j, c in sorted(row.items())) or "0"
        out.append(f"  {expr} {sense} {rhs:g}")
    out.append("bounds")
    for j, name in enumerate(lp.names):
        out.append(f"  {lp.lb[j]:g} <= {name} <= {lp.ub[j]:g}")
    return "\n".join(out)


def _rest_at_zero(lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Each column's nonbasic status at 0 projected onto its bounds: on
    ``lb`` when ``lb >= 0``, on ``ub`` when ``ub <= 0``, and otherwise at
    zero strictly between them."""
    return np.where(lb >= 0.0, _AT_LB, np.where(ub <= 0.0, _AT_UB, _AT_ZERO)).astype(np.int8)


def _slack_bounds(senses: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The bounds of each row's slack in ``A x + s = b``: ``[0, inf)`` for
    ``<=``, ``(-inf, 0]`` for ``>=`` and ``[0, 0]`` for ``=``."""
    lo = np.array([-INF if sense == ">=" else 0.0 for sense in senses], dtype=float)
    hi = np.array([INF if sense == "<=" else 0.0 for sense in senses], dtype=float)
    return lo, hi


def rest_basis(lp: LinearProgram, columns) -> LpBasis:
    """The basis of ``lp`` with ``columns[i]`` basic in row ``i`` (a
    variable's index, or ``lp.num_vars + i`` for row ``i``'s slack) and every
    other column at rest, at 0 projected onto its bounds as in a cold
    solve."""
    form = _form(lp)
    status = _rest_at_zero(np.concatenate([lp.lb, form.s_lb]), np.concatenate([lp.ub, form.s_ub]))
    columns = np.asarray(columns, dtype=np.intp)
    status[columns] = _BASIC
    return LpBasis(columns, status)


class _Tableau:
    """Simplex working state over the equality standard form.

    ``T`` is the dense tableau ``inv(B) @ A``, kept C-ordered.  Every pivot
    of both loops goes through :meth:`exchange`.  It touches only the block
    of rows where the entering column is nonzero and columns where the
    pivot row is nonzero, with the same arithmetic the dense rank-one update
    applies there; ``T`` is refactorised from ``A`` every 300 exchanges of a
    loop, each loop counting from its own start.

    ``stats`` counts the work: :meth:`exchange` the pivots of the loop that
    calls it (``dual`` says which), :meth:`refresh` the factorisations.

    ``d`` holds the reduced costs ``c - c_B T`` of the costs ``c`` last
    given to :meth:`price`.  :meth:`exchange` keeps them up to date along
    the new pivot row, :meth:`refresh` prices them afresh, and ``stale``
    says whether an exchange came since the last pricing.

    ``A`` is the ``m x (n + m)`` standard form: the program's ``n``
    columns, then one slack per row.  Without ``start``, the slacks, which
    form the identity, are basic, so the start tableau is ``A`` itself and
    needs no factorisation; every other column starts nonbasic at 0
    projected onto its bounds.  With ``start``, its basis and statuses are
    taken over and the tableau is factorised on them; a nonbasic status
    that names an infinite bound, or zero where zero is not strictly between
    the bounds, is replaced by the one at 0 projected onto the bounds.  A
    start basis that is singular, or whose inverse has an entry above
    ``_MAX_START_INVERSE``, raises :class:`LpError`.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                 start: LpBasis | None = None):
        self.A = A
        self.b = b
        self.lb = lb
        self.ub = ub
        self.m, self.N = A.shape
        self.movable = ((ub - lb) > 0.0).view(np.int8) * 4
        self.max_iter = 200 * (self.m + self.N) + 2000
        self.c = np.zeros(self.N)
        self.stats = LpStats()
        self.dual = True
        if start is None:
            self.basis = np.arange(self.N - self.m, self.N)
            self.stat = _rest_at_zero(lb, ub)
            self.stat[self.basis] = _BASIC
            self.T = A.copy()
            self.beta = b - A @ self._nonbasic_values()
            self.price(self.c)
            return
        self.basis = start.columns.copy()
        stat = start.status
        self.stat = stat.astype(np.int8)
        misfit = (((stat == _AT_LB) & np.isinf(lb)) | ((stat == _AT_UB) & np.isinf(ub))
                  | ((stat == _AT_ZERO) & ((lb >= 0.0) | (ub <= 0.0))))
        self.stat[misfit] = _rest_at_zero(lb, ub)[misfit]
        self.refresh()
        # The slack columns of ``inv(B) @ A`` are ``inv(B)`` itself.
        if np.abs(self.T[:, self.N - self.m:]).max(initial=0.0) > _MAX_START_INVERSE:
            raise LpError("singular basis")

    def nonbasic_value(self, j: int) -> float:
        if self.stat[j] == _AT_LB:
            return self.lb[j]
        if self.stat[j] == _AT_UB:
            return self.ub[j]
        return 0.0

    def _nonbasic_values(self) -> np.ndarray:
        """Every column's nonbasic value, with 0 on the basic columns."""
        return np.where(self.stat == _AT_LB, self.lb, np.where(self.stat == _AT_UB, self.ub, 0.0))

    def values(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basis] = self.beta
        return x

    def refresh(self) -> None:
        """Refactorise to purge accumulated floating-point drift."""
        B = self.A[:, self.basis]
        try:
            self.T = np.linalg.inv(B) @ self.A
            self.beta = np.linalg.solve(B, self.b - self.A @ self._nonbasic_values())
        except np.linalg.LinAlgError as exc:
            raise LpError("singular basis") from exc
        self.stats.refactorisations += 1
        self.exchanges = 0
        self.price(self.c)

    def dual_feasible(self, c: np.ndarray) -> bool:
        """Price the costs ``c`` and say whether the basis is dual feasible
        for them: no nonbasic column may move in the direction its reduced
        cost improves by more than ``_SIGNIFICANT_COST``."""
        self.price(c)
        rises, falls = self.directions(slice(None))
        improving = (rises & (self.d > _SIGNIFICANT_COST)) | (falls & (self.d < -_SIGNIFICANT_COST))
        return not improving.any()

    def price(self, c: np.ndarray) -> None:
        """Keep the costs ``c`` and compute their reduced costs afresh."""
        self.c = c
        self.d = c - c[self.basis] @ self.T if c.any() else np.zeros(self.N)
        self.stale = False

    def directions(self, cols) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the columns ``cols`` that may rise and that may fall
        from their status; both are false on basic columns."""
        k = self.stat[cols] + self.movable[cols]
        return _RISES.take(k), _FALLS.take(k)

    def pivot(self, r: int, j: int, rows: np.ndarray, cols: np.ndarray) -> None:
        """Rank-one update of ``T`` for column ``j`` entering in row ``r``.

        ``rows`` are the other rows where column ``j`` is nonzero, and
        ``cols`` the columns where row ``r`` is nonzero.  Only their entries
        change; every other entry would only have a zero subtracted from it.
        """
        T = self.T
        pivot_row = T[r]
        pivot_row[cols] /= T[r, j]
        block = (rows[:, None] * self.N + cols).ravel()  # flat indices; T is C-ordered
        T.reshape(-1)[block] -= (T[rows, j][:, None] * pivot_row[cols]).ravel()

    def exchange(self, r: int, j: int, t: float, leaving_status: int,
                 rows: np.ndarray, cols: np.ndarray) -> None:
        """Move nonbasic column ``j`` by the signed step ``t``, then exchange
        it for the column basic in row ``r``, which rests at
        ``leaving_status``, and update the reduced costs along the new row
        ``r``.  ``rows`` are the rows where column ``j`` is nonzero and
        ``cols`` the columns where row ``r`` is nonzero.  Every 300
        exchanges ``T`` is refactorised."""
        beta = self.beta
        entering_value = self.nonbasic_value(j) + t
        beta[rows] -= self.T[rows, j] * t
        self.stat[self.basis[r]] = leaving_status
        self.pivot(r, j, rows[rows != r], cols)
        self.d -= self.d[j] * self.T[r]
        self.d[j] = 0.0
        self.stale = True
        self.basis[r] = j
        self.stat[j] = _BASIC
        beta[r] = entering_value
        if self.dual:
            self.stats.dual_pivots += 1
        else:
            self.stats.primal_pivots += 1
        self.exchanges += 1
        if self.exchanges >= 300:
            self.refresh()

    def simplex(self, c: np.ndarray) -> str:
        """Run primal simplex for objective ``c`` (maximise).

        Entering candidates are tried in decreasing reduced-cost order;
        a candidate whose best ratio-test pivot element is too small for a
        stable basis change is skipped, so near-noise reduced costs cannot
        corrupt the factorisation.  "optimal" is decided on freshly priced
        reduced costs only.  Returns "optimal" or "unbounded"; raises
        :class:`LpError` when the iteration limit is exceeded.
        """
        lb, ub, stat, basis = self.lb, self.ub, self.stat, self.basis
        degenerate_streak = 0
        wedged = 0
        pivot_tol = 1e-8
        # |lb| where finite, the floor of a basic column's feasibility window.
        lb_scale = np.where(np.isfinite(lb), np.abs(lb), 0.0)
        self.dual = False
        self.exchanges = 0
        if self.stale or c is not self.c:
            self.price(c)
        for _ in range(self.max_iter):
            T, beta, d = self.T, self.beta, self.d

            rises, falls = self.directions(slice(None))
            up = rises & (d > _COST_EPS)
            eligible = (up | (falls & (d < -_COST_EPS))).nonzero()[0]
            if eligible.size == 0:
                if self.stale:  # judge optimality on fresh prices only
                    self.price(c)
                    continue
                return "optimal"

            if degenerate_streak > 40:  # Bland: lowest index, escape cycling
                order = eligible
            else:
                order = eligible[(-np.abs(d[eligible])).argsort()]

            skipped_significant = False
            for j in order[:40]:
                j = int(j)
                direction = 1.0 if up[j] else -1.0
                col = T[:, j]
                # Basic values move by -step * t; only rows with a nonzero in
                # the entering column move, and only those past the pivot
                # threshold bound the step.
                nz = col.nonzero()[0]
                step = direction * col[nz]
                cand = (np.abs(step) > 1e-11).nonzero()[0]
                s = step[cand]
                rows = nz[cand]
                held = basis[rows]
                gap = beta[rows] - np.where(s > 0.0, lb[held], ub[held])
                # An infinite bound gives an infinite ratio: no limit.
                ratio = np.maximum(gap / s, 0.0)

                value = self.nonbasic_value(j)
                t_flip = ub[j] - value if direction > 0 else value - lb[j]
                t_pivot = float(ratio.min(initial=INF))

                if min(t_pivot, t_flip) == INF:
                    return "unbounded"

                if t_flip <= t_pivot:
                    # Bound flip: the entering variable runs to the bound it
                    # moves towards.
                    beta[nz] -= step * t_flip
                    stat[j] = _AT_UB if direction > 0 else _AT_LB
                    degenerate_streak = 0
                    break

                # Harris-style: among rows within the feasibility window of
                # the strict minimum, pick the stablest pivot; step length is
                # that row's own (strict) ratio so bounds stay honoured.
                window = 1e-9 * np.maximum(1.0, np.maximum(np.abs(beta[rows]), lb_scale[held]))
                t_relaxed = float(np.maximum((gap + np.copysign(window, s)) / s, 0.0).min())
                near = (ratio <= t_relaxed + 1e-15).nonzero()[0]
                p = int(near[np.abs(s[near]).argmax()])
                r = int(rows[p])
                if abs(s[p]) < pivot_tol:
                    if abs(d[j]) > _SIGNIFICANT_COST:
                        skipped_significant = True
                    continue
                t = float(min(ratio[p], t_flip))

                # The leaving column rests on the finite bound nearer its new
                # value, on lb in a tie; ``direction`` is +-1, so this is the
                # value that exchange writes.
                lo, hi = lb[basis[r]], ub[basis[r]]
                leave_val = beta[r] - T[r, j] * (direction * t)
                near_lo = math.isfinite(lo) and abs(leave_val - lo) <= abs(leave_val - hi)
                resting = _AT_UB if math.isfinite(hi) and not near_lo else _AT_LB
                self.exchange(r, j, direction * t, resting, nz, T[r].nonzero()[0])
                degenerate_streak = degenerate_streak + 1 if t <= 1e-12 else 0
                break
            else:
                if not skipped_significant:
                    if self.stale:
                        self.price(c)
                        continue
                    return "optimal"  # only noise-level candidates remain
                # A significant candidate had no stable pivot: purge drift
                # and retry a few times before failing loudly.
                wedged += 1
                if wedged > 3:
                    raise LpError("no numerically stable pivot available")
                self.refresh()
                continue
            wedged = 0
        raise LpError("iteration limit exceeded")

    def dual_simplex(self, c: np.ndarray) -> str:
        """Run the bounded-variable dual simplex for objective ``c`` (maximise).

        The basis should be dual feasible for ``c``.  Each iteration, the
        basic column furthest outside its bounds leaves at the bound it
        violates.  The entering column is the one that moves the leaving
        column towards that bound at the least ratio ``|d_j| / |alpha_rj|``
        of reduced cost to pivot-row entry, so every reduced cost keeps its
        sign; ties within 1e-12 go to the largest ``|alpha_rj|``.  Returns
        "feasible" once every basic column is within its bounds, or
        "infeasible" when no column can move a leaving row's column towards
        its bound; raises :class:`LpError` when the iteration limit is
        exceeded.

        Every basis is dual feasible for zero costs, with which a cold solve
        runs this as its phase 1: every ratio is then 0, so the largest
        ``|alpha_rj|`` enters.
        """
        lb, ub, basis = self.lb, self.ub, self.basis
        self.dual = True
        self.exchanges = 0
        if self.stale or c is not self.c:
            self.price(c)
        for _ in range(self.max_iter):
            T, beta = self.T, self.beta
            below = lb[basis] - beta
            excess = np.maximum(below, beta - ub[basis])
            excess[excess <= _PRIMAL_TOL * np.maximum(1.0, np.abs(beta))] = 0.0
            if not excess.any():  # also a program without rows
                return "feasible"
            r = int(excess.argmax())
            rise = bool(below[r] > 0.0)
            target = lb[basis[r]] if rise else ub[basis[r]]

            # The leaving column moves by -alpha_rj per unit that column j
            # moves, so it rises with a rising j where alpha_rj < 0 and with a
            # falling j where alpha_rj > 0, and the other way round to fall.
            row_nz = T[r].nonzero()[0]
            alpha = T[r, row_nz]
            rises, falls = self.directions(row_nz)
            toward = -alpha if rise else alpha
            ok = (np.abs(alpha) > _DUAL_PIVOT_TOL) & ((rises & (toward > 0.0)) | (falls & (toward < 0.0)))
            cols, alpha = row_nz[ok], alpha[ok]
            if cols.size == 0:
                return "infeasible"
            ratio = np.abs(self.d[cols]) / np.abs(alpha)
            near = (ratio <= ratio.min() + 1e-12).nonzero()[0]
            p = int(near[np.abs(alpha[near]).argmax()])

            # Move the entering column just far enough to put the leaving
            # column on its bound.
            j = int(cols[p])
            self.exchange(r, j, (beta[r] - target) / alpha[p], _AT_LB if rise else _AT_UB,
                          T[:, j].nonzero()[0], row_nz)
        raise LpError("iteration limit exceeded")


class _Form(NamedTuple):
    """A program's equality standard form ``A x + s = b``: its columns,
    then one slack per row, whose bounds encode the senses, the costs
    ``c`` over all columns, and ``abs(A)`` and ``max(1, abs(b))``, which
    scale the final check."""

    A: np.ndarray
    b: np.ndarray
    s_lb: np.ndarray
    s_ub: np.ndarray
    c: np.ndarray
    magnitude: np.ndarray
    floor: np.ndarray


def _form(lp: LinearProgram) -> _Form:
    """The standard form that ``lp`` holds, built once after its last
    append: one copy of its coefficient matrix beside the slack identity.
    Its arrays are read-only, so every solve can share them."""
    if lp._form is None:
        m, n = lp.num_rows, lp.num_vars
        A = np.zeros((m, n + m))
        A[:, :n] = lp._matrix()
        A.reshape(-1)[n::n + m + 1] = 1.0  # row i's slack, column n + i
        c = np.zeros(n + m)
        c[list(lp._objective)] = list(lp._objective.values())
        b = np.array(lp._rhs, dtype=float)
        form = _Form(A, b, *_slack_bounds(lp._senses), c, np.abs(A), np.maximum(1.0, np.abs(b)))
        for array in form:
            array.flags.writeable = False
        lp._form = form
    return lp._form


def _standard_form(lp: LinearProgram,
                   bound_overrides: dict[int, tuple[float, float]] | None):
    """``A, b, lb, ub, c`` of ``lp``'s standard form (:func:`_form`), with
    ``lb`` and ``ub`` fresh arrays of the bounds of every column, under
    ``bound_overrides``."""
    form = _form(lp)
    lb = np.array(lp.lb, dtype=float)
    ub = np.array(lp.ub, dtype=float)
    if bound_overrides:
        for j, (lo, hi) in bound_overrides.items():
            lb[j], ub[j] = float(lo), float(hi)
            if lo > hi:
                raise ValueError(f"override lb {lo} > ub {hi} for var {j}")
    return form.A, form.b, np.concatenate([lb, form.s_lb]), np.concatenate([ub, form.s_ub]), form.c


def solve_lp(lp: LinearProgram,
             bound_overrides: dict[int, tuple[float, float]] | None = None,
             basis: LpBasis | None = None) -> LpResult:
    """Solve ``lp`` to optimality.

    Without ``basis``, and only then, the solve starts from every variable
    at 0 projected onto its bounds, on the slack basis of the ``m x (n + m)``
    tableau, and the dual simplex with zero costs (a primal phase 1) brings
    every basic column within its bounds.  When the start violates no row,
    it stops at once.

    With ``basis``, any basis of a program with ``lp``'s rows and columns
    (typically an optimal :attr:`LpResult.basis` of ``lp`` under other
    bounds or coefficients), the tableau is refactorised on it.  The dual
    simplex runs with the program's costs when the start is dual feasible
    for them, as tightening bounds keeps it, and with zero costs otherwise.
    A start that is singular for ``lp`` is dropped for the cold one.

    Either way, primal phase 2 follows from the feasible basis.

    Returns an :class:`LpResult` whose status is ``optimal`` (with a feasible
    assignment, objective and final basis), ``infeasible`` or ``unbounded``,
    with the solve's :class:`LpStats`.
    Numerical breakdown raises :class:`LpError` instead of being misreported
    as one of the three statuses.

    ``bound_overrides`` temporarily replaces selected variable bounds without
    mutating ``lp`` (used by the branch-and-bound driver).
    """
    A, b, lb, ub, c = _standard_form(lp, bound_overrides)
    form = _form(lp)
    m, N = A.shape
    tab = None
    if basis is not None:
        if basis.columns.shape != (m,) or basis.status.shape != (N,):
            raise ValueError(f"basis does not fit a program of {m} rows and {N} columns")
        try:
            tab = _Tableau(A, b, lb, ub, basis)
        except LpError:  # singular for this program: start cold
            pass
    # Every basis is dual feasible for zero costs, so from the slack basis,
    # or from a start that is not dual feasible for ``c``, the dual simplex
    # runs as a primal phase 1.
    if tab is not None and tab.dual_feasible(c):
        dual_costs = c
    else:
        tab = tab or _Tableau(A, b, lb, ub)
        dual_costs = np.zeros(N)
    if tab.dual_simplex(dual_costs) == "infeasible":
        return LpResult("infeasible", None, None, stats=tab.stats)
    if tab.simplex(c) == "unbounded":
        return LpResult("unbounded", None, None, stats=tab.stats)

    # Verification against the rows; if the tableau drifted beyond tolerance,
    # refactorise, re-run phase 2 and check once more.  x includes the slack
    # columns, so rows must hold as equalities; bounds cover the senses.
    # Residuals are judged relative to the magnitude of the row's own terms.
    for attempt in range(2):
        if attempt:
            tab.refresh()
            if tab.simplex(c) != "optimal":
                raise LpError("phase 2 did not end optimal after refactorisation")
        x = tab.values()
        size = np.abs(x)
        row_scale = form.magnitude @ np.where(np.isfinite(x), size, 0.0)
        tolerance = _FEAS_TOL * np.maximum(form.floor, row_scale)
        slack = -_FEAS_TOL * np.maximum(1.0, size)
        if ((np.abs(A @ x - b) <= tolerance).all()
                and (np.where(np.isfinite(lb), x - lb, 0.0) >= slack).all()
                and (np.where(np.isfinite(ub), ub - x, 0.0) >= slack).all()):
            break
    else:
        raise LpError("solution failed final feasibility verification")

    obj = float(c @ x)
    return LpResult("optimal", obj, x[:lp.num_vars].copy(),
                    LpBasis(tab.basis.copy(), tab.stat.copy()), tab.stats)
