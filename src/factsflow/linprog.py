"""A small dense linear-programming solver.

The solver implements the bounded-variable primal simplex method on a dense
tableau, with a Bland anti-cycling fallback.  Every solve starts at zero:
each variable rests at 0 projected onto its bounds and every row's slack is
basic, so the start basis is the identity.  A row whose slack falls outside
its bounds at that start gets an artificial variable, and phase 1 drives
only those artificials to zero.  When no row breaks, as for MPF, MVF and the
MFF relaxation (whose all-zero operating point is feasible), the solve goes
straight to phase 2.

The tableau is stored dense, but network programs make it hypersparse: a
pivot updates only the rows with a nonzero in the entering column and the
columns with a nonzero in the pivot row, and its ratio test reads only the
rows the entering column moves.  Every skipped entry would only have a zero
subtracted from it, so this matches the dense update bit for bit, up to the
sign of an exact zero.  Solutions are basic, so optimal values such as line
capacities are reproduced exactly rather than to interior-point accuracy.

Variables carry individual bounds which may be infinite on either side;
constraints are linear expressions compared to a right-hand side with one of
``<=``, ``=``, ``>=``.  The objective is always maximised.

Feasibility is judged at one fixed tolerance, 1e-7: phase 1 declares a
program infeasible when its artificials sum above it, and the final check
accepts a row or bound violation up to it, relative to the magnitude of the
terms involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearProgram",
    "LpResult",
    "LpError",
    "solve_lp",
    "lp_format",
]

INF = math.inf

#: Feasibility tolerance of phase 1 and of the final verification.
_FEAS_TOL = 1e-7
#: Reduced costs at or below this magnitude do not make a column eligible.
_COST_EPS = 1e-11

# Nonbasic statuses, then basic.  ``_AT_ZERO`` is a nonbasic column resting
# at 0 strictly between its bounds (either of which may be infinite): it may
# enter in either direction, and a flip leaves it on the bound it ran to.
_AT_LB = 0
_AT_UB = 1
_AT_ZERO = 2
_BASIC = 3


class LpError(RuntimeError):
    """Numerical failure distinct from an infeasible or unbounded model."""


@dataclass
class LinearProgram:
    """A maximisation LP under construction.

    Use :meth:`add_var` to declare variables (returning their index), then
    :meth:`add_constraint` with ``{index: coefficient}`` expressions, and
    :meth:`set_objective`.
    """

    names: list[str] = field(default_factory=list)
    lb: list[float] = field(default_factory=list)
    ub: list[float] = field(default_factory=list)
    rows: list[dict[int, float]] = field(default_factory=list)
    senses: list[str] = field(default_factory=list)
    rhs: list[float] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF) -> int:
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb {lb} > ub {ub}")
        self.names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        return len(self.names) - 1

    def add_constraint(self, coeffs: dict[int, float], sense: str, rhs: float) -> int:
        if sense not in ("<=", "=", ">="):
            raise ValueError(f"bad sense {sense!r}")
        n = len(self.names)
        for idx in coeffs:
            if not (0 <= idx < n):
                raise ValueError(f"constraint references undeclared variable {idx}")
        self.rows.append({k: float(v) for k, v in coeffs.items() if v != 0.0})
        self.senses.append(sense)
        self.rhs.append(float(rhs))
        return len(self.rows) - 1

    def set_objective(self, coeffs: dict[int, float]) -> None:
        n = len(self.names)
        for idx in coeffs:
            if not (0 <= idx < n):
                raise ValueError(f"objective references undeclared variable {idx}")
        self.objective = {k: float(v) for k, v in coeffs.items()}

    @property
    def num_vars(self) -> int:
        return len(self.names)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None
    x: np.ndarray | None

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


class _Tableau:
    """Simplex working state over the equality standard form.

    ``T`` is the dense tableau ``inv(B) @ A``, kept C-ordered.  A pivot
    touches only the block of rows where the entering column is nonzero and
    columns where the pivot row is nonzero, with the same arithmetic the
    dense rank-one update applies there; every 300 pivots ``T`` is
    refactorised from ``A``.

    The start basis ``basis`` must pick out the columns of ``A`` that form
    the identity, so the start tableau is ``A`` itself and needs no
    factorisation.  Every other column starts nonbasic at 0 projected onto
    its bounds: on ``lb`` when ``lb >= 0``, on ``ub`` when ``ub <= 0``, and
    otherwise at zero strictly between them.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                 basis: np.ndarray):
        self.A = A
        self.b = b
        self.lb = lb
        self.ub = ub
        self.m, self.N = A.shape
        self.stat = np.where(lb >= 0.0, _AT_LB, np.where(ub <= 0.0, _AT_UB, _AT_ZERO)).astype(np.int8)
        self.basis = basis.copy()
        self.stat[self.basis] = _BASIC
        self.T = A.copy()
        self.beta = b - A @ self._nonbasic_values()

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

    def refresh(self, strict: bool = True) -> bool:
        """Refactorise to purge accumulated floating-point drift."""
        B = self.A[:, self.basis]
        try:
            self.T = np.linalg.inv(B) @ self.A
            self.beta = np.linalg.solve(B, self.b - self.A @ self._nonbasic_values())
        except np.linalg.LinAlgError as exc:
            if strict:
                raise LpError("singular basis") from exc
            return False
        return True

    def pivot(self, r: int, j: int, rows: np.ndarray) -> None:
        """Rank-one update of ``T`` for column ``j`` entering in row ``r``.

        ``rows`` are the other rows where column ``j`` is nonzero.  Only they
        and the columns where row ``r`` is nonzero change; every other entry
        would only have a zero subtracted from it.
        """
        T = self.T
        pivot_row = T[r]
        cols = pivot_row.nonzero()[0]
        pivot_row[cols] /= T[r, j]
        block = (rows[:, None] * self.N + cols).ravel()  # flat indices; T is C-ordered
        T.reshape(-1)[block] -= (T[rows, j][:, None] * pivot_row[cols]).ravel()

    def simplex(self, c: np.ndarray, *, allow_unbounded: bool) -> str:
        """Run primal simplex for objective ``c`` (maximise).

        Entering candidates are tried in decreasing reduced-cost order;
        a candidate whose best ratio-test pivot element is too small for a
        stable basis change is skipped, so near-noise reduced costs cannot
        corrupt the factorisation.  Returns "optimal" or "unbounded";
        raises :class:`LpError` when the iteration limit is exceeded.
        """
        m, N = self.m, self.N
        lb, ub, stat, basis = self.lb, self.ub, self.stat, self.basis
        max_iter = 200 * (m + N) + 2000
        degenerate_streak = 0
        since_refresh = 0
        wedged = 0
        movable = (ub - lb) > 0.0
        pivot_tol = 1e-8
        # Which nonbasic columns may rise or fall from their status; kept in
        # step with ``stat`` as columns flip, enter and leave.
        rises = ((stat == _AT_LB) & movable) | (stat == _AT_ZERO)
        falls = ((stat == _AT_UB) & movable) | (stat == _AT_ZERO)
        # |lb| where finite, the floor of a basic column's feasibility window.
        lb_scale = np.where(np.isfinite(lb), np.abs(lb), 0.0)

        def mark(k: int) -> None:
            rises[k] = stat[k] == _AT_ZERO or (stat[k] == _AT_LB and movable[k])
            falls[k] = stat[k] == _AT_ZERO or (stat[k] == _AT_UB and movable[k])

        for _ in range(max_iter):
            T, beta = self.T, self.beta
            d = c - c[basis] @ T
            d[basis] = 0.0

            up = rises & (d > _COST_EPS)
            eligible = (up | (falls & (d < -_COST_EPS))).nonzero()[0]
            if eligible.size == 0:
                return "optimal"

            if degenerate_streak > 40:  # Bland: lowest index, escape cycling
                order = eligible
            else:
                order = eligible[(-np.abs(d[eligible])).argsort()]

            acted = False
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
                    if abs(d[j]) <= 1e-7:
                        continue  # a noise-level ray is not proof of unboundedness
                    if allow_unbounded:
                        return "unbounded"
                    raise LpError("unexpected unbounded direction")

                if t_flip <= t_pivot:
                    # Bound flip: the entering variable runs to the bound it
                    # moves towards.
                    beta[nz] -= step * t_flip
                    stat[j] = _AT_UB if direction > 0 else _AT_LB
                    mark(j)
                    degenerate_streak = 0
                    acted = True
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
                    if abs(d[j]) > 1e-7:
                        skipped_significant = True
                    continue
                t = float(min(ratio[p], t_flip))

                entering_value = value + direction * t
                leaving = int(basis[r])
                beta[nz] -= step * t
                leave_val = beta[r]
                # Classify which bound the leaving variable rests on.
                if math.isfinite(lb[leaving]) and abs(leave_val - lb[leaving]) <= abs(
                    leave_val - ub[leaving]
                ):
                    stat[leaving] = _AT_LB
                elif math.isfinite(ub[leaving]):
                    stat[leaving] = _AT_UB
                else:
                    stat[leaving] = _AT_LB  # degenerate: finite lb exists here
                mark(leaving)

                self.pivot(r, j, nz[nz != r])
                basis[r] = j
                stat[j] = _BASIC
                mark(j)
                beta[r] = entering_value

                degenerate_streak = degenerate_streak + 1 if t <= 1e-12 else 0
                since_refresh += 1
                if since_refresh >= 300:
                    self.refresh(strict=False)
                    since_refresh = 0
                acted = True
                break

            if acted:
                wedged = 0
            else:
                if not skipped_significant:
                    return "optimal"  # only noise-level candidates remain
                # A significant candidate had no stable pivot: purge drift
                # and retry a few times before failing loudly.
                wedged += 1
                if wedged > 3 or not self.refresh(strict=False):
                    raise LpError("no numerically stable pivot available")
                since_refresh = 0
        raise LpError("iteration limit exceeded")


def _standard_form(lp: LinearProgram,
                   bound_overrides: dict[int, tuple[float, float]] | None):
    n = lp.num_vars
    m = lp.num_rows
    lb = np.array(lp.lb, dtype=float)
    ub = np.array(lp.ub, dtype=float)
    if bound_overrides:
        for j, (lo, hi) in bound_overrides.items():
            lb[j], ub[j] = float(lo), float(hi)
            if lo > hi:
                raise ValueError(f"override lb {lo} > ub {hi} for var {j}")

    # One slack per row: A x + s = b, slack bounds encode the sense.
    N = n + m
    A = np.zeros((m, N))
    b = np.array(lp.rhs, dtype=float)
    s_lb = np.empty(m)
    s_ub = np.empty(m)
    for i, (row, sense) in enumerate(zip(lp.rows, lp.senses)):
        for j, coef in row.items():
            A[i, j] = coef
        A[i, n + i] = 1.0
        if sense == "<=":
            s_lb[i], s_ub[i] = 0.0, INF
        elif sense == ">=":
            s_lb[i], s_ub[i] = -INF, 0.0
        else:
            s_lb[i], s_ub[i] = 0.0, 0.0
    full_lb = np.concatenate([lb, s_lb])
    full_ub = np.concatenate([ub, s_ub])
    c = np.zeros(N)
    for j, coef in lp.objective.items():
        c[j] = coef
    return A, b, full_lb, full_ub, c


def solve_lp(lp: LinearProgram,
             bound_overrides: dict[int, tuple[float, float]] | None = None) -> LpResult:
    """Solve ``lp`` to optimality.

    The solve starts from every variable at 0 projected onto its bounds, on
    the slack basis.  Rows that this start violates get an artificial
    variable each and a phase 1 over those artificials alone; when the start
    violates no row, phase 2 runs at once on the ``m x (n + m)`` tableau.

    Returns an :class:`LpResult` whose status is ``optimal`` (with a feasible
    assignment and objective), ``infeasible`` or ``unbounded``.  Numerical
    breakdown raises :class:`LpError` instead of being misreported as one of
    the three statuses.

    ``bound_overrides`` temporarily replaces selected variable bounds without
    mutating ``lp`` (used by the branch-and-bound driver).
    """
    A, b, lb, ub, c = _standard_form(lp, bound_overrides)
    m, N = A.shape

    x0 = np.clip(0.0, lb, ub)

    if m == 0:
        # Pure box problem: each variable sits on the bound its cost prefers.
        x = np.where(c > 0, ub, np.where(c < 0, lb, x0))
        if np.any(~np.isfinite(x)):
            return LpResult("unbounded", None, None)
        return LpResult("optimal", float(c @ x), x[: lp.num_vars])

    # Start on the slack basis with every variable at x0, so each slack holds
    # its row's residual.  A row whose residual lies outside its slack's
    # bounds breaks the start: its slack rests at 0 (the bound nearest the
    # residual) and an artificial column takes the residual instead.  Such a
    # row is negated where its residual is negative, so that the artificial
    # starts nonnegative and the start basis stays the identity.
    n = lp.num_vars
    resid = b - A @ x0
    broken = np.nonzero((resid < lb[n:]) | (resid > ub[n:]))[0]
    negate = broken[resid[broken] < 0.0]
    A[negate] *= -1.0
    b[negate] *= -1.0
    k = broken.size
    artificials = np.zeros((m, k))
    artificials[broken, np.arange(k)] = 1.0
    basis = np.arange(n, N)
    basis[broken] = np.arange(N, N + k)
    tab = _Tableau(np.hstack([A, artificials]) if k else A, b,
                   np.concatenate([lb, np.zeros(k)]), np.concatenate([ub, np.full(k, INF)]), basis)

    if k:
        # Phase 1 over the broken rows only: drive their artificials to 0,
        # then freeze them there.
        c1 = np.zeros(N + k)
        c1[N:] = -1.0
        tab.simplex(c1, allow_unbounded=False)
        if float(np.sum(np.abs(tab.values()[N:]))) > _FEAS_TOL:
            return LpResult("infeasible", None, None)
        tab.lb[N:] = 0.0
        tab.ub[N:] = 0.0

    c2 = np.concatenate([c, np.zeros(k)])
    status = tab.simplex(c2, allow_unbounded=True)
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    x = tab.values()[:N]
    # Verification against the rows (negating a row above changes no
    # residual's size); refresh and retry once if the tableau drifted beyond
    # tolerance.  x includes the slack columns, so
    # rows must hold as equalities; bounds cover the senses.  Residuals are
    # judged relative to the magnitude of the row's own terms.
    row_scale = np.abs(A) @ np.where(np.isfinite(x), np.abs(x), 0.0)
    for attempt in range(2):
        resid = A @ x - b
        tolerance = _FEAS_TOL * np.maximum(1.0, np.maximum(np.abs(b), row_scale))
        rows_ok = bool(np.all(np.abs(resid) <= tolerance))
        lo_gap = np.where(np.isfinite(lb), x - lb, 0.0)
        hi_gap = np.where(np.isfinite(ub), ub - x, 0.0)
        scale = np.maximum(1.0, np.abs(x))
        bounds_ok = bool(np.all(lo_gap >= -_FEAS_TOL * scale)
                         and np.all(hi_gap >= -_FEAS_TOL * scale))
        if rows_ok and bounds_ok:
            break
        if attempt == 1:
            raise LpError("solution failed final feasibility verification")
        tab.refresh()
        tab.simplex(c2, allow_unbounded=True)
        x = tab.values()[:N]
        row_scale = np.abs(A) @ np.where(np.isfinite(x), np.abs(x), 0.0)

    obj = float(c @ x)
    return LpResult("optimal", obj, x[: lp.num_vars].copy())
