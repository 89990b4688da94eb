"""Exact maximum-throughput solver for networks with controllable lines.

The product ``s * dtheta`` in the power law makes the problem non-convex as
soon as a susceptance may vary.  On a controllable line the operating point
``(dtheta, f)`` must lie in one of two polyhedral cones, one per direction
of the angle difference:

    C+ = {dtheta >= 0,  s_min * dtheta <= f <= s_hi * dtheta}
    C- = {dtheta <= 0,  s_min * -dtheta <= -f <= s_hi * -dtheta}

with ``s_hi = formulations.UNBOUNDED_S_CAP`` on intervals unbounded above,
so the model is exact relative to that ceiling.  The convex hull of a union
of cones is their Minkowski sum, so splitting the angle difference and the
flow into nonnegative parts, one pair per cone,

    dplus - dminus = theta[b] - theta[a]
    s_min * dplus  <= fplus  <= s_hi * dplus
    s_min * dminus <= fminus <= s_hi * dminus
    f = fplus - fminus
    flow balance at every bus, |f| <= capacity
    fplus + fminus <= capacity

relaxes the disjunction with no binary variable and no big-M.  The cone
rows alone give the hull of the two *unbounded* cones (Balas, "Disjunctive
programming: properties of the convex hull of feasible points", Discrete
Appl. Math. 89, 1998), which is the whole ``(dtheta, f)`` plane when
``s_min < s_hi``.  The last row bounds the parts: at every realisable
point one part pair is zero, so it reads ``|f| <= capacity``, and with the
cone rows it makes the relaxation the projection of the hull of the two
capacity-bounded cones (compare the perspective reformulations of Günlük
and Linderoth, Math. Program. 124, 2010).  So the root bound already ties
each controllable line's flow to its angles, except in two cases: a line
with ``s_min = 0`` keeps unbounded angle parts, since the row bounds only
the flow parts, and a line of infinite capacity gets no row.

The exact optimum is found by branch and bound over the direction of each
controllable line: bit 1 pins ``dminus`` and ``fminus`` at zero, bit 0 pins
``dplus`` and ``fplus``.  A node whose LP point already puts every
controllable line inside one of its two cones is realisable as it stands:
its value is the best of its whole subtree, so it becomes an incumbent and
closes the node.  Fixed lines carry no directional choice; their power law
is the equality ``f = s * dtheta``.

Open nodes wait in one priority queue, highest parent bound first (Land
and Doig, Econometrica 28, 1960), the newest first among equal bounds, and
of two siblings the one whose cone holds more of the split line's point:
the search dives while bounds tie.  The top of the queue is the upper
bound, so the search stops once that is within ``gap_tol`` of the
incumbent.  An unbounded node relaxation carries flow over a line of
infinite capacity; the node branches on its undecided controllable line of
largest capacity, whose pinned direction ties that flow to the angles.

A child differs from its parent only in the two cone parts it pins at zero,
so the parent's optimal basis, which each open node keeps (O(rows +
columns) integers, not the tableau), stays dual feasible for it: the dual
simplex of :func:`linprog.solve_lp` repairs the few rows the pinning breaks.
The root, and the children of an unbounded node, which has no basis to
hand on, start from the relaxation's spanning tree
(:meth:`formulations.NetworkLp.start_basis`), or from the slack basis on a
program too large for it.

This module holds only the search.  The builder from
:func:`formulations.build_mff_relaxation` gives the bounds that pin a bit,
the cone that holds a line's point, how the point splits between the
cones, and the operating point a vertex stands for.  MVF
(:func:`formulations.solve_mvf`) is a leaf of this search.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import time
from dataclasses import dataclass

from .linprog import LpBasis, LpError, solve_lp
from .model import DEFAULT_TOL, InputError, LdcSolution, Network, validate_solution
from .formulations import build_mff_relaxation, solve_mvf

__all__ = [
    "MffConfig",
    "MffResult",
    "solve_mff",
]

LineId = tuple[str, str]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MffConfig:
    gap_tol: float = 1e-4
    time_limit: float | None = None
    node_limit: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.gap_tol < math.inf:  # NaN fails too
            raise InputError("gap_tol must be finite and nonnegative")
        if self.time_limit is not None and not self.time_limit > 0:
            raise InputError("time_limit must be positive")
        if self.node_limit is not None and self.node_limit <= 0:
            raise InputError("node_limit must be positive")


@dataclass
class MffResult:
    solution: LdcSolution
    objective: float
    upper_bound: float
    gap: float
    node_count: int
    wall_time: float
    termination: str  # "optimal" | "gap_reached" | "time_limit" | "node_limit"
    #: Always ``False``: the cone-sum model has no big-M to retry.  Kept only
    #: because the benchmark's tracer (``bench/tracing.py``) still reads it.
    big_m_retried: bool = False


def solve_mff(net: Network, config: MffConfig | None = None,
              warm_start: LdcSolution | None = None) -> MffResult:
    """Exact maximum throughput by branch and bound over direction bits.

    ``warm_start`` (a feasible operating point, typically from the
    alternating heuristic) installs an initial incumbent, so the search can
    only improve on it.  Termination honours ``gap_tol`` (relative),
    ``time_limit`` (seconds) and ``node_limit``; the result always carries a
    feasible solution and a valid upper bound.  A node relaxation that is
    infeasible, or unbounded with no controllable line left to branch on,
    raises :class:`LpError`.  Each node is traced at ``DEBUG`` level.
    """
    config = config or MffConfig()

    start = time.monotonic()
    builder = build_mff_relaxation(net)
    facts = net.facts_lines()

    # The all-zero vertex is feasible at every node: the incumbent to beat.
    incumbent_sol = builder.solution([0.0] * builder.lp.num_vars)
    incumbent = 0.0
    if warm_start is not None:
        report = validate_solution(net, warm_start, DEFAULT_TOL)
        if not report.ok:
            raise InputError(f"warm start is not a feasible solution:\n{report}")
        incumbent_sol = warm_start
        incumbent = warm_start.value

    # Open nodes: (-parent bound, -sequence number, direction bits branched
    # on so far, parent basis), so the top is also the search's upper bound.
    heap: list[tuple[float, int, dict[LineId, int], LpBasis | None]] = [
        (-math.inf, 0, {}, None)]
    pushed = itertools.count(1)
    nodes = 0
    termination = "optimal"

    while heap and -heap[0][0] > incumbent + 1e-9:
        if (-heap[0][0] - incumbent) / max(1.0, abs(incumbent)) <= config.gap_tol:
            termination = "gap_reached"
            break
        if config.time_limit is not None and time.monotonic() - start > config.time_limit:
            termination = "time_limit"
            break
        if config.node_limit is not None and nodes >= config.node_limit:
            termination = "node_limit"
            break

        key, _, branched, basis = heapq.heappop(heap)
        if basis is None:  # the root, or a child of an unbounded node
            basis = builder.start_basis()
        res = solve_lp(builder.lp, bound_overrides=builder.pin(branched), basis=basis)
        nodes += 1
        if res.status not in ("optimal", "unbounded"):
            # The all-zero point is feasible at every node: a numerical failure.
            raise LpError(f"node relaxation solve returned {res.status}")
        bound = res.objective if res.status == "optimal" else math.inf
        logger.debug("node %d: depth %d parent bound %.6f bound %.6f incumbent %.6f",
                     nodes, len(branched), -key, bound, incumbent)
        if bound <= incumbent + 1e-9:
            continue

        if res.status == "unbounded":
            # The children wait at bound +inf; an unbounded solve has no basis.
            undecided = [ln for ln in facts if ln.key not in branched]
            if not undecided:
                raise LpError("node relaxation solve returned unbounded")
            ln, first = max(undecided, key=lambda line: line.capacity), 1
        else:
            x = res.x
            bits = dict(branched)
            split = []  # undecided lines whose point lies in neither cone
            for ln in facts:
                if ln.key in bits:
                    continue
                bit = builder.cone_bit(ln, x)
                if bit is None:
                    split.append((ln, *builder.cone_split(ln, x)))
                else:
                    bits[ln.key] = bit
            if not split:
                candidate = builder.solution(x, bits)
                if candidate is None or not validate_solution(net, candidate, DEFAULT_TOL).ok:
                    candidate = solve_mvf(net, bits)
                if candidate.value > incumbent:
                    incumbent = candidate.value
                    incumbent_sol = candidate
                continue
            # Branch where the two cones share the line's point most evenly;
            # the cone holding more of it is explored first.
            ln, plus, minus = max(split, key=lambda item: (
                min(item[1], item[2]) / (item[1] + item[2]), item[0].capacity))
            first = 1 if plus >= minus else 0
        for bit in (1 - first, first):
            heapq.heappush(heap, (-bound, -next(pushed), {**branched, ln.key: bit}, res.basis))

    upper = incumbent if termination == "optimal" else max(incumbent, -heap[0][0])
    gap = (upper - incumbent) / max(1.0, abs(incumbent))
    return MffResult(
        solution=incumbent_sol,
        objective=incumbent,
        upper_bound=upper,
        gap=gap,
        node_count=nodes,
        wall_time=time.monotonic() - start,
        termination=termination,
    )
