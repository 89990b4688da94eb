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

is the exact convex-hull relaxation of the disjunction (Balas, "Disjunctive
programming: properties of the convex hull of feasible points", Discrete
Appl. Math. 89, 1998).  It needs no binary variable and no big-M.

The exact optimum is found by branch and bound over the direction of each
controllable line: bit 1 pins ``dminus`` and ``fminus`` at zero, bit 0 pins
``dplus`` and ``fplus``.  A node whose LP point already puts every
controllable line inside one of its two cones is realisable as it stands:
its value is the best of its whole subtree, so it becomes an incumbent and
closes the node.  Fixed lines carry no directional choice; their power law
is the equality ``f = s * dtheta``.

A child differs from its parent only in the two cone parts it pins at zero,
so its parent's optimal basis stays dual feasible for it.  Each open node
keeps that basis (O(rows + columns) integers, not the tableau), and both
children start their LP from it: the dual simplex of :func:`linprog.solve_lp`
repairs the few rows the pinning breaks.

This module holds only the search.  The relaxation is built by
:func:`formulations.build_mff_relaxation`, and the search asks its builder
which cone holds a line's point and what operating point a vertex stands
for.  MVF (:func:`formulations.solve_mvf`) is a leaf of this search: the
relaxation with the opposite cone parts of every controllable line pinned
at zero.  Fixed lines take no bit.

A brute-force reference — the best MVF over every direction assignment of
the controllable lines — is provided for small instances as
:func:`enumerate_signs_oracle`.  It solves the search's own program.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass
from typing import Mapping

from .linprog import LpBasis, LpError, solve_lp
from .model import DEFAULT_TOL, InputError, LdcSolution, Network, validate_solution
from .formulations import build_mff_relaxation, solve_mvf

__all__ = [
    "MffConfig",
    "MffResult",
    "solve_mff",
    "enumerate_signs_oracle",
]

LineId = tuple[str, str]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MffConfig:
    gap_tol: float = 1e-4
    time_limit: float | None = None
    node_limit: int | None = None


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
    feasible solution and a valid upper bound.  A node relaxation that does
    not solve to optimality raises :class:`LpError`.  Each node is traced at
    ``DEBUG`` level on this module's logger.
    """
    config = config or MffConfig()
    if config.time_limit is not None and config.time_limit <= 0:
        raise InputError("time_limit must be positive")
    if config.node_limit is not None and config.node_limit <= 0:
        raise InputError("node_limit must be positive")

    start = time.monotonic()
    builder, parts = build_mff_relaxation(net)
    by_key = {ln.key: ln for ln in net.lines}

    # The all-zero vertex is feasible at every node: the incumbent to beat.
    incumbent_sol = builder.solution([0.0] * builder.lp.num_vars, {})
    incumbent = 0.0
    if warm_start is not None:
        report = validate_solution(net, warm_start, DEFAULT_TOL)
        if not report.ok:
            raise InputError(f"warm start is not a feasible solution:\n{report}")
        incumbent_sol = warm_start
        incumbent = warm_start.value

    # Nodes: (parent bound, direction bits branched on so far, parent basis).
    stack: list[tuple[float, dict[LineId, int], LpBasis | None]] = [(math.inf, {}, None)]
    nodes = 0
    termination = "optimal"

    while stack:
        if config.time_limit is not None and time.monotonic() - start > config.time_limit:
            termination = "time_limit"
            break
        if config.node_limit is not None and nodes >= config.node_limit:
            termination = "node_limit"
            break
        if nodes and nodes % 100 == 0:
            stack.sort(key=lambda item: item[0])  # best bound explored next

        _, branched, basis = stack.pop()
        overrides = {idx: (0.0, 0.0) for key, bit in branched.items()
                     for idx in parts[key].against(bit)}
        res = solve_lp(builder.lp, bound_overrides=overrides, basis=basis)
        nodes += 1
        if res.status != "optimal":
            # The all-zero point is feasible at every node and the objective
            # is bounded, so any other status is a numerical failure.
            raise LpError(f"node relaxation solve returned {res.status}")
        bound = res.objective
        logger.debug("node %d: depth %d bound %.6f incumbent %.6f",
                     nodes, len(branched), bound, incumbent)
        if bound <= incumbent + 1e-9:
            continue

        x = res.x
        bits = dict(branched)
        split = []  # undecided lines whose point lies in neither cone
        for key, p in parts.items():
            if key in bits:
                continue
            bit = builder.cone_bit(by_key[key], x)
            if bit is None:
                plus = float(x[p.dplus] + x[p.fplus])
                minus = float(x[p.dminus] + x[p.fminus])
                split.append((key, plus, minus))
            else:
                bits[key] = bit
        if not split:
            candidate = builder.solution(x, bits)
            if candidate is not None and validate_solution(net, candidate, DEFAULT_TOL).ok:
                value = candidate.value
            else:
                candidate = solve_mvf(net, bits)
                value = candidate.value
            if value > incumbent:
                incumbent = value
                incumbent_sol = candidate
        else:
            # Branch where the two cones share the line's point most evenly;
            # the cone holding more of it is explored first.
            key, plus, minus = max(split, key=lambda item: (
                min(item[1], item[2]) / (item[1] + item[2]), by_key[item[0]].capacity))
            first = 1 if plus >= minus else 0
            for bit in (1 - first, first):
                child = dict(branched)
                child[key] = bit
                stack.append((bound, child, res.basis))

        stack = [item for item in stack if item[0] > incumbent + 1e-9]
        if stack:
            ub_now = max(incumbent, max(item[0] for item in stack))
            if math.isfinite(ub_now) and (
                (ub_now - incumbent) / max(1.0, abs(incumbent)) <= config.gap_tol
            ):
                termination = "gap_reached"
                break

    if stack:
        upper = max(incumbent, max(item[0] for item in stack))
    else:
        upper = incumbent
        termination = "optimal"
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


def enumerate_signs_oracle(net: Network, max_lines: int = 16,
                           pinned_flows: Mapping[LineId, float] | None = None
                           ) -> LdcSolution:
    """Brute-force reference optimum by direction enumeration.

    Every operating point induces a direction bit per controllable line, so
    the best of the fixed-direction LPs over all assignments is the true
    optimum; it is returned.  Fixed lines carry no directional choice (their
    power law is an equality).  Refuses instances with more than
    ``max_lines`` controllable lines.
    """
    keys = [ln.key for ln in net.facts_lines()]
    if len(keys) > max_lines:
        raise InputError(
            f"{len(keys)} controllable lines exceed the enumeration cap {max_lines}"
        )
    best: LdcSolution | None = None
    for combo in itertools.product((0, 1), repeat=len(keys)):
        result = solve_mvf(net, dict(zip(keys, combo)), pinned_flows=pinned_flows)
        if result is None:
            continue  # pinned flows incompatible with this direction choice
        if best is None or result.value > best.value:
            best = result
    if best is None:
        raise InputError("pinned flows are infeasible under every direction choice")
    return best
