"""Classic maximum flow and constructive lifts to power-law solutions.

The maximum flow of a network ignores the power law entirely: it maximises
total generation subject only to flow conservation, line capacities and the
generator/load typing.  It always dominates the power-law-constrained optima
and therefore serves as a cheap upper bound and, in three special cases, as
the exact answer:

* tree networks,
* networks whose every susceptance interval starts at zero,
* networks whose every susceptance interval is unbounded above.

In those cases an optimal acyclic flow can be *lifted* to a full operating
point (angles plus susceptances) certifying that the bound is attained.  The
lift solves a small feasibility LP over phase angles, and a flow that does
not lift is swapped for another optimal one by an LP over flows; both are
built on :class:`formulations.NetworkLp`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .formulations import NetworkLp, _at_rest_susceptance
from .linprog import LpError, solve_lp
from .model import (
    BusKind,
    InjectionSolution,
    InputError,
    LdcSolution,
    Network,
)

__all__ = [
    "MfSolution",
    "LemmaLift",
    "LiftInfeasible",
    "LiftFailure",
    "max_flow",
    "cancel_cycles",
    "lift_flow_to_ldc",
    "mff_via_lemma",
]

LineId = tuple[str, str]

#: Flows and residual capacities at or below this count as zero.
_FLOW_TOL = 1e-12
#: Flows at or below this count as zero in a lift; a lift whose angle margin
#: is at or below it has failed.
_LIFT_TOL = 1e-9
#: Alternative optimal flows tried after the first fails to lift.
_LIFT_RETRIES = 5

_SOURCE = object()
_SINK = object()


@dataclass(frozen=True)
class MfSolution:
    injections: InjectionSolution
    value: float


@dataclass(frozen=True)
class LemmaLift:
    """A certified special-case optimum: flow value plus a lifted solution."""

    kind: str  # "tree" | "zero_lower" | "unbounded_upper"
    value: float
    solution: LdcSolution


class LiftInfeasible(Exception):
    """The given flow admits no consistent phase-angle assignment."""


class LiftFailure(Exception):
    """All lift attempts failed; carries diagnostics for inspection."""

    def __init__(self, kind: str, value: float, flow: dict[LineId, float]):
        super().__init__(
            f"{kind}: no optimal flow of value {value} could be lifted "
            f"after retries"
        )
        self.kind = kind
        self.value = value
        self.flow = flow


def max_flow(net: Network) -> MfSolution:
    """Maximum throughput ignoring the power law (augmenting-path method).

    Generators hang off a super source and loads feed a super sink, both
    through unlimited arcs; shortest augmenting paths are pushed until none
    remains.  The returned flow is made acyclic before returning.  A
    generator-to-load path of infinite capacity raises :class:`InputError`.
    """
    arcs: dict[object, dict[object, float]] = {}

    def add_arc(u, v, cap):
        arcs.setdefault(u, {})[v] = arcs.get(u, {}).get(v, 0.0) + cap
        arcs.setdefault(v, {}).setdefault(u, 0.0)

    for ln in net.lines:
        add_arc(ln.a, ln.b, float(ln.capacity))
        add_arc(ln.b, ln.a, float(ln.capacity))
    for bus in net.buses:
        if bus.kind is BusKind.GENERATOR:
            add_arc(_SOURCE, bus.id, math.inf)
        elif bus.kind is BusKind.LOAD:
            add_arc(bus.id, _SINK, math.inf)
    arcs.setdefault(_SOURCE, {})
    arcs.setdefault(_SINK, {})

    # Signed flow per arc pair: flow[u, v] == -flow[v, u].
    flow: dict[tuple, float] = {}
    total = 0.0
    while True:
        # BFS for the shortest augmenting path.
        parent = {_SOURCE: None}
        queue = [_SOURCE]
        while queue and _SINK not in parent:
            nxt = []
            for u in queue:
                for v, cap in arcs[u].items():
                    if v not in parent and cap - flow.get((u, v), 0.0) > _FLOW_TOL:
                        parent[v] = u
                        nxt.append(v)
            queue = nxt
        if _SINK not in parent:
            break
        path = []
        node = _SINK
        while parent[node] is not None:
            path.append((parent[node], node))
            node = parent[node]
        bottleneck = min(arcs[u][v] - flow.get((u, v), 0.0) for u, v in path)
        if math.isinf(bottleneck):
            raise InputError("unbounded maximum flow (infinite-capacity path)")
        for u, v in path:
            flow[u, v] = flow.get((u, v), 0.0) + bottleneck
            flow[v, u] = flow.get((v, u), 0.0) - bottleneck
        total += bottleneck

    gen = {b.id: flow.get((_SOURCE, b.id), 0.0) for b in net.buses
           if b.kind is BusKind.GENERATOR}
    load = {b.id: flow.get((b.id, _SINK), 0.0) for b in net.buses
            if b.kind is BusKind.LOAD}
    line_flow = {ln.key: flow.get((ln.a, ln.b), 0.0) for ln in net.lines}
    inj = cancel_cycles(net, InjectionSolution(flow=line_flow, gen=gen, load=load))
    return MfSolution(injections=inj, value=total)


def cancel_cycles(net: Network, inj: InjectionSolution) -> InjectionSolution:
    """Remove directed flow cycles without touching any bus imbalance.

    Repeatedly finds a cycle in the graph of nonzero flows (arcs oriented by
    flow sign) and subtracts the smallest magnitude around it, which zeroes
    at least one line per round.  No flow magnitude ever increases.
    """
    flow = {k: float(v) for k, v in inj.flow.items()}

    def flow_arcs() -> dict[str, list[tuple[str, LineId, float]]]:
        out: dict[str, list[tuple[str, LineId, float]]] = {}
        for ln in net.lines:
            f = flow.get(ln.key, 0.0)
            if f > _FLOW_TOL:
                out.setdefault(ln.a, []).append((ln.b, ln.key, 1.0))
            elif f < -_FLOW_TOL:
                out.setdefault(ln.b, []).append((ln.a, ln.key, -1.0))
        return out

    def find_cycle(arcs) -> list[tuple[LineId, float]] | None:
        color: dict[str, int] = {}
        for start in arcs:
            if color.get(start, 0) != 0:
                continue
            color[start] = 1
            # The DFS path: (node, its unexplored arcs, the arc that reached it).
            stack = [(start, iter(arcs[start]), None)]
            while stack:
                node, it, _ = stack[-1]
                for nxt, key, sign in it:
                    if color.get(nxt, 0) == 1:
                        idx = next(i for i, entry in enumerate(stack) if entry[0] == nxt)
                        return [entry[2] for entry in stack[idx + 1:]] + [(key, sign)]
                    if color.get(nxt, 0) == 0:
                        color[nxt] = 1
                        stack.append((nxt, iter(arcs.get(nxt, ())), (key, sign)))
                        break
                else:
                    color[node] = 2
                    stack.pop()
        return None

    while True:
        cycle = find_cycle(flow_arcs())
        if cycle is None:
            break
        slack = min(abs(flow[key]) for key, _ in cycle)
        for key, sign in cycle:
            flow[key] -= sign * slack
            if abs(flow[key]) <= _FLOW_TOL:
                flow[key] = 0.0
    return InjectionSolution(flow=flow, gen=dict(inj.gen), load=dict(inj.load))


def lift_flow_to_ldc(net: Network, inj: InjectionSolution) -> LdcSolution:
    """Find angles and susceptances realising an acyclic conserved flow.

    With flows fixed, eliminating the susceptance turns the power law into
    linear two-sided bounds on each angle difference; the lift solves that
    feasibility system.  Lines whose interval is unbounded above need a
    *strictly* positive angle difference (otherwise no finite susceptance
    reproduces the flow), which is enforced by maximising a uniform margin
    variable.  Raises :class:`LiftInfeasible` when the system has no
    solution, which signals that this particular flow is not realisable
    under the susceptance intervals.
    """
    builder = NetworkLp(net)
    lp, theta = builder.lp, builder.theta
    t_margin = lp.add_var("margin", 0.0, 1.0)
    uses_margin = False

    for ln in net.lines:
        f = float(inj.flow.get(ln.key, 0.0))
        ta, tb = theta[ln.a], theta[ln.b]
        if abs(f) <= _LIFT_TOL:
            if ln.s_min > 0.0:
                lp.add_constraint({tb: 1.0, ta: -1.0}, "=", 0.0)
            continue
        sign = 1.0 if f > 0 else -1.0
        mag = abs(f)
        # sign * (theta[b] - theta[a]) must land in [mag/s_max, mag/s_min].
        if math.isinf(ln.s_max):
            alpha = 1.0 if ln.s_min == 0.0 else min(1.0, 1.0 / ln.s_min)
            lp.add_constraint({tb: sign, ta: -sign, t_margin: -mag * alpha}, ">=", 0.0)
            uses_margin = True
        else:
            lp.add_constraint({tb: sign, ta: -sign}, ">=", mag / ln.s_max)
        if ln.s_min > 0.0:
            lp.add_constraint({tb: sign, ta: -sign}, "<=", mag / ln.s_min)

    lp.set_objective({t_margin: 1.0} if uses_margin else {})
    res = solve_lp(lp)
    if res.status != "optimal":
        raise LiftInfeasible("no consistent phase-angle assignment")
    if uses_margin and res.value(t_margin) <= _LIFT_TOL:
        raise LiftInfeasible(
            "flow needs an unbounded susceptance (zero margin on some line)"
        )
    angles = {b: float(res.x[i]) for b, i in theta.items()}
    # Susceptance assembly: the feasibility rows guarantee each ratio lies
    # inside its interval (up to solver residual), so a clamp is exact.
    suscept: dict[LineId, float] = {}
    for ln in net.lines:
        f = float(inj.flow.get(ln.key, 0.0))
        if abs(f) <= _LIFT_TOL:
            suscept[ln.key] = 0.0 if ln.s_min == 0.0 else _at_rest_susceptance(ln)
            continue
        d = angles[ln.b] - angles[ln.a]
        if d == 0.0:
            raise LiftInfeasible(
                f"line {ln.a}-{ln.b} carries flow across an exactly zero "
                "angle difference"
            )
        suscept[ln.key] = min(max(f / d, ln.s_min), ln.s_max)
    return LdcSolution(susceptance=suscept, theta=angles, injections=inj)


def _alternative_max_flow(net: Network, value: float, seed: int) -> InjectionSolution:
    """Another optimal flow, obtained by optimising seeded epsilon costs
    subject to keeping the throughput at ``value``."""
    rng = random.Random(seed)
    builder = NetworkLp(net)
    builder.add_balance_rows()
    builder.lp.add_constraint({i: 1.0 for i in builder.gen.values()}, ">=", value - 1e-9)
    builder.lp.set_objective({i: rng.uniform(-1.0, 1.0) for i in builder.flow.values()})
    res = solve_lp(builder.lp)
    if res.status != "optimal":
        raise LpError(f"alternative optimum solve returned {res.status}")
    return cancel_cycles(net, builder.solution(res.x).injections)


def mff_via_lemma(net: Network) -> LemmaLift | None:
    """Constructive optimum for the three special cases, or ``None``.

    When the network is a tree, or every interval starts at zero, or every
    interval is unbounded above, the power-law optimum equals the plain
    maximum flow; this returns that value together with a lifted solution
    certifying it.  Outside the special cases returns ``None``.

    Some optimal flows of the unbounded-above case cannot be lifted (zero
    flow forces equal angles, which may clash with ordering around cycles);
    up to five alternative optimal flows are tried before giving up
    with :class:`LiftFailure`.
    """
    if net.is_tree():
        kind = "tree"
    elif all(ln.s_min == 0.0 for ln in net.lines):
        kind = "zero_lower"
    elif all(math.isinf(ln.s_max) for ln in net.lines):
        kind = "unbounded_upper"
    else:
        return None

    mf = max_flow(net)
    inj = mf.injections
    for attempt in range(_LIFT_RETRIES + 1):
        try:
            return LemmaLift(kind=kind, value=mf.value, solution=lift_flow_to_ldc(net, inj))
        except LiftInfeasible:
            if attempt == _LIFT_RETRIES:
                raise LiftFailure(kind, mf.value, dict(inj.flow)) from None
            inj = _alternative_max_flow(net, mf.value, seed=1000 + attempt)
