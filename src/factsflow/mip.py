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

A brute-force reference — enumerate every direction assignment of the
controllable lines and take the best fixed-direction LP — is provided for
small instances as :func:`enumerate_signs_oracle`.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass
from typing import Mapping

from .linprog import solve_lp
from .model import (
    DEFAULT_TOL,
    InjectionSolution,
    InputError,
    LdcSolution,
    Line,
    Network,
    validate_solution,
)
from .formulations import (
    UNBOUNDED_S_CAP,
    ConeParts,
    NetworkLp,
    SignPattern,
    directed_susceptance,
    extract_signs,
    forced_sign_bits,
    solve_mvf,
)

__all__ = [
    "MffConfig",
    "MffResult",
    "OracleResult",
    "build_mff_relaxation",
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


@dataclass(frozen=True)
class OracleResult:
    value: float
    pattern: SignPattern
    patterns_tried: int


def build_mff_relaxation(net: Network) -> tuple[NetworkLp, dict[LineId, ConeParts],
                                                 dict[LineId, int]]:
    """The cone-sum relaxation that every branch-and-bound node solves.

    Returns the program's builder, the cone parts of each controllable line
    and the direction bits fixed by presolve (:func:`forced_sign_bits`),
    which are already pinned in the program's bounds.
    """
    builder = NetworkLp(net)
    parts: dict[LineId, ConeParts] = {}
    for ln in net.lines:
        if ln.is_facts:
            parts[ln.key] = builder.add_power_law(ln)
        else:
            builder.add_power_law(ln, s=ln.s_min)
    builder.add_balance_rows()
    builder.set_throughput_objective()
    forced = {k: b for k, b in forced_sign_bits(net).items() if k in parts}
    for key, bit in forced.items():
        for idx in parts[key].against(bit):
            builder.lp.ub[idx] = 0.0
    return builder, parts, forced


def _zero_solution(net: Network) -> LdcSolution:
    suscept = {ln.key: ln.s_min for ln in net.lines}
    theta = {b.id: 0.0 for b in net.buses}
    inj = InjectionSolution(flow={ln.key: 0.0 for ln in net.lines}, gen={}, load={})
    return LdcSolution(susceptance=suscept, theta=theta, injections=inj)


def _cone_bit(ln: Line, dtheta: float, flow: float) -> int | None:
    """The direction whose cone holds ``(dtheta, flow)``, bit 1 on a tie;
    ``None`` when neither does."""
    tol = 1e-7
    s_hi = UNBOUNDED_S_CAP if math.isinf(ln.s_max) else ln.s_max
    for bit, sgn in ((1, 1.0), (0, -1.0)):
        d, f = sgn * dtheta, sgn * flow
        if d >= -tol and ln.s_min * d - tol <= f <= s_hi * d + tol:
            return bit
    return None


def _node_solution(net: Network, builder: NetworkLp, x,
                   bits: dict[LineId, int]) -> LdcSolution | None:
    """The operating point of a closed node's LP vertex ``x``, or ``None``
    when a line's susceptance cannot be read off it."""
    suscept: dict[LineId, float] = {}
    for ln in net.lines:
        if ln.key not in bits:
            suscept[ln.key] = ln.s_min
            continue
        sgn = 1.0 if bits[ln.key] == 1 else -1.0
        dtheta = float(x[builder.theta[ln.b]]) - float(x[builder.theta[ln.a]])
        s = directed_susceptance(ln, sgn * dtheta, abs(float(x[builder.flow[ln.key]])))
        if s is None:
            return None
        suscept[ln.key] = s
    return builder.extract(x, suscept).solution


def solve_mff(net: Network, config: MffConfig | None = None,
              warm_start: LdcSolution | None = None) -> MffResult:
    """Exact maximum throughput by branch and bound over direction bits.

    ``warm_start`` (a feasible operating point, typically from the
    alternating heuristic) installs an initial incumbent, so the search can
    only improve on it.  Termination honours ``gap_tol`` (relative),
    ``time_limit`` (seconds) and ``node_limit``; the result always carries a
    feasible solution and a valid upper bound.  Each node is traced at
    ``DEBUG`` level on this module's logger.
    """
    config = config or MffConfig()
    if config.time_limit is not None and config.time_limit <= 0:
        raise InputError("time_limit must be positive")
    if config.node_limit is not None and config.node_limit <= 0:
        raise InputError("node_limit must be positive")

    start = time.monotonic()
    builder, parts, forced = build_mff_relaxation(net)
    by_key = {ln.key: ln for ln in net.lines}

    incumbent_sol = _zero_solution(net)
    incumbent = 0.0
    if warm_start is not None:
        report = validate_solution(net, warm_start, DEFAULT_TOL)
        if not report.ok:
            raise InputError(f"warm start is not a feasible solution:\n{report}")
        incumbent_sol = warm_start
        incumbent = warm_start.objective()

    # Nodes: (parent bound, direction bits branched on so far).
    stack: list[tuple[float, dict[LineId, int]]] = [(math.inf, {})]
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

        parent_bound, branched = stack.pop()
        if parent_bound <= incumbent + 1e-9:
            continue
        overrides = {idx: (0.0, 0.0) for key, bit in branched.items()
                     for idx in parts[key].against(bit)}
        res = solve_lp(builder.lp, 1e-8, bound_overrides=overrides)
        nodes += 1
        if res.status != "optimal":
            continue  # relaxation infeasible under these fixings: prune
        bound = res.objective
        logger.debug("node %d: depth %d bound %.6f incumbent %.6f",
                     nodes, len(branched), bound, incumbent)
        if bound <= incumbent + 1e-9:
            continue

        x = res.x
        bits = dict(forced)
        bits.update(branched)
        split = []  # undecided lines whose point lies in neither cone
        for key, p in parts.items():
            if key in bits:
                continue
            ln = by_key[key]
            dtheta = float(x[builder.theta[ln.b]] - x[builder.theta[ln.a]])
            bit = _cone_bit(ln, dtheta, float(x[builder.flow[key]]))
            if bit is None:
                plus = float(x[p.dplus] + x[p.fplus])
                minus = float(x[p.dminus] + x[p.fminus])
                split.append((key, plus, minus))
            else:
                bits[key] = bit
        if not split:
            candidate = _node_solution(net, builder, x, bits)
            if candidate is not None and validate_solution(net, candidate, DEFAULT_TOL).ok:
                value = candidate.objective()
            else:
                mvf = solve_mvf(net, SignPattern(bits))
                candidate, value = mvf.solution, mvf.value
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
                stack.append((bound, child))

        stack = [item for item in stack if item[0] > incumbent + 1e-9]
        if stack:
            ub_now = max(incumbent, max(b for b, _ in stack))
            if math.isfinite(ub_now) and (
                (ub_now - incumbent) / max(1.0, abs(incumbent)) <= config.gap_tol
            ):
                termination = "gap_reached"
                break

    if stack:
        upper = max(incumbent, max(b for b, _ in stack))
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
                           pinned_flows: Mapping[LineId, float] | None = None,
                           presolve_signs: bool = True) -> OracleResult:
    """Brute-force reference optimum by direction enumeration.

    Every operating point induces a direction bit per controllable line, so
    the maximum over all fixed-direction LPs equals the true optimum.  Fixed
    lines carry no directional choice (their power law is an equality) and
    provably one-directional lines are pinned up front, which keeps the
    enumeration to the genuinely free bits.  Refuses instances with more
    than ``max_lines`` free bits.
    """
    facts_keys = [ln.key for ln in net.facts_lines()]
    forced = forced_sign_bits(net) if presolve_signs else {}
    fixed_bits = {k: forced[k] for k in facts_keys if k in forced}
    free = [k for k in facts_keys if k not in fixed_bits]
    if len(free) > max_lines:
        raise InputError(
            f"{len(free)} free direction bits exceed the enumeration cap {max_lines}"
        )

    best_value = -math.inf
    best_result = None
    tried = 0
    for combo in itertools.product((0, 1), repeat=len(free)):
        bits = dict(fixed_bits)
        bits.update({k: b for k, b in zip(free, combo)})
        result = solve_mvf(net, SignPattern(bits), pinned_flows=pinned_flows)
        tried += 1
        if result is None:
            continue  # pinned flows incompatible with this direction choice
        if result.value > best_value:
            best_value = result.value
            best_result = result
    if best_result is None:
        raise InputError("pinned flows are infeasible under every direction choice")
    pattern = extract_signs(net, best_result.theta)
    return OracleResult(value=best_value, pattern=pattern, patterns_tried=tried)
