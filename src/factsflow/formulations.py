"""Throughput LPs over a network: fixed-susceptance and fixed-direction.

Two linear programs are the workhorses of the whole package:

* :func:`solve_mpf` — maximum power flow with every susceptance pinned to a
  given value (the classic linearised dispatch problem);
* :func:`solve_mvf` — maximum flow when the *direction* of every angle
  difference is pinned by a :class:`SignPattern` while susceptances float
  inside their intervals.

Both never come back infeasible: the all-zero operating point satisfies any
sign pattern.  Alongside them live the glue utilities that move between the
two worlds: extracting a sign pattern from phase angles, reading a line's
susceptance off a solved program's angle part and flow, and a conservative
presolve that pins angle-direction bits that every feasible operating point
must share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .linprog import LinearProgram, LpError, solve_lp
from .model import (
    BusKind,
    InjectionSolution,
    InputError,
    LdcSolution,
    Line,
    Network,
)

__all__ = [
    "SignPattern",
    "FlowSolveResult",
    "ConeParts",
    "NetworkLp",
    "UNBOUNDED_S_CAP",
    "solve_mpf",
    "solve_mvf",
    "extract_signs",
    "directed_susceptance",
    "forced_sign_bits",
    "forced_flow_signs",
    "midpoint_susceptances",
]

LineId = tuple[str, str]

#: Angle differences within this of zero read as bit 1 in :func:`extract_signs`.
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class SignPattern:
    """Per-line direction bit for the phase-angle difference.

    Bit 1 means ``theta[b] - theta[a] >= 0`` on line ``(a, b)``; bit 0 means
    ``<= 0``.  A pattern may be *partial*: lines with a fixed susceptance may
    omit their bit (their flow already equals ``s * dtheta`` with no
    directional choice), but every controllable line must carry one.
    """

    bits: Mapping[LineId, int]

    def bit(self, key: LineId) -> int | None:
        return self.bits.get(key)

    def __getitem__(self, key: LineId) -> int:
        return self.bits[key]

    def __contains__(self, key: LineId) -> bool:
        return key in self.bits

    def is_total(self, net: Network) -> bool:
        return all(ln.key in self.bits for ln in net.lines)


@dataclass(frozen=True)
class FlowSolveResult:
    """Outcome of an MPF or MVF solve."""

    value: float
    theta: dict[str, float]
    flow: dict[LineId, float]
    gen: dict[str, float]
    load: dict[str, float]
    susceptance: dict[LineId, float]

    @property
    def solution(self) -> LdcSolution:
        return LdcSolution(
            susceptance=self.susceptance,
            theta=self.theta,
            injections=InjectionSolution(flow=self.flow, gen=self.gen, load=self.load),
        )


#: Stand-in ceiling for susceptance intervals unbounded above.  Any finite
#: susceptance is a legal choice on such a line; coupling the flow to the
#: angle difference through this ceiling keeps the fixed-direction program
#: inside the realisable region (simply dropping the upper coupling would
#: admit flow across an exactly-zero angle difference, which no finite
#: susceptance reproduces when the rest of the network pins the angles).
#: The value balances generosity (physical susceptances here are O(10), and
#: only synthetic fixtures carry unbounded intervals) against conditioning:
#: recovered susceptances re-enter later programs as matrix coefficients, so
#: large ceilings directly degrade the achievable objective accuracy.
UNBOUNDED_S_CAP = 100.0


class ConeParts(NamedTuple):
    """Indices of one controllable line's parts in the cone-sum relaxation."""

    dplus: int
    dminus: int
    fplus: int
    fminus: int

    def against(self, bit: int) -> tuple[int, int]:
        """The parts that direction ``bit`` pins at zero."""
        return (self.dminus, self.fminus) if bit == 1 else (self.dplus, self.fplus)


class NetworkLp:
    """Shared scaffolding: theta / gen / load / flow variables and balance rows."""

    def __init__(self, net: Network):
        self.net = net
        self.lp = LinearProgram()
        self.theta = {}
        for bus in net.buses:
            self.theta[bus.id] = self.lp.add_var(f"theta[{bus.id}]", -math.inf, math.inf)
        # Pin one reference angle per connected component.
        for comp in net.components():
            ref = comp[0]
            idx = self.theta[ref]
            self.lp.lb[idx] = 0.0
            self.lp.ub[idx] = 0.0
        self.gen = {}
        self.load = {}
        for bus in net.buses:
            if bus.kind is BusKind.GENERATOR:
                self.gen[bus.id] = self.lp.add_var(f"gen[{bus.id}]", 0.0, math.inf)
            elif bus.kind is BusKind.LOAD:
                self.load[bus.id] = self.lp.add_var(f"load[{bus.id}]", 0.0, math.inf)
        self.flow = {}
        for ln in net.lines:
            self.flow[ln.key] = self.lp.add_var(
                f"flow[{ln.a}-{ln.b}]", -ln.capacity, ln.capacity
            )

    def add_power_law(self, ln: Line, s: float | None = None,
                      bit: int | None = None) -> tuple[int, ...]:
        """Write line ``ln``'s power law; return the direction variables added.

        * ``s`` given: the fixed line ``f = s * dtheta``, an equality with
          no direction variable;
        * ``bit`` given: the direction is pinned (MVF), through one angle
          part ``delta = sgn * dtheta >= 0``;
        * neither: the cone-sum relaxation of both directions (MFF), through
          the parts ``(dplus, dminus, fplus, fminus)`` with
          ``dplus - dminus = dtheta`` and ``f = fplus - fminus``.

        Each direction case is the cone ``s_min * delta <= sgn * f <= s_hi *
        delta`` with ``s_hi = UNBOUNDED_S_CAP`` on intervals unbounded above.
        """
        lp = self.lp
        f = self.flow[ln.key]
        ta, tb = self.theta[ln.a], self.theta[ln.b]
        tag = f"{ln.a}-{ln.b}"
        if s is not None:
            if s > 1.0:  # scale large susceptances out of the row for conditioning
                lp.add_constraint({f: 1.0 / s, tb: -1.0, ta: 1.0}, "=", 0.0)
            else:
                lp.add_constraint({f: 1.0, tb: -s, ta: s}, "=", 0.0)
            return ()
        s_hi = UNBOUNDED_S_CAP if math.isinf(ln.s_max) else ln.s_max

        def cone(delta: int, flow: int, sgn: float) -> None:
            # The upper half is written as delta >= f / s_hi for benign scaling.
            lp.add_constraint({flow: sgn, delta: -ln.s_min}, ">=", 0.0)
            lp.add_constraint({delta: 1.0, flow: -sgn / s_hi}, ">=", 0.0)

        if bit is not None:
            if bit not in (0, 1):
                raise InputError(f"bad direction bit {bit!r} for line {tag}")
            sgn = 1.0 if bit == 1 else -1.0
            delta = lp.add_var(f"delta[{tag}]", 0.0, math.inf)
            lp.add_constraint({tb: sgn, ta: -sgn, delta: -1.0}, "=", 0.0)
            cone(delta, f, sgn)
            return (delta,)
        parts = ConeParts(*(lp.add_var(f"{name}[{tag}]", 0.0, math.inf)
                            for name in ConeParts._fields))
        lp.add_constraint({parts.dplus: 1.0, parts.dminus: -1.0, tb: -1.0, ta: 1.0},
                          "=", 0.0)
        cone(parts.dplus, parts.fplus, 1.0)
        cone(parts.dminus, parts.fminus, 1.0)
        lp.add_constraint({f: 1.0, parts.fplus: -1.0, parts.fminus: 1.0}, "=", 0.0)
        return parts

    def add_balance_rows(self) -> None:
        per_bus: dict[str, dict[int, float]] = {b.id: {} for b in self.net.buses}
        for ln in self.net.lines:
            f = self.flow[ln.key]
            per_bus[ln.a][f] = per_bus[ln.a].get(f, 0.0) + 1.0
            per_bus[ln.b][f] = per_bus[ln.b].get(f, 0.0) - 1.0
        for bus in self.net.buses:
            coeffs = dict(per_bus[bus.id])
            if bus.id in self.gen:
                coeffs[self.gen[bus.id]] = -1.0
            if bus.id in self.load:
                coeffs[self.load[bus.id]] = 1.0
            self.lp.add_constraint(coeffs, "=", 0.0)

    def set_throughput_objective(self) -> None:
        self.lp.set_objective({idx: 1.0 for idx in self.gen.values()})

    def extract(self, x, susceptance: dict[LineId, float]) -> FlowSolveResult:
        theta = {b: float(x[i]) for b, i in self.theta.items()}
        flow = {k: float(x[i]) for k, i in self.flow.items()}
        gen = {b: float(x[i]) for b, i in self.gen.items()}
        load = {b: float(x[i]) for b, i in self.load.items()}
        return FlowSolveResult(
            value=sum(gen.values()),
            theta=theta,
            flow=flow,
            gen=gen,
            load=load,
            susceptance=susceptance,
        )


def midpoint_susceptances(net: Network) -> dict[LineId, float]:
    """A valid susceptance point: interval midpoint, ``s_min + 0.5`` when unbounded."""
    out = {}
    for ln in net.lines:
        if math.isinf(ln.s_max):
            out[ln.key] = ln.s_min + 0.5
        else:
            out[ln.key] = 0.5 * (ln.s_min + ln.s_max)
    return out


def build_mpf_program(net: Network, s: Mapping[LineId, float] | None = None
                      ) -> tuple[NetworkLp, dict[LineId, float]]:
    """The fixed-susceptance LP and the validated susceptance point."""
    s = dict(s) if s is not None else {}
    pinned: dict[LineId, float] = {}
    for ln in net.lines:
        val = float(s.get(ln.key, ln.s_min))
        if not (ln.s_min - 1e-12 <= val <= ln.s_max + 1e-12):
            raise InputError(
                f"susceptance {val} for line {ln.a}-{ln.b} outside [{ln.s_min}, {ln.s_max}]"
            )
        pinned[ln.key] = val
    builder = NetworkLp(net)
    for ln in net.lines:
        builder.add_power_law(ln, s=pinned[ln.key])
    builder.add_balance_rows()
    builder.set_throughput_objective()
    return builder, pinned


def solve_mpf(net: Network, s: Mapping[LineId, float] | None = None) -> FlowSolveResult:
    """Maximum throughput with susceptances pinned at ``s``.

    ``s`` must lie inside each line's interval; lines omitted from ``s``
    default to ``s_min``.  Never infeasible (the zero point always works).
    """
    builder, pinned = build_mpf_program(net, s)
    res = solve_lp(builder.lp)
    if res.status != "optimal":
        raise LpError(f"fixed-susceptance solve returned {res.status}")
    return builder.extract(res.x, pinned)


def solve_mvf(net: Network, pattern: SignPattern,
              pinned_flows: Mapping[LineId, float] | None = None) -> FlowSolveResult | None:
    """Maximum throughput with angle-difference directions pinned by ``pattern``.

    Susceptances float inside their intervals.  Lines without a bit must be
    fixed lines; their power law is enforced directly with no direction
    choice.  Intervals unbounded above are treated as ``[s_min,
    UNBOUNDED_S_CAP]`` so every vertex maps back to finite susceptances (see
    the constant's note).  ``pinned_flows`` forces selected line flows to
    exact values (used by verification sweeps); only then can the program be
    infeasible, which is reported as ``None`` rather than an error.  A
    vertex with flow across a vanishing angle part maps back to no
    susceptance and raises :class:`LpError`.
    """
    builder = NetworkLp(net)
    lp = builder.lp
    deltas: dict[LineId, int] = {}
    for ln in net.lines:
        bit = pattern.bit(ln.key)
        if bit is None:
            if ln.is_facts:
                raise InputError(
                    f"controllable line {ln.a}-{ln.b} lacks a direction bit"
                )
            builder.add_power_law(ln, s=ln.s_min)
        else:
            (deltas[ln.key],) = builder.add_power_law(ln, bit=bit)
    if pinned_flows:
        for key, value in pinned_flows.items():
            if key not in builder.flow:
                raise InputError(f"pinned flow references unknown line {key!r}")
            lp.add_constraint({builder.flow[key]: 1.0}, "=", float(value))
    builder.add_balance_rows()
    builder.set_throughput_objective()
    res = solve_lp(lp)
    if res.status == "infeasible" and pinned_flows:
        return None
    if res.status != "optimal":
        raise LpError(f"fixed-direction solve returned {res.status}")

    suscept: dict[LineId, float] = {}
    for ln in net.lines:
        key = ln.key
        if key not in deltas:
            suscept[key] = ln.s_min
            continue
        f = abs(float(res.x[builder.flow[key]]))
        s = directed_susceptance(ln, float(res.x[deltas[key]]), f)
        if s is None:
            raise LpError(f"line {ln.a}-{ln.b}: flow {f} across a vanishing angle "
                          "difference")
        suscept[key] = s
    return builder.extract(res.x, suscept)


def directed_susceptance(ln: Line, delta: float, flow: float) -> float | None:
    """The susceptance of line ``ln`` at angle part ``delta >= 0`` and flow
    magnitude ``flow``, or ``None`` for a flow across a vanishing angle.

    The values come straight off a solved program's own variables: where the
    angle part is positive the ratio lies inside the interval by the very
    constraints that were enforced, so a plain clamp is exact.
    """
    zero_tol = 2.5e-7
    if delta > 1e-12 and flow > zero_tol:
        return min(max(flow / delta, ln.s_min), ln.s_max)
    if flow <= zero_tol:
        if delta > 1e-12 and ln.s_min == 0.0:
            return 0.0
        return _at_rest_susceptance(ln)
    return None


def _at_rest_susceptance(ln: Line) -> float:
    """A strictly interior susceptance for a line at rest: the midpoint of
    ``[s_min, min(s_max, 3 * s_min)]``, or ``s_min + 0.5`` when unbounded."""
    if math.isinf(ln.s_max):
        return ln.s_min + 0.5
    return 0.5 * (ln.s_min + min(ln.s_max, 3.0 * ln.s_min))


def extract_signs(net: Network, theta: Mapping[str, float]) -> SignPattern:
    """Read the angle-difference direction of every line from ``theta``.

    Ties (``|dtheta| <= 1e-9``) deterministically resolve to bit 1; a zero
    difference is feasible under either bit, so any fixed rule is correct.
    """
    bits: dict[LineId, int] = {}
    for ln in net.lines:
        if ln.a not in theta or ln.b not in theta:
            raise InputError(f"theta misses an endpoint of line {ln.a}-{ln.b}")
        d = float(theta[ln.b]) - float(theta[ln.a])
        bits[ln.key] = 1 if d > -_TIE_TOL else 0
    return SignPattern(bits)


def forced_flow_signs(net: Network) -> dict[LineId, int]:
    """Flow directions that hold in every feasible operating point.

    Returns ``{line key: +1 | -1 | 0}`` where +1 means the flow can only run
    from ``a`` to ``b`` (f >= 0), -1 only backwards, and 0 means the line can
    carry no flow at all (zero capacity).  Derived by fixed-point propagation
    of three sound rules:

    * a zero-capacity line carries exactly zero;
    * the single line of a degree-one generator (load) bus carries its
      nonnegative generation (load);
    * at a bus whose other incident lines all provably point inward, the
      remaining line must point outward (and the symmetric rule), with
      generation/load contributing their known sign.
    """
    adj: dict[str, list[Line]] = net.incident()
    signs: dict[LineId, int] = {}
    for ln in net.lines:
        if ln.capacity == 0.0:
            signs[ln.key] = 0

    def flow_sign_at(ln: Line, bus_id: str) -> int | None:
        """+1: provably into bus, -1: provably out of bus, 0: zero, None: unknown."""
        s = signs.get(ln.key)
        if s is None:
            return None
        if s == 0:
            return 0
        into = s == 1 if ln.b == bus_id else s == -1
        return 1 if into else -1

    changed = True
    while changed:
        changed = False
        for bus in net.buses:
            lines = adj[bus.id]
            unknown = [ln for ln in lines if ln.key not in signs]
            if len(unknown) != 1:
                continue
            target = unknown[0]
            sides = [flow_sign_at(ln, bus.id) for ln in lines if ln.key in signs]
            all_in = all(s in (0, 1) for s in sides)
            all_out = all(s in (0, -1) for s in sides)
            forced: int | None = None
            if bus.kind is BusKind.JUNCTION:
                if all_in and all_out:  # every neighbour is at rest
                    signs[target.key] = 0
                    changed = True
                    continue
                if all_in:
                    forced = -1  # must leave the bus
                elif all_out:
                    forced = 1
            elif bus.kind is BusKind.GENERATOR:
                if all_in:  # inflow + generation must leave via the last line
                    forced = -1
            elif bus.kind is BusKind.LOAD:
                if all_out:  # load + outflow must be fed by the last line
                    forced = 1
            if forced is not None:
                leaves = forced == -1
                if target.a == bus.id:
                    signs[target.key] = 1 if leaves else -1
                else:
                    signs[target.key] = -1 if leaves else 1
                changed = True
    return signs


def forced_sign_bits(net: Network) -> dict[LineId, int]:
    """Direction bits every feasible operating point can adopt.

    A forced flow sign pins the angle-difference bit only when the line's
    susceptance is bounded away from zero; with ``s_min == 0`` the line may
    carry zero flow across an angle difference of either sign, so its bit
    stays free.  A zero-capacity line with ``s_min > 0`` has angle
    difference exactly zero, for which bit 1 is valid.
    """
    by_key = {ln.key: ln for ln in net.lines}
    bits: dict[LineId, int] = {}
    for key, sign in forced_flow_signs(net).items():
        line = by_key[key]
        if line.s_min <= 0.0:
            continue
        if sign == 0:
            bits[key] = 1
        else:
            bits[key] = 1 if sign > 0 else 0
    return bits
