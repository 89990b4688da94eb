"""Network programs: one builder, and the throughput LPs built on it.

:class:`NetworkLp` builds every network program (MPF, the MFF relaxation
and MVF here, the lift and the alternative flow in :mod:`factsflow.maxflow`)
and reads its vertices back as operating points.

Two linear programs are the workhorses of the whole package:

* :func:`solve_mpf` — maximum power flow with every susceptance pinned to a
  given value (the classic linearised dispatch problem);
* :func:`solve_mvf` — maximum flow when the *direction* of every
  controllable line is pinned by a bit while susceptances float inside
  their intervals: the MFF relaxation (:func:`build_mff_relaxation`) with
  each line's opposite cone parts pinned at zero.  Fixed lines take no bit.

Both never come back infeasible: the all-zero operating point satisfies any
choice of directions.  Alongside them live the glue utilities that move
between the two worlds: reading direction bits off phase angles, and a
line's susceptance off a solved program's angle part and flow.
"""

from __future__ import annotations

import math
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
    "ConeParts",
    "NetworkLp",
    "UNBOUNDED_S_CAP",
    "build_mff_relaxation",
    "solve_mpf",
    "solve_mvf",
    "extract_signs",
    "directed_susceptance",
    "midpoint_susceptances",
]

LineId = tuple[str, str]

#: Angle differences within this of zero read as bit 1 in :func:`extract_signs`.
_TIE_TOL = 1e-9

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


def _cone_ceiling(ln: Line) -> float:
    """The top ``s_hi`` of line ``ln``'s direction cones: ``s_max``, or
    :data:`UNBOUNDED_S_CAP` when ``s_max`` is infinite."""
    return UNBOUNDED_S_CAP if math.isinf(ln.s_max) else ln.s_max


class NetworkLp:
    """Theta / gen / load / flow variables, each line's power law and the
    balance rows of a network program; reads its vertices back."""

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
        #: The cone parts of each controllable line.
        self.parts: dict[LineId, ConeParts] = {}

    def add_power_law(self, ln: Line, s: float | None = None) -> None:
        """Write line ``ln``'s power law.

        * ``s`` given: the fixed line ``f = s * dtheta``, an equality with
          no direction variable;
        * otherwise: the cone-sum relaxation of both directions, through the
          parts ``(dplus, dminus, fplus, fminus)`` with ``dplus - dminus =
          dtheta``, ``f = fplus - fminus`` and each direction's cone
          ``s_min * d_part <= f_part <= s_hi * d_part`` (``s_hi`` from
          :func:`_cone_ceiling`).
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
            return
        s_hi = _cone_ceiling(ln)

        def cone(delta: int, flow: int) -> None:
            # The upper half is written as delta >= f / s_hi for benign scaling.
            lp.add_constraint({flow: 1.0, delta: -ln.s_min}, ">=", 0.0)
            lp.add_constraint({delta: 1.0, flow: -1.0 / s_hi}, ">=", 0.0)

        parts = ConeParts(*(lp.add_var(f"{name}[{tag}]", 0.0, math.inf)
                            for name in ConeParts._fields))
        lp.add_constraint({parts.dplus: 1.0, parts.dminus: -1.0, tb: -1.0, ta: 1.0},
                          "=", 0.0)
        cone(parts.dplus, parts.fplus)
        cone(parts.dminus, parts.fminus)
        lp.add_constraint({f: 1.0, parts.fplus: -1.0, parts.fminus: 1.0}, "=", 0.0)
        self.parts[ln.key] = parts

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

    def _dtheta(self, ln: Line, x) -> float:
        """Line ``ln``'s angle difference at ``x``, from its own angle parts."""
        p = self.parts[ln.key]
        return float(x[p.dplus]) - float(x[p.dminus])

    def cone_bit(self, ln: Line, x) -> int | None:
        """The direction whose cone holds line ``ln``'s point at ``x``, bit 1
        on a tie; ``None`` when neither does."""
        tol = 1e-7
        s_hi = _cone_ceiling(ln)
        dtheta, flow = self._dtheta(ln, x), float(x[self.flow[ln.key]])
        for bit, sgn in ((1, 1.0), (0, -1.0)):
            d, f = sgn * dtheta, sgn * flow
            if d >= -tol and ln.s_min * d - tol <= f <= s_hi * d + tol:
                return bit
        return None

    def solution(self, x, bits: Mapping[LineId, int]) -> LdcSolution | None:
        """The operating point at vertex ``x`` with line directions ``bits``.

        A line with a bit takes the susceptance of its flow over its angle
        difference in that direction (:func:`directed_susceptance`); a line
        without one takes ``s_min``, as a fixed line or at the all-zero
        vertex.  ``None`` when flow crosses a vanishing angle difference.
        """
        suscept: dict[LineId, float] = {}
        for ln in self.net.lines:
            bit = bits.get(ln.key)
            if bit is None:
                suscept[ln.key] = ln.s_min
                continue
            sgn = 1.0 if bit == 1 else -1.0
            s = directed_susceptance(ln, sgn * self._dtheta(ln, x),
                                     abs(float(x[self.flow[ln.key]])))
            if s is None:
                return None
            suscept[ln.key] = s
        return self.extract(x, suscept)

    def extract(self, x, susceptance: dict[LineId, float]) -> LdcSolution:
        """The operating point of the program's solution ``x``."""
        return LdcSolution(
            susceptance=susceptance,
            theta={b: float(x[i]) for b, i in self.theta.items()},
            injections=InjectionSolution(
                flow={k: float(x[i]) for k, i in self.flow.items()},
                gen={b: float(x[i]) for b, i in self.gen.items()},
                load={b: float(x[i]) for b, i in self.load.items()},
            ),
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


def solve_mpf(net: Network, s: Mapping[LineId, float] | None = None) -> LdcSolution:
    """Maximum throughput with susceptances pinned at ``s``.

    ``s`` must lie inside each line's interval; lines omitted from ``s``
    default to ``s_min``.  Never infeasible (the zero point always works).
    """
    builder, pinned = build_mpf_program(net, s)
    res = solve_lp(builder.lp)
    if res.status != "optimal":
        raise LpError(f"fixed-susceptance solve returned {res.status}")
    return builder.extract(res.x, pinned)


def build_mff_relaxation(net: Network) -> tuple[NetworkLp, dict[LineId, ConeParts]]:
    """The cone-sum relaxation that every branch-and-bound node and every
    MVF solves.

    Returns the program's builder and the cone parts of each controllable
    line.
    """
    builder = NetworkLp(net)
    for ln in net.lines:
        builder.add_power_law(ln, s=None if ln.is_facts else ln.s_min)
    builder.add_balance_rows()
    builder.set_throughput_objective()
    return builder, builder.parts


def solve_mvf(net: Network, bits: Mapping[LineId, int],
              pinned_flows: Mapping[LineId, float] | None = None) -> LdcSolution | None:
    """Maximum throughput with angle-difference directions pinned by ``bits``.

    Bit 1 on controllable line ``(a, b)`` means ``theta[b] - theta[a] >=
    0``, bit 0 means ``<= 0``; every controllable line needs one.  Fixed
    lines take no bit (their power law is an equality, so a bit given for
    one is ignored).  The program is the MFF relaxation
    (:func:`build_mff_relaxation`) with each line's opposite cone parts
    pinned at zero, so susceptances float inside their intervals, with
    ``UNBOUNDED_S_CAP`` standing in for an infinite ``s_max`` (see the
    constant's note).  ``pinned_flows`` fixes selected line flows at exact
    values (used by verification sweeps); only then can the program be
    infeasible, which is reported as ``None`` rather than an error.  A
    vertex with flow across a vanishing angle part maps back to no
    susceptance and raises :class:`LpError`.
    """
    builder, parts = build_mff_relaxation(net)
    lp = builder.lp
    overrides: dict[int, tuple[float, float]] = {}
    for key, p in parts.items():
        bit = bits.get(key)
        if bit not in (0, 1):
            raise InputError(f"controllable line {key[0]}-{key[1]} needs direction bit 0 or 1, "
                             f"not {bit!r}")
        overrides.update(dict.fromkeys(p.against(bit), (0.0, 0.0)))
    for key, value in (pinned_flows or {}).items():
        if key not in builder.flow:
            raise InputError(f"pinned flow references unknown line {key!r}")
        overrides[builder.flow[key]] = (float(value), float(value))
    if any(not lp.lb[j] <= lo <= lp.ub[j] for j, (lo, _) in overrides.items()):
        return None  # a pin beyond its line's capacity, which the override replaces
    res = solve_lp(lp, overrides)
    if res.status == "infeasible" and pinned_flows:
        return None
    if res.status != "optimal":
        raise LpError(f"fixed-direction solve returned {res.status}")
    sol = builder.solution(res.x, {key: bits[key] for key in parts})
    if sol is None:
        raise LpError("fixed-direction vertex has flow across a vanishing angle difference")
    return sol


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


def extract_signs(net: Network, theta: Mapping[str, float]) -> dict[LineId, int]:
    """Read the angle-difference direction bit of every line from ``theta``.

    Ties (``|dtheta| <= 1e-9``) deterministically resolve to bit 1; a zero
    difference is feasible under either bit, so any fixed rule is correct.
    """
    bits: dict[LineId, int] = {}
    for ln in net.lines:
        if ln.a not in theta or ln.b not in theta:
            raise InputError(f"theta misses an endpoint of line {ln.a}-{ln.b}")
        d = float(theta[ln.b]) - float(theta[ln.a])
        bits[ln.key] = 1 if d > -_TIE_TOL else 0
    return bits

