"""Network programs: one builder, and the throughput LPs built on it.

:class:`NetworkLp` builds every network program (MPF, the MFF relaxation
and MVF here, the lift and the alternative flow in :mod:`factsflow.maxflow`),
gives the bounds that pin a controllable line's direction, and reads its
vertices back as operating points.  It is the only code that knows how a
controllable line's power law is laid out in cone parts.

Two linear programs are the workhorses of the whole package:

* :func:`solve_mpf` — maximum power flow with every susceptance pinned to a
  given value (the classic linearised dispatch problem);
* :func:`solve_mvf` — maximum flow when the *direction* of every
  controllable line is pinned by a bit while susceptances float inside
  their intervals: the MFF relaxation (:func:`build_mff_relaxation`) with
  each line's opposite cone parts pinned at zero.  Fixed lines take no bit.

Both never come back infeasible: the all-zero operating point satisfies any
choice of directions.  An MPF takes an optional start basis, that of the
MPF at other susceptances (:attr:`SolvedPoint.basis`).  An MPF given no
basis, and every MVF, starts from its program's spanning tree
(:meth:`NetworkLp.start_basis`), the textbook network-simplex basis (Ahuja,
Magnanti and Orlin, "Network Flows", 1993), at the all-zero point; a
program of more than :data:`_TREE_START_MAX_ROWS` rows starts from the
slack basis instead.
Alongside them live the glue utilities that move between the two worlds:
reading direction bits off phase angles, and a line's susceptance off a
solved program's angle part and flow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from .linprog import LinearProgram, LpBasis, LpError, rest_basis, solve_lp
from .model import (
    BusKind,
    InjectionSolution,
    InputError,
    LdcSolution,
    Line,
    Network,
)

__all__ = [
    "NetworkLp",
    "SolvedPoint",
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

#: Programs of more than this many rows get no spanning-tree start from
#: :meth:`NetworkLp.start_basis` and start from the slack basis.  The dense
#: tableau is ``inv(B) @ A``: the slack basis keeps it as sparse as ``A``,
#: while the tree's inverse fills it (36 % nonzero against 1.6 % at the
#: start of a 100-bus MPF), so each pivot costs more than the pivots the
#: tree saves once programs pass about 200 rows.  Tree-start CPU over
#: slack-start CPU, three synthetic cases per size (30 % controllable lines
#: at +/-30 %, generation and demand scaled by 3), with the simplex
#: exchanges of the three:
#:
#: ======  ========  =========  ============  ========  =========  ============
#: buses   MPF rows  tree/cold  exchanges     relax.    tree/cold  exchanges
#: ======  ========  =========  ============  ========  =========  ============
#: 8       37        0.40       138 -> 30     55        0.58       172 -> 64
#: 15      70        0.42       251 -> 52     106       0.76       365 -> 147
#: 30      140       0.71       503 -> 117    212       1.22       646 -> 249
#: 45      210       0.85       778 -> 182    318       0.95       1,096 -> 468
#: 60      280       1.15       1,070 -> 269  430       1.25       1,511 -> 656
#: 100     466       1.62       1,726 -> 432  718       2.38       2,359 -> 1,107
#: ======  ========  =========  ============  ========  =========  ============
#:
#: A simplex that factors the basis instead of keeping the dense tableau
#: would not pay for the fill, and this cutoff would go.
_TREE_START_MAX_ROWS = 150

#: The link row ``f = fplus - fminus`` of a controllable line comes this many
#: rows after its angle row, past the four cone rows.
_LINK_ROW = 5


class ConeParts(NamedTuple):
    """Indices of one controllable line's parts in the cone-sum relaxation."""

    dplus: int
    dminus: int
    fplus: int
    fminus: int


def _cone_ceiling(ln: Line) -> float:
    """The top ``s_hi`` of line ``ln``'s direction cones: ``s_max``, or
    :data:`UNBOUNDED_S_CAP` when ``s_max`` is infinite."""
    return UNBOUNDED_S_CAP if math.isinf(ln.s_max) else ln.s_max


class NetworkLp:
    """Theta / gen / load / flow variables, each line's power law and the
    balance rows of a network program; pins directions and reads its
    vertices back.  Only this class knows the layout of the cone parts."""

    def __init__(self, net: Network):
        self.net = net
        self.lp = LinearProgram()
        self.theta = {}
        for bus in net.buses:
            self.theta[bus.id] = self.lp.add_var(f"theta[{bus.id}]", -math.inf, math.inf)
        # Pin one reference angle per connected component.
        self._refs = [comp[0] for comp in net.components()]
        for ref in self._refs:
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
        # The cone parts of each line written as a cone sum, the
        # susceptance of each line written with a fixed ``s``, the first
        # row of each line's power law and the first balance row.
        self._parts: dict[LineId, ConeParts] = {}
        self._fixed: dict[LineId, float] = {}
        self._law_row: dict[LineId, int] = {}
        self._balance_row: int | None = None

    def add_power_law(self, ln: Line, s: float | None = None) -> None:
        """Write line ``ln``'s power law.

        * ``s`` given: the fixed line ``f = s * dtheta``, an equality with
          no direction variable;
        * otherwise: the cone-sum relaxation of both directions, through the
          parts ``(dplus, dminus, fplus, fminus)`` with ``dplus - dminus =
          dtheta``, ``f = fplus - fminus``, each direction's cone
          ``s_min * d_part <= f_part <= s_hi * d_part`` (``s_hi`` from
          :func:`_cone_ceiling`) and, on a line of finite capacity, the
          row ``fplus + fminus <= capacity``.  With that row the relaxation
          is the projection of the hull of the two capacity-bounded cones;
          with one part pair pinned the row repeats ``|f| <= capacity``.
        """
        lp = self.lp
        f = self.flow[ln.key]
        ta, tb = self.theta[ln.a], self.theta[ln.b]
        tag = f"{ln.a}-{ln.b}"
        self._law_row[ln.key] = lp.num_rows
        if s is not None:
            self._fixed[ln.key] = s
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
        if math.isfinite(ln.capacity):
            lp.add_constraint({parts.fplus: 1.0, parts.fminus: 1.0}, "<=", ln.capacity)
        self._parts[ln.key] = parts

    def add_balance_rows(self) -> None:
        per_bus: dict[str, dict[int, float]] = {b.id: {} for b in self.net.buses}
        for ln in self.net.lines:
            f = self.flow[ln.key]
            per_bus[ln.a][f] = per_bus[ln.a].get(f, 0.0) + 1.0
            per_bus[ln.b][f] = per_bus[ln.b].get(f, 0.0) - 1.0
        self._balance_row = self.lp.num_rows
        for bus in self.net.buses:
            coeffs = dict(per_bus[bus.id])
            if bus.id in self.gen:
                coeffs[self.gen[bus.id]] = -1.0
            if bus.id in self.load:
                coeffs[self.load[bus.id]] = 1.0
            self.lp.add_constraint(coeffs, "=", 0.0)

    def set_throughput_objective(self) -> None:
        self.lp.set_objective({idx: 1.0 for idx in self.gen.values()})

    def start_basis(self) -> LpBasis | None:
        """The spanning-tree start basis of the built program, at the
        all-zero point, which is feasible for every network program; ``None``
        for a program of more than :data:`_TREE_START_MAX_ROWS` rows.

        A breadth-first spanning forest grows from each component's
        reference bus over the lines whose power law ties their two angles
        (a line fixed at ``s = 0`` does not).  A tree line into bus ``v``
        makes ``theta[v]`` basic in its angle row (the fixed line's
        equality, or ``dplus - dminus = theta[b] - theta[a]``), its flow
        basic in ``v``'s balance row and, on a controllable line, ``fplus``
        basic in the link row ``f = fplus - fminus``.  Any other fixed line
        has its flow basic in its own row, and any other controllable line
        ``dplus`` in its angle row and its flow in its link row.  Every
        other row keeps its slack, and every nonbasic column rests at 0
        projected onto its bounds.
        """
        lp, net = self.lp, self.net
        if lp.num_rows > _TREE_START_MAX_ROWS:
            return None
        columns = list(range(lp.num_vars, lp.num_vars + lp.num_rows))
        ties: dict[str, list[tuple[Line, str]]] = {b.id: [] for b in net.buses}
        for ln in net.lines:
            if ln.key in self._law_row and self._fixed.get(ln.key) != 0.0:
                ties[ln.a].append((ln, ln.b))
                ties[ln.b].append((ln, ln.a))
        balance = {b.id: self._balance_row + i for i, b in enumerate(net.buses)}
        tree: set[LineId] = set()
        for ref in self._refs:
            reached, queue = {ref}, deque([ref])
            while queue:
                for ln, v in ties[queue.popleft()]:
                    if v in reached:
                        continue
                    reached.add(v)
                    queue.append(v)
                    tree.add(ln.key)
                    row, parts = self._law_row[ln.key], self._parts.get(ln.key)
                    columns[row] = self.theta[v]
                    columns[balance[v]] = self.flow[ln.key]
                    if parts is not None:
                        columns[row + _LINK_ROW] = parts.fplus
        for ln in net.lines:
            row = self._law_row.get(ln.key)
            if row is None or ln.key in tree:
                continue
            parts = self._parts.get(ln.key)
            if parts is None:
                columns[row] = self.flow[ln.key]
            else:
                columns[row] = parts.dplus
                columns[row + _LINK_ROW] = self.flow[ln.key]
        return rest_basis(lp, columns)

    def pin(self, bits: Mapping[LineId, int]) -> dict[int, tuple[float, float]]:
        """Bound overrides that hold each line to the direction of its bit:
        bit 1 pins ``dminus`` and ``fminus`` at zero, bit 0 ``dplus`` and
        ``fplus``.  Bits of lines without cone parts are skipped."""
        overrides: dict[int, tuple[float, float]] = {}
        for key, bit in bits.items():
            p = self._parts.get(key)
            if p is not None:
                against = (p.dminus, p.fminus) if bit == 1 else (p.dplus, p.fplus)
                overrides.update(dict.fromkeys(against, (0.0, 0.0)))
        return overrides

    def _dtheta(self, ln: Line, x) -> float:
        """Line ``ln``'s angle difference at ``x``, from its own angle parts."""
        p = self._parts[ln.key]
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

    def cone_split(self, ln: Line, x) -> tuple[float, float]:
        """How much of line ``ln``'s point at ``x`` each direction's cone
        holds: ``(dplus + fplus, dminus + fminus)``."""
        p = self._parts[ln.key]
        return float(x[p.dplus] + x[p.fplus]), float(x[p.dminus] + x[p.fminus])

    def solution(self, x, bits: Mapping[LineId, int] | None = None) -> LdcSolution | None:
        """The operating point at vertex ``x`` with line directions ``bits``.

        A line written with a fixed ``s`` takes it, and a bit given for it
        is ignored.  A line with cone parts and a bit takes the susceptance
        of its flow over its angle difference in that direction
        (:func:`directed_susceptance`); any other line takes ``s_min``, as
        at the all-zero vertex.  ``None`` when flow crosses a vanishing
        angle difference.
        """
        bits = bits or {}
        suscept: dict[LineId, float] = {}
        for ln in self.net.lines:
            s = self._fixed.get(ln.key)
            bit = bits.get(ln.key)
            if s is None and bit is not None:
                sgn = 1.0 if bit == 1 else -1.0
                s = directed_susceptance(ln, sgn * self._dtheta(ln, x),
                                         abs(float(x[self.flow[ln.key]])))
                if s is None:
                    return None
            suscept[ln.key] = ln.s_min if s is None else s
        return LdcSolution(
            susceptance=suscept,
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


def build_mpf_program(net: Network, s: Mapping[LineId, float] | None = None) -> NetworkLp:
    """The fixed-susceptance LP at the susceptance point ``s``, checked
    against each line's interval; omitted lines take ``s_min``."""
    s = s or {}
    builder = NetworkLp(net)
    for ln in net.lines:
        val = float(s.get(ln.key, ln.s_min))
        if not (ln.s_min - 1e-12 <= val <= ln.s_max + 1e-12):
            raise InputError(
                f"susceptance {val} for line {ln.a}-{ln.b} outside [{ln.s_min}, {ln.s_max}]"
            )
        builder.add_power_law(ln, s=val)
    builder.add_balance_rows()
    builder.set_throughput_objective()
    return builder


@dataclass(frozen=True)
class SolvedPoint(LdcSolution):
    """An MPF optimum, with the optimal basis it was read from."""

    basis: LpBasis | None = field(default=None, compare=False, repr=False)


def solve_mpf(net: Network, s: Mapping[LineId, float] | None = None,
              basis: LpBasis | None = None) -> SolvedPoint:
    """Maximum throughput with susceptances pinned at ``s``.

    ``s`` must lie inside each line's interval; lines omitted from ``s``
    default to ``s_min``.  Never infeasible (the zero point always works).
    ``basis``, the :attr:`SolvedPoint.basis` of an MPF of the same network at
    other susceptances, is where the simplex starts (see
    :func:`linprog.solve_lp`); without it, the program's spanning tree
    (:meth:`NetworkLp.start_basis`) is.
    """
    builder = build_mpf_program(net, s)
    res = solve_lp(builder.lp, basis=basis or builder.start_basis())
    if res.status != "optimal":
        raise LpError(f"fixed-susceptance solve returned {res.status}")
    point = builder.solution(res.x)
    return SolvedPoint(point.susceptance, point.theta, point.injections, res.basis)


def build_mff_relaxation(net: Network) -> NetworkLp:
    """The cone-sum relaxation that every branch-and-bound node and every
    MVF solves, under the bounds :meth:`NetworkLp.pin` gives."""
    builder = NetworkLp(net)
    for ln in net.lines:
        builder.add_power_law(ln, s=None if ln.is_facts else ln.s_min)
    builder.add_balance_rows()
    builder.set_throughput_objective()
    return builder


def solve_mvf(net: Network, bits: Mapping[LineId, int]) -> LdcSolution:
    """Maximum throughput with angle-difference directions pinned by ``bits``.

    Bit 1 on controllable line ``(a, b)`` means ``theta[b] - theta[a] >=
    0``, bit 0 means ``<= 0``; every controllable line needs one.  Fixed
    lines take no bit (their power law is an equality, so a bit given for
    one is ignored).  The program is the MFF relaxation
    (:func:`build_mff_relaxation`) with each line's opposite cone parts
    pinned at zero, so susceptances float inside their intervals, with
    ``UNBOUNDED_S_CAP`` standing in for an infinite ``s_max`` (see the
    constant's note).  A vertex with flow across a vanishing angle part maps
    back to no susceptance and raises :class:`LpError`.  The simplex starts
    from the program's spanning tree (:meth:`NetworkLp.start_basis`).
    """
    for ln in net.facts_lines():
        bit = bits.get(ln.key)
        if bit not in (0, 1):
            raise InputError(f"controllable line {ln.a}-{ln.b} needs direction bit 0 or 1, "
                             f"not {bit!r}")
    builder = build_mff_relaxation(net)
    res = solve_lp(builder.lp, builder.pin(bits), builder.start_basis())
    if res.status != "optimal":
        raise LpError(f"fixed-direction solve returned {res.status}")
    sol = builder.solution(res.x, bits)
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

