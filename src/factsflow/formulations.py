"""Network programs: one builder, and the throughput LPs built on it.

:class:`NetworkLp` builds the network programs in angle form, with an angle
per bus and each line's power law as rows (the MFF relaxation and MVF here,
the angle-form MPF that ``factsflow mpf --dump-lp`` writes, the lift and
the alternative flow in :mod:`factsflow.maxflow`), gives the bounds that pin
a controllable line's direction, and reads its vertices back as operating
points.  It is the only code that knows how a controllable line's power law
is laid out in cone parts.

Two linear programs are the workhorses of the whole package:

* :func:`solve_mpf` — maximum power flow with every susceptance pinned to a
  given value (the classic linearised dispatch problem), solved in
  shift-factor form: with the susceptances fixed, the angles are linear in
  the injections, so the program has a variable per injection and a row
  per component.  A leaf bus's line bounds its injection, and the angles
  come from the Laplacian without the leaves.  A line's limit becomes a
  row only once an optimum breaks it, the worst overloads first;
* :func:`solve_mvf` — maximum flow when the *direction* of every
  controllable line is pinned by a bit while susceptances float inside
  their intervals: the MFF relaxation (:func:`build_mff_relaxation`) with
  each line's opposite cone parts pinned at zero.  Fixed lines take no bit.

Both never come back infeasible: the all-zero operating point satisfies any
choice of directions.  An MPF takes an optional start, that of the MPF at
other susceptances (:attr:`SolvedPoint.basis`): the limit rows it generated
and its final basis.  Every MVF starts from its program's spanning tree
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

import numpy as np

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
    "MpfStart",
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
#: while the tree's inverse fills it, so each pivot costs more than the
#: pivots the tree saves once programs pass about 200 rows.  Tree-start CPU
#: over slack-start CPU for the MFF relaxation, three synthetic cases per
#: size (30 % controllable lines at +/-30 %, generation and demand scaled by
#: 3), with the simplex exchanges of the three:
#:
#: ======  =========  =========  ============
#: buses   relax.     tree/cold  exchanges
#:         rows
#: ======  =========  =========  ============
#: 8       55         0.58       172 -> 64
#: 15      106        0.76       365 -> 147
#: 30      212        1.22       646 -> 249
#: 45      318        0.95       1,096 -> 468
#: 60      430        1.25       1,511 -> 656
#: 100     718        2.38       2,359 -> 1,107
#: ======  =========  =========  ============
#:
#: A simplex that factors the basis instead of keeping the dense tableau
#: would not pay for the fill, and this cutoff would go.
_TREE_START_MAX_ROWS = 150

#: A shift factor at or below this magnitude is dropped from its limit row.
#: Shift factors lie in [-1, 1], and those that are zero in exact arithmetic,
#: such as an injection's on a line of a radial branch that its flow does
#: not cross, come out of the Laplacian solve as round-off of about 1e-16 to
#: 1e-13; the dual simplex can pivot on such an entry and break down.
_SHIFT_ZERO = 1e-12
#: A line without a limit row is past its capacity when its flow exceeds it
#: by more than this, relative to ``max(1, capacity)``.
_LIMIT_TOL = 1e-9

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


def _checked_susceptances(net: Network, s: Mapping[LineId, float] | None) -> dict[LineId, float]:
    """Every line's susceptance at the point ``s``, checked against its
    interval; omitted lines take ``s_min``."""
    s = s or {}
    out = {}
    for ln in net.lines:
        val = float(s.get(ln.key, ln.s_min))
        if not (ln.s_min - 1e-12 <= val <= ln.s_max + 1e-12):
            raise InputError(
                f"susceptance {val} for line {ln.a}-{ln.b} outside [{ln.s_min}, {ln.s_max}]"
            )
        out[ln.key] = val
    return out


def build_mpf_program(net: Network, s: Mapping[LineId, float] | None = None) -> NetworkLp:
    """The fixed-susceptance LP at the susceptance point ``s`` in angle form,
    checked against each line's interval; omitted lines take ``s_min``.
    :func:`solve_mpf` solves the equivalent shift-factor form instead."""
    s = _checked_susceptances(net, s)
    builder = NetworkLp(net)
    for ln in net.lines:
        builder.add_power_law(ln, s=s[ln.key])
    builder.add_balance_rows()
    builder.set_throughput_objective()
    return builder


@dataclass(frozen=True)
class MpfStart:
    """Where the MPFs of a network start: the lines whose limit rows an
    MPF of it generated, in the order they entered, and its final basis."""

    lines: tuple[LineId, ...]
    basis: LpBasis


@dataclass(frozen=True)
class SolvedPoint(LdcSolution):
    """An MPF optimum, with the start it hands to other MPFs of the network."""

    basis: MpfStart | None = field(default=None, compare=False, repr=False)


class _ShiftFactorMpf:
    """MPF in shift-factor form: one variable per generator or load
    injection, one balance row per component that has one, and the limit
    rows that :meth:`add_limits` adds.

    Components are taken over the lines of nonzero susceptance, with the
    bus of the lowest id in each as its reference, at angle 0.  Bus angles
    are linear in the injections ``p``: ``L theta = -p``, where ``L`` is the
    Laplacian weighted by the susceptances.  So is each line's flow
    ``s * dtheta``, through its row of shift factors.

    A leaf, a bus at the end of exactly one such line, carries its own
    injection ``p`` over that line.  So the line's capacity bounds the
    injection and the line needs no row, and, unless the leaf is its
    component's reference, its angle is its neighbour's minus ``p / s`` and
    its injection joins the neighbour's.  The Laplacian is solved over the
    other buses only, without the references, for the angle responses to
    each injection (zero at the references).
    """

    def __init__(self, net: Network, s: dict[LineId, float]):
        self.net = net
        self.s = s
        index = self._index = {b.id: i for i, b in enumerate(net.buses)}
        n = len(index)
        self._a = np.array([index[ln.a] for ln in net.lines], dtype=np.intp)
        self._b = np.array([index[ln.b] for ln in net.lines], dtype=np.intp)
        self._w = np.array([s[ln.key] for ln in net.lines], dtype=float)
        cap = np.array([ln.capacity for ln in net.lines], dtype=float)
        live = (self._w != 0.0).nonzero()[0]
        a, b, w = self._a[live], self._b[live], self._w[live]
        degree = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
        bound = np.full(n, math.inf)
        for end in (a, b):
            leafy = degree[end] == 1
            bound[end[leafy]] = cap[live[leafy]]

        lp = self.lp = LinearProgram()
        self.gen: dict[str, int] = {}
        self.load: dict[str, int] = {}
        buses, signs = [], []
        for i, (bus, hi) in enumerate(zip(net.buses, bound.tolist())):
            if bus.kind is BusKind.JUNCTION:
                continue
            gen = bus.kind is BusKind.GENERATOR
            (self.gen if gen else self.load)[bus.id] = lp.add_var(
                f"{'gen' if gen else 'load'}[{bus.id}]", 0.0, hi)
            buses.append(i)
            signs.append(1.0 if gen else -1.0)
        self.injections = len(buses)
        self._bus = np.array(buses, dtype=np.intp)
        self._sign = np.array(signs)

        # Components by depth-first search, started in order of bus id.
        neighbours: list[list[int]] = [[] for _ in range(n)]
        for i, j in zip(a.tolist(), b.tolist()):
            neighbours[i].append(j)
            neighbours[j].append(i)
        component = [-1] * n
        refs: list[int] = []
        for ref in [index[bus] for bus in sorted(index)]:
            if component[ref] >= 0:
                continue
            component[ref] = len(refs)
            stack = [ref]
            while stack:
                for v in neighbours[stack.pop()]:
                    if component[v] < 0:
                        component[v] = len(refs)
                        stack.append(v)
            refs.append(ref)
        balance: list[dict[int, float]] = [{} for _ in refs]
        for j, (i, sign) in enumerate(zip(buses, signs)):
            balance[component[i]][j] = sign
        for row in balance:
            if row:
                lp.add_constraint(row, "=", 0.0)
        lp.set_objective(dict.fromkeys(self.gen.values(), 1.0))

        # Every leaf but the references goes: ``host`` is the bus whose
        # angle each bus reads, itself or a leaf's neighbour, and ``row``
        # that bus's row of the angle responses, the last (zero) one for a
        # reference.
        leaf = degree == 1
        leaf[refs] = False
        at_a, at_b = leaf[a], leaf[b]
        leaves = np.concatenate([a[at_a], b[at_b]])
        host = np.arange(n)
        host[leaves] = np.concatenate([b[at_a], a[at_b]])
        inner = ~leaf
        inner[refs] = False
        k = int(inner.sum())
        row = np.full(n, k)
        row[inner] = np.arange(k)
        self._row = row[host]
        self._leaves, self._leaf_w = leaves, np.concatenate([w[at_a], w[at_b]])
        # The angle responses to each injection, on the buses that stay.
        # Without the references and the leaves the Laplacian is that of the
        # remaining lines, block diagonal over the components, and
        # nonsingular.
        self._angles = np.zeros((k + 1, self.injections))
        hosting = self._row[self._bus]
        hosted = (hosting < k).nonzero()[0]
        if hosted.size:
            core = ~(at_a | at_b)
            ca, cb, cw = row[a[core]], row[b[core]], w[core]
            laplacian = np.zeros((k + 1, k + 1))
            laplacian[ca, cb] = -cw
            laplacian[cb, ca] = -cw
            laplacian.flat[::k + 2] = np.bincount(ca, cw, k + 1) + np.bincount(cb, cw, k + 1)
            injection = np.zeros((k, self.injections))
            injection[hosting[hosted], hosted] = -self._sign[hosted]
            self._angles[:k] = np.linalg.solve(laplacian[:k, :k], injection)

        # The lines whose limit may need a row: nonzero susceptance, finite
        # capacity and no leaf at either end.
        opened = live[np.isfinite(cap[live]) & (degree[a] > 1) & (degree[b] > 1)]
        self._open = [net.lines[i] for i in opened.tolist()]
        self._oa, self._ob = row[self._a[opened]], row[self._b[opened]]
        self._ow, self._ocap = self._w[opened], cap[opened]
        self._limit = self._ocap + _LIMIT_TOL * np.maximum(1.0, self._ocap)
        self._unlimited = np.ones(len(self._open), dtype=bool)
        self.lines: list[LineId] = []

    def open_lines(self, keys) -> np.ndarray:
        """The positions among the lines that may need a limit row of those
        of ``keys`` that are such lines."""
        at = {ln.key: p for p, ln in enumerate(self._open)}
        return np.array([at[key] for key in keys if key in at], dtype=np.intp)

    def add_limits(self, chosen: np.ndarray, basis: LpBasis | None = None) -> LpBasis | None:
        """Give each line at the positions ``chosen`` a flow column ``f`` in
        ``[-capacity, capacity]`` and the row ``f = PTDF . p``, without the
        shift factors of at most :data:`_SHIFT_ZERO`, as one block of rows.
        Returns ``basis``, a basis of the program before, extended with each
        new flow basic in its new row, or ``None`` without one."""
        lp, angles, injections = self.lp, self._angles, self.injections
        n, m, k = lp.num_vars, lp.num_rows, len(chosen)
        if not k:
            return basis
        shift = self._ow[chosen, None] * (angles[self._ob[chosen]] - angles[self._oa[chosen]])
        block = np.zeros((k, injections + k))
        np.negative(shift, out=block[:, :injections], where=np.abs(shift) > _SHIFT_ZERO)
        block[:, injections:].flat[::k + 1] = 1.0
        for p in chosen.tolist():
            ln = self._open[p]
            lp.add_var(f"flow[{ln.a}-{ln.b}]", -ln.capacity, ln.capacity)
            self.lines.append(ln.key)
        lp.add_rows(np.concatenate([np.arange(injections), np.arange(n, n + k)]), block, "=")
        self._unlimited[chosen] = False
        if basis is None:
            return None
        old = basis.columns
        extended = rest_basis(lp, np.concatenate([np.where(old < n, old, old + k),
                                                  np.arange(n, n + k)]))
        extended.status[:n] = basis.status[:n]
        extended.status[n + k:n + k + m] = basis.status[n:]
        return extended

    def fits(self, basis: LpBasis) -> bool:
        lp = self.lp
        return (basis.columns.shape == (lp.num_rows,)
                and basis.status.shape == (lp.num_vars + lp.num_rows,))

    def _core_angles(self, x) -> np.ndarray:
        """The angle at each row of the angle responses under the
        injections at ``x``."""
        return self._angles @ x[:self.injections]

    def theta(self, x) -> np.ndarray:
        """Every bus's angle at ``x``: its host's, less a leaf's ``p / s``."""
        theta = self._core_angles(x)[self._row]
        own = np.zeros(len(theta))
        own[self._bus] = x[:self.injections] * self._sign
        theta[self._leaves] -= own[self._leaves] / self._leaf_w
        return theta

    def unlimited(self) -> np.ndarray:
        """The positions of the lines that may need a limit row and have
        none yet."""
        return self._unlimited.nonzero()[0]

    def overloaded(self, x) -> np.ndarray:
        """The positions of the lines without a limit row that ``x`` breaks
        worst.

        A line is broken when its flow passes its capacity by more than
        :data:`_LIMIT_TOL`, relative to ``max(1, capacity)``.  Of those, the
        lines whose overload ratio ``r = |flow| / capacity`` has ``r - 1``
        at least half the largest ``r - 1`` are returned; a zero-capacity
        line that carries flow has ``r = inf``.
        """
        theta = self._core_angles(x)
        flow = np.abs(self._ow * (theta[self._ob] - theta[self._oa]))
        broken = (flow > self._limit) & self._unlimited
        if not broken.any():
            return broken.nonzero()[0]
        cap = self._ocap
        ratio = np.full(flow.shape, math.inf)
        np.divide(flow, cap, out=ratio, where=cap > 0.0)
        worst = ratio[broken].max()
        return (broken & (ratio - 1.0 >= (worst - 1.0) / 2.0)).nonzero()[0]

    def solution(self, x) -> LdcSolution:
        """The operating point of the injections at ``x``: the angles above,
        and each line's flow ``s * dtheta``, 0 where ``s = 0``."""
        theta = self.theta(x)
        # Adding 0.0 turns the -0.0 of a line at s = 0 into 0.0.
        flow = self._w * (theta[self._b] - theta[self._a]) + 0.0
        return LdcSolution(
            susceptance=self.s,
            theta=dict(zip(self._index, theta.tolist())),
            injections=InjectionSolution(
                flow=dict(zip((ln.key for ln in self.net.lines), flow.tolist())),
                gen={b: float(x[i]) for b, i in self.gen.items()},
                load={b: float(x[i]) for b, i in self.load.items()},
            ),
        )


def solve_mpf(net: Network, s: Mapping[LineId, float] | None = None,
              basis: MpfStart | None = None) -> SolvedPoint:
    """Maximum throughput with susceptances pinned at ``s``.

    ``s`` must lie inside each line's interval; lines omitted from ``s``
    default to ``s_min``.  Never infeasible (the zero point always works).

    The program is the shift-factor form (:class:`_ShiftFactorMpf`; Stott,
    Jardim and Alsaç, "DC power flow revisited", IEEE Trans. Power Syst.
    24(3), 2009), solved by row generation.  After each optimum, the flows
    of the lines without a limit row come from one matrix product, and the
    worst overloaded ones get their limit rows, as one block
    (:meth:`_ShiftFactorMpf.overloaded`): few limits bind at the end, so
    the program stays small.  It is solved again from the last basis with
    each new flow basic: the costs do not change, so that start is dual
    feasible and the dual simplex repairs only the new rows.  The rounds
    stop when no line is past its capacity.  A round that comes back
    unbounded adds every remaining line of finite capacity once; if it is
    unbounded still, :class:`LpError` is raised.  A warm round that breaks
    down numerically is solved again from the slack basis.

    ``basis``, the :attr:`SolvedPoint.basis` of an MPF of the same network
    at other susceptances, gives the limit rows to start with, and the
    basis to start from when the program's shape fits it.  Without it, the
    first round has no limit rows, and whenever no basis fits, the first
    round starts from the slack basis.
    """
    s = _checked_susceptances(net, s)
    program = _ShiftFactorMpf(net, s)
    start = None
    if basis is not None:
        program.add_limits(program.open_lines(basis.lines))
        if program.fits(basis.basis):
            start = basis.basis
    widened = False
    while True:
        try:
            res = solve_lp(program.lp, basis=start)
        except LpError:
            if start is None:
                raise
            # A warm round can pivot on round-off and break down, where the
            # cold start's primal simplex, with its stable ratio test, does not.
            res = solve_lp(program.lp)
        if res.status == "unbounded" and not widened:
            widened = True
            remaining = program.unlimited()
            if remaining.size:
                start = program.add_limits(remaining, start)
                continue
        if res.status != "optimal":
            raise LpError(f"fixed-susceptance solve returned {res.status}")
        overloaded = program.overloaded(res.x)
        if not overloaded.size:
            break
        start = program.add_limits(overloaded, res.basis)
    point = program.solution(res.x)
    return SolvedPoint(point.susceptance, point.theta, point.injections,
                       MpfStart(tuple(program.lines), res.basis))


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

