"""Core domain types for DC power networks with variable-susceptance lines.

A network consists of buses (generator / load / junction) joined by
undirected lines.  Each line carries a susceptance interval ``[s_min, s_max]``
and a thermal capacity.  A line with ``s_min < s_max`` hosts a controllable
(FACTS) device; a line with ``s_min == s_max`` is an ordinary fixed line.

Sign conventions used throughout the package:

* every line is stored with an orientation ``(a, b)``; the flow value
  ``f`` is positive when power moves from ``a`` to ``b``;
* the linearised power law is ``f = s * (theta[b] - theta[a])`` with
  susceptance kept positive, so positive flow runs toward the *higher*
  phase angle;
* generation and load are nonnegative; a bus is never both a generator
  and a load (split such buses upstream, see :mod:`factsflow.caseio`).

Phase angles are only meaningful up to a per-component additive constant;
no code in this package compares absolute angles.

All types here are immutable after construction and safe to share between
threads or worker processes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

__all__ = [
    "BusKind",
    "LineKind",
    "Bus",
    "Line",
    "Network",
    "InjectionSolution",
    "LdcSolution",
    "Violation",
    "ValidationReport",
    "InputError",
    "DEFAULT_TOL",
    "validate_network",
    "check_kirchhoff",
    "validate_solution",
]

#: Default absolute feasibility tolerance.  Overridable everywhere.
DEFAULT_TOL = 1e-6

#: Canonical line key: the stored orientation (from-bus id, to-bus id).
LineId = tuple[str, str]


class InputError(ValueError):
    """Raised when an operation receives ids or data it cannot interpret."""


class BusKind(str, Enum):
    GENERATOR = "generator"
    LOAD = "load"
    JUNCTION = "junction"


class LineKind(str, Enum):
    """Role of a line inside the network.

    ``GEN_BOUNDARY`` / ``LOAD_BOUNDARY`` mark auxiliary lines whose capacity
    encodes a bus's maximum generation or demand (created by case ingest);
    everything else is ``REGULAR``.
    """

    REGULAR = "regular"
    GEN_BOUNDARY = "gen_boundary"
    LOAD_BOUNDARY = "load_boundary"


@dataclass(frozen=True)
class Bus:
    id: str
    kind: BusKind = BusKind.JUNCTION


@dataclass(frozen=True)
class Line:
    """An undirected line with susceptance interval and capacity.

    ``s_max`` may be ``math.inf``; that is the one sanctioned representation
    of an unbounded interval (never a large finite float).  Consumers must
    branch on ``math.isinf(line.s_max)`` where the distinction matters.
    """

    a: str
    b: str
    s_min: float
    s_max: float
    capacity: float
    kind: LineKind = LineKind.REGULAR

    @functools.cached_property
    def key(self) -> LineId:
        """``(a, b)``, built once: solution dicts keyed by it share the tuple."""
        return (self.a, self.b)

    @property
    def is_facts(self) -> bool:
        return self.s_min < self.s_max

    @property
    def pair(self) -> frozenset[str]:
        return frozenset((self.a, self.b))


@dataclass(frozen=True)
class Network:
    """Buses and lines that obey the structural rules of
    :func:`validate_network`; construction raises :class:`InputError` listing
    every rule broken (warnings such as zero capacity pass)."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    _bus_index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "_bus_index", {b.id: b for b in self.buses})
        errors = validate_network(self).errors
        if errors:
            raise InputError("invalid network: "
                             + "; ".join(f"{v.code}: {v.message}" for v in errors))

    def bus(self, bus_id: str) -> Bus:
        try:
            return self._bus_index[bus_id]
        except KeyError:
            raise InputError(f"unknown bus id {bus_id!r}") from None

    def has_bus(self, bus_id: str) -> bool:
        return bus_id in self._bus_index

    def facts_lines(self) -> list[Line]:
        return [ln for ln in self.lines if ln.is_facts]

    def components(self) -> list[list[str]]:
        """Connected components as lists of bus ids (deterministic order)."""
        adj: dict[str, list[str]] = {b.id: [] for b in self.buses}
        for ln in self.lines:
            adj[ln.a].append(ln.b)
            adj[ln.b].append(ln.a)
        seen: set[str] = set()
        comps: list[list[str]] = []
        for b in self.buses:
            if b.id in seen:
                continue
            stack, comp = [b.id], []
            seen.add(b.id)
            while stack:
                cur = stack.pop()
                comp.append(cur)
                for nxt in adj[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            comps.append(sorted(comp))
        return comps

    def is_tree(self) -> bool:
        """True when no component contains a cycle."""
        return len(self.lines) + len(self.components()) == len(self.buses)


@dataclass(frozen=True)
class InjectionSolution:
    """Per-line signed flows plus per-bus generation and load.

    ``flow`` is keyed by the line's stored orientation ``(a, b)``; a positive
    value means power moves from ``a`` to ``b``.  ``gen`` / ``load`` may omit
    buses, in which case the value is taken as zero.
    """

    flow: Mapping[LineId, float]
    gen: Mapping[str, float]
    load: Mapping[str, float]


@dataclass(frozen=True)
class LdcSolution:
    """A candidate operating point: susceptances, angles and injections."""

    susceptance: Mapping[LineId, float]
    theta: Mapping[str, float]
    injections: InjectionSolution

    @property
    def value(self) -> float:
        """The throughput: total generation."""
        return sum(self.injections.gen.values())


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    severity: str = "error"  # "error" | "warning"


@dataclass
class ValidationReport:
    issues: list[Violation] = field(default_factory=list)

    def add(self, code: str, message: str, severity: str = "error") -> None:
        self.issues.append(Violation(code, message, severity))

    @property
    def errors(self) -> list[Violation]:
        return [v for v in self.issues if v.severity == "error"]

    @property
    def warnings(self) -> list[Violation]:
        return [v for v in self.issues if v.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when the report carries no errors (warnings allowed)."""
        return not self.errors

    def codes(self) -> list[str]:
        return [v.code for v in self.issues]

    def __str__(self) -> str:
        if not self.issues:
            return "valid"
        return "\n".join(f"[{v.severity}] {v.code}: {v.message}" for v in self.issues)


def validate_network(net: Network) -> ValidationReport:
    """Check the structural invariants of a network.

    Violations are report entries, never exceptions; :class:`Network` runs
    this on construction and refuses any error, so on a built network the
    report holds warnings only.  Zero-capacity lines are legal (they model a
    disabled interface and pin the angle difference of their endpoints to
    zero) and only produce a warning.
    """
    report = ValidationReport()
    seen_ids: set[str] = set()
    for bus in net.buses:
        if bus.id in seen_ids:
            report.add("bus.duplicate_id", f"bus id {bus.id!r} appears more than once")
        seen_ids.add(bus.id)
        if not isinstance(bus.kind, BusKind):
            report.add("bus.bad_kind", f"bus {bus.id!r} has invalid kind {bus.kind!r}")

    seen_pairs: set[frozenset[str]] = set()
    for ln in net.lines:
        name = f"{ln.a}-{ln.b}"
        if ln.a == ln.b:
            report.add("line.self_loop", f"line {name} connects a bus to itself")
        for end in (ln.a, ln.b):
            if not net.has_bus(end):
                report.add("line.dangling_endpoint", f"line {name} references unknown bus {end!r}")
        if ln.a != ln.b:
            if ln.pair in seen_pairs:
                report.add("line.duplicate_pair", f"more than one line connects {{{ln.a}, {ln.b}}}")
            seen_pairs.add(ln.pair)
        if not (0 <= ln.s_min <= ln.s_max):
            report.add(
                "line.bad_interval",
                f"line {name} has invalid susceptance interval [{ln.s_min}, {ln.s_max}]",
            )
        if math.isinf(ln.s_min):
            report.add("line.bad_interval", f"line {name} has infinite lower susceptance bound")
        if math.isnan(ln.capacity):
            report.add("line.bad_capacity", f"line {name} has capacity NaN")
        elif ln.capacity < 0:
            report.add("line.negative_capacity", f"line {name} has negative capacity {ln.capacity}")
        elif ln.capacity == 0:
            report.add("line.zero_capacity", f"line {name} has zero capacity", severity="warning")
    return report


def _check_coverage(net: Network, per_line: Mapping[str, Mapping[LineId, float]],
                    per_bus: Iterable[Mapping[str, float]]) -> None:
    known = {ln.key for ln in net.lines}
    for what, values in per_line.items():
        for key in values:
            if key not in known:
                raise InputError(f"{what} references unknown line {key!r}")
    for mapping in per_bus:
        for bus_id in mapping:
            if not net.has_bus(bus_id):
                raise InputError(f"solution references unknown bus {bus_id!r}")


def check_kirchhoff(net: Network, inj: InjectionSolution, tol: float = DEFAULT_TOL) -> bool:
    """True iff flow conservation holds at every bus within ``tol``.

    The balance at bus ``a`` is ``sum of flows leaving a`` minus
    ``sum of flows entering a`` equals ``gen(a) - load(a)``.
    """
    _check_coverage(net, {"flow": inj.flow}, (inj.gen, inj.load))
    balance = {b.id: float(inj.gen.get(b.id, 0.0)) - float(inj.load.get(b.id, 0.0))
               for b in net.buses}
    for ln in net.lines:
        f = float(inj.flow.get(ln.key, 0.0))
        balance[ln.a] -= f
        balance[ln.b] += f
    return all(abs(v) <= tol for v in balance.values())


def validate_solution(net: Network, sol: LdcSolution, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check all conditions for ``sol`` to be a feasible operating point.

    Verifies flow conservation, the power law, susceptances within their
    intervals, flows within capacity, and the typing rules (generation only
    on generator buses, load only on load buses, both nonnegative).  A
    susceptance or flow of a line, or an angle or injection of a bus, that
    ``net`` lacks is reported as ``solution.bad_reference`` alone.
    An empty report means the solution is feasible at tolerance ``tol``,
    which must be finite and nonnegative.
    """
    if not 0.0 <= tol < math.inf:  # NaN fails too
        raise InputError("tol must be finite and nonnegative")
    report = ValidationReport()
    inj = sol.injections

    try:
        _check_coverage(net, {"susceptance": sol.susceptance}, (sol.theta,))
        if not check_kirchhoff(net, inj, tol):
            report.add("solution.kirchhoff", "flow conservation violated at some bus")
    except InputError as exc:
        report.add("solution.bad_reference", str(exc))
        return report

    for ln in net.lines:
        key = ln.key
        name = f"{ln.a}-{ln.b}"
        s = sol.susceptance.get(key)
        if s is None:
            report.add("solution.missing_susceptance", f"no susceptance for line {name}")
            continue
        if not (ln.s_min - tol <= s <= ln.s_max + tol):
            report.add(
                "solution.susceptance_range",
                f"susceptance {s} of line {name} outside [{ln.s_min}, {ln.s_max}]",
            )
        f = float(inj.flow.get(key, 0.0))
        # The capacity and power-law checks are written so that NaN fails them.
        if not abs(f) <= ln.capacity + tol:
            report.add(
                "solution.capacity",
                f"flow {f} on line {name} exceeds capacity {ln.capacity}",
            )
        if ln.a in sol.theta and ln.b in sol.theta:
            dtheta = float(sol.theta[ln.b]) - float(sol.theta[ln.a])
            if not abs(f - s * dtheta) <= tol:
                report.add(
                    "solution.power_law",
                    f"line {name}: flow {f} != susceptance {s} x angle difference {dtheta}",
                )
        else:
            report.add("solution.missing_theta", f"missing phase angle at an endpoint of {name}")

    for bus_id, value in inj.gen.items():
        kind = net.bus(bus_id).kind
        if value < -tol:
            report.add("solution.negative_gen", f"negative generation {value} at bus {bus_id}")
        if kind is not BusKind.GENERATOR and abs(value) > tol:
            report.add("solution.gen_typing", f"generation {value} on non-generator bus {bus_id}")
    for bus_id, value in inj.load.items():
        kind = net.bus(bus_id).kind
        if value < -tol:
            report.add("solution.negative_load", f"negative load {value} at bus {bus_id}")
        if kind is not BusKind.LOAD and abs(value) > tol:
            report.add("solution.load_typing", f"load {value} on non-load bus {bus_id}")
    return report
