"""Case ingest, scenario variants and serialization.

Input cases use the MATPOWER text format (``mpc.baseMVA``, ``mpc.bus``,
``mpc.gen`` and ``mpc.branch`` matrices with ``%`` comments).  Conversion to
a :class:`~factsflow.model.Network` goes to the per-unit system and models
generation and demand limits as *boundary lines*: each generator bus gets an
auxiliary pure-generator bus behind a line whose capacity is the maximum
output, and likewise for demand, so the core model never needs explicit
injection bounds.  Buses carrying both roles end up as junctions with two
auxiliary neighbours.

Scenario edits (random line removal, random placement of controllable
devices, congestion scaling) are deterministic in their seed.  Randomness
uses the Mersenne Twister (:class:`random.Random`) over lexicographically
sorted line keys with an in-house Fisher-Yates shuffle, so a seed pins the
outcome irrespective of construction order.

Networks and solutions serialize to a versioned canonical JSON (``schema``
1); batch experiment results use a fixed CSV layout.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass

from .model import (
    Bus,
    BusKind,
    InputError,
    InjectionSolution,
    LdcSolution,
    Line,
    LineKind,
    Network,
)

__all__ = [
    "RawBus",
    "RawGen",
    "RawBranch",
    "RawCase",
    "ScenarioSpec",
    "CaseParseError",
    "parse_case",
    "to_network",
    "apply_congestion_factors",
    "check_removable",
    "check_scalable",
    "remove_random_lines",
    "assign_facts",
    "serialize_network",
    "deserialize_network",
    "serialize_solution",
    "deserialize_solution",
    "RUN_CSV_HEADER",
    "format_run_row",
    "derive_seed",
]

LineId = tuple[str, str]

RUN_CSV_HEADER = "scenario,seed,mpf,im,mff,gap,mf,improvement_pct,runtime_s"


class CaseParseError(ValueError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class RawBus:
    id: str
    btype: int
    pd: float


@dataclass(frozen=True)
class RawGen:
    bus: str
    pmax: float


@dataclass(frozen=True)
class RawBranch:
    from_bus: str
    to_bus: str
    x: float
    rating: float
    status: int


@dataclass(frozen=True)
class RawCase:
    base_mva: float
    buses: tuple[RawBus, ...]
    gens: tuple[RawGen, ...]
    branches: tuple[RawBranch, ...]


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one damage / utilisation study variant."""

    seed: int
    lines_removed: int = 0
    facts_fraction: float = 0.0
    interval_pct: float = 0.0
    gen_factor: float = 1.0
    load_factor: float = 1.0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise InputError("seed must fit in 64 unsigned bits")
        if self.lines_removed < 0:
            raise InputError("lines_removed must be nonnegative")
        if not (0.0 <= self.facts_fraction <= 1.0):
            raise InputError("facts_fraction must lie in [0, 1]")
        # Written so that NaN fails them; ``inf`` passes.
        if not self.interval_pct >= 0:
            raise InputError("interval_pct must be nonnegative")
        if not (self.gen_factor > 0 and self.load_factor > 0):
            raise InputError("congestion factors must be positive")


_NUM = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _strip_comment(line: str) -> str:
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def _integer(value: float, what: str) -> int:
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite")
    i = int(value)
    if i != value:
        raise ValueError(f"{what} must be integers")
    return i


def _fmt_id(value: float) -> str:
    return str(_integer(value, "bus ids"))


def parse_case(text: str) -> RawCase:
    """Parse MATPOWER-style case text.

    Tolerates comments, blank lines and extra columns; reports malformed
    rows, missing sections and zero reactance on in-service branches with
    their line number.
    """
    base_mva: float | None = None
    sections: dict[str, list[tuple[int, list[float]]]] = {}
    current: str | None = None

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        m = re.match(r"mpc\.baseMVA\s*=\s*([^;]+);?", line)
        if m:
            token = m.group(1).strip()
            if not _NUM.match(token):
                raise CaseParseError(f"bad baseMVA value {token!r}", line_no)
            base_mva = float(token)
            continue
        m = re.match(r"mpc\.(\w+)\s*=\s*\[(.*)$", line)
        if m:
            name = m.group(1)
            current = name if name in ("bus", "gen", "branch") else None
            if current is not None:
                sections.setdefault(current, [])
            line = m.group(2).strip()
            if not line:
                continue
        if current is None:
            continue
        done = False
        if line.endswith("];"):
            line = line[:-2]
            done = True
        elif line == "]":
            current = None
            continue
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            row = []
            for token in chunk.split():
                if not _NUM.match(token):
                    raise CaseParseError(
                        f"non-numeric value {token!r} in mpc.{current} row", line_no
                    )
                row.append(float(token))
            sections[current].append((line_no, row))
        if done:
            current = None

    if base_mva is None:
        raise CaseParseError("missing mpc.baseMVA")
    for needed in ("bus", "gen", "branch"):
        if needed not in sections:
            raise CaseParseError(f"missing mpc.{needed} section")

    buses = []
    for line_no, row in sections["bus"]:
        if len(row) < 3:
            raise CaseParseError("bus row needs at least 3 columns", line_no)
        try:
            buses.append(RawBus(id=_fmt_id(row[0]), btype=_integer(row[1], "bus types"),
                                 pd=row[2]))
        except ValueError as exc:
            raise CaseParseError(str(exc), line_no) from None
    gens = []
    for line_no, row in sections["gen"]:
        if len(row) < 9:
            raise CaseParseError("gen row needs at least 9 columns", line_no)
        try:
            gens.append(RawGen(bus=_fmt_id(row[0]), pmax=row[8]))
        except ValueError as exc:
            raise CaseParseError(str(exc), line_no) from None
    branches = []
    for line_no, row in sections["branch"]:
        if len(row) < 11:
            raise CaseParseError("branch row needs at least 11 columns", line_no)
        try:
            ends = _fmt_id(row[0]), _fmt_id(row[1])
            status = _integer(row[10], "branch statuses")
        except ValueError as exc:
            raise CaseParseError(str(exc), line_no) from None
        if status != 0 and row[3] == 0.0:
            raise CaseParseError("in-service branch has zero reactance", line_no)
        branches.append(RawBranch(*ends, x=row[3], rating=row[5], status=status))
    return RawCase(base_mva=base_mva, buses=tuple(buses), gens=tuple(gens),
                   branches=tuple(branches))


def to_network(raw: RawCase) -> Network:
    """Per-unit network with boundary-line generation and demand limits.

    Branch susceptance is the inverse reactance magnitude with a fixed
    interval; unrated branches (rating 0) get the total generator capability
    as an effectively-unbounded finite cap; out-of-service branches are
    dropped.  A bus is given a generator boundary when any generator sits on
    it and a load boundary when it carries demand (or is a demand-type bus
    with zero demand, which yields a zero-capacity boundary).  Boundary
    susceptance is ten times the largest branch susceptance so boundary
    angles never bind before capacities do.
    """
    if raw.base_mva <= 0:
        raise InputError("base MVA must be positive")
    base = raw.base_mva

    in_service = [br for br in raw.branches if br.status != 0]
    total_pmax_pu = sum(g.pmax for g in raw.gens) / base
    max_susceptance = max((1.0 / abs(br.x) for br in in_service), default=1.0)
    s_b = 10.0 * max_susceptance

    # The network itself rejects branches to unknown buses and parallel
    # branches; a generator never becomes a line, so its bus is checked here.
    known = {b.id for b in raw.buses}
    for g in raw.gens:
        if g.bus not in known:
            raise InputError(f"generator references unknown bus {g.bus}")

    gen_cap: dict[str, float] = {}
    for g in raw.gens:
        gen_cap[g.bus] = gen_cap.get(g.bus, 0.0) + g.pmax / base

    buses: list[Bus] = []
    lines: list[Line] = []
    for rb in raw.buses:
        buses.append(Bus(rb.id, BusKind.JUNCTION))
        if rb.id in gen_cap:
            aux = f"{rb.id}#gen"
            buses.append(Bus(aux, BusKind.GENERATOR))
            lines.append(Line(aux, rb.id, s_b, s_b, gen_cap[rb.id],
                              kind=LineKind.GEN_BOUNDARY))
        if rb.pd > 0 or rb.btype == 1:
            aux = f"{rb.id}#load"
            buses.append(Bus(aux, BusKind.LOAD))
            lines.append(Line(rb.id, aux, s_b, s_b, max(rb.pd, 0.0) / base,
                              kind=LineKind.LOAD_BOUNDARY))
    for br in in_service:
        s = 1.0 / abs(br.x)
        cap = br.rating / base if br.rating > 0 else total_pmax_pu
        lines.append(Line(br.from_bus, br.to_bus, s, s, cap))
    return Network(buses=tuple(buses), lines=tuple(lines))


def apply_congestion_factors(net: Network, gen_factor: float,
                             load_factor: float) -> Network:
    """Scale generation and demand limits through their boundary lines."""
    check_scalable(net, gen_factor, load_factor)
    lines = []
    for ln in net.lines:
        if ln.kind is LineKind.GEN_BOUNDARY:
            lines.append(Line(ln.a, ln.b, ln.s_min, ln.s_max,
                              ln.capacity * gen_factor, kind=ln.kind))
        elif ln.kind is LineKind.LOAD_BOUNDARY:
            lines.append(Line(ln.a, ln.b, ln.s_min, ln.s_max,
                              ln.capacity * load_factor, kind=ln.kind))
        else:
            lines.append(ln)
    return Network(buses=net.buses, lines=tuple(lines))


def check_scalable(net: Network, gen_factor: float, load_factor: float) -> None:
    """Raise :class:`InputError` unless both factors are positive (NaN is
    not) and ``net`` has boundary lines for :func:`apply_congestion_factors`
    to scale."""
    if not (gen_factor > 0 and load_factor > 0):
        raise InputError("congestion factors must be positive")
    if not any(ln.kind is not LineKind.REGULAR for ln in net.lines):
        raise InputError("network has no boundary lines to scale")


def _shuffled_regular_keys(net: Network, seed: int) -> list[LineId]:
    """Regular line keys in a seed-determined order (Fisher-Yates over the
    lexicographically sorted key list, Mersenne Twister randomness)."""
    keys = sorted(ln.key for ln in net.lines if ln.kind is LineKind.REGULAR)
    rng = random.Random(seed)
    for i in range(len(keys) - 1, 0, -1):
        j = rng.randrange(i + 1)
        keys[i], keys[j] = keys[j], keys[i]
    return keys


def check_removable(net: Network, k: int) -> None:
    """Raise :class:`InputError` unless ``net`` has ``k`` non-boundary lines
    for :func:`remove_random_lines` to drop."""
    if k < 0:
        raise InputError("k must be nonnegative")
    regular = sum(ln.kind is LineKind.REGULAR for ln in net.lines)
    if k > regular:
        raise InputError(f"cannot remove {k} of {regular} non-boundary lines")


def remove_random_lines(net: Network, k: int, seed: int) -> Network:
    """Drop ``k`` distinct non-boundary lines chosen by the seeded shuffle."""
    check_removable(net, k)
    doomed = set(_shuffled_regular_keys(net, seed)[:k])
    return Network(buses=net.buses,
                   lines=tuple(ln for ln in net.lines if ln.key not in doomed))


def assign_facts(net: Network, fraction: float, interval_pct: float,
                 seed: int) -> Network:
    """Give a random share of the non-boundary lines a susceptance interval.

    Selects ``floor(fraction * count)`` fixed lines uniformly without
    replacement and widens each to ``[s0 (1 - pct/100), s0 (1 + pct/100)]``,
    floored at zero.
    """
    if not (0.0 <= fraction <= 1.0):
        raise InputError("fraction must lie in [0, 1]")
    if not interval_pct >= 0:  # NaN fails too
        raise InputError("interval_pct must be nonnegative")
    keys = _shuffled_regular_keys(net, seed)
    count = int(fraction * len(keys))
    chosen = set(keys[:count])
    lines = []
    for ln in net.lines:
        if ln.key not in chosen:
            lines.append(ln)
            continue
        if ln.is_facts:
            raise InputError(
                f"line {ln.a}-{ln.b} already has a susceptance interval"
            )
        s0 = ln.s_min
        lo = max(s0 * (1.0 - interval_pct / 100.0), 0.0)
        hi = s0 * (1.0 + interval_pct / 100.0)
        lines.append(Line(ln.a, ln.b, lo, hi, ln.capacity, kind=ln.kind))
    return Network(buses=net.buses, lines=tuple(lines))


# --- JSON serialization ----------------------------------------------------

_NETWORK_SCHEMA = 1
_BUS_FIELDS = {"id", "kind"}
_LINE_FIELDS = {"a", "b", "s_min", "s_max", "capacity", "kind"}


def _encode_s_max(value: float):
    return "inf" if math.isinf(value) else value


def _decode_s_max(value) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, (int, float)):
        return float(value)
    raise InputError(f"bad s_max value {value!r}")


def _section(doc: dict, name: str, kind: type):
    """Section ``name`` of a JSON document, empty when absent: a list of
    objects when ``kind`` is ``list``, an object when it is ``dict``."""
    value = doc.get(name, kind())
    if not isinstance(value, kind) or (
            kind is list and not all(isinstance(e, dict) for e in value)):
        what = "a list of objects" if kind is list else "an object"
        raise InputError(f"section {name!r} must be {what}")
    return value


def _field(entry: dict, name: str, where: str):
    try:
        return entry[name]
    except KeyError:
        raise InputError(f"{where} misses field {name!r}") from None


def _id(entry: dict, name: str, where: str) -> str:
    """Field ``name`` of ``entry`` as a bus id.  Only JSON strings and
    integers are ids; ``str()`` of anything else would invent one."""
    value = _field(entry, name, where)
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise InputError(f"{where} has bad {name} {value!r}: ids are strings or integers")
    return str(value)


def _number(value, name: str, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InputError(f"{where} has non-numeric {name} {value!r}") from None


def serialize_network(net: Network) -> str:
    doc = {
        "schema": _NETWORK_SCHEMA,
        "buses": [{"id": b.id, "kind": b.kind.value} for b in net.buses],
        "lines": [
            {
                "a": ln.a,
                "b": ln.b,
                "s_min": ln.s_min,
                "s_max": _encode_s_max(ln.s_max),
                "capacity": ln.capacity,
                "kind": ln.kind.value,
            }
            for ln in net.lines
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def deserialize_network(text: str) -> Network:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid network JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != _NETWORK_SCHEMA:
        raise InputError("unsupported or missing network schema version")
    extra = set(doc) - {"schema", "buses", "lines"}
    if extra:
        raise InputError(f"unknown field {sorted(extra)[0]!r} in network document")
    buses = []
    for entry in _section(doc, "buses", list):
        extra = set(entry) - _BUS_FIELDS
        if extra:
            raise InputError(f"unknown field {sorted(extra)[0]!r} in bus entry")
        try:
            kind = BusKind(entry.get("kind", "junction"))
        except ValueError:
            raise InputError(f"bad bus kind {entry.get('kind')!r}") from None
        buses.append(Bus(_id(entry, "id", "bus entry"), kind))
    lines = []
    for entry in _section(doc, "lines", list):
        extra = set(entry) - _LINE_FIELDS
        if extra:
            raise InputError(f"unknown field {sorted(extra)[0]!r} in line entry")
        try:
            kind = LineKind(entry.get("kind", "regular"))
        except ValueError:
            raise InputError(f"bad line kind {entry.get('kind')!r}") from None
        a, b = (_id(entry, end, "line entry") for end in ("a", "b"))
        where = f"line {a}-{b}"
        lines.append(
            Line(
                a,
                b,
                _number(_field(entry, "s_min", where), "s_min", where),
                _decode_s_max(_field(entry, "s_max", where)),
                _number(_field(entry, "capacity", where), "capacity", where),
                kind=kind,
            )
        )
    return Network(buses=tuple(buses), lines=tuple(lines))


_SOLUTION_SCHEMA = 1


def serialize_solution(sol: LdcSolution) -> str:
    doc = {
        "schema": _SOLUTION_SCHEMA,
        "theta": {b: v for b, v in sorted(sol.theta.items())},
        "susceptance": [
            {"a": a, "b": b, "value": v}
            for (a, b), v in sorted(sol.susceptance.items())
        ],
        "flow": [
            {"a": a, "b": b, "value": v}
            for (a, b), v in sorted(sol.injections.flow.items())
        ],
        "gen": {b: v for b, v in sorted(sol.injections.gen.items())},
        "load": {b: v for b, v in sorted(sol.injections.load.items())},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def deserialize_solution(text: str) -> LdcSolution:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid solution JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != _SOLUTION_SCHEMA:
        raise InputError("unsupported or missing solution schema version")
    extra = set(doc) - {"schema", "theta", "susceptance", "flow", "gen", "load"}
    if extra:
        raise InputError(f"unknown field {sorted(extra)[0]!r} in solution document")

    def line_map(name: str) -> dict[LineId, float]:
        out = {}
        for e in _section(doc, name, list):
            key = tuple(_id(e, end, f"{name} entry") for end in ("a", "b"))
            out[key] = _number(_field(e, "value", f"{name} entry"), "value",
                               f"{name} entry {key[0]}-{key[1]}")
        return out

    def bus_map(name: str) -> dict[str, float]:
        return {str(k): _number(v, "value", f"{name} entry {k}")
                for k, v in _section(doc, name, dict).items()}

    return LdcSolution(
        susceptance=line_map("susceptance"),
        theta=bus_map("theta"),
        injections=InjectionSolution(
            flow=line_map("flow"), gen=bus_map("gen"), load=bus_map("load"),
        ),
    )


def format_run_row(scenario: str, seed: int, mpf: float | None = None,
                   im: float | None = None, mff: float | None = None,
                   gap: float | None = None, mf: float | None = None,
                   runtime_s: float | None = None) -> str:
    """One CSV row in the fixed column order, 6-decimal formatting.

    A value left at ``None`` (a stage the trial did not reach) is a blank
    cell.  The improvement column compares the exact solver's value against
    the fixed-susceptance baseline and is blank unless both are present and
    the baseline is positive.
    """
    improvement = None
    if mpf is not None and mff is not None and mpf > 0:
        improvement = 100.0 * (mff - mpf) / mpf
    values = (mpf, im, mff, gap, mf, improvement, runtime_s)
    return ",".join([scenario, str(seed)] + ["" if v is None else f"{v:.6f}" for v in values])


def derive_seed(master: int, index: int) -> int:
    """Deterministic per-trial child seed fanned out from one master seed."""
    golden = 0x9E3779B97F4A7C15
    return (master ^ ((index + 1) * golden)) % (2**64)
