"""Choice gadgets and the exact-cover encoding built from them.

A *choice network* is a sub-network with one designated port bus whose
optimal operating points emit either nothing or exactly ``x`` units of power
through the port, never anything in between, while the generation inside
the gadget stays at its inner optimum in both modes.  That all-or-nothing
behaviour is the discrete primitive that lets cover problems be written as
throughput questions: one gadget per candidate triple, emitting 3 units
exactly when the triple is selected.

The default builder realises the behaviour with rigid unit-susceptance
lines plus a single controllable line:

* a splitter generator that can route up to ``x`` units either out of the
  port or into an absorption branch;
* an absorption branch whose tight load makes every absorbed unit displace
  one unit of base generation (so partial emission is punished);
* a doubling amplifier chain behind one ``[0, 1]`` controllable line whose
  angle difference only turns positive once the absorbed share is large,
  letting full absorption win back exactly the displaced generation.

Equal-capacity padding (an isolated generator-load pair) tops the inner
optimum up to ``6.1 x``.  This module only builds networks.  The
construction is certified *behaviourally*, never assumed, by the test
helpers in ``tests/gadget_checks.py``: a sweep that pins the port emission
and checks the two-point optimality, and exact solves of the exact-cover
encoding compared against a brute-force decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import Bus, BusKind, InputError, Line, Network

__all__ = [
    "GadgetParts",
    "ChoiceNetwork",
    "ExactCoverInstance",
    "ReductionNetwork",
    "default_choice_builder",
    "build_choice_network",
    "build_exact_cover_network",
]

#: Id of the port bus of a standalone choice network.
_PORT = "p"


@dataclass(frozen=True)
class GadgetParts:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    expected_inner_opt: Fraction


def default_choice_builder(x: Fraction, port: str, ns: str) -> GadgetParts:
    """The in-house choice gadget, inner optimum ``6.1 x``.

    Takes the scale ``x``, the id of the (externally owned) port bus and a
    namespace prefix for the gadget's own bus ids, and returns the buses and
    lines to graft onto the network.

    Mechanics at scale 1 (everything multiplies by ``x``): the splitter
    generator feeds the port with ``w`` and the absorption bus with
    ``r <= 1 - w``.  The absorption triangle (direct hop plus a two-hop
    path) lands on a load of capacity 1 shared with a base generator of
    capacity 1, so serving ``r`` displaces base generation one-for-one.
    The two-hop midpoint sits a third of the angle drop below the load,
    while the base generator's bus sits a full ``gen`` below; their angle
    gap turns positive only when absorption is high and displacement deep.
    A ``[0, 1]`` controllable line across that gap feeds a three-stage
    doubling amplifier (each stage's generator is forced, by an angle tie,
    to match its segment flow), returning eight times the gap flow into a
    separate load, which restores the optimum exactly at full absorption.
    Padding of ``4.1`` lifts the base value to ``5.1``.
    """
    X = Fraction(x)
    if X <= 0:
        raise InputError("gadget scale must be positive")

    def b(name: str) -> str:
        return f"{ns}{name}"

    def cap(frac: Fraction) -> float:
        return float(frac * X)

    one = Fraction(1)
    buses = (
        Bus(b("main"), BusKind.GENERATOR),
        Bus(b("S")),
        Bus(b("a")),
        Bus(b("c")),
        Bus(b("L")),
        Bus(b("u")),
        Bus(b("d")),
        Bus(b("m1")),
        Bus(b("m2")),
        Bus(b("m3")),
        Bus(b("c1")),
        Bus(b("c2")),
        Bus(b("c3")),
        Bus(b("gb"), BusKind.GENERATOR),
        Bus(b("gc1"), BusKind.GENERATOR),
        Bus(b("gc2"), BusKind.GENERATOR),
        Bus(b("gc3"), BusKind.GENERATOR),
        Bus(b("lsink"), BusKind.LOAD),
        Bus(b("l2"), BusKind.LOAD),
        Bus(b("pg"), BusKind.GENERATOR),
        Bus(b("pl"), BusKind.LOAD),
    )
    lines = (
        Line(b("main"), b("S"), 1, 1, cap(one)),
        Line(b("S"), port, 1, 1, cap(one)),
        Line(b("S"), b("a"), 1, 1, cap(one)),
        # absorption triangle onto the tight load
        Line(b("a"), b("L"), 1, 1, cap(one)),
        Line(b("a"), b("c"), 1, 1, cap(one)),
        Line(b("c"), b("L"), 1, 1, cap(one)),
        # displaced base generation
        Line(b("gb"), b("u"), 1, 1, cap(one)),
        Line(b("u"), b("L"), 1, 1, cap(one)),
        Line(b("u"), b("d"), 1, 1, 0.0),  # angle tie: amplifier rides at u
        # the mode line: active only once absorption runs deep
        Line(b("c"), b("d"), 0.0, 1.0, cap(Fraction(1, 8))),
        # doubling amplifier chain
        Line(b("d"), b("m1"), 1, 1, cap(Fraction(1, 8))),
        Line(b("m1"), b("m2"), 1, 1, cap(Fraction(1, 4))),
        Line(b("m2"), b("m3"), 1, 1, cap(Fraction(1, 2))),
        Line(b("c1"), b("d"), 1, 1, 0.0),
        Line(b("c1"), b("m1"), 1, 1, cap(Fraction(1, 8))),
        Line(b("gc1"), b("c1"), 1, 1, cap(Fraction(1, 8))),
        Line(b("c2"), b("m1"), 1, 1, 0.0),
        Line(b("c2"), b("m2"), 1, 1, cap(Fraction(1, 4))),
        Line(b("gc2"), b("c2"), 1, 1, cap(Fraction(1, 4))),
        Line(b("c3"), b("m2"), 1, 1, 0.0),
        Line(b("c3"), b("m3"), 1, 1, cap(Fraction(1, 2))),
        Line(b("gc3"), b("c3"), 1, 1, cap(Fraction(1, 2))),
        Line(b("m3"), b("l2"), 1, 1, cap(one)),
        Line(b("L"), b("lsink"), 1, 1, cap(one)),
        # padding pair lifting the inner optimum to 6.1 x
        Line(b("pg"), b("pl"), 1, 1, cap(Fraction(41, 10))),
    )
    return GadgetParts(buses=buses, lines=lines,
                       expected_inner_opt=Fraction(61, 10) * X)


@dataclass(frozen=True)
class ChoiceNetwork:
    net: Network
    port: str
    expected_inner_opt: Fraction


def build_choice_network(x: Fraction | float) -> ChoiceNetwork:
    """Materialise a standalone default choice network with its port bus ``p``.

    Nothing here checks the behaviour; the emission sweep in
    ``tests/gadget_checks.py`` does.
    """
    try:
        x = Fraction(x).limit_denominator(10**9)
    except (ValueError, OverflowError):  # NaN or infinite
        raise InputError("gadget scale must be finite") from None
    parts = default_choice_builder(x, _PORT, f"{_PORT}.")
    net = Network(buses=(Bus(_PORT),) + tuple(parts.buses), lines=tuple(parts.lines))
    return ChoiceNetwork(net=net, port=_PORT, expected_inner_opt=parts.expected_inner_opt)


@dataclass(frozen=True)
class ExactCoverInstance:
    """A ground set and a family of 3-element subsets."""

    ground: tuple[str, ...]
    sets: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        ground = tuple(sorted(self.ground))
        if len(set(ground)) != len(ground):
            raise InputError("ground set has duplicate elements")
        norm = []
        for subset in self.sets:
            t = tuple(sorted(subset))
            if len(set(t)) != 3:
                raise InputError(f"subset {subset!r} must have exactly 3 distinct elements")
            if not set(t) <= set(ground):
                raise InputError(f"subset {subset!r} is not within the ground set")
            norm.append(t)
        if len(set(norm)) != len(norm):
            raise InputError("subsets must be distinct")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "sets", tuple(norm))

    @classmethod
    def from_lists(cls, ground: Sequence[str], sets: Sequence[Sequence[str]]):
        return cls(ground=tuple(ground), sets=tuple(tuple(s) for s in sets))


@dataclass(frozen=True)
class ReductionNetwork:
    net: Network
    target: Fraction
    ports: tuple[str, ...]


def _port_id(subset: tuple[str, ...]) -> str:
    return "v:" + "+".join(subset)


def build_exact_cover_network(inst: ExactCoverInstance) -> ReductionNetwork:
    """The throughput encoding of an exact-cover instance.

    Core part: a generator ``g`` and load ``l`` joined by a unit-susceptance
    line of capacity 3; per element ``e`` a bus with lines ``g-e`` (capacity
    1) and ``e-l`` (capacity 2); per subset a port bus wired to its three
    elements by unit lines.  Each port carries a scale-3 choice gadget.  The
    throughput reaches ``3 + 18.3 |S| + |M|`` exactly when the instance is
    solvable.
    """
    buses = [Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD)]
    lines = [Line("g", "l", 1, 1, 3.0)]
    for elem in inst.ground:
        buses.append(Bus(elem))
        lines.append(Line("g", elem, 1, 1, 1.0))
        lines.append(Line(elem, "l", 1, 1, 2.0))
    ports = []
    for subset in inst.sets:
        port = _port_id(subset)
        ports.append(port)
        buses.append(Bus(port))
        for elem in subset:
            lines.append(Line(port, elem, 1, 1, 1.0))
        parts = default_choice_builder(Fraction(3), port, f"{port}.")
        buses.extend(parts.buses)
        lines.extend(parts.lines)
    net = Network(buses=tuple(buses), lines=tuple(lines))
    target = Fraction(3) + Fraction(183, 10) * len(inst.sets) + len(inst.ground)
    return ReductionNetwork(net=net, target=target, ports=tuple(ports))
