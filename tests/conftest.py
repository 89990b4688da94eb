"""Shared fixtures: canonical small networks and seeded random generators."""

from __future__ import annotations

import math
import random

import pytest

from factsflow.model import Bus, BusKind, Line, Network


def tri_network(facts: bool = False) -> Network:
    """Three buses: generator g, junction b, load l.

    The direct g-l line carries the interval [1, 1.25] in the controllable
    variant; g-b and b-l are fixed unit-susceptance lines with capacities 10
    and 4.  Generation and load are unbounded (no boundary lines), so the
    b-l capacity is the only congestion.
    """
    return Network(
        buses=(Bus("g", BusKind.GENERATOR), Bus("b"), Bus("l", BusKind.LOAD)),
        lines=(
            Line("g", "l", 1.0, 1.25 if facts else 1.0, 10.0),
            Line("g", "b", 1.0, 1.0, 10.0),
            Line("b", "l", 1.0, 1.0, 4.0),
        ),
    )


@pytest.fixture
def tri() -> Network:
    return tri_network(facts=False)


@pytest.fixture
def tri_f() -> Network:
    return tri_network(facts=True)


@pytest.fixture
def single_line() -> Network:
    return Network(
        buses=(Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD)),
        lines=(Line("g", "l", 1.0, 1.0, 5.0),),
    )


def _random_kinds(rng: random.Random, n: int) -> list[BusKind]:
    kinds = [BusKind.GENERATOR, BusKind.LOAD]
    while len(kinds) < n:
        kinds.append(
            rng.choice((BusKind.GENERATOR, BusKind.LOAD, BusKind.JUNCTION,
                        BusKind.JUNCTION))
        )
    rng.shuffle(kinds)
    return kinds


def _cap(rng: random.Random) -> float:
    return rng.randrange(2, 33) * 0.25  # 0.5 .. 8.0 in quarter steps


def random_small_net(seed: int, max_lines: int = 8) -> Network:
    """4-8 buses, at most ``max_lines`` lines, mixed fixed and controllable
    susceptance intervals.  Always contains a generator and a load."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    ids = [f"n{i}" for i in range(n)]
    buses = tuple(Bus(i, k) for i, k in zip(ids, _random_kinds(rng, n)))

    pairs: set[frozenset[str]] = set()
    lines: list[Line] = []

    def add_line(a: str, b: str) -> None:
        s0 = rng.uniform(0.5, 2.0)
        style = rng.random()
        if style < 0.45:
            lo = hi = s0
        elif style < 0.75:
            spread = rng.uniform(0.1, 0.6)
            lo, hi = s0 * (1 - spread), s0 * (1 + spread)
        elif style < 0.9:
            lo, hi = 0.0, s0
        else:
            lo, hi = s0, math.inf
        lines.append(Line(a, b, lo, hi, _cap(rng)))
        pairs.add(frozenset((a, b)))

    order = ids[:]
    rng.shuffle(order)
    for i in range(1, n):
        other = rng.choice(order[:i])
        add_line(order[i], other)
    while len(lines) < max_lines and rng.random() < 0.65:
        a, b = rng.sample(ids, 2)
        if frozenset((a, b)) in pairs:
            continue
        add_line(a, b)
    return Network(buses=buses, lines=tuple(lines))


def random_tree(seed: int, max_buses: int = 30) -> Network:
    """A random tree with arbitrary susceptance intervals."""
    rng = random.Random(seed)
    n = rng.randint(3, max_buses)
    ids = [f"t{i}" for i in range(n)]
    buses = tuple(Bus(i, k) for i, k in zip(ids, _random_kinds(rng, n)))
    lines = []
    for i in range(1, n):
        parent = ids[rng.randrange(i)]
        s0 = rng.uniform(0.4, 2.5)
        style = rng.random()
        if style < 0.4:
            lo = hi = s0
        elif style < 0.7:
            lo, hi = 0.6 * s0, 1.4 * s0
        elif style < 0.85:
            lo, hi = 0.0, s0
        else:
            lo, hi = s0, math.inf
        lines.append(Line(ids[i], parent, lo, hi, _cap(rng)))
    return Network(buses=buses, lines=tuple(lines))


def random_meshed_zero_lower(seed: int, max_buses: int = 30) -> Network:
    """Connected meshed network whose every interval is [0, t]."""
    rng = random.Random(seed)
    n = rng.randint(4, max_buses)
    ids = [f"m{i}" for i in range(n)]
    buses = tuple(Bus(i, k) for i, k in zip(ids, _random_kinds(rng, n)))
    pairs: set[frozenset[str]] = set()
    lines: list[Line] = []

    def add(a: str, b: str) -> None:
        t = rng.uniform(0.5, 2.5)
        lines.append(Line(a, b, 0.0, t, _cap(rng)))
        pairs.add(frozenset((a, b)))

    for i in range(1, n):
        add(ids[i], ids[rng.randrange(i)])
    extras = rng.randint(1, max(1, n // 2))
    for _ in range(extras * 3):
        if len(lines) >= n - 1 + extras:
            break
        a, b = rng.sample(ids, 2)
        if frozenset((a, b)) not in pairs:
            add(a, b)
    return Network(buses=buses, lines=tuple(lines))


def random_unbounded_upper(seed: int, max_buses: int = 16) -> Network:
    """Connected meshed network whose every interval is [s, inf)."""
    rng = random.Random(seed)
    n = rng.randint(4, max_buses)
    ids = [f"u{i}" for i in range(n)]
    buses = tuple(Bus(i, k) for i, k in zip(ids, _random_kinds(rng, n)))
    pairs: set[frozenset[str]] = set()
    lines: list[Line] = []

    def add(a: str, b: str) -> None:
        lo = 0.0 if rng.random() < 0.5 else rng.uniform(0.2, 1.5)
        lines.append(Line(a, b, lo, math.inf, _cap(rng)))
        pairs.add(frozenset((a, b)))

    for i in range(1, n):
        add(ids[i], ids[rng.randrange(i)])
    extras = rng.randint(1, max(1, n // 3))
    for _ in range(extras * 3):
        if len(lines) >= n - 1 + extras:
            break
        a, b = rng.sample(ids, 2)
        if frozenset((a, b)) not in pairs:
            add(a, b)
    return Network(buses=buses, lines=tuple(lines))


def random_partly_unbounded(seed: int) -> Network:
    """``random_small_net(seed, max_lines=10)`` with about 40 % of its lines,
    drawn in line order, made ``[s_min, inf)``."""
    net = random_small_net(seed, max_lines=10)
    rng = random.Random(10_000 + seed)
    lines = tuple(
        Line(ln.a, ln.b, ln.s_min, math.inf, ln.capacity, kind=ln.kind)
        if rng.random() < 0.4 else ln
        for ln in net.lines
    )
    return Network(buses=net.buses, lines=lines)
