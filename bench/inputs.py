"""Seeded input generators for the benchmark.

Everything here is the benchmark's own code: the program only ever sees the
generated case text and networks.  Randomness comes from :class:`random.Random`
seeded with a string, which Python hashes with SHA-512, so a seed pins the
output on every platform and interpreter run.
"""

from __future__ import annotations

import math
import random

from factsflow.model import Bus, BusKind, Line, Network


def rng_for(seed: int, *tags) -> random.Random:
    """An independent stream for one purpose of one seed."""
    return random.Random(":".join(str(t) for t in (seed, *tags)))


def _grid_edges(rng: random.Random, n: int, branches: int) -> list[tuple[int, int]]:
    """A connected, grid-like edge set on buses ``1..n`` without parallels.

    A spanning tree attaches each bus to one of the few buses numbered just
    before it (so the graph stays local, like a transmission grid), then
    extra branches join buses a short distance apart until ``branches``
    edges exist.
    """
    edges: list[tuple[int, int]] = []
    seen: set[frozenset[int]] = set()

    def add(a: int, b: int) -> bool:
        pair = frozenset((a, b))
        if a == b or pair in seen:
            return False
        seen.add(pair)
        edges.append((a, b))
        return True

    for i in range(2, n + 1):
        add(i, rng.randint(max(1, i - 4), i - 1))
    while len(edges) < branches:
        a = rng.randint(1, n)
        b = a + rng.choice((-6, -5, -4, -3, -2, 2, 3, 4, 5, 6))
        if 1 <= b <= n:
            add(a, b)
    return edges


def case_text(n_buses: int, seed) -> str:
    """A synthetic MATPOWER-style case of ``n_buses`` buses.

    1.4 branches per bus, a generator on every fourth bus (the first is the
    slack), demand on every bus except half of the generator buses,
    reactances 0.02-0.2 p.u., ratings 40-160 MW and total generator
    capability 1.3 times total demand.  Bus and branch counts, and so the
    sizes of the programs built from the case, depend on ``n_buses`` alone.
    """
    if n_buses < 3:
        raise ValueError("a case needs at least three buses")
    rng = rng_for(seed, "case", n_buses)
    gens = sorted(rng.sample(range(1, n_buses + 1), max(2, n_buses // 4)))
    demand = {i: round(rng.uniform(10.0, 60.0), 1) for i in range(1, n_buses + 1)}
    for g in rng.sample(gens, len(gens) // 2):
        demand[g] = 0.0
    edges = _grid_edges(rng, n_buses, round(1.4 * n_buses))

    out = ["function mpc = bench_case",
           "mpc.version = '2';",
           "mpc.baseMVA = 100;",
           "%% bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin",
           "mpc.bus = ["]
    for i in range(1, n_buses + 1):
        btype = 3 if i == gens[0] else (2 if i in gens else 1)
        out.append(f"\t{i}\t{btype}\t{demand[i]}\t0\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;")
    out.append("];")
    out.append("%% bus Pg Qg Qmax Qmin Vg mBase status Pmax Pmin")
    out.append("mpc.gen = [")
    total = sum(demand.values())
    weights = [rng.uniform(0.5, 1.5) for _ in gens]
    for g, w in zip(gens, weights):
        pmax = round(1.3 * total * w / sum(weights), 1)
        out.append(f"\t{g}\t0\t0\t300\t-300\t1\t100\t1\t{pmax}\t0;")
    out.append("];")
    out.append("%% fbus tbus r x b rateA rateB rateC ratio angle status")
    out.append("mpc.branch = [")
    for a, b in edges:
        x = round(rng.uniform(0.02, 0.2), 4)
        rating = float(rng.randrange(40, 161, 10))
        out.append(f"\t{a}\t{b}\t0.01\t{x}\t0\t{rating}\t0\t0\t0\t0\t1;")
    out.append("];")
    return "\n".join(out) + "\n"


def small_mesh(seed, index: int, shapes: tuple[str, ...], controllable: int,
               buses: tuple[int, int], extra_lines: int) -> Network:
    """A connected mesh whose controllable lines draw their interval from ``shapes``.

    ``controllable`` randomly chosen lines (all of them, if there are fewer)
    get an interval: ``s_t`` is ``[s, t]`` with ``0 < s < t``, ``zero_t`` is
    ``[0, t]`` and ``s_inf`` is ``[s, inf)`` with ``s = 0`` on half of those
    lines.  The other lines are fixed.  Generation and demand sit directly on
    generator and load buses with no boundary lines, so line capacities
    (0.5-8 in quarter steps) are the only limits.  The bus count is drawn
    from the range ``buses``; a spanning tree plus ``extra_lines`` chords
    closes the cycles.
    """
    rng = rng_for(seed, "mesh", index, *shapes)
    n = rng.randint(*buses)
    kinds = [BusKind.GENERATOR, BusKind.LOAD] + [
        rng.choice((BusKind.GENERATOR, BusKind.LOAD, BusKind.JUNCTION, BusKind.JUNCTION))
        for _ in range(n - 2)
    ]
    rng.shuffle(kinds)
    ids = [f"m{i}" for i in range(n)]

    pairs: list[tuple[str, str]] = []
    seen: set[frozenset[str]] = set()
    for i in range(1, n):
        pairs.append((ids[i], ids[rng.randrange(i)]))
        seen.add(frozenset(pairs[-1]))
    extras = extra_lines
    while extras:
        a, b = rng.sample(ids, 2)
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            pairs.append((a, b))
            extras -= 1

    chosen = set(rng.sample(range(len(pairs)), min(controllable, len(pairs))))
    lines = []
    for k, (a, b) in enumerate(pairs):
        s0 = round(rng.uniform(0.5, 2.0), 3)
        shape = rng.choice(shapes) if k in chosen else "fixed"
        if shape == "fixed":
            lo, hi = s0, s0
        elif shape == "s_t":
            spread = rng.uniform(0.1, 0.6)
            lo, hi = s0 * (1 - spread), s0 * (1 + spread)
        elif shape == "zero_t":
            lo, hi = 0.0, s0
        elif shape == "s_inf":
            lo, hi = (0.0 if rng.random() < 0.5 else s0), math.inf
        else:
            raise ValueError(f"unknown interval shape {shape!r}")
        lines.append(Line(a, b, lo, hi, rng.randrange(2, 33) * 0.25))
    return Network(buses=tuple(Bus(i, k) for i, k in zip(ids, kinds)), lines=tuple(lines))
