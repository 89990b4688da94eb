"""Reference values from scipy's HiGHS, built straight from a ``Network``.

Nothing here uses a ``factsflow`` builder or its simplex: each program is
written out from the network's buses and lines as sparse matrices and solved
with ``scipy.optimize.linprog(method="highs")``.  The only values shared with
the program are the model's data types and the documented ceiling
``formulations.UNBOUNDED_S_CAP`` that stands in for ``s_max = inf``.

Variables, in order: one angle per bus (free), the flow of each line (within
its capacity), then generation per generator bus and load per load bus (both
nonnegative).  The objective maximises total generation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from factsflow.formulations import UNBOUNDED_S_CAP
from factsflow.model import BusKind, Network


class ReferenceError(RuntimeError):
    """HiGHS did not return an optimum for a program that always has one."""


class _Program:
    def __init__(self, net: Network, with_angles: bool):
        nb = len(net.buses)
        self.bus_pos = {b.id: i for i, b in enumerate(net.buses)}
        self.n_theta = nb if with_angles else 0
        self.flow0 = self.n_theta
        lines = net.lines
        gens = [b.id for b in net.buses if b.kind is BusKind.GENERATOR]
        loads = [b.id for b in net.buses if b.kind is BusKind.LOAD]
        self.gen0 = self.flow0 + len(lines)
        self.load0 = self.gen0 + len(gens)
        self.gen_pos = {g: self.gen0 + i for i, g in enumerate(gens)}
        self.load_pos = {l: self.load0 + i for i, l in enumerate(loads)}
        self.bounds = ([(None, None)] * self.n_theta
                       + [(-ln.capacity, ln.capacity) for ln in lines]
                       + [(0, None)] * (len(gens) + len(loads)))
        self.eq: list[tuple[dict[int, float], float]] = []
        self.ub: list[tuple[dict[int, float], float]] = []
        for bus in net.buses:
            row: dict[int, float] = {}
            if bus.id in self.gen_pos:
                row[self.gen_pos[bus.id]] = -1.0
            if bus.id in self.load_pos:
                row[self.load_pos[bus.id]] = 1.0
            self.eq.append((row, 0.0))
        for j, ln in enumerate(lines):
            self.eq[self.bus_pos[ln.a]][0][self.flow0 + j] = 1.0
            self.eq[self.bus_pos[ln.b]][0][self.flow0 + j] = -1.0

    def theta(self, bus_id: str) -> int:
        return self.bus_pos[bus_id]

    def add_var(self, lo, hi) -> int:
        self.bounds.append((lo, hi))
        return len(self.bounds) - 1

    def _matrix(self, rows):
        if not rows:
            return None, None
        r, c, v = [], [], []
        for i, (coeffs, _) in enumerate(rows):
            for j, a in coeffs.items():
                r.append(i)
                c.append(j)
                v.append(a)
        matrix = csr_matrix((v, (r, c)), shape=(len(rows), len(self.bounds)))
        return matrix, np.array([b for _, b in rows])

    def maximise(self) -> float:
        cost = np.zeros(len(self.bounds))
        cost[list(self.gen_pos.values())] = -1.0
        a_eq, b_eq = self._matrix(self.eq)
        a_ub, b_ub = self._matrix(self.ub)
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=self.bounds, method="highs")
        if res.status != 0:
            raise ReferenceError(f"HiGHS status {res.status}: {res.message}")
        return float(-res.fun)


def max_flow(net: Network) -> float:
    """MF: conservation and capacities only."""
    return _Program(net, with_angles=False).maximise()


def mpf(net: Network, s) -> float:
    """MPF: ``f = s * (theta[b] - theta[a])`` with ``s[key]`` on every line."""
    p = _Program(net, with_angles=True)
    for j, ln in enumerate(net.lines):
        sv = s[ln.key]
        p.eq.append(({p.flow0 + j: 1.0, p.theta(ln.b): -sv, p.theta(ln.a): sv}, 0.0))
    return p.maximise()


def mvf(net: Network, bits) -> float:
    """MVF for a direction bit on each controllable line.

    Fixed lines keep ``f = s * dtheta``.  A controllable line with bit 1
    (``theta[b] >= theta[a]``, sign +1) or bit 0 (sign -1) gets
    ``d = sign * dtheta >= 0`` and ``s_min * d <= sign * f <= s_hi * d``,
    where ``s_hi`` is ``UNBOUNDED_S_CAP`` for an unbounded interval.
    """
    p = _Program(net, with_angles=True)
    for j, ln in enumerate(net.lines):
        f, ta, tb = p.flow0 + j, p.theta(ln.a), p.theta(ln.b)
        if not ln.is_facts:
            p.eq.append(({f: 1.0, tb: -ln.s_min, ta: ln.s_min}, 0.0))
            continue
        sgn = 1.0 if bits[ln.key] == 1 else -1.0
        s_hi = UNBOUNDED_S_CAP if math.isinf(ln.s_max) else ln.s_max
        d = p.add_var(0, None)
        p.eq.append(({d: 1.0, tb: -sgn, ta: sgn}, 0.0))
        p.ub.append(({d: ln.s_min, f: -sgn}, 0.0))      # s_min * d <= sgn * f
        p.ub.append(({f: sgn, d: -s_hi}, 0.0))          # sgn * f <= s_hi * d
    return p.maximise()


def mff(net: Network) -> float:
    """MFF: the best MVF over every direction pattern of the controllable lines."""
    keys = [ln.key for ln in net.lines if ln.is_facts]
    return max(mvf(net, dict(zip(keys, combo)))
               for combo in itertools.product((0, 1), repeat=len(keys)))
