"""Alternating heuristic: fix susceptances, then fix directions, repeat.

One round solves the fixed-susceptance LP, reads the direction of every
angle difference off its solution, then solves the fixed-direction LP to let
the susceptances move: the MFF relaxation with each controllable line's
opposite cone parts pinned at zero (:func:`formulations.solve_mvf`), where
fixed lines take no bit.  Each phase's optimum is feasible for the next
phase, so the objective sequence never decreases; the loop stops as soon as
the direction phase fails to improve on the susceptance phase.  The result
is a feasible operating point and therefore a lower bound for the exact
solver, which it can warm start.

Every MVF starts from its program's spanning tree
(:meth:`formulations.NetworkLp.start_basis`).  The MPFs of a network start
from the tree once, at a fixed anchor, the MPF with every line at
``s_min`` (the lower start's first step), and every other MPF starts from
the anchor's optimal basis (see :func:`linprog.solve_lp`), since it differs
from the anchor only in the coefficients of the power-law rows.

Because the anchor is fixed, every MPF and MVF optimum depends only on its
network and susceptances or bits, not on which solves came before; a run
from a single start other than ``lower`` pays one extra MPF, its anchor.

The three-start variant runs the loop from the interval lower bounds, upper
bounds and midpoints, returning the best of the three.  The starts share the
programs they solve: an MPF optimum is kept under the tuple of susceptances
in ``net.lines`` order (a missing line reads as ``s_min``), an MVF optimum
under the tuple of bits on ``net.facts_lines()``, and a start that reaches a
kept point takes the stored solution instead of solving again.  Both solves
are deterministic, so every value and trace is what separate runs give,
except that a later start's ``ImTrace.wall_time`` leaves out the solves an
earlier start already paid for.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Mapping

from .linprog import LpBasis, LpError
from .model import InputError, LdcSolution, Network
from .formulations import extract_signs, midpoint_susceptances, solve_mpf, solve_mvf

__all__ = ["ImTrace", "ImResult", "MultiStartResult", "solve_im", "multi_start_im",
           "start_susceptances"]

LineId = tuple[str, str]

#: A round that improves the objective by at most ``max(1e-9, _REL_TOL *
#: |value|)`` ends the loop.
_REL_TOL = 1e-7
#: Rounds after which a run stops unconverged.
_MAX_ITER = 1000


@dataclass
class ImTrace:
    """Objective progression of one alternating run."""

    steps: list[tuple[str, float]] = field(default_factory=list)
    iterations: int = 0
    wall_time: float = 0.0
    converged: bool = True

    def rows(self) -> list[dict]:
        return [{"phase": phase, "value": value} for phase, value in self.steps]


@dataclass
class ImResult:
    value: float
    solution: LdcSolution
    trace: ImTrace


@dataclass
class MultiStartResult:
    best: ImResult
    runs: dict[str, ImResult]

    @property
    def value(self) -> float:
        return self.best.value

    @property
    def solution(self) -> LdcSolution:
        return self.best.solution


def start_susceptances(net: Network, which: str) -> dict[LineId, float]:
    """One of the three deterministic starting points.

    ``upper`` substitutes ``s_min + 1`` on intervals unbounded above (the
    literal upper bound does not exist there); ``mid`` uses the same guard
    through :func:`midpoint_susceptances`.
    """
    if which == "lower":
        return {ln.key: ln.s_min for ln in net.lines}
    if which == "upper":
        return {
            ln.key: (ln.s_min + 1.0 if math.isinf(ln.s_max) else ln.s_max)
            for ln in net.lines
        }
    if which == "mid":
        return midpoint_susceptances(net)
    raise InputError(f"unknown start {which!r}")


class _SolvedPrograms:
    """The MPF and MVF optima solved so far on one network, and the basis
    of the MPF anchor, solved before any other MPF.

    Each optimum is keyed by all that its solve reads: MPF by the
    susceptance of every line, MVF by the bit of every controllable line
    (fixed lines take none).  Solves call this module's ``solve_mpf`` and
    ``solve_mvf`` names, so a patched name sees every real solve.
    """

    def __init__(self, net: Network):
        self.net = net
        self._facts = net.facts_lines()
        self._lower = tuple(ln.s_min for ln in net.lines)
        self._mpf: dict[tuple, LdcSolution] = {}
        self._mvf: dict[tuple, LdcSolution] = {}

    @functools.cached_property
    def _mpf_anchor(self) -> LpBasis | None:
        try:
            point = solve_mpf(self.net)
        except LpError:  # unbounded at s_min: every MPF starts from its own tree
            return None
        self._mpf[self._lower] = point
        return point.basis

    def mpf(self, s: Mapping[LineId, float]) -> LdcSolution:
        key = tuple(s.get(ln.key, ln.s_min) for ln in self.net.lines)
        anchor = self._mpf_anchor  # solved, and stored, before any other MPF
        if key not in self._mpf:
            self._mpf[key] = solve_mpf(self.net, s, basis=anchor)
        return self._mpf[key]

    def mvf(self, bits: Mapping[LineId, int]) -> LdcSolution:
        key = tuple(bits.get(ln.key) for ln in self._facts)
        if key not in self._mvf:
            self._mvf[key] = solve_mvf(self.net, bits)
        return self._mvf[key]


def solve_im(net: Network, s0: Mapping[LineId, float]) -> ImResult:
    """Run the alternating loop from susceptances ``s0``.

    Terminates when the direction phase improves the susceptance phase by at
    most ``max(1e-9, 1e-7 * |value|)``, or after 1000 rounds (the best point
    seen so far is then returned with ``converged=False``).
    """
    return _solve_im(net, s0, _SolvedPrograms(net))


def _solve_im(net: Network, s0: Mapping[LineId, float], solved: _SolvedPrograms) -> ImResult:
    t0 = time.monotonic()
    trace = ImTrace()
    s = dict(s0)
    best_value = -math.inf
    best_solution: LdcSolution | None = None

    for _ in range(_MAX_ITER):
        mpf = solved.mpf(s)
        trace.steps.append(("mpf", mpf.value))
        if mpf.value > best_value:
            best_value, best_solution = mpf.value, mpf
        pattern = extract_signs(net, mpf.theta)
        mvf = solved.mvf(pattern)
        trace.steps.append(("mvf", mvf.value))
        trace.iterations += 1
        if mvf.value > best_value:
            best_value, best_solution = mvf.value, mvf
        s = dict(mvf.susceptance)
        if mvf.value - mpf.value <= max(1e-9, _REL_TOL * abs(mpf.value)):
            break
    else:
        trace.converged = False

    trace.wall_time = time.monotonic() - t0
    assert best_solution is not None
    return ImResult(value=best_value, solution=best_solution, trace=trace)


def multi_start_im(net: Network) -> MultiStartResult:
    """Best of three alternating runs started at lower, upper and midpoint.

    The runs share one store of solved programs for the length of the call:
    MPF optima keyed by the susceptance tuple in ``net.lines`` order (a
    missing line reads as ``s_min``), MVF optima by the bit tuple on
    ``net.facts_lines()``.  A start that reaches a point an earlier start
    visited replays the rest of that trajectory from the store, so each run
    equals a separate :func:`solve_im` from its start, but the
    ``trace.wall_time`` of a later start leaves out the solves an earlier
    start already paid for.
    """
    solved = _SolvedPrograms(net)
    runs = {which: _solve_im(net, start_susceptances(net, which), solved)
            for which in ("lower", "upper", "mid")}
    best = max(runs.values(), key=lambda r: r.value)
    return MultiStartResult(best=best, runs=runs)
