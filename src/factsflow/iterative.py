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

The three-start variant runs the loop from the interval lower bounds, upper
bounds and midpoints, returning the best of the three.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping

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


def solve_im(net: Network, s0: Mapping[LineId, float]) -> ImResult:
    """Run the alternating loop from susceptances ``s0``.

    Terminates when the direction phase improves the susceptance phase by at
    most ``max(1e-9, 1e-7 * |value|)``, or after 1000 rounds (the best point
    seen so far is then returned with ``converged=False``).
    """
    t0 = time.monotonic()
    trace = ImTrace()
    s = dict(s0)
    best_value = -math.inf
    best_solution: LdcSolution | None = None

    for _ in range(_MAX_ITER):
        mpf = solve_mpf(net, s)
        trace.steps.append(("mpf", mpf.value))
        if mpf.value > best_value:
            best_value, best_solution = mpf.value, mpf
        pattern = extract_signs(net, mpf.theta)
        mvf = solve_mvf(net, pattern)
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
    """Best of three alternating runs started at lower, upper and midpoint."""
    runs = {which: solve_im(net, start_susceptances(net, which))
            for which in ("lower", "upper", "mid")}
    best = max(runs.values(), key=lambda r: r.value)
    return MultiStartResult(best=best, runs=runs)
