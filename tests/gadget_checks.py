"""Brute-force references: the direction-enumeration oracle and the
behavioural checks of the choice gadgets and the exact-cover encoding.

:mod:`factsflow.gadgets` only builds the networks; these test helpers
certify them.  Tests import them as ``from gadget_checks import ...``:

* :func:`enumerate_signs_oracle` is the exact optimum by enumerating the
  direction bits of every controllable line, the reference the exact
  solver is checked against;
* :func:`verify_choice` sweeps a gadget's port emission and checks that only
  zero and full emission are optimal;
* :func:`check_reduction` solves an exact-cover encoding exactly and
  compares its optimum with the encoding's target;
* :func:`exact_cover_brute_force` decides an instance by enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from factsflow.formulations import NetworkLp, build_mff_relaxation
from factsflow.gadgets import ChoiceNetwork, ExactCoverInstance, build_exact_cover_network
from factsflow.linprog import LpError, solve_lp
from factsflow.mip import MffConfig, MffResult, solve_mff
from factsflow.model import Bus, BusKind, InputError, LdcSolution, Line, Network

from conftest import degenerate_choice_builder

LineId = tuple[str, str]

_PROBE = "__probe__"
#: Port emissions swept by :func:`verify_choice`, as a share of ``x``.
_GRID_STEP = Fraction(1, 20)
#: Objective tolerance of the two-point optimality check.
_VERIFY_TOL = 1e-6
#: Controllable lines the enumerations accept by default.
_MAX_LINES = 16
#: Search settings of :func:`check_reduction`.
_REDUCTION_CONFIG = MffConfig(gap_tol=1e-7)


def direction_patterns(net: Network, max_lines: int = _MAX_LINES) -> list[dict[LineId, int]]:
    """Every assignment of a direction bit to each controllable line of
    ``net``; refuses more than ``max_lines`` controllable lines."""
    keys = [ln.key for ln in net.facts_lines()]
    if len(keys) > max_lines:
        raise InputError(f"{len(keys)} controllable lines exceed the enumeration cap {max_lines}")
    return [dict(zip(keys, combo)) for combo in itertools.product((0, 1), repeat=len(keys))]


def enumerate_signs_oracle(net: Network, max_lines: int = _MAX_LINES) -> LdcSolution:
    """Brute-force reference optimum by direction enumeration.

    Every operating point induces a direction bit per controllable line, so
    the best of the fixed-direction programs over all assignments is the
    true optimum; it is returned.  The MFF relaxation is built once and
    solved under each pattern's pinned bounds, which is what ``solve_mvf``
    solves.  Fixed lines carry no directional choice.  A solve that is not
    optimal, or a vertex that maps back to no susceptance, raises
    :class:`LpError`.
    """
    patterns = direction_patterns(net, max_lines)
    builder = build_mff_relaxation(net)
    best: LdcSolution | None = None
    for bits in patterns:
        res = solve_lp(builder.lp, builder.pin(bits))
        if res.status != "optimal":
            raise LpError(f"fixed-direction solve returned {res.status}")
        result = builder.solution(res.x, bits)
        if result is None:
            raise LpError("fixed-direction vertex has flow across a vanishing angle difference")
        if best is None or result.value > best.value:
            best = result
    return best


def pinned_overrides(builder: NetworkLp, bits: Mapping[LineId, int],
                     flows: Mapping[LineId, float]) -> dict[int, tuple[float, float]]:
    """Bound overrides of the MFF relaxation ``builder`` that pin each
    controllable line to its direction, as MVF does, then fix the flow of
    each line in ``flows`` at its value."""
    overrides = builder.pin(bits)
    overrides.update({builder.flow[key]: (float(w), float(w)) for key, w in flows.items()})
    return overrides


def pinned_optimum(net: Network, key: LineId, w: float) -> float:
    """The best throughput of ``net`` with the flow of line ``key`` fixed at
    ``w``, which must lie within the line's capacity.

    The direction bits of the controllable lines are enumerated as
    :func:`enumerate_signs_oracle` does.  A pattern that cannot carry the
    pin is skipped; :class:`ValueError` is raised when no pattern can.
    """
    patterns = direction_patterns(net)
    builder = build_mff_relaxation(net)
    values = []
    for bits in patterns:
        res = solve_lp(builder.lp, pinned_overrides(builder, bits, {key: w}))
        if res.status == "infeasible":
            continue
        assert res.status == "optimal", res.status
        values.append(res.objective)
    if not values:
        raise ValueError(f"flow {w} on line {key} is infeasible under every direction choice")
    return max(values)


def degenerate_choice_network(x: Fraction | float) -> ChoiceNetwork:
    """The negative control: a standalone network, port ``p``, built from
    ``conftest.degenerate_choice_builder``'s parts."""
    parts = degenerate_choice_builder(Fraction(x), "p", "p.")
    net = Network(buses=(Bus("p"),) + parts.buses, lines=parts.lines)
    return ChoiceNetwork(net=net, port="p", expected_inner_opt=parts.expected_inner_opt)


@dataclass
class ChoiceVerification:
    passed: bool
    inner_opt: float
    optimal_emissions: list[float]
    curve: list[tuple[float, float]]
    grid_step: float
    messages: list[str] = field(default_factory=list)


def verify_choice(net: Network, port: str, x: Fraction | float,
                  expected: Fraction | None = None) -> ChoiceVerification:
    """Certify the all-or-nothing emission behaviour of a gadget.

    A probe load of capacity ``x`` is attached at the port through a fixed
    line, the probe flow is pinned to each grid value ``w`` in turn
    (granularity ``x / 20``, endpoints included), and the exact optimum is
    computed by direction enumeration (:func:`pinned_optimum`).  The gadget
    passes when the maximum is attained, within 1e-6, exactly at ``w = 0``
    and ``w = x`` and every interior grid point is strictly worse.
    """
    x = Fraction(x).limit_denominator(10**9)
    if x <= 0:
        raise InputError("port quantum x must be positive")
    probe_net = Network(
        buses=net.buses + (Bus(_PROBE, BusKind.LOAD),),
        lines=net.lines + (Line(port, _PROBE, 1, 1, float(x)),),
    )
    probe_key = (port, _PROBE)

    steps = int(1 / _GRID_STEP)
    ws = [x * Fraction(k, steps) for k in range(steps + 1)]
    curve = [(float(w), pinned_optimum(probe_net, probe_key, float(w))) for w in ws]

    best = max(v for _, v in curve)
    messages: list[str] = []
    end_lo, end_hi = curve[0][1], curve[-1][1]
    passed = True
    if end_lo < best - _VERIFY_TOL:
        passed = False
        messages.append(f"zero emission is suboptimal: {end_lo} < {best}")
    if end_hi < best - _VERIFY_TOL:
        passed = False
        messages.append(f"full emission is suboptimal: {end_hi} < {best}")
    optimal = [w for w, v in curve if v >= best - _VERIFY_TOL]
    for w, v in curve[1:-1]:
        if v >= best - _VERIFY_TOL:
            passed = False
            messages.append(f"interior emission {w} ties the optimum ({v})")
    if expected is not None and abs(end_lo - float(expected)) > _VERIFY_TOL:
        passed = False
        messages.append(
            f"inner optimum {end_lo} differs from expected {float(expected)}"
        )
    return ChoiceVerification(
        passed=passed,
        inner_opt=best,
        optimal_emissions=optimal,
        curve=curve,
        grid_step=float(_GRID_STEP),
        messages=messages,
    )


def exact_cover_brute_force(inst: ExactCoverInstance) -> bool:
    """Decide cover-ability by subset enumeration (reference decision)."""
    ground = set(inst.ground)
    for r in range(len(inst.sets) + 1):
        for combo in itertools.combinations(inst.sets, r):
            picked = [e for subset in combo for e in subset]
            if len(picked) == len(set(picked)) and set(picked) == ground:
                return True
    return False


@dataclass
class ReductionCheck:
    mff: float
    target: Fraction
    reaches_target: bool
    status: str  # "ok" | "indeterminate"
    result: MffResult


def check_reduction(inst: ExactCoverInstance) -> ReductionCheck:
    """Solve the encoding exactly and compare against the target value.

    ``reaches_target`` should match :func:`exact_cover_brute_force`, since
    the default gadget passes :func:`verify_choice`.  The verdict is
    conclusive only when the incumbent reaches the target (a feasible lower
    bound) or the upper bound falls short of it, however the search ended;
    anything else, such as a search that stopped at its gap with the bound
    still at or above the target, is reported ``indeterminate``.
    """
    encoding = build_exact_cover_network(inst)
    result = solve_mff(encoding.net, _REDUCTION_CONFIG)
    goal = float(encoding.target)
    reaches = result.objective >= goal - 1e-6
    conclusive = reaches or result.upper_bound < goal - 1e-6
    return ReductionCheck(
        mff=result.objective,
        target=encoding.target,
        reaches_target=reaches,
        status="ok" if conclusive else "indeterminate",
        result=result,
    )
