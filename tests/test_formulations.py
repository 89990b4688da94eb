"""Fixed-susceptance and fixed-direction programs plus direction utilities."""

import itertools
import math
import random

import pytest

from factsflow import caseio, formulations, linprog
from factsflow.model import (
    Bus,
    BusKind,
    InputError,
    Line,
    Network,
    validate_solution,
)
from factsflow.formulations import (
    UNBOUNDED_S_CAP,
    NetworkLp,
    build_mff_relaxation,
    build_mpf_program,
    directed_susceptance,
    extract_signs,
    midpoint_susceptances,
    solve_mpf,
    solve_mvf,
)
from factsflow.iterative import start_susceptances
from factsflow.linprog import solve_lp
from factsflow.maxflow import max_flow
from factsflow.mip import MffConfig, solve_mff
from conftest import (
    random_meshed_zero_lower,
    random_partly_unbounded,
    random_small_net,
    random_tree,
    random_unbounded_upper,
)
from gadget_checks import enumerate_signs_oracle


class TestSolveMpf:
    def test_single_line_hits_capacity(self, single_line):
        result = solve_mpf(single_line, {("g", "l"): 1.0})
        assert result.value == pytest.approx(5.0, abs=1e-9)

    def test_tri_at_unit_susceptance(self, tri):
        result = solve_mpf(tri, {ln.key: 1.0 for ln in tri.lines})
        assert result.value == pytest.approx(12.0, abs=1e-6)
        assert validate_solution(tri, result).ok

    def test_zero_capacities_zero_value(self):
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD)),
            lines=(Line("g", "l", 1.0, 1.0, 0.0),),
        )
        assert solve_mpf(net).value == pytest.approx(0.0, abs=1e-9)

    def test_disconnected_generator_is_fine(self):
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD), Bus("j")),
            lines=(Line("j", "l", 1.0, 1.0, 3.0),),
        )
        assert solve_mpf(net).value == pytest.approx(0.0, abs=1e-9)

    def test_out_of_interval_susceptance_rejected(self, tri_f):
        with pytest.raises(InputError):
            solve_mpf(tri_f, {("g", "l"): 2.0})

    def test_susceptance_is_the_checked_point(self):
        # The readback returns the point the program was written with: the
        # given interior value, and s_min for the omitted lines.
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("b"), Bus("l", BusKind.LOAD)),
            lines=(
                Line("g", "l", 1.0, 1.25, 10.0),
                Line("g", "b", 0.5, 2.0, 10.0),
                Line("b", "l", 1.0, 1.0, 4.0),
            ),
        )
        result = solve_mpf(net, {("g", "l"): 1.125})
        assert result.susceptance == {("g", "l"): 1.125, ("g", "b"): 0.5, ("b", "l"): 1.0}
        assert validate_solution(net, result).ok


class TestSolveMvf:
    def test_single_line_positive_direction(self, single_line):
        result = solve_mvf(single_line, {("g", "l"): 1})
        assert result.value == pytest.approx(5.0, abs=1e-9)

    def test_tri_f_direction_from_mpf(self, tri, tri_f):
        base = solve_mpf(tri, {ln.key: 1.0 for ln in tri.lines})
        pattern = extract_signs(tri_f, base.theta)
        result = solve_mvf(tri_f, pattern)
        assert result.value == pytest.approx(14.0, abs=1e-6)
        assert validate_solution(tri_f, result).ok

    def test_conflicting_directions_force_zero(self):
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("a"), Bus("l", BusKind.LOAD)),
            lines=(Line("g", "a", 1, 2, 5.0), Line("a", "l", 1, 2, 5.0)),
        )
        result = solve_mvf(net, {("g", "a"): 1, ("a", "l"): 0})
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_missing_bit_on_facts_line_rejected(self, tri_f):
        with pytest.raises(InputError):
            solve_mvf(tri_f, {("g", "b"): 1, ("b", "l"): 1})

    @pytest.mark.parametrize("bit", [2, -1])
    def test_bad_bit_on_facts_line_rejected(self, tri_f, bit):
        with pytest.raises(InputError):
            solve_mvf(tri_f, {("g", "l"): bit})

    def test_fixed_lines_may_omit_bits(self, tri_f):
        result = solve_mvf(tri_f, {("g", "l"): 1})
        assert result.value == pytest.approx(14.0, abs=1e-6)

    def test_bits_on_fixed_lines_are_ignored(self):
        for seed in range(20):
            net = random_small_net(seed)
            facts = {ln.key for ln in net.facts_lines()}
            pattern = extract_signs(net, solve_mpf(net, midpoint_susceptances(net)).theta)
            flipped = {key: bit if key in facts else 1 - bit for key, bit in pattern.items()}
            assert solve_mvf(net, flipped).value == solve_mvf(net, pattern).value


def _highs_throughput(net: Network, controllable) -> float:
    """Maximum throughput written straight from ``net`` and solved by
    scipy's HiGHS, sharing no code with the package's programs.

    Variables: an angle per bus, a flow per line, and generation and load
    per generator and load bus.  A fixed line keeps ``f = s_min *
    (theta[b] - theta[a])``.  ``controllable(ln, f, ta, tb, var)`` writes a
    controllable line's power law: ``var(lo, hi)`` adds a variable, and the
    call returns its equality and ``<=`` rows as ``(coefficients, rhs)``.
    """
    import numpy as np
    from scipy.optimize import linprog

    theta = {b.id: j for j, b in enumerate(net.buses)}
    bounds = [(None, None)] * len(theta)

    def var(lo, hi):
        bounds.append((lo, hi))
        return len(bounds) - 1

    flow = {ln.key: var(-ln.capacity, ln.capacity) for ln in net.lines}
    gen = {b.id: var(0, None) for b in net.buses if b.kind is BusKind.GENERATOR}
    load = {b.id: var(0, None) for b in net.buses if b.kind is BusKind.LOAD}
    balance = [{} for _ in net.buses]  # outflow - gen + load = 0
    for b in net.buses:
        balance[theta[b.id]].update({gen[b.id]: -1.0} if b.id in gen else {})
        balance[theta[b.id]].update({load[b.id]: 1.0} if b.id in load else {})
    eq = [(row, 0.0) for row in balance]
    le = []
    for ln in net.lines:
        f, ta, tb = flow[ln.key], theta[ln.a], theta[ln.b]
        balance[ta][f] = balance[ta].get(f, 0.0) + 1.0
        balance[tb][f] = balance[tb].get(f, 0.0) - 1.0
        if not ln.is_facts:
            eq.append(({f: 1.0, tb: -ln.s_min, ta: ln.s_min}, 0.0))
            continue
        line_eq, line_le = controllable(ln, f, ta, tb, var)
        eq += line_eq
        le += line_le

    def dense(rows):
        out = np.zeros((len(rows), len(bounds)))
        for r, (row, _) in enumerate(rows):
            for j, c in row.items():
                out[r, j] += c
        return out, np.array([rhs for _, rhs in rows])

    cost = np.zeros(len(bounds))
    cost[list(gen.values())] = -1.0
    a_ub, b_ub = dense(le) if le else (None, None)
    a_eq, b_eq = dense(eq)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    assert res.status == 0, res.message
    return -res.fun


def _s_hi(ln: Line) -> float:
    return UNBOUNDED_S_CAP if math.isinf(ln.s_max) else ln.s_max


def _highs_mvf(net: Network, bits) -> float:
    """MVF by :func:`_highs_throughput`: per controllable line one angle
    part ``d = sgn * (theta[b] - theta[a]) >= 0``, with ``sgn`` +1 for bit
    1 and -1 for bit 0, and ``s_min * d <= sgn * f <= s_hi * d``, with
    ``UNBOUNDED_S_CAP`` for ``s_hi`` on an interval unbounded above."""

    def directed(ln, f, ta, tb, var):
        sgn = 1.0 if bits[ln.key] == 1 else -1.0
        d = var(0, None)
        return ([({d: 1.0, tb: -sgn, ta: sgn}, 0.0)],
                [({d: ln.s_min, f: -sgn}, 0.0), ({f: sgn, d: -_s_hi(ln)}, 0.0)])

    return _highs_throughput(net, directed)


def _highs_hull(net: Network) -> float:
    """The extended form of the hull of each controllable line's two
    capacity-bounded cones, by :func:`_highs_throughput`: parts ``d+, d-,
    f+, f- >= 0`` with ``d+ - d- = theta[b] - theta[a]``, ``f = f+ - f-``
    and ``s_min * d± <= f± <= s_hi * d±``, and one ``lambda`` in [0, 1]
    with ``f+ <= cap * lambda`` and ``f- <= cap * (1 - lambda)``, plus
    ``d+ <= (cap / s_min) * lambda`` and ``d- <= (cap / s_min) * (1 -
    lambda)`` when ``s_min > 0``."""

    def hull(ln, f, ta, tb, var):
        dp, dm, fp, fm = (var(0, None) for _ in range(4))
        lam = var(0, 1)
        eq = [({dp: 1.0, dm: -1.0, tb: -1.0, ta: 1.0}, 0.0),
              ({f: 1.0, fp: -1.0, fm: 1.0}, 0.0)]
        le = []
        for d, fpart in ((dp, fp), (dm, fm)):
            le += [({d: ln.s_min, fpart: -1.0}, 0.0), ({fpart: 1.0, d: -_s_hi(ln)}, 0.0)]
        cap = ln.capacity
        le += [({fp: 1.0, lam: -cap}, 0.0), ({fm: 1.0, lam: cap}, cap)]
        if ln.s_min > 0:
            le += [({dp: 1.0, lam: -cap / ln.s_min}, 0.0),
                   ({dm: 1.0, lam: cap / ln.s_min}, cap / ln.s_min)]
        return eq, le

    return _highs_throughput(net, hull)


class TestMvfMatchesHighs:
    """Every direction pattern, against a program that shares no code with
    ``solve_mvf``.  The unbounded-upper nets put ``UNBOUNDED_S_CAP`` in every
    cone; they are kept to 6 buses so that all their patterns can be solved."""

    @pytest.mark.parametrize("family, seed", [("small", seed) for seed in range(25)]
                             + [("unbounded_upper", seed) for seed in range(10)])
    def test_every_pattern(self, family, seed):
        pytest.importorskip("scipy.optimize")
        if family == "small":
            net = random_small_net(seed)
        else:
            net = random_unbounded_upper(seed, max_buses=6)
        keys = [ln.key for ln in net.facts_lines()]
        for combo in itertools.product((0, 1), repeat=len(keys)):
            bits = dict(zip(keys, combo))
            ours = solve_mvf(net, bits)
            assert ours.value == pytest.approx(_highs_mvf(net, bits), rel=1e-7, abs=1e-7)
            assert validate_solution(net, ours).ok


FAMILIES = {
    "small": random_small_net,
    "tree": random_tree,
    "zero_lower": random_meshed_zero_lower,
    "unbounded_upper": random_unbounded_upper,
    "partly_unbounded": random_partly_unbounded,
}


def _highs_mpf(net: Network, s) -> float:
    """MPF in angle form by :func:`_highs_throughput`: every line keeps
    ``f = s * (theta[b] - theta[a])`` at its susceptance in ``s``."""

    def fixed(ln, f, ta, tb, var):
        return [({f: 1.0, tb: -s[ln.key], ta: s[ln.key]}, 0.0)], []

    return _highs_throughput(net, fixed)


def _two_generator_mesh() -> Network:
    """Generators behind leaf lines at ``a`` and ``b`` (at most 10 each)
    and a load behind one at ``c`` feed the unit triangle ``a-b-c``.  With
    both generators at 10, ``a-c`` carries 10 past its capacity 8 and ``a-b``
    nothing; once ``a-c`` is limited, generator ``a`` backs off to 7 and
    ``a-b`` carries 1 past its capacity 0.5.  The optimum is 16.5."""
    return Network(
        buses=(Bus("ga", BusKind.GENERATOR), Bus("gb", BusKind.GENERATOR), Bus("a"), Bus("b"),
               Bus("c"), Bus("d", BusKind.LOAD)),
        lines=(Line("ga", "a", 1.0, 1.0, 10.0), Line("gb", "b", 1.0, 1.0, 10.0),
               Line("c", "d", 1.0, 1.0, 20.0), Line("a", "b", 1.0, 1.0, 0.5),
               Line("b", "c", 1.0, 1.0, 12.0), Line("a", "c", 1.0, 1.0, 8.0)),
    )


def _leaf_reference_network() -> Network:
    """The lowest id, ``a``, is a leaf generator behind ``a-b`` (capacity
    10), and ``x-y`` (capacity 2) is a second, two-bus component.  Unit
    susceptances: ``b-d`` (3) carries two thirds of ``a``'s output and
    ``b-c-d`` (4, 10) one third, so ``b-d`` binds at 4.5; 6.5 in all."""
    return Network(
        buses=(Bus("a", BusKind.GENERATOR), Bus("b"), Bus("c"), Bus("d", BusKind.LOAD),
               Bus("x", BusKind.GENERATOR), Bus("y", BusKind.LOAD)),
        lines=(Line("a", "b", 1.0, 1.0, 10.0), Line("b", "c", 1.0, 1.0, 4.0),
               Line("c", "d", 1.0, 1.0, 10.0), Line("b", "d", 1.0, 1.0, 3.0),
               Line("x", "y", 1.0, 1.0, 2.0)),
    )


class TestShiftFactorMpf:
    """``solve_mpf`` solves the shift-factor form by row generation; HiGHS
    solves the angle form, sharing no code with it."""

    @staticmethod
    def _check(net, s=None):
        s = {ln.key: (s or {}).get(ln.key, ln.s_min) for ln in net.lines}
        ours = solve_mpf(net, s)
        assert ours.value == pytest.approx(_highs_mpf(net, s), rel=1e-7, abs=1e-7)
        assert validate_solution(net, ours).ok
        return ours

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", range(8))
    def test_families_match_highs(self, family, seed):
        pytest.importorskip("scipy.optimize")
        net = FAMILIES[family](seed)
        for which in ("lower", "mid", "upper"):
            self._check(net, start_susceptances(net, which))

    def test_zero_susceptance_line_splits_the_network(self):
        # Two generator-load pairs of capacities 2 and 3, joined by a line
        # at s = 0: each pair is a component with its own balance.
        pytest.importorskip("scipy.optimize")
        net = Network(
            buses=(Bus("g1", BusKind.GENERATOR), Bus("l1", BusKind.LOAD),
                   Bus("g2", BusKind.GENERATOR), Bus("l2", BusKind.LOAD)),
            lines=(Line("g1", "l1", 1.0, 1.0, 2.0), Line("g2", "l2", 1.0, 1.0, 3.0),
                   Line("l1", "g2", 0.0, 1.0, 10.0)),
        )
        point = self._check(net)
        assert point.value == pytest.approx(5.0, abs=1e-12)
        assert point.injections.flow[("l1", "g2")] == 0.0
        # At s > 0 the three lines form one path, and g2 also feeds l1.
        assert self._check(net, {("l1", "g2"): 0.5}).value == pytest.approx(15.0, abs=1e-9)

    def test_infinite_capacity_lines(self):
        pytest.importorskip("scipy.optimize")
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("a"), Bus("b"), Bus("l", BusKind.LOAD)),
            lines=(Line("g", "a", 1.0, 1.0, math.inf), Line("g", "b", 1.0, 2.0, math.inf),
                   Line("a", "l", 1.0, 1.0, 3.0), Line("b", "l", 1.0, 1.0, 4.0),
                   Line("a", "b", 1.0, 1.0, math.inf)),
        )
        for which in ("lower", "mid", "upper"):
            self._check(net, start_susceptances(net, which))
        for family in (random_unbounded_upper, random_partly_unbounded):
            for seed in range(8):
                net = family(seed)
                net = Network(net.buses, tuple(
                    Line(ln.a, ln.b, ln.s_min, ln.s_max, math.inf if i % 3 == 0 else ln.capacity)
                    for i, ln in enumerate(net.lines)))
                try:
                    self._check(net, midpoint_susceptances(net))
                except linprog.LpError:  # some generator-load path is unlimited
                    with pytest.raises(AssertionError, match="unbounded"):
                        _highs_mpf(net, midpoint_susceptances(net))

    @pytest.mark.parametrize("finite", [False, True])
    def test_pair_joined_only_by_unlimited_lines_raises(self, finite):
        """The first round is unbounded; every remaining line of finite
        capacity is added once (here a triangle off the path, which carries
        no flow), and the program stays unbounded."""
        lines = [Line("g", "a", 1.0, 1.0, math.inf), Line("a", "l", 1.0, 1.0, math.inf)]
        if finite:
            lines += [Line("a", "b", 1.0, 1.0, 1.0), Line("b", "c", 1.0, 1.0, 1.0),
                      Line("c", "a", 1.0, 1.0, 1.0)]
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("a"), Bus("b"), Bus("c"),
                   Bus("l", BusKind.LOAD)),
            lines=tuple(lines),
        )
        with pytest.raises(linprog.LpError, match="unbounded"):
            solve_mpf(net)

    def test_binding_line_can_enter_in_a_later_round(self, monkeypatch):
        pytest.importorskip("scipy.optimize")
        rows = []

        def counting(lp, bound_overrides=None, basis=None):
            rows.append(lp.num_rows)
            return solve_lp(lp, bound_overrides, basis)

        monkeypatch.setattr(formulations, "solve_lp", counting)
        net = _two_generator_mesh()
        point = self._check(net)
        assert point.value == pytest.approx(16.5, abs=1e-9)
        assert point.basis.lines == (("a", "c"), ("a", "b"))
        assert rows == [1, 2, 3]  # the balance row, then one limit row per round

    def test_the_worst_overload_enters_first(self, monkeypatch):
        """Generator ``g`` (10) feeds load ``l`` through the unit triangle
        ``a-b-c``: unlimited, ``a-c`` carries 20/3 against its capacity 2 and
        ``a-b`` 10/3 against 3.  Only ``a-c`` enters the first round, and
        with it ``a-b`` carries 1: the optimum is 3."""
        pytest.importorskip("scipy.optimize")
        rows = []

        def counting(lp, bound_overrides=None, basis=None):
            rows.append(lp.num_rows)
            return solve_lp(lp, bound_overrides, basis)

        monkeypatch.setattr(formulations, "solve_lp", counting)
        net = Network(
            buses=(Bus("a"), Bus("b"), Bus("c"), Bus("g", BusKind.GENERATOR),
                   Bus("l", BusKind.LOAD)),
            lines=(Line("g", "a", 1.0, 1.0, 10.0), Line("c", "l", 1.0, 1.0, 20.0),
                   Line("a", "b", 1.0, 1.0, 3.0), Line("b", "c", 1.0, 1.0, 10.0),
                   Line("a", "c", 1.0, 1.0, 2.0)),
        )
        point = self._check(net)
        assert point.value == pytest.approx(3.0, abs=1e-9)
        assert point.basis.lines == (("a", "c"),)
        assert rows == [1, 2]

    def test_reference_leaf_and_two_bus_component(self):
        pytest.importorskip("scipy.optimize")
        net = _leaf_reference_network()
        point = self._check(net)
        assert point.value == pytest.approx(6.5, abs=1e-9)
        assert point.theta["a"] == point.theta["x"] == 0.0
        assert point.injections.flow[("x", "y")] == pytest.approx(2.0, abs=1e-12)
        for which in ("mid", "upper"):
            self._check(net, start_susceptances(net, which))
        # A lone pair: both ends are leaves, and the reference stays.
        pair = Network(buses=(Bus("g", BusKind.GENERATOR), Bus("l", BusKind.LOAD)),
                       lines=(Line("g", "l", 2.0, 2.0, 7.0),))
        point = self._check(pair)
        assert point.value == pytest.approx(7.0, abs=1e-12)
        assert (point.theta["g"], point.theta["l"]) == (0.0, pytest.approx(3.5, abs=1e-12))

    def test_a_zero_susceptance_line_does_not_count_toward_a_leaf(self):
        """At ``s = 0`` on ``g-h``, ``g`` is a leaf behind ``g-b`` and ``h``
        is a component of its own; at ``s = 1``, ``g`` is no leaf and ``h``
        is.  Either way ``a-b`` binds: it carries a third of what enters
        the triangle at ``b``."""
        pytest.importorskip("scipy.optimize")
        net = Network(
            buses=(Bus("a"), Bus("b"), Bus("c"), Bus("g", BusKind.GENERATOR),
                   Bus("h", BusKind.GENERATOR), Bus("l", BusKind.LOAD)),
            lines=(Line("g", "b", 1.0, 1.0, 5.0), Line("a", "b", 1.0, 1.0, 0.5),
                   Line("b", "c", 1.0, 1.0, 2.0), Line("c", "a", 1.0, 1.0, 10.0),
                   Line("c", "l", 1.0, 1.0, 20.0), Line("g", "h", 0.0, 1.0, 10.0)),
        )
        split = self._check(net)
        assert split.value == pytest.approx(1.5, abs=1e-9)
        assert split.injections.gen["h"] == 0.0
        assert split.injections.flow[("g", "h")] == 0.0
        assert self._check(net, {("g", "h"): 1.0}).value == pytest.approx(1.5, abs=1e-9)

    def test_two_leaves_on_one_core_bus(self):
        """Generator ``g1`` and load ``l1`` both hang off ``b``, so their
        injections share ``b``'s column of angle responses."""
        pytest.importorskip("scipy.optimize")
        net = Network(
            buses=(Bus("a"), Bus("b"), Bus("c"), Bus("g1", BusKind.GENERATOR),
                   Bus("g2", BusKind.GENERATOR), Bus("l1", BusKind.LOAD),
                   Bus("l2", BusKind.LOAD)),
            lines=(Line("g1", "b", 1.0, 1.0, 6.0), Line("l1", "b", 1.0, 1.0, 2.0),
                   Line("g2", "a", 2.0, 2.0, 5.0), Line("l2", "c", 0.5, 0.5, 9.0),
                   Line("a", "b", 1.0, 2.0, 1.5), Line("b", "c", 1.0, 1.0, 4.0),
                   Line("c", "a", 1.0, 3.0, 1.0)),
        )
        for which in ("lower", "mid", "upper"):
            point = self._check(net, start_susceptances(net, which))
            assert point.injections.load["l1"] == pytest.approx(2.0, abs=1e-9)

    def test_infinite_capacity_leaf_line(self):
        """No bound on ``g``'s injection: ``a-c`` (1) binds, carrying two
        thirds of it, with the load behind a finite and then an infinite
        leaf line."""
        pytest.importorskip("scipy.optimize")
        net = Network(
            buses=(Bus("a"), Bus("b"), Bus("c"), Bus("g", BusKind.GENERATOR),
                   Bus("l", BusKind.LOAD)),
            lines=(Line("g", "a", 1.0, 1.0, math.inf), Line("a", "b", 1.0, 1.0, 2.0),
                   Line("b", "c", 1.0, 1.0, 3.0), Line("a", "c", 1.0, 1.0, 1.0),
                   Line("c", "l", 1.0, 1.0, 5.0)),
        )
        assert self._check(net).value == pytest.approx(1.5, abs=1e-9)
        wide = Network(net.buses, net.lines[:4] + (Line("c", "l", 1.0, 1.0, math.inf),))
        assert self._check(wide).value == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_anchor_start_gives_the_same_optimum(self, family):
        """Started with the rows and basis of the MPF at ``s_min``, as IM
        starts every other MPF of a network, or without them."""
        for seed in range(8):
            net = FAMILIES[family](seed)
            try:
                anchor = solve_mpf(net).basis
            except linprog.LpError:
                continue
            for which in ("mid", "upper"):
                s = start_susceptances(net, which)
                warm, cold = solve_mpf(net, s, basis=anchor), solve_mpf(net, s)
                assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9)
                assert validate_solution(net, warm).ok
                assert set(anchor.lines) <= set(warm.basis.lines)

    def test_a_warm_round_that_breaks_down_is_solved_cold(self, monkeypatch):
        expected = solve_mpf(_two_generator_mesh()).value
        starts = []

        def failing_warm(lp, bound_overrides=None, basis=None):
            starts.append(basis is not None)
            if basis is not None:
                raise linprog.LpError("singular basis")
            return solve_lp(lp, bound_overrides, basis)

        monkeypatch.setattr(formulations, "solve_lp", failing_warm)
        assert solve_mpf(_two_generator_mesh()).value == pytest.approx(expected, rel=1e-12)
        assert starts == [False, True, False, True, False]


class TestMffRelaxationIsTheHull:
    """The root of ``build_mff_relaxation`` is the hull of each controllable
    line's two capacity-bounded cones, not the plain arc ``|f| <= cap``."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", range(8))
    def test_root_matches_highs_extended_form(self, family, seed):
        pytest.importorskip("scipy.optimize")
        net = FAMILIES[family](seed)
        root = solve_lp(build_mff_relaxation(net).lp)
        assert root.status == "optimal"
        assert root.objective == pytest.approx(_highs_hull(net), rel=1e-7, abs=1e-7)

    def test_root_lies_below_the_program_without_controllable_power_law(self):
        # g-l may carry s in [1, 2], and the unit path g-b-l holds the angle
        # of l at 2 or less: the power law caps g-l at 4 (MFF = 5), the
        # relaxation at 6 (root 7), and a plain arc at its capacity 10.
        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("b"), Bus("l", BusKind.LOAD)),
            lines=(Line("g", "l", 1.0, 2.0, 10.0), Line("g", "b", 1.0, 1.0, 1.0),
                   Line("b", "l", 1.0, 1.0, 1.0)),
        )
        arcs = NetworkLp(net)
        for ln in net.lines:
            if not ln.is_facts:
                arcs.add_power_law(ln, s=ln.s_min)
        arcs.add_balance_rows()
        arcs.set_throughput_objective()
        assert solve_lp(arcs.lp).objective == pytest.approx(11.0, abs=1e-9)
        assert solve_lp(build_mff_relaxation(net).lp).objective == pytest.approx(7.0, abs=1e-9)
        assert solve_mff(net, MffConfig(gap_tol=1e-9)).objective == pytest.approx(5.0, abs=1e-9)


class TestTreeStart:
    """Solves from ``NetworkLp.start_basis`` against the slack start: MPF at
    the three IM starts (at ``s_min`` a ``[0, t]`` line is fixed at ``s =
    0`` and ties no angles) and the relaxation unpinned and under random
    pins, on each family as built and split by removed lines."""

    @staticmethod
    def _programs(net, rng):
        programs = [(build_mpf_program(net, start_susceptances(net, which)), None)
                    for which in ("lower", "mid", "upper")]
        relaxation = build_mff_relaxation(net)
        programs.append((relaxation, None))
        facts = net.facts_lines()
        for _ in range(3):
            pinned = rng.sample(facts, rng.randint(0, len(facts)))
            programs.append((relaxation, relaxation.pin({ln.key: rng.randint(0, 1)
                                                         for ln in pinned})))
        return programs

    @pytest.mark.parametrize("removed", [0, 2])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", range(25))
    def test_tree_start_matches_the_slack_start(self, family, seed, removed):
        net = FAMILIES[family](seed)
        if removed:
            net = caseio.remove_random_lines(net, min(removed, len(net.lines) - 1), seed)
        for builder, overrides in self._programs(net, random.Random(seed)):
            start = builder.start_basis()
            if start is None:
                assert builder.lp.num_rows > formulations._TREE_START_MAX_ROWS
                continue
            # The check a start must pass not to be dropped for the slack one.
            A, b, lb, ub, _ = linprog._standard_form(builder.lp, overrides)
            linprog._Tableau(A, b, lb, ub, start)
            tree = solve_lp(builder.lp, overrides, start)
            cold = solve_lp(builder.lp, overrides)
            assert tree.status == cold.status
            if cold.status == "optimal":
                assert tree.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            # The start is the all-zero point, which every network program admits.
            assert tree.stats.dual_pivots == 0

    def test_a_program_above_the_cutoff_gets_none(self, monkeypatch):
        builder = build_mff_relaxation(random_small_net(0))
        rows = builder.lp.num_rows
        monkeypatch.setattr(formulations, "_TREE_START_MAX_ROWS", rows)
        assert builder.start_basis() is not None
        monkeypatch.setattr(formulations, "_TREE_START_MAX_ROWS", rows - 1)
        assert builder.start_basis() is None


class TestExtractSigns:
    def test_positive_negative_and_tie(self, tri):
        theta = {"g": 0.0, "b": 0.5, "l": -0.5}
        bits = extract_signs(tri, theta)
        assert bits[("g", "b")] == 1
        assert bits[("g", "l")] == 0
        tie = extract_signs(tri, {"g": 0.0, "b": 0.0, "l": 0.0})
        assert all(bit == 1 for bit in tie.values())


class TestRecoverSusceptances:
    """Susceptances read off an angle part and a flow by ``directed_susceptance``."""

    def _line(self, lo, hi):
        return Line("a", "b", lo, hi, 100.0)

    def test_plain_ratio(self):
        assert directed_susceptance(self._line(1.0, 3.0), 3.0, 6.0) == pytest.approx(2.0)
        # the ratio comes off a solved program's own rows, so it is clamped
        assert directed_susceptance(self._line(1.0, 2.0), 1.0, 5.0) == 2.0

    def test_rest_uses_shrunk_midpoint(self):
        assert directed_susceptance(self._line(1.0, 2.0), 0.0, 0.0) == pytest.approx(1.5)
        # midpoint of [1, 3]
        assert directed_susceptance(self._line(1.0, 10.0), 0.0, 0.0) == pytest.approx(2.0)
        # midpoint of [1, 2]
        assert directed_susceptance(self._line(1.0, math.inf), 0.0, 0.0) == pytest.approx(1.5)

    def test_flow_across_vanishing_angle_has_no_susceptance(self):
        assert directed_susceptance(self._line(1.0, 3.0), 1e-13, 5.0) is None


class TestDominanceProperties:
    def test_mvf_dominates_mpf_and_back(self):
        for seed in range(40):
            net = random_small_net(seed)
            mid = midpoint_susceptances(net)
            mpf = solve_mpf(net, mid)
            pattern = extract_signs(net, mpf.theta)
            mvf = solve_mvf(net, pattern)
            assert mvf.value >= mpf.value - 1e-6
            back = solve_mpf(net, mvf.susceptance)
            assert back.value >= mvf.value - 1e-6
            assert validate_solution(net, mpf).ok
            assert validate_solution(net, mvf).ok

    def test_mvf_bounded_by_exact_and_max_flow(self):
        for seed in range(20):
            net = random_small_net(seed, max_lines=6)
            oracle = enumerate_signs_oracle(net)
            mf = max_flow(net)
            mid = midpoint_susceptances(net)
            mpf = solve_mpf(net, mid)
            pattern = extract_signs(net, mpf.theta)
            mvf = solve_mvf(net, pattern)
            assert mvf.value <= oracle.value + 1e-6
            assert oracle.value <= mf.value + 1e-6
