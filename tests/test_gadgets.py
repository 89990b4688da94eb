"""Choice gadgets and the exact-cover encoding."""

import dataclasses
from fractions import Fraction

import pytest

from factsflow.model import InputError, validate_network
from factsflow.gadgets import (
    ExactCoverInstance,
    build_choice_network,
    build_exact_cover_network,
)

import gadget_checks
from gadget_checks import (
    check_reduction,
    degenerate_choice_network,
    enumerate_signs_oracle,
    exact_cover_brute_force,
    pinned_optimum,
    verify_choice,
)

from conftest import tri_network


class TestDefaultBuilder:
    def test_unit_gadget_verifies(self):
        built = build_choice_network(1)
        assert validate_network(built.net).ok
        outcome = verify_choice(built.net, built.port, 1,
                                expected=built.expected_inner_opt)
        assert outcome.passed, outcome.messages
        assert outcome.optimal_emissions == [0.0, 1.0]
        assert outcome.inner_opt == pytest.approx(6.1, abs=1e-6)
        assert outcome.grid_step == pytest.approx(0.05)

    def test_scaled_gadget_verifies(self):
        built = build_choice_network(3)
        outcome = verify_choice(built.net, built.port, 3,
                                expected=built.expected_inner_opt)
        assert outcome.passed, outcome.messages
        assert outcome.optimal_emissions == [0.0, 3.0]
        assert outcome.inner_opt == pytest.approx(18.3, abs=1e-6)

    def test_standalone_gadget_optimum_equals_inner(self):
        # With the port dead-ended the only mode is zero emission.
        built = build_choice_network(1)
        res = enumerate_signs_oracle(built.net)
        assert res.value == pytest.approx(6.1, abs=1e-6)

    def test_acceptance_is_scale_invariant(self):
        one = verify_choice(build_choice_network(1).net, "p", 1)
        two = verify_choice(build_choice_network(2).net, "p", 2)
        assert one.passed == two.passed


class TestPinnedOptimum:
    """The sweep's own pinning, on ``tri_network(facts=True)``: flow on the
    controllable g-l line needs ``theta[l] >= theta[g]``, bit 1."""

    def test_pattern_that_cannot_carry_the_pin_is_skipped(self):
        # Bit 0 caps the g-l flow at 0 and is infeasible; under bit 1 the
        # angle difference is at most 5 / s_min, and g-b-l carries half of it.
        assert pinned_optimum(tri_network(facts=True), ("g", "l"), 5.0) == pytest.approx(7.5)

    def test_pin_no_pattern_can_carry_raises(self):
        # Flow from the load back into the generator: the load would go
        # negative under either direction.
        with pytest.raises(ValueError, match="every direction choice"):
            pinned_optimum(tri_network(facts=True), ("g", "l"), -1.0)


class TestNegativeControl:
    def test_plain_generator_fails_verification(self):
        built = degenerate_choice_network(1)
        outcome = verify_choice(built.net, built.port, 1)
        assert not outcome.passed
        assert outcome.optimal_emissions == [1.0]


class TestExactCoverInstance:
    def test_normalisation_and_validation(self):
        inst = ExactCoverInstance.from_lists(["c", "a", "b"], [["c", "b", "a"]])
        assert inst.ground == ("a", "b", "c")
        assert inst.sets == (("a", "b", "c"),)

    def test_rejects_non_triples(self):
        with pytest.raises(InputError):
            ExactCoverInstance.from_lists(["a", "b"], [["a", "b"]])

    def test_rejects_foreign_elements(self):
        with pytest.raises(InputError):
            ExactCoverInstance.from_lists(["a", "b", "c"], [["a", "b", "z"]])

    def test_rejects_duplicate_subsets(self):
        with pytest.raises(InputError):
            ExactCoverInstance.from_lists(
                ["a", "b", "c"], [["a", "b", "c"], ["c", "b", "a"]]
            )


class TestEncoding:
    def test_target_formula_in_exact_rationals(self):
        inst = ExactCoverInstance.from_lists(["a", "b", "c"], [["a", "b", "c"]])
        enc = build_exact_cover_network(inst)
        assert enc.target == Fraction(243, 10)
        empty = build_exact_cover_network(ExactCoverInstance.from_lists([], []))
        assert empty.target == Fraction(3)
        six = ExactCoverInstance.from_lists(
            list("abcdef"), [list("abc"), list("bcd"), list("def")]
        )
        assert build_exact_cover_network(six).target == Fraction(639, 10)

    def test_core_line_structure(self):
        inst = ExactCoverInstance.from_lists(
            list("abcdef"), [list("abc"), list("bcd"), list("def")]
        )
        enc = build_exact_cover_network(inst)
        assert validate_network(enc.net).ok
        core = [ln for ln in enc.net.lines
                if "." not in ln.a and "." not in ln.b]
        assert len(core) == 1 + 3 * len(inst.sets) + 2 * len(inst.ground)
        by_key = {(ln.a, ln.b): ln for ln in core}
        gl = by_key[("g", "l")]
        assert (gl.s_min, gl.s_max, gl.capacity) == (1.0, 1.0, 3.0)
        for elem in inst.ground:
            ge = by_key[("g", elem)]
            el = by_key[(elem, "l")]
            assert (ge.s_min, ge.s_max, ge.capacity) == (1.0, 1.0, 1.0)
            assert (el.s_min, el.s_max, el.capacity) == (1.0, 1.0, 2.0)
        for port in enc.ports:
            for elem in port.split(":", 1)[1].split("+"):
                link = by_key[(port, elem)]
                assert (link.s_min, link.s_max, link.capacity) == (1.0, 1.0, 1.0)


class TestBruteForce:
    def test_decisions(self):
        solvable = ExactCoverInstance.from_lists(["a", "b", "c"], [["a", "b", "c"]])
        assert exact_cover_brute_force(solvable)
        uncovered = ExactCoverInstance.from_lists(
            ["a", "b", "c", "d"], [["a", "b", "c"]]
        )
        assert not exact_cover_brute_force(uncovered)
        overlap = ExactCoverInstance.from_lists(
            list("abcdef"), [list("abc"), list("cde")]
        )
        assert not exact_cover_brute_force(overlap)
        empty = ExactCoverInstance.from_lists([], [])
        assert exact_cover_brute_force(empty)


class TestCheckReduction:
    def test_solvable_reaches_target(self):
        inst = ExactCoverInstance.from_lists(["a", "b", "c"], [["a", "b", "c"]])
        check = check_reduction(inst)
        assert check.status == "ok"
        assert check.reaches_target
        assert check.mff == pytest.approx(float(check.target), abs=1e-6)

    def test_uncovered_element_blocks_target(self):
        inst = ExactCoverInstance.from_lists(["a", "b", "c", "d"], [["a", "b", "c"]])
        check = check_reduction(inst)
        assert check.status == "ok"
        assert not check.reaches_target

    @pytest.mark.parametrize("objective, upper, expected", [
        (-0.5, 0.0, "indeterminate"),  # bound still at the target: undecided
        (-0.5, -0.25, "ok"),  # bound below the target: it cannot be reached
        (0.0, 0.5, "ok"),  # incumbent at the target: it is reached
    ])
    def test_verdict_rests_on_the_bounds_not_the_termination(
            self, monkeypatch, objective, upper, expected):
        """A search that stops at its gap has a verdict only if its incumbent
        reaches the target or its upper bound falls short of it."""
        inst = ExactCoverInstance.from_lists(["a", "b", "c"], [["a", "b", "c"]])
        goal = float(build_exact_cover_network(inst).target)
        solve_mff = gadget_checks.solve_mff

        def stopped_at_gap(net, config=None, warm_start=None):
            result = solve_mff(net, config, warm_start)
            return dataclasses.replace(result, objective=goal + objective,
                                       upper_bound=goal + upper, termination="gap_reached")

        monkeypatch.setattr(gadget_checks, "solve_mff", stopped_at_gap)
        check = check_reduction(inst)
        assert check.status == expected
        assert check.reaches_target == (objective == 0.0)

    def test_empty_instance_degenerates_to_single_line(self):
        inst = ExactCoverInstance.from_lists([], [])
        check = check_reduction(inst)
        assert check.reaches_target
        assert check.mff == pytest.approx(3.0, abs=1e-9)

    def test_agreement_with_brute_force_on_a_family(self):
        cases = [
            (list("abcdef"), [list("abc"), list("def")]),
            (list("abcdef"), [list("abc"), list("cde")]),
            (list("abc"), [list("abc")]),
            (list("abcde"), [list("abc"), list("cde")]),
        ]
        for ground, sets in cases:
            inst = ExactCoverInstance.from_lists(ground, sets)
            check = check_reduction(inst)
            assert check.status == "ok"
            assert check.reaches_target == exact_cover_brute_force(inst), (
                ground, sets,
            )
