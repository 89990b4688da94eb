"""Case parsing, network conversion, scenario edits and serialization."""

import json
import math

import pytest

from factsflow.model import BusKind, InputError, LineKind, validate_network
from factsflow.caseio import (
    CaseParseError,
    apply_congestion_factors,
    assign_facts,
    derive_seed,
    deserialize_network,
    deserialize_solution,
    format_run_row,
    parse_case,
    remove_random_lines,
    serialize_network,
    serialize_solution,
    to_network,
    RUN_CSV_HEADER,
)

MINIMAL_CASE = """\
% two buses, one branch
function mpc = tiny
mpc.baseMVA = 100;
mpc.bus = [
  1 2 0   0 0 0 1 1 0 345 1 1.1 0.9;
  2 1 150 0 0 0 1 1 0 345 1 1.1 0.9;
];
mpc.gen = [
  1 0 0 300 -300 1 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
  1 2 0.01 0.5 0 250 0 0 0 0 1 -360 360;
];
"""


class TestParseCase:
    def test_minimal_case(self):
        raw = parse_case(MINIMAL_CASE)
        assert raw.base_mva == 100.0
        assert len(raw.buses) == 2
        assert len(raw.gens) == 1
        assert len(raw.branches) == 1
        assert raw.branches[0].x == pytest.approx(0.5)
        assert raw.branches[0].rating == pytest.approx(250.0)

    def test_comments_do_not_change_the_result(self):
        commented = MINIMAL_CASE.replace(
            "mpc.bus = [",
            "% leading note\nmpc.bus = [\n  % about to list buses",
        )
        assert parse_case(commented) == parse_case(MINIMAL_CASE)

    def test_non_numeric_cell_names_the_line(self):
        bad = MINIMAL_CASE.replace("1 2 0.01 0.5", "1 2 0.01 oops")
        with pytest.raises(CaseParseError) as err:
            parse_case(bad)
        assert err.value.line_no is not None
        assert "oops" in str(err.value)

    def test_zero_reactance_in_service_rejected(self):
        bad = MINIMAL_CASE.replace("1 2 0.01 0.5", "1 2 0.01 0.0")
        with pytest.raises(CaseParseError):
            parse_case(bad)

    def test_missing_section_rejected(self):
        head, _, _ = MINIMAL_CASE.partition("mpc.gen")
        with pytest.raises(CaseParseError):
            parse_case(head)


class TestToNetwork:
    def test_per_unit_conversion(self):
        net = to_network(parse_case(MINIMAL_CASE))
        assert validate_network(net).ok
        by_key = {ln.key: ln for ln in net.lines}
        gen_bdry = by_key[("1#gen", "1")]
        assert gen_bdry.kind is LineKind.GEN_BOUNDARY
        assert gen_bdry.capacity == pytest.approx(2.0)  # 200 MW on a 100 base
        load_bdry = by_key[("2", "2#load")]
        assert load_bdry.kind is LineKind.LOAD_BOUNDARY
        assert load_bdry.capacity == pytest.approx(1.5)
        branch = by_key[("1", "2")]
        assert branch.s_min == branch.s_max == pytest.approx(2.0)  # 1/x
        assert branch.capacity == pytest.approx(2.5)

    def test_zero_demand_load_bus_gets_zero_capacity_boundary(self):
        case = MINIMAL_CASE.replace("2 1 150", "2 1 0")
        net = to_network(parse_case(case))
        by_key = {ln.key: ln for ln in net.lines}
        assert by_key[("2", "2#load")].capacity == 0.0

    def test_bus_with_both_roles_is_split(self):
        case = MINIMAL_CASE.replace("1 2 0 ", "1 2 80 ")
        net = to_network(parse_case(case))
        assert net.bus("1").kind is BusKind.JUNCTION
        assert net.bus("1#gen").kind is BusKind.GENERATOR
        assert net.bus("1#load").kind is BusKind.LOAD

    def test_unrated_branch_gets_total_generation_cap(self):
        case = MINIMAL_CASE.replace("1 2 0.01 0.5 0 250", "1 2 0.01 0.5 0 0")
        net = to_network(parse_case(case))
        by_key = {ln.key: ln for ln in net.lines}
        assert by_key[("1", "2")].capacity == pytest.approx(2.0)  # sum Pmax pu

    def test_out_of_service_branches_drop(self):
        case = MINIMAL_CASE.replace("0 0 1 -360 360", "0 0 0 -360 360")
        net = to_network(parse_case(case))
        assert ("1", "2") not in {ln.key for ln in net.lines}

    def test_duplicate_in_service_pair_rejected(self):
        case = MINIMAL_CASE.replace(
            "  1 2 0.01 0.5 0 250 0 0 0 0 1 -360 360;",
            "  1 2 0.01 0.5 0 250 0 0 0 0 1 -360 360;\n"
            "  2 1 0.01 0.4 0 100 0 0 0 0 1 -360 360;",
        )
        with pytest.raises(InputError):
            to_network(parse_case(case))

    def test_boundary_susceptance_dominates_branch_susceptance(self):
        net = to_network(parse_case(MINIMAL_CASE))
        by_key = {ln.key: ln for ln in net.lines}
        assert by_key[("1#gen", "1")].s_min == pytest.approx(20.0)  # 10x max


class TestCongestionFactors:
    def test_identity(self):
        net = to_network(parse_case(MINIMAL_CASE))
        assert apply_congestion_factors(net, 1.0, 1.0) == net

    def test_scaling(self):
        net = to_network(parse_case(MINIMAL_CASE))
        scaled = apply_congestion_factors(net, 2.0, 3.0)
        by_key = {ln.key: ln for ln in scaled.lines}
        assert by_key[("1#gen", "1")].capacity == pytest.approx(4.0)
        assert by_key[("2", "2#load")].capacity == pytest.approx(4.5)
        assert by_key[("1", "2")].capacity == pytest.approx(2.5)  # untouched

    def test_experiment_grid_has_sixteen_cells(self):
        net = to_network(parse_case(MINIMAL_CASE))
        grid = [(g, l) for g in (1.5, 2.0, 2.5, 3.0) for l in (1.5, 2.0, 3.0, 4.0)]
        assert len(grid) == 16
        seen = set()
        for g, l in grid:
            variant = apply_congestion_factors(net, g, l)
            by_key = {ln.key: ln for ln in variant.lines}
            seen.add((by_key[("1#gen", "1")].capacity,
                      by_key[("2", "2#load")].capacity))
        assert len(seen) == 16

    def test_requires_boundary_metadata(self, tri):
        with pytest.raises(InputError):
            apply_congestion_factors(tri, 2.0, 2.0)

    def test_rejects_nonpositive_factors(self):
        net = to_network(parse_case(MINIMAL_CASE))
        with pytest.raises(InputError):
            apply_congestion_factors(net, 0.0, 1.0)


BIG_CASE = """\
function mpc = five
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0   0 0 0 1 1 0 345 1 1.1 0.9;
  2 1 150 0 0 0 1 1 0 345 1 1.1 0.9;
  3 1 200 0 0 0 1 1 0 345 1 1.1 0.9;
  4 2 80  0 0 0 1 1 0 345 1 1.1 0.9;
  5 1 0   0 0 0 1 1 0 345 1 1.1 0.9;
];
mpc.gen = [
  1 0 0 300 -300 1 100 1 400 0 0 0 0 0 0 0 0 0 0 0 0;
  4 0 0 300 -300 1 100 1 250 0 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
  1 2 0.01 0.5  0 200 0 0 0 0 1 -360 360;
  1 5 0.01 0.25 0 150 0 0 0 0 1 -360 360;
  2 3 0.01 0.4  0 120 0 0 0 0 1 -360 360;
  5 3 0.01 0.5  0 180 0 0 0 0 1 -360 360;
  4 3 0.01 0.2  0 220 0 0 0 0 1 -360 360;
  4 5 0.01 0.8  0 100 0 0 0 0 1 -360 360;
  2 5 0.01 0.6  0  90 0 0 0 0 1 -360 360;
];
"""


class TestScenarioEdits:
    def _net(self):
        return to_network(parse_case(BIG_CASE))

    def test_remove_zero_is_identity(self):
        net = self._net()
        assert remove_random_lines(net, 0, seed=1) == net

    def test_removal_is_deterministic_and_spares_boundaries(self):
        net = self._net()
        a = remove_random_lines(net, 3, seed=42)
        b = remove_random_lines(net, 3, seed=42)
        assert a == b
        for ln in a.lines:
            if ln.kind is not LineKind.REGULAR:
                assert ln in net.lines
        regular_before = sum(ln.kind is LineKind.REGULAR for ln in net.lines)
        regular_after = sum(ln.kind is LineKind.REGULAR for ln in a.lines)
        assert regular_before - regular_after == 3

    def test_removing_everything_leaves_boundary_stubs(self):
        net = self._net()
        regulars = sum(ln.kind is LineKind.REGULAR for ln in net.lines)
        bare = remove_random_lines(net, regulars, seed=7)
        assert all(ln.kind is not LineKind.REGULAR for ln in bare.lines)

    def test_removing_too_many_rejected(self):
        net = self._net()
        with pytest.raises(InputError):
            remove_random_lines(net, 100, seed=7)

    def test_assign_facts_zero_fraction_is_identity(self):
        net = self._net()
        assert assign_facts(net, 0.0, 30.0, seed=5) == net

    def test_assign_facts_full_fraction_widens_every_regular_line(self):
        net = self._net()
        out = assign_facts(net, 1.0, 30.0, seed=5)
        for ln in out.lines:
            if ln.kind is not LineKind.REGULAR:
                assert not ln.is_facts
                continue
            original = next(o for o in net.lines if o.key == ln.key)
            s0 = original.s_min
            assert ln.s_min == pytest.approx(0.7 * s0)
            assert ln.s_max == pytest.approx(1.3 * s0)

    def test_interval_floor_at_zero(self):
        net = self._net()
        out = assign_facts(net, 1.0, 150.0, seed=5)
        for ln in out.lines:
            if ln.kind is LineKind.REGULAR:
                assert ln.s_min == 0.0

    def test_zero_susceptance_line_keeps_zero_interval(self):
        """``0 * inf`` is NaN: under an infinite percentage a line fixed at
        ``s = 0`` stays at ``[0, 0]``, and every other line gets ``[0, inf)``."""
        from factsflow.model import Bus, Line, Network

        net = Network(
            buses=(Bus("g", BusKind.GENERATOR), Bus("a"), Bus("l", BusKind.LOAD)),
            lines=(Line("g", "a", 0.0, 0.0, 2.0), Line("a", "l", 1.5, 1.5, 3.0)),
        )
        out = assign_facts(net, 1.0, math.inf, seed=5)
        assert out.lines[0] == net.lines[0]
        assert (out.lines[1].s_min, out.lines[1].s_max) == (0.0, math.inf)

    def test_half_fraction_counts(self):
        net = self._net()
        out = assign_facts(net, 0.5, 30.0, seed=9)
        regulars = [ln for ln in out.lines if ln.kind is LineKind.REGULAR]
        widened = sum(ln.is_facts for ln in regulars)
        assert widened == len(regulars) // 2

    def test_rewidening_rejected(self):
        net = assign_facts(self._net(), 1.0, 30.0, seed=5)
        with pytest.raises(InputError):
            assign_facts(net, 1.0, 30.0, seed=5)

    def test_ops_commute_with_serialization(self):
        net = self._net()
        direct = assign_facts(remove_random_lines(net, 2, 11), 0.5, 40.0, 12)
        via_json = deserialize_network(serialize_network(net))
        roundtrip = assign_facts(remove_random_lines(via_json, 2, 11), 0.5, 40.0, 12)
        assert serialize_network(direct) == serialize_network(roundtrip)


class TestSerialization:
    def test_network_round_trip(self, tri_f):
        assert deserialize_network(serialize_network(tri_f)) == tri_f

    def test_infinite_upper_bound_encoding(self):
        from factsflow.model import Bus, Line, Network

        net = Network(
            buses=(Bus("a", BusKind.GENERATOR), Bus("b", BusKind.LOAD)),
            lines=(Line("a", "b", 1.0, math.inf, 2.0),),
        )
        text = serialize_network(net)
        assert '"inf"' in text
        back = deserialize_network(text)
        assert math.isinf(back.lines[0].s_max)

    def test_unknown_field_named_in_error(self, tri):
        text = serialize_network(tri).replace('"schema"', '"wat": 1, "schema"')
        with pytest.raises(InputError) as err:
            deserialize_network(text)
        assert "wat" in str(err.value)

    @pytest.mark.parametrize("read, section, value", [
        (deserialize_network, "buses", 5),
        (deserialize_network, "buses", [5]),
        (deserialize_network, "lines", {"a": 1}),
        (deserialize_network, "lines", [[1]]),
        (deserialize_solution, "theta", [1]),
        (deserialize_solution, "gen", 5),
        (deserialize_solution, "flow", [3]),
        (deserialize_solution, "flow", {"a": 1}),
    ], ids=["buses-number", "buses-list-of-numbers", "lines-object", "lines-list-of-lists",
            "theta-list", "gen-number", "flow-list-of-numbers", "flow-object"])
    def test_wrongly_typed_section_named_in_error(self, read, section, value):
        with pytest.raises(InputError, match=f"section '{section}'"):
            read(json.dumps({"schema": 1, section: value}))

    @pytest.mark.parametrize("bad", [None, [1], True], ids=["null", "list", "boolean"])
    @pytest.mark.parametrize("read, field, doc", [
        (deserialize_network, "id", lambda v: {"buses": [{"id": v, "kind": "generator"}]}),
        (deserialize_network, "a", lambda v: {
            "buses": [{"id": "x"}], "lines": [{"a": v, "b": "x", "s_min": 1, "s_max": 1,
                                               "capacity": 1}]}),
        (deserialize_network, "b", lambda v: {
            "buses": [{"id": "x"}], "lines": [{"a": "x", "b": v, "s_min": 1, "s_max": 1,
                                               "capacity": 1}]}),
        (deserialize_solution, "a", lambda v: {"flow": [{"a": v, "b": "x", "value": 1}]}),
        (deserialize_solution, "b", lambda v: {"susceptance": [{"a": "x", "b": v, "value": 1}]}),
    ], ids=["bus-id", "line-a", "line-b", "flow-a", "susceptance-b"])
    def test_non_id_value_named_in_error(self, read, field, doc, bad):
        with pytest.raises(InputError, match=f"has bad {field} "):
            read(json.dumps({"schema": 1, **doc(bad)}))

    def test_integer_ids_read_as_strings(self):
        net = deserialize_network(json.dumps({
            "schema": 1,
            "buses": [{"id": 1, "kind": "generator"}, {"id": 2, "kind": "load"}],
            "lines": [{"a": 1, "b": 2, "s_min": 1, "s_max": 1, "capacity": 3}],
        }))
        assert [b.id for b in net.buses] == ["1", "2"]
        assert net.lines[0].key == ("1", "2")
        assert deserialize_network(serialize_network(net)) == net

    def test_solution_round_trip(self, tri):
        from factsflow.formulations import solve_mpf

        sol = solve_mpf(tri, {ln.key: 1.0 for ln in tri.lines})
        back = deserialize_solution(serialize_solution(sol))
        assert back.theta == dict(sol.theta)
        assert back.susceptance == dict(sol.susceptance)
        assert back.injections.flow == dict(sol.injections.flow)

    def test_converted_network_validates(self):
        net = to_network(parse_case(BIG_CASE))
        assert validate_network(net).ok


class TestCsvRows:
    def test_header_and_formatting(self):
        assert RUN_CSV_HEADER == "scenario,seed,mpf,im,mff,gap,mf,improvement_pct,runtime_s"
        row = format_run_row("trial0", 42, 10.0, 10.5, 11.0, 1e-6, 12.0, 0.25)
        cells = row.split(",")
        assert cells[0] == "trial0"
        assert cells[1] == "42"
        assert cells[2] == "10.000000"
        assert cells[7] == "10.000000"  # 100 * (11 - 10) / 10

    def test_blank_improvement_when_baseline_zero(self):
        row = format_run_row("t", 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1)
        assert row.split(",")[7] == ""

    def test_missing_stages_are_blank_cells(self):
        row = format_run_row("trial3", 5, mpf=10.0, im=10.5)
        assert row == "trial3,5,10.000000,10.500000,,,,,"
        assert row.count(",") == RUN_CSV_HEADER.count(",")
        assert format_run_row("t", 1) == "t,1" + "," * 7

    def test_seed_fanout_is_deterministic_and_spread(self):
        children = {derive_seed(7, i) for i in range(100)}
        assert len(children) == 100
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(8, 3)
