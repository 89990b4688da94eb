"""The command-line front end, driven through run_command."""

import json
import re

import pytest

from factsflow import caseio, cli
from factsflow.cli import run_command
from factsflow.caseio import deserialize_network, serialize_network
from factsflow.linprog import LpError
from factsflow.model import validate_solution

from conftest import tri_network

CASE = """\
function mpc = toy
mpc.baseMVA = 100;
mpc.bus = [
  1 2 0   0 0 0 1 1 0 345 1 1.1 0.9;
  2 1 0   0 0 0 1 1 0 345 1 1.1 0.9;
  3 1 400 0 0 0 1 1 0 345 1 1.1 0.9;
];
mpc.gen = [
  1 0 0 300 -300 1 100 1 900 0 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
  1 3 0.0 1.0 0 1000 0 0 0 0 1 -360 360;
  1 2 0.0 1.0 0 1000 0 0 0 0 1 -360 360;
  2 3 0.0 1.0 0  400 0 0 0 0 1 -360 360;
];
"""


@pytest.fixture
def workdir(tmp_path):
    case = tmp_path / "toy.m"
    case.write_text(CASE)
    assert run_command(["convert", str(case), "-o", str(tmp_path / "toy.json")]) == 0
    return tmp_path


def test_convert_writes_valid_network(workdir):
    net = deserialize_network((workdir / "toy.json").read_text())
    assert len(net.buses) == 6  # 3 original + gen aux + 2 load aux
    assert len(net.lines) == 6


def test_solver_commands_agree(workdir, capsys):
    net_path = str(workdir / "toy.json")
    assert run_command(["mpf", net_path]) == 0
    assert run_command(["mf", net_path]) == 0
    assert run_command(["im", net_path]) == 0
    assert run_command(["mff", net_path, "--gap", "1e-9"]) == 0
    outputs = [line for line in capsys.readouterr().out.splitlines() if line]
    values = [float(line) for line in outputs[:4]]
    # demand caps everything at 4 pu here, so all four coincide
    assert values == pytest.approx([4.0, 4.0, 4.0, 4.0], abs=1e-6)


def test_written_solutions_revalidate(workdir):
    net_path = str(workdir / "toy.json")
    for command in (["mpf"], ["im"], ["mff", "--gap", "1e-9"]):
        sol_path = str(workdir / f"sol_{command[0]}.json")
        assert run_command(command + [net_path, "-o", sol_path]) == 0
        assert run_command(["validate", net_path, sol_path]) == 0


def test_validate_rejects_corrupted_solution(workdir):
    net_path = str(workdir / "toy.json")
    sol_path = workdir / "sol.json"
    assert run_command(["mpf", net_path, "-o", str(sol_path)]) == 0
    doc = json.loads(sol_path.read_text())
    doc["gen"] = {k: v + 1.0 for k, v in doc["gen"].items()}
    sol_path.write_text(json.dumps(doc))
    assert run_command(["validate", net_path, str(sol_path)]) != 0


def test_mpf_lp_dump(workdir):
    net_path = str(workdir / "toy.json")
    dump = workdir / "model.lp"
    assert run_command(["mpf", net_path, "--dump-lp", str(dump)]) == 0
    text = dump.read_text()
    assert "maximize" in text
    assert "subject to" in text


@pytest.fixture
def tri_f_path(tmp_path):
    path = tmp_path / "tri_f.json"
    path.write_text(serialize_network(tri_network(facts=True)))
    return str(path)


def test_mff_lp_dump_is_the_cone_sum_relaxation(tri_f_path, tmp_path):
    dump = tmp_path / "mff.lp"
    assert run_command(["mff", tri_f_path, "--dump-lp", str(dump)]) == 0
    text = dump.read_text()
    assert "dplus[g-l]" in text
    assert re.search(r"\bd\[", text) is None  # no direction binary


@pytest.mark.parametrize("flag, env", [(["-v"], None), ([], "debug")],
                         ids=["flag", "env"])
def test_mff_verbose_trace_stays_off_stdout(tri_f_path, capsys, monkeypatch, flag, env):
    monkeypatch.delenv("FACTSFLOW_LOG", raising=False)
    if env is not None:
        monkeypatch.setenv("FACTSFLOW_LOG", env)
    assert run_command(["mff", *flag, tri_f_path, "--gap", "1e-9"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["14.000000"]
    assert "node 1:" in captured.err


def test_scenario_rows_are_deterministic(workdir):
    net_path = str(workdir / "toy.json")
    args = ["scenario", net_path, "--trials", "2", "--remove-lines", "1",
            "--facts-frac", "1.0", "--interval-pct", "30", "--seed", "7"]
    out_a = workdir / "a.csv"
    out_b = workdir / "b.csv"
    assert run_command(args + ["-o", str(out_a)]) == 0
    assert run_command(args + ["-o", str(out_b)]) == 0

    def stable_part(path):
        rows = path.read_text().splitlines()
        # wall time is the last column and inherently varies run to run
        return [",".join(r.split(",")[:-1]) for r in rows]

    assert stable_part(out_a) == stable_part(out_b)
    header = out_a.read_text().splitlines()[0]
    assert header == "scenario,seed,mpf,im,mff,gap,mf,improvement_pct,runtime_s"
    assert len(out_a.read_text().splitlines()) == 3


def test_scenario_values_keep_the_sandwich(workdir):
    net_path = str(workdir / "toy.json")
    out = workdir / "runs.csv"
    assert run_command(["scenario", net_path, "--trials", "2",
                        "--facts-frac", "1.0", "--interval-pct", "40",
                        "--gen-factor", "2.0", "--load-factor", "2.0",
                        "--seed", "3", "-o", str(out)]) == 0
    for row in out.read_text().splitlines()[1:]:
        cells = row.split(",")
        mpf, im, mff, _gap, mf = map(float, cells[2:7])
        assert mpf <= im + 1e-6 <= mff + 2e-6 <= mf + 3e-6


def test_scenario_worker_pool_matches_serial(workdir):
    net_path = str(workdir / "toy.json")
    args = ["scenario", net_path, "--trials", "3", "--facts-frac", "1.0",
            "--interval-pct", "30", "--seed", "11"]
    serial = workdir / "serial.csv"
    pooled = workdir / "pooled.csv"
    assert run_command(args + ["-o", str(serial)]) == 0
    assert run_command(args + ["--jobs", "2", "-o", str(pooled)]) == 0

    def stable_part(path):
        return [",".join(r.split(",")[:-1]) for r in path.read_text().splitlines()]

    assert stable_part(serial) == stable_part(pooled)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_trial_is_a_row(workdir, monkeypatch, capsys, jobs):
    net_path = str(workdir / "toy.json")
    args = ["scenario", net_path, "--trials", "3", "--remove-lines", "1",
            "--facts-frac", "1.0", "--interval-pct", "30", "--seed", "9"]
    net = deserialize_network((workdir / "toy.json").read_text())

    def variant(index):  # the edits run_command applies to trial ``index``
        seed = caseio.derive_seed(9, index)
        edited = caseio.remove_random_lines(net, 1, seed)
        return caseio.assign_facts(edited, 1.0, 30.0, caseio.derive_seed(seed, 1))

    doomed = variant(1)
    assert doomed not in (variant(0), variant(2))
    clean = workdir / "clean.csv"
    assert run_command(args + ["-o", str(clean)]) == 0
    solve_mff = cli.solve_mff

    def flaky(net, *rest, **kwargs):
        if net == doomed:
            raise LpError("no numerically stable pivot available")
        return solve_mff(net, *rest, **kwargs)

    monkeypatch.setattr(cli, "solve_mff", flaky)
    out = workdir / "runs.csv"
    capsys.readouterr()
    assert run_command(args + ["--jobs", str(jobs), "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "warning: trial 1: mff: no numerically stable pivot available"]

    rows = out.read_text().splitlines()
    expected = clean.read_text().splitlines()
    assert len(rows) == 4 and rows[0] == expected[0]
    for k in (1, 3):  # the other trials are untouched, runtime aside
        assert rows[k].rsplit(",", 1)[0] == expected[k].rsplit(",", 1)[0]
    cells = rows[2].split(",")
    assert cells[:4] == expected[2].split(",")[:4]  # scenario, seed, mpf, im
    assert cells[4:] == [""] * 5  # mff onwards is blank


def test_encode_exact_cover(workdir):
    inst = workdir / "inst.json"
    inst.write_text(json.dumps({"ground": ["a", "b", "c"], "sets": [["a", "b", "c"]]}))
    out = workdir / "encoding.json"
    assert run_command(["encode", "exact-cover", str(inst), "-o", str(out)]) == 0
    net = deserialize_network(out.read_text())
    assert any(b.id == "v:a+b+c" for b in net.buses)


def test_bad_inputs_exit_nonzero(workdir, tmp_path):
    bogus = tmp_path / "bogus.m"
    bogus.write_text("mpc.baseMVA = 100;\n")
    assert run_command(["convert", str(bogus)]) == 2
    assert run_command(["mpf", str(tmp_path / "missing.json")]) == 2


def _unknown_bus(doc):
    doc["lines"][0]["b"] = "nowhere"


def _reversed_interval(doc):
    line = next(ln for ln in doc["lines"] if ln["s_min"] < ln["s_max"])
    line["s_min"], line["s_max"] = line["s_max"], line["s_min"]


def _bus_without_id(doc):
    del doc["buses"][0]["id"]


def _non_numeric_s_min(doc):
    doc["lines"][0]["s_min"] = "x"


@pytest.mark.parametrize("command", ["mpf", "mf", "im", "mff"])
@pytest.mark.parametrize("corrupt", [_unknown_bus, _reversed_interval, _bus_without_id,
                                     _non_numeric_s_min], ids=lambda f: f.__name__[1:])
def test_malformed_network_is_one_error_line(tmp_path, capsys, command, corrupt):
    doc = json.loads(serialize_network(tri_network(facts=True)))
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_command([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_wrongly_typed_section_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, "buses": [5], "lines": []}))
    assert run_command(["mf", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: section 'buses' must be a list of objects\n"


def test_convert_rejects_parallel_branches(tmp_path, capsys):
    case = tmp_path / "parallel.m"
    case.write_text(CASE.replace("  2 3 0.0 1.0 0  400", "  3 1 0.0 1.0 0  400"))
    assert run_command(["convert", str(case), "-o", str(tmp_path / "out.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid network: line.duplicate_pair: ")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "out.json").exists()


def test_mf_solution_file_is_the_solution_format(workdir, capsys):
    net_path = str(workdir / "toy.json")
    sol_path = str(workdir / "mf.json")
    assert run_command(["mf", net_path, "-o", sol_path]) == 0
    capsys.readouterr()
    # A flow carries no susceptances or angles, so it cannot validate.
    assert run_command(["validate", net_path, sol_path]) == 1
    err = capsys.readouterr().err
    assert "solution.missing_susceptance" in err
    assert "unknown field" not in err


def test_malformed_solution_names_the_field(workdir, capsys):
    net_path = str(workdir / "toy.json")
    sol_path = workdir / "sol.json"
    assert run_command(["mpf", net_path, "-o", str(sol_path)]) == 0
    doc = json.loads(sol_path.read_text())
    del doc["flow"][0]["value"]
    sol_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_command(["validate", net_path, str(sol_path)]) == 2
    assert "'value'" in capsys.readouterr().err


def test_solver_failure_is_one_error_line(workdir, capsys, monkeypatch):
    def failing_solve(*args, **kwargs):
        raise LpError("iteration limit exceeded")

    monkeypatch.setattr("factsflow.cli.solve_mpf", failing_solve)
    capsys.readouterr()  # drop what the fixture's convert printed
    assert run_command(["mpf", str(workdir / "toy.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: iteration limit exceeded\n"
