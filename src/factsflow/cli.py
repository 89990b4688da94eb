"""Command-line front end.

Subcommands:

* ``convert``  -- MATPOWER-style case text to network JSON
* ``mf``       -- plain maximum flow (no power law)
* ``mpf``      -- fixed-susceptance maximum throughput (LP)
* ``im``       -- alternating heuristic (multi-start by default)
* ``mff``      -- exact solver, optionally warm-started
* ``scenario`` -- batch damage / device-placement studies emitting CSV rows
* ``encode``   -- exact-cover instance to its throughput encoding
* ``validate`` -- check a solution file against a network file

Verbosity comes from ``-v`` or the ``FACTSFLOW_LOG`` environment variable
(``debug`` sends the solver node trace to stderr through :mod:`logging`).
All randomness flows from a single ``--seed`` fanned out per trial, so runs
are reproducible.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import caseio
from .model import InputError, Network, validate_network, validate_solution
from .linprog import lp_format
from .formulations import build_mpf_program, midpoint_susceptances, solve_mpf
from .maxflow import max_flow
from .mip import MffConfig, build_mff_relaxation, solve_mff
from .iterative import multi_start_im, solve_im, start_susceptances
from .gadgets import ExactCoverInstance, build_choice_network, build_exact_cover_network

__all__ = ["main", "run_command"]


def _verbose(args) -> bool:
    env = os.environ.get("FACTSFLOW_LOG", "").lower()
    return getattr(args, "verbose", False) or env in ("debug", "trace")


def _load_network(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return caseio.deserialize_network(fh.read())


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_convert(args) -> int:
    with open(args.case, "r", encoding="utf-8") as fh:
        raw = caseio.parse_case(fh.read())
    net = caseio.to_network(raw)
    report = validate_network(net)
    if not report.ok:
        print(report, file=sys.stderr)
        return 1
    _write(args.output, caseio.serialize_network(net))
    if args.output:
        print(f"wrote {args.output}: {len(net.buses)} buses, {len(net.lines)} lines")
    return 0


def _cmd_mf(args) -> int:
    net = _load_network(args.network)
    result = max_flow(net)
    print(f"{result.value:.6f}")
    if args.output:
        sol_doc = {
            "schema": 1,
            "value": result.value,
            "flow": [{"a": a, "b": b, "value": v}
                     for (a, b), v in sorted(result.injections.flow.items())],
            "gen": dict(sorted(result.injections.gen.items())),
            "load": dict(sorted(result.injections.load.items())),
        }
        _write(args.output, json.dumps(sol_doc, sort_keys=True, indent=2) + "\n")
    return 0


def _susceptances_at(net: Network, which: str):
    if which == "mid":
        return midpoint_susceptances(net)
    return start_susceptances(net, which)


def _cmd_mpf(args) -> int:
    net = _load_network(args.network)
    s = _susceptances_at(net, args.at)
    if args.dump_lp:
        builder, _ = build_mpf_program(net, s)
        _write(args.dump_lp, lp_format(builder.lp) + "\n")
    result = solve_mpf(net, s)
    print(f"{result.value:.6f}")
    if args.output:
        _write(args.output, caseio.serialize_solution(result.solution))
    return 0


def _cmd_im(args) -> int:
    net = _load_network(args.network)
    if args.starts == 3:
        ms = multi_start_im(net, random_seed=args.seed)
        result = ms.best
        if _verbose(args):
            for name, run in ms.runs.items():
                print(f"start {name}: value {run.value:.6f} "
                      f"iterations {run.trace.iterations}", file=sys.stderr)
    else:
        result = solve_im(net, start_susceptances(net, "mid"))
    print(f"{result.value:.6f}")
    if args.output:
        _write(args.output, caseio.serialize_solution(result.solution))
    if args.trace:
        _write(args.trace, json.dumps(result.trace.rows(), indent=2) + "\n")
    return 0


def _cmd_mff(args) -> int:
    net = _load_network(args.network)
    warm = None
    if args.warm_start:
        with open(args.warm_start, "r", encoding="utf-8") as fh:
            warm = caseio.deserialize_solution(fh.read())
    if args.dump_lp:
        builder, _, _ = build_mff_relaxation(net)
        _write(args.dump_lp, lp_format(builder.lp) + "\n")
    config = MffConfig(
        gap_tol=args.gap,
        time_limit=args.time_limit,
        node_limit=args.node_limit,
    )
    result = solve_mff(net, config, warm_start=warm)
    print(f"{result.objective:.6f}")
    print(f"bound {result.upper_bound:.6f} gap {result.gap:.6g} "
          f"nodes {result.node_count} time {result.wall_time:.2f}s "
          f"({result.termination})", file=sys.stderr)
    if args.output:
        _write(args.output, caseio.serialize_solution(result.solution))
    return 0


def _run_trial(payload):
    """One scenario trial; shaped for a worker pool."""
    net_text, index, spec_args, mff_time, gap = payload
    net = caseio.deserialize_network(net_text)
    seed = caseio.derive_seed(spec_args["seed"], index)
    t0 = time.monotonic()
    variant = caseio.remove_random_lines(net, spec_args["lines_removed"], seed)
    variant = caseio.assign_facts(
        variant, spec_args["facts_fraction"], spec_args["interval_pct"],
        caseio.derive_seed(seed, 1),
    )
    if spec_args["gen_factor"] != 1.0 or spec_args["load_factor"] != 1.0:
        variant = caseio.apply_congestion_factors(
            variant, spec_args["gen_factor"], spec_args["load_factor"]
        )
    mf_value = max_flow(variant).value
    mpf_value = solve_mpf(variant, midpoint_susceptances(variant)).value
    im = multi_start_im(variant)
    mff = solve_mff(
        variant,
        MffConfig(gap_tol=gap, time_limit=mff_time),
        warm_start=im.best.solution,
    )
    runtime = time.monotonic() - t0
    row = caseio.format_run_row(
        scenario=f"trial{index}",
        seed=seed,
        mpf=mpf_value,
        im=im.value,
        mff=mff.objective,
        gap=mff.gap,
        mf=mf_value,
        runtime_s=runtime,
    )
    return index, row


def _cmd_scenario(args) -> int:
    net = _load_network(args.network)
    spec = caseio.ScenarioSpec(
        seed=args.seed,
        lines_removed=args.remove_lines,
        facts_fraction=args.facts_frac,
        interval_pct=args.interval_pct,
        gen_factor=args.gen_factor,
        load_factor=args.load_factor,
    )
    spec_args = {
        "seed": spec.seed,
        "lines_removed": spec.lines_removed,
        "facts_fraction": spec.facts_fraction,
        "interval_pct": spec.interval_pct,
        "gen_factor": spec.gen_factor,
        "load_factor": spec.load_factor,
    }
    net_text = caseio.serialize_network(net)
    payloads = [
        (net_text, i, spec_args, args.mff_time_limit, args.gap)
        for i in range(args.trials)
    ]

    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        out.write(caseio.RUN_CSV_HEADER + "\n")
        out.flush()
        if args.jobs > 1:
            rows: dict[int, str] = {}
            next_to_write = 0
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                for index, row in pool.map(_run_trial, payloads):
                    rows[index] = row
                    while next_to_write in rows:
                        out.write(rows.pop(next_to_write) + "\n")
                        out.flush()
                        next_to_write += 1
        else:
            for payload in payloads:
                _, row = _run_trial(payload)
                out.write(row + "\n")
                out.flush()
    finally:
        if args.output:
            out.close()
    return 0


def _cmd_encode(args) -> int:
    if args.what == "exact-cover":
        if not args.instance:
            raise InputError("exact-cover needs an instance JSON file")
        with open(args.instance, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        inst = ExactCoverInstance.from_lists(doc["ground"], doc["sets"])
        encoding = build_exact_cover_network(inst)
        _write(args.output, caseio.serialize_network(encoding.net))
        print(f"target {float(encoding.target):.6f}")
        return 0
    if args.what == "choice-gadget":
        built = build_choice_network(args.x)
        _write(args.output, caseio.serialize_network(built.net))
        print(f"port {built.port} inner optimum {float(built.expected_inner_opt):.6f}")
        return 0
    raise InputError(f"unknown encoding {args.what!r}")


def _cmd_validate(args) -> int:
    net = _load_network(args.network)
    with open(args.solution, "r", encoding="utf-8") as fh:
        sol = caseio.deserialize_solution(fh.read())
    report = validate_solution(net, sol, args.tol)
    if report.ok:
        print("valid")
        return 0
    print(report, file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factsflow",
        description="Maximum-throughput analysis of DC networks with "
                    "variable-susceptance lines",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", parents=[common],
                       help="MATPOWER case text to network JSON")
    p.add_argument("case")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("mf", parents=[common],
                       help="maximum flow ignoring the power law")
    p.add_argument("network")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_mf)

    p = sub.add_parser("mpf", parents=[common],
                       help="fixed-susceptance maximum throughput")
    p.add_argument("network")
    p.add_argument("--at", choices=("lower", "upper", "mid"), default="mid",
                   help="susceptance point for controllable lines")
    p.add_argument("--dump-lp", help="write the program in LP text form")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_mpf)

    p = sub.add_parser("im", parents=[common], help="alternating heuristic")
    p.add_argument("network")
    p.add_argument("--starts", type=int, choices=(1, 3), default=3)
    p.add_argument("--seed", type=int, default=None,
                   help="add one seeded-uniform start to the three")
    p.add_argument("--trace", help="write the objective trace as JSON")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_im)

    p = sub.add_parser("mff", parents=[common], help="exact maximum throughput")
    p.add_argument("network")
    p.add_argument("--gap", type=float, default=1e-4)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--warm-start", help="solution JSON used as the incumbent")
    p.add_argument("--dump-lp", help="write the relaxation in LP text form")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_mff)

    p = sub.add_parser("scenario", parents=[common],
                       help="batch damage / utilisation studies")
    p.add_argument("network")
    p.add_argument("--remove-lines", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--facts-frac", type=float, default=0.0)
    p.add_argument("--interval-pct", type=float, default=0.0)
    p.add_argument("--gen-factor", type=float, default=1.0)
    p.add_argument("--load-factor", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gap", type=float, default=1e-4)
    p.add_argument("--mff-time-limit", type=float, default=600.0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("encode", parents=[common],
                       help="encode a combinatorial instance or gadget")
    p.add_argument("what", choices=("exact-cover", "choice-gadget"))
    p.add_argument("instance", nargs="?",
                   help="instance JSON with 'ground' and 'sets' (exact-cover)")
    p.add_argument("--x", type=float, default=1.0,
                   help="port quantum for choice-gadget")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("validate", parents=[common],
                       help="check a solution against a network")
    p.add_argument("network")
    p.add_argument("solution")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_validate)
    return parser


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    package_log = logging.getLogger("factsflow")
    level = package_log.level
    handler = logging.StreamHandler(sys.stderr) if _verbose(args) else None
    if handler is not None:
        package_log.addHandler(handler)
        package_log.setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except (InputError, caseio.CaseParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if handler is not None:
            package_log.removeHandler(handler)
            package_log.setLevel(level)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
