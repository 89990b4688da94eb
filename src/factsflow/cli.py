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

Verbosity comes from ``-v`` after the subcommand or from
``FACTSFLOW_LOG=debug``; either sends the solver node trace to stderr
through :mod:`logging`.
All randomness flows from a single ``--seed`` fanned out per trial, so runs
are reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import sys
import time

from . import caseio
from .model import InputError, LdcSolution, Network, validate_solution
from .linprog import LpError, lp_format
from .formulations import build_mff_relaxation, build_mpf_program, solve_mpf
from .maxflow import max_flow
from .mip import MffConfig, solve_mff
from .iterative import multi_start_im, solve_im, start_susceptances
from .gadgets import ExactCoverInstance, build_choice_network, build_exact_cover_network

__all__ = ["main", "run_command"]


def _verbose(args) -> bool:
    return args.verbose or os.environ.get("FACTSFLOW_LOG", "").lower() == "debug"


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
    _write(args.output, caseio.serialize_network(net))
    if args.output:
        print(f"wrote {args.output}: {len(net.buses)} buses, {len(net.lines)} lines")
    return 0


def _cmd_mf(args) -> int:
    net = _load_network(args.network)
    result = max_flow(net)
    print(f"{result.value:.6f}")
    if args.output:
        # A flow has no angles or susceptances; `validate` reports them missing.
        sol = LdcSolution(susceptance={}, theta={}, injections=result.injections)
        _write(args.output, caseio.serialize_solution(sol))
    return 0


def _cmd_mpf(args) -> int:
    net = _load_network(args.network)
    s = start_susceptances(net, args.at)
    if args.dump_lp:
        builder, _ = build_mpf_program(net, s)
        _write(args.dump_lp, lp_format(builder.lp) + "\n")
    result = solve_mpf(net, s)
    print(f"{result.value:.6f}")
    if args.output:
        _write(args.output, caseio.serialize_solution(result))
    return 0


def _cmd_im(args) -> int:
    net = _load_network(args.network)
    if args.starts == 3:
        ms = multi_start_im(net)
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
        builder, _ = build_mff_relaxation(net)
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


def _run_trial(net: Network, spec: caseio.ScenarioSpec, mff_time: float,
               gap: float, index: int) -> tuple[str, str | None]:
    """One scenario trial as its CSV row, and a warning if a stage failed.

    Picklable for a worker pool.  The stages run in the order of their CSV
    columns, so a stage that raises :class:`LpError` leaves its own column
    and every later one blank.
    """
    seed = caseio.derive_seed(spec.seed, index)
    t0 = time.monotonic()
    variant = caseio.remove_random_lines(net, spec.lines_removed, seed)
    variant = caseio.assign_facts(
        variant, spec.facts_fraction, spec.interval_pct, caseio.derive_seed(seed, 1),
    )
    if spec.gen_factor != 1.0 or spec.load_factor != 1.0:
        variant = caseio.apply_congestion_factors(variant, spec.gen_factor, spec.load_factor)
    done: list[float] = []  # mpf, im, mff, gap as their stages finish
    stage = "im"
    try:
        im = multi_start_im(variant)
        # The midpoint start's first step is the MPF at the interval midpoints.
        done += [im.runs["mid"].trace.steps[0][1], im.value]
        stage = "mff"
        mff = solve_mff(
            variant,
            MffConfig(gap_tol=gap, time_limit=mff_time),
            warm_start=im.best.solution,
        )
        done += [mff.objective, mff.gap]
        stage = "mf"
        mf_value = max_flow(variant).value
    except LpError as exc:
        cells = [f"trial{index}", str(seed)] + [f"{v:.6f}" for v in done]
        cells += [""] * (caseio.RUN_CSV_HEADER.count(",") + 1 - len(cells))
        return ",".join(cells), f"trial {index}: {stage}: {exc}"
    mpf_value, im_value, mff_value, mff_gap = done
    return caseio.format_run_row(
        scenario=f"trial{index}",
        seed=seed,
        mpf=mpf_value,
        im=im_value,
        mff=mff_value,
        gap=mff_gap,
        mf=mf_value,
        runtime_s=time.monotonic() - t0,
    ), None


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
    trial = functools.partial(_run_trial, net, spec, args.mff_time_limit, args.gap)

    failed = 0
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        out.write(caseio.RUN_CSV_HEADER + "\n")
        out.flush()
        with contextlib.ExitStack() as stack:
            run = map
            if args.jobs > 1:
                # Imported here: it adds import time and memory to every other command.
                from concurrent.futures import ProcessPoolExecutor

                run = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs)).map
            for row, warning in run(trial, range(args.trials)):  # in trial order either way
                out.write(row + "\n")
                out.flush()
                if warning is not None:
                    failed += 1
                    print(f"warning: {warning}", file=sys.stderr)
    finally:
        if args.output:
            out.close()
    return 1 if failed else 0


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
    common.add_argument("-v", "--verbose", action="store_true",
                        help="trace the solver to stderr")
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
    except (InputError, caseio.CaseParseError, FileNotFoundError, LpError) as exc:
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
