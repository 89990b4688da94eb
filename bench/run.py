#!/usr/bin/env python3
"""The factsflow benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload scenario-congested --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  The run

1. imports the package in a fresh interpreter and builds the workload's
   inputs, five times (``setup_s`` is the median);
2. makes whole passes over the workload's instances, as many as fit in
   ``--seconds`` seconds and at least one, timing each instance run in CPU
   seconds of this process and following it with one run of the
   calibration kernel;
3. reads the peak resident memory, then checks every recorded output against
   the scipy HiGHS reference (see ``reference.py``), after the reference has
   reproduced the README's three-bus values 12 / 14 / 14.

Every timing is CPU seconds normalised by the calibration kernel (see
``calibration.py``): on a shared host a run is descheduled for a varying share
of its wall time, and the CPU itself runs the same call at a speed that
drifts from second to second and from minute to minute.

With ``--trace 0`` no wrapper is installed and the end-to-end metrics are
reported.  With ``--trace 1`` spans are recorded around the calls into each
layer (see ``tracing.py``), written to ``.bench_trace/`` and reduced to the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
#: One BLAS thread: the simplex's products gain nothing from a second thread
#: at these sizes, and a second thread makes runs contend with other work.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.process_time(); import factsflow; "
                "print(time.process_time() - t)")


class CachedReference:
    """Reference values, computed once per input object.

    Each cache entry holds its arguments, so their ``id`` cannot be reused by
    another object while the entry exists.
    """

    def __init__(self, reference):
        self._ref = reference
        self._cache: dict = {}

    def _get(self, kind, *args):
        key = (kind,) + tuple(id(a) for a in args)
        if key not in self._cache:
            self._cache[key] = (args, getattr(self._ref, kind)(*args))
        return self._cache[key][1]

    def max_flow(self, net):
        return self._get("max_flow", net)

    def mpf(self, net, s):
        return self._get("mpf", net, s)

    def mff(self, net):
        return self._get("mff", net)


def trusted_reference():
    """The HiGHS reference, after it reproduces the README three-bus values."""
    import reference
    from factsflow.model import Bus, BusKind, Line, Network

    net = Network(
        buses=(Bus("g", BusKind.GENERATOR), Bus("b"), Bus("l", BusKind.LOAD)),
        lines=(Line("g", "l", 1.0, 1.25, 10.0), Line("g", "b", 1.0, 1.0, 10.0),
               Line("b", "l", 1.0, 1.0, 4.0)),
    )
    got = (reference.mpf(net, {ln.key: 1.0 for ln in net.lines}),
           reference.mff(net), reference.max_flow(net))
    if any(abs(v - want) > 1e-9 for v, want in zip(got, (12.0, 14.0, 14.0))):
        raise RuntimeError(f"reference gives {got} on the three-bus case, not 12 / 14 / 14")
    return CachedReference(reference)


def import_seconds() -> float:
    """CPU seconds to import the package in a fresh interpreter.

    A repeated import in this interpreter would find every module loaded
    already, so each import gets a new interpreter.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                capture_output=True, text=True, timeout=120).stdout)


def setup_seconds(workload, kernel) -> float:
    """Normalised seconds of one import plus one build of the inputs."""
    spent = import_seconds()
    c0 = time.process_time()
    workload.setup()
    spent += time.process_time() - c0
    return kernel.reference_s * spent / kernel.run()


def timed_phase(workload, kernel, seconds: float):
    """Whole passes over the workload's instances while another one fits in
    ``seconds``, judged by the mean pass so far; at least one pass.

    Returns one ``(instance, output, CPU seconds, kernel CPU seconds)``
    record per instance run (the output is ``None`` if the run raised), the
    errors by record index and the wall seconds taken.
    """
    records, errors = [], {}
    start = time.perf_counter()
    passes = 0
    while True:
        for k in range(workload.pass_size):
            c0 = time.process_time()
            try:
                output = workload.run(k)
            except Exception as exc:  # a raising operation is a counted failure
                output = None
                errors[len(records)] = f"{type(exc).__name__}: {exc}"
            cpu_s = time.process_time() - c0
            records.append((k, output, cpu_s, kernel.run()))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return records, errors, elapsed


def instance_costs(records, pass_size: int, reference_s: float) -> list[float]:
    """Each instance's normalised seconds: its CPU seconds over the kernel's,
    both summed over the passes of the run."""
    cpu, ker = [0.0] * pass_size, [0.0] * pass_size
    for k, _, cpu_s, kernel_s in records:
        cpu[k] += cpu_s
        ker[k] += kernel_s
    return [reference_s * c / q for c, q in zip(cpu, ker)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "factsflow" / "__init__.py").is_file():
        print(f"error: no factsflow source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    for name in BLAS_THREADS:
        os.environ.setdefault(name, "1")
    import factsflow
    if Path(factsflow.__file__).resolve().parent != SRC / "factsflow":
        print(f"error: imported factsflow from {factsflow.__file__}", file=sys.stderr)
        return 2

    import tracing
    from calibration import Kernel
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        kernel = Kernel(*workload.KERNEL)
        kernel.run()
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            workload.setup()
            tracer.phase = "timed"
        else:
            setup_s = statistics.median(setup_seconds(workload, kernel)
                                        for _ in range(SETUP_REPEATS))

        records, errors, elapsed = timed_phase(workload, kernel, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()

        ref = trusted_reference()
        for i, (k, output, _, _) in enumerate(records):
            if output is not None:
                problem = workload.check(k, output, ref)
                if problem:
                    errors[i] = problem
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(records), len(errors)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"attempted {attempted} in {attempted // workload.pass_size} passes  failed {failed}")
    for i in sorted(errors)[:5]:
        print(f"  failed run {i} (instance {records[i][0]}): {errors[i]}", file=sys.stderr)

    costs = instance_costs(records, workload.pass_size, kernel.reference_s)
    instances_per_s = len(costs) / sum(costs)
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "instances_per_s": {"value": instances_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = tracing.layer_metrics(tracer.spans, attempted, elapsed, tracing.span_cost_s(),
                                        instances_per_s)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
