"""Spans around the calls into each ``factsflow`` layer, from outside the package.

The modules import each other's functions by name (``from .linprog import
solve_lp``), so a call from ``mip`` goes through ``factsflow.mip.solve_lp``
and one from ``formulations`` through ``factsflow.formulations.solve_lp``.
:meth:`Tracer.install` replaces the name in every importing module with a
wrapper that records a span, and :meth:`Tracer.uninstall` puts the originals
back.  The importing module is kept on the span as its *site*, which is how
calls are attributed by caller (``solve_lp`` from ``mip`` is a B&B node LP).

A span is ``(id, parent id, name, site, phase, start, end, child seconds,
attrs)``.  Calls nest strictly (the program is single-threaded), so a span's
self time is its duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import factsflow.caseio
import factsflow.cli
import factsflow.formulations
import factsflow.iterative
import factsflow.linprog
import factsflow.maxflow
import factsflow.mip
import factsflow.model

_M = {m.__name__.rsplit(".", 1)[-1]: m for m in (
    factsflow.caseio, factsflow.cli, factsflow.formulations, factsflow.iterative,
    factsflow.linprog, factsflow.maxflow, factsflow.mip, factsflow.model)}


def _lp_attrs(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    return {"rows": lp.num_rows, "vars": lp.num_vars, "status": result.status}


def _mff_attrs(args, kwargs, result):
    return {"nodes": result.node_count, "retried": bool(result.big_m_retried)}


def _im_attrs(args, kwargs, result):
    return {"rounds": sum(run.trace.iterations for run in result.runs.values())}


#: (span name, defining module, function, sites that import it, attrs).
#: The defining module is itself a site: callers outside the package (this
#: benchmark, the CLI through ``caseio.x``) go through its attribute.
TRACED = (
    ("linprog.solve_lp", "linprog", "solve_lp",
     ("linprog", "mip", "formulations", "maxflow"), _lp_attrs),
    ("formulations.solve_mpf", "formulations", "solve_mpf",
     ("formulations", "iterative", "cli"), None),
    ("formulations.solve_mvf", "formulations", "solve_mvf",
     ("formulations", "iterative", "mip"), None),
    ("mip.solve_mff", "mip", "solve_mff", ("mip", "cli"), _mff_attrs),
    ("iterative.multi_start_im", "iterative", "multi_start_im",
     ("iterative", "cli"), _im_attrs),
    ("maxflow.max_flow", "maxflow", "max_flow", ("maxflow", "cli"), None),
    ("model.validate_solution", "model", "validate_solution",
     ("model", "mip", "cli"), None),
    ("cli.run_command", "cli", "run_command", ("cli",), None),
) + tuple(
    (f"caseio.{fn}", "caseio", fn, ("caseio",), None)
    for fn in ("parse_case", "to_network", "deserialize_network", "remove_random_lines", "assign_facts", "apply_congestion_factors")
)


class Tracer:
    """Records spans while installed; ``phase`` tags each span it starts."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, site, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [len(spans), parent[0] if parent else None, name, site,
                    self.phase, 0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[5] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[8] = {"error": type(exc).__name__}
                raise
            else:
                if attrs is not None:
                    span[8] = attrs(args, kwargs, result)
            finally:
                span[6] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[7] += span[6] - span[5]
            return result

        return traced

    def install(self) -> None:
        for name, home, fn_name, sites, attrs in TRACED:
            original = getattr(_M[home], fn_name)
            for site in sites:
                module = _M[site]
                if getattr(module, fn_name) is not original:
                    raise RuntimeError(f"factsflow.{site}.{fn_name} is not {home}.{fn_name}")
                self._saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(original, name, site, attrs))

    def uninstall(self) -> None:
        while self._saved:
            module, fn_name, original = self._saved.pop()
            setattr(module, fn_name, original)

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "site", "phase", "start", "end", "child_s", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, from timing a traced no-op."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap(noop, "noop", "bench", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def layer_metrics(spans, instances: int, timed_s: float, per_span_s: float,
                  instances_per_s: float) -> dict:
    """The per-layer table from the spans of one setup pass and the timed phase.

    Counts and seconds are per instance of the timed phase, plus whatever
    one setup pass spent (only ``caseio`` does work there).  ``_p50`` and
    ``_max`` values describe single calls.  ``instances_per_s`` is the
    traced run's rate, computed as the untraced ``instances_per_s`` is, so
    the two differ by the tracing overhead.
    """
    per = 1.0 / max(instances, 1)

    def sel(name, site=None):
        return [s for s in spans if s[2] == name and (site is None or s[3] == site)]

    def count(group):
        return sum(per if s[4] == "timed" else 1.0 for s in group)

    def secs(group, self_only=False):
        return sum(((s[6] - s[5]) - (s[7] if self_only else 0.0))
                   * (per if s[4] == "timed" else 1.0) for s in group)

    def attr_sum(group, key):
        return sum((s[8] or {}).get(key, 0) * (per if s[4] == "timed" else 1.0)
                   for s in group)

    lp = sel("linprog.solve_lp")
    mpf, mvf = sel("formulations.solve_mpf"), sel("formulations.solve_mvf")
    mff, im = sel("mip.solve_mff"), sel("iterative.multi_start_im")
    mvf_ids = {s[0] for s in mvf}
    lp_in_mvf = [s for s in lp if s[1] in mvf_ids]
    rows = [s[8]["rows"] for s in lp if s[8] and "rows" in s[8]]
    cols = [s[8]["vars"] for s in lp if s[8] and "vars" in s[8]]
    tableau = [8.0 * s[8]["rows"] * (s[8]["vars"] + 2 * s[8]["rows"]) / 1e6
               for s in lp if s[8] and "rows" in s[8]]
    edits = [s for s in spans if s[2] in ("caseio.remove_random_lines",
                                          "caseio.assign_facts",
                                          "caseio.apply_congestion_factors")]
    timed_spans = sum(1 for s in spans if s[4] == "timed")

    def m(value, unit):
        return {"value": value, "unit": unit}

    return {
        "linprog.solve_lp.calls": m(count(lp), "count/inst"),
        "linprog.solve_lp_s": m(secs(lp), "s/inst"),
        "linprog.solve_lp_s_p50": m(statistics.median([s[6] - s[5] for s in lp]) if lp else 0.0,
                                    "s"),
        "linprog.rows_p50": m(statistics.median(rows) if rows else 0, "count"),
        "linprog.rows_max": m(max(rows, default=0), "count"),
        "linprog.vars_max": m(max(cols, default=0), "count"),
        "linprog.infeasible.calls": m(
            count([s for s in lp if s[8] and s[8].get("status") == "infeasible"]),
            "count/inst"),
        "linprog.tableau_mb_max": m(max(tableau, default=0.0), "MB"),
        "mip.solve_mff.calls": m(count(mff), "count/inst"),
        "mip.solve_mff_s": m(secs(mff), "s/inst"),
        "mip.nodes": m(attr_sum(mff, "nodes"), "count/inst"),
        "mip.node_lp_s": m(secs(sel("linprog.solve_lp", "mip")), "s/inst"),
        "mip.leaf_mvf.calls": m(count(sel("formulations.solve_mvf", "mip")), "count/inst"),
        "mip.big_m_retries": m(attr_sum(mff, "retried"), "count/inst"),
        "mip.self_s": m(secs(mff, self_only=True), "s/inst"),
        "formulations.solve_mpf.calls": m(count(mpf), "count/inst"),
        "formulations.solve_mpf_s": m(secs(mpf), "s/inst"),
        "formulations.solve_mvf.calls": m(count(mvf), "count/inst"),
        "formulations.solve_mvf_s": m(secs(mvf), "s/inst"),
        "formulations.lp_per_mvf": m(len(lp_in_mvf) / len(mvf) if mvf else 0.0, "ratio"),
        "formulations.self_s": m(secs(mpf, True) + secs(mvf, True), "s/inst"),
        "iterative.multi_start_im_s": m(secs(im), "s/inst"),
        "iterative.im_rounds": m(attr_sum(im, "rounds"), "count/inst"),
        "iterative.self_s": m(secs(im, self_only=True), "s/inst"),
        "maxflow.max_flow.calls": m(count(sel("maxflow.max_flow")), "count/inst"),
        "maxflow.max_flow_s": m(secs(sel("maxflow.max_flow")), "s/inst"),
        "caseio.parse_case_s": m(secs(sel("caseio.parse_case")), "s/inst"),
        "caseio.to_network_s": m(secs(sel("caseio.to_network")), "s/inst"),
        "caseio.deserialize_network_s": m(secs(sel("caseio.deserialize_network")), "s/inst"),
        "caseio.edit_s": m(secs(edits), "s/inst"),
        "model.validate_solution.calls": m(count(sel("model.validate_solution")), "count/inst"),
        "model.validate_solution_s": m(secs(sel("model.validate_solution")), "s/inst"),
        "cli.run_command_s": m(secs(sel("cli.run_command")), "s/inst"),
        "cli.self_s": m(secs(sel("cli.run_command"), self_only=True), "s/inst"),
        "trace.instances_per_s": m(instances_per_s, "1/s"),
        "trace.spans": m(timed_spans * per, "count/inst"),
        "trace.overhead_pct": m(100.0 * timed_spans * per_span_s / timed_s if timed_s else 0.0,
                                "%"),
    }
