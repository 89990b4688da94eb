"""The three benchmark workloads.

Each workload builds its inputs in :meth:`setup` through the program's own
converters, runs instance ``k`` (``0 <= k < pass_size``) per :meth:`run` call
through the public API or the ``factsflow`` CLI, and afterwards checks every
recorded output against the HiGHS reference in :meth:`check`.  A run makes
whole passes over the same ``pass_size`` instances, so the share of failed
operations is the same in every run.  ``KERNEL`` is the shape of the
calibration kernel (rows, columns, steps, reference seconds) that normalises
the workload's timings, sized like its LPs.
"""

from __future__ import annotations

import csv
import os

from factsflow import caseio, cli, formulations, maxflow, mip, model

import inputs

#: Relative agreement asked of every value checked against the reference.
REL_TOL = 1e-6
#: Half a unit in the last place of the scenario CSV's six-decimal columns.
CSV_HALF_ULP = 5e-7


def close(value: float, ref: float, slack: float = 0.0) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref)) + slack


class Scenario:
    """``factsflow scenario`` trials on congested synthetic grids.

    200 seeded 8-bus cases (17 buses and 20 lines once boundary lines
    are added).  Instance ``k`` is one in-process
    ``factsflow scenario --trials 1 --jobs 1`` call on case ``k`` with its
    own scenario seed: 2 lines removed, 30 % of the lines given a +/-30 %
    interval, generation and demand limits scaled by 3 so lines bind.
    """

    name = "scenario-congested"
    BUSES, GRIDS, FACTOR = 8, 200, 3.0
    pass_size = GRIDS
    KERNEL = (100, 250, 130, 0.0029)
    REMOVE, FACTS_FRAC, INTERVAL_PCT = 2, 0.3, 30.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.csv_path = os.path.join(workdir, "trial.csv")

    def setup(self) -> None:
        self.nets, self.paths, self._variants = [], [], {}
        for g in range(self.GRIDS):
            net = caseio.to_network(caseio.parse_case(inputs.case_text(self.BUSES, f"{self.seed}.{g}")))
            path = os.path.join(self.workdir, f"grid{g}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(caseio.serialize_network(net))
            self.nets.append(net)
            self.paths.append(path)

    def trial_seed(self, k: int) -> int:
        return inputs.rng_for(self.seed, "trial", k).getrandbits(48)

    def run(self, k: int):
        argv = ["scenario", self.paths[k], "--trials", "1", "--jobs", "1",
                "--remove-lines", str(self.REMOVE), "--facts-frac", str(self.FACTS_FRAC),
                "--interval-pct", str(self.INTERVAL_PCT), "--gen-factor", str(self.FACTOR),
                "--load-factor", str(self.FACTOR), "--seed", str(self.trial_seed(k)),
                "-o", self.csv_path]
        status = cli.run_command(argv)
        if status != 0:
            raise RuntimeError(f"factsflow scenario exited with {status}")
        with open(self.csv_path, newline="", encoding="utf-8") as fh:
            (row,) = list(csv.DictReader(fh))
        return row

    def variant(self, k: int):
        """The trial's network, rebuilt once with the same edits the CLI applies."""
        if k not in self._variants:
            seed = caseio.derive_seed(self.trial_seed(k), 0)
            net = caseio.remove_random_lines(self.nets[k], self.REMOVE, seed)
            net = caseio.assign_facts(net, self.FACTS_FRAC, self.INTERVAL_PCT,
                                      caseio.derive_seed(seed, 1))
            self._variants[k] = seed, caseio.apply_congestion_factors(net, self.FACTOR,
                                                                      self.FACTOR)
        return self._variants[k]

    def check(self, k: int, row, ref) -> str | None:
        seed, net = self.variant(k)
        if int(row["seed"]) != seed:
            return f"trial seed {row['seed']} is not {seed}"
        mpf, im, mff, gap, mf = (float(row[k]) for k in ("mpf", "im", "mff", "gap", "mf"))
        mid = {ln.key: 0.5 * (ln.s_min + ln.s_max) for ln in net.lines}
        ref_mf, ref_mpf, ref_mff = ref.max_flow(net), ref.mpf(net, mid), ref.mff(net)
        slack = CSV_HALF_ULP
        upper = mff + gap * max(1.0, abs(mff))
        if not close(mf, ref_mf, slack):
            return f"MF {mf} != reference {ref_mf}"
        if not close(mpf, ref_mpf, slack):
            return f"MPF {mpf} != reference {ref_mpf}"
        if mff > ref_mff + REL_TOL * max(1.0, ref_mff) + slack:
            return f"MFF {mff} above the reference optimum {ref_mff}"
        if ref_mff - mff > 1e-4 * max(1.0, abs(mff)) + REL_TOL * max(1.0, ref_mff) + slack:
            return f"MFF {mff} outside the 1e-4 gap of reference {ref_mff}"
        if upper < ref_mff - REL_TOL * max(1.0, ref_mff) - 2 * slack * max(1.0, abs(mff)):
            return f"MFF upper bound {upper} below reference {ref_mff}"
        tol = REL_TOL * max(1.0, mf) + slack
        if not (mpf <= im + tol and im <= mff + tol and mff <= mf + tol):
            return f"order mpf <= im <= mff <= mf broken: {mpf} {im} {mff} {mf}"
        return None


class MffCold:
    """Cold exact solves (no warm start, gap 1e-9) of small meshes.

    A pass is a fixed panel of eight meshes, which do not depend on the seed,
    then the 255 seeded meshes.  All meshes but the first four panel meshes
    have 5-9 buses and 2-4 chords (in equal shares, by mesh index) and 4
    controllable lines.  The seeded meshes give those lines ``[s, t]``
    intervals with ``s > 0``.

    The panel holds two known faults, which fail in every pass until they
    are mended:

    * meshes 0, 6, 17 and 21 of a sparse all-``[s, inf)`` family, on which a
      cold solve disagrees with the reference because
      ``mip._build_reduced_relaxation`` drops the ``f <= s_hi * d`` rows of
      unbounded intervals;
    * meshes 0, 1, 2 and 237 of the family drawn with seed 1 that mixes
      ``[s, t]`` and ``[0, t]`` intervals.  Mesh 237 comes out 0.12 % below
      the optimum with an upper bound below it too, which ``[0, t]`` lines
      bring about now and then (their big-M is a thousand times their
      capacity); a seeded ``[0, t]`` share would make the failed count
      depend on the seed, so the shape is kept to this panel.
    """

    name = "mff-cold"
    S_INF_PANEL = (0, 6, 17, 21)
    ZERO_T_PANEL = (0, 1, 2, 237)
    SEEDED = 255
    pass_size = len(S_INF_PANEL) + len(ZERO_T_PANEL) + SEEDED
    KERNEL = (48, 100, 150, 0.002)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    @staticmethod
    def _mesh(seed, k: int, shapes: tuple[str, ...]):
        # Bus and chord counts are stratified over the set, not drawn, so
        # that every seed holds the same mix of mesh sizes.
        return inputs.small_mesh(seed, k, shapes, controllable=4,
                                 buses=(5 + k % 5,) * 2, extra_lines=2 + k // 5 % 3)

    def setup(self) -> None:
        self.meshes = [inputs.small_mesh("panel", k, ("s_inf",), controllable=99,
                                         buses=(4, 7), extra_lines=1) for k in self.S_INF_PANEL]
        self.meshes += [self._mesh(1, k, ("s_t", "zero_t")) for k in self.ZERO_T_PANEL]
        self.meshes += [self._mesh(self.seed, k, ("s_t",)) for k in range(self.SEEDED)]

    def run(self, k: int):
        return mip.solve_mff(self.meshes[k], mip.MffConfig(gap_tol=1e-9))

    def check(self, k: int, result, ref) -> str | None:
        net = self.meshes[k]
        value = ref.mff(net)
        if not close(result.objective, value):
            return f"cold MFF {result.objective} != reference {value} ({result.termination})"
        if result.upper_bound < value - REL_TOL * max(1.0, value):
            return f"cold MFF upper bound {result.upper_bound} below reference {value}"
        report = model.validate_solution(net, result.solution)
        if not report.ok:
            return f"solution rejected: {report}"
        return None


class MpfGrid:
    """MF and MPF at the lower, mid and upper susceptance points of large grids.

    Four seeded 100-bus cases (213 buses and 253 lines each with boundary
    lines) go through ``parse_case``, ``to_network``, ``assign_facts`` (30 %
    of the lines get a +/-30 % interval) and a network-JSON round trip.  A
    pass is four instances on each case: MF, then MPF at each point.
    """

    name = "mpf-grid"
    BUSES, GRIDS = 100, 4
    SOLVES = ("mf", "lower", "mid", "upper")
    pass_size = GRIDS * len(SOLVES)
    KERNEL = (466, 1500, 55, 0.048)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        self.nets, self.points = [], []
        for g in range(self.GRIDS):
            net = caseio.to_network(caseio.parse_case(inputs.case_text(self.BUSES, f"{self.seed}.{g}")))
            net = caseio.assign_facts(net, 0.3, 30.0, inputs.rng_for(self.seed, "facts", g).getrandbits(48))
            net = caseio.deserialize_network(caseio.serialize_network(net))
            self.nets.append(net)
            self.points.append({
                "lower": {ln.key: ln.s_min for ln in net.lines},
                "mid": {ln.key: 0.5 * (ln.s_min + ln.s_max) for ln in net.lines},
                "upper": {ln.key: ln.s_max for ln in net.lines},
            })

    def run(self, k: int):
        g, solve = divmod(k, len(self.SOLVES))
        point = self.SOLVES[solve]
        if point == "mf":
            return maxflow.max_flow(self.nets[g]).value
        return formulations.solve_mpf(self.nets[g], self.points[g][point]).value

    def check(self, k: int, value, ref) -> str | None:
        g, solve = divmod(k, len(self.SOLVES))
        point, net = self.SOLVES[solve], self.nets[g]
        ref_mf = ref.max_flow(net)
        if point == "mf":
            return None if close(value, ref_mf) else f"MF {value} != reference {ref_mf}"
        ref_mpf = ref.mpf(net, self.points[g][point])
        if not close(value, ref_mpf):
            return f"MPF at {point} {value} != reference {ref_mpf}"
        if value > ref_mf + REL_TOL * max(1.0, ref_mf):
            return f"MPF at {point} {value} above MF {ref_mf}"
        return None


WORKLOADS = {w.name: w for w in (Scenario, MffCold, MpfGrid)}
