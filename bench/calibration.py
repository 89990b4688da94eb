"""A fixed kernel that measures how fast the machine runs at the moment.

On a shared host the same call takes up to 1.7 times longer from one second
to the next, and a run's mean speed moves by 10-15 % from minute to minute,
in CPU seconds as much as in wall seconds.  Each instance run is therefore
followed by one run of this kernel, and the instance's cost is reported as

    reference_s * (instance CPU seconds) / (kernel CPU seconds),

summed over the run: the seconds the instance would take on a machine where
the kernel takes ``reference_s``, its median CPU time on the machine the
reference figures in ``README.md`` come from.  Whatever slows the machine slows both, and
the quotient stays.  The kernel is the benchmark's own code and calls nothing
in ``factsflow``, so a change to the program moves the quotient in full.

The kernel mirrors the work of a dense simplex iteration: a row vector times
the tableau, an argmin, a rank-one update of the tableau, plus a short stretch
of interpreted Python that builds a dict, the way the formulations build
their programs.  Its shape is chosen per workload to match the size of that
workload's LPs.  The update adds and subtracts the same outer product in turn,
so the entries stay in range and no denormal or overflow slows it.  The
arrays are allocated once: a fresh large array per step would be served by
``mmap`` or by the heap depending on what the process freed before, and the
kernel's speed would then depend on the process's history.
"""

from __future__ import annotations

import time

import numpy as np


class Kernel:
    """A ``rows`` x ``cols`` tableau, ``steps`` iterations per run.

    ``reference_s`` only sets the unit of the normalised costs, not their
    spread.
    """

    def __init__(self, rows: int, cols: int, steps: int, reference_s: float):
        rng = np.random.default_rng(20150721)
        self.tableau = rng.uniform(1.0, 2.0, (rows, cols))
        self.cost = rng.uniform(-1.0, 1.0, cols)
        self.weights = rng.uniform(0.0, 1.0, rows)
        self.update = np.outer(rng.uniform(-1e-3, 1e-3, rows), rng.uniform(-1e-3, 1e-3, cols))
        self.reduced = np.empty(cols)
        self.steps = steps
        self.reference_s = reference_s
        self.sink = 0

    def run(self) -> float:
        """CPU seconds of one run of the kernel."""
        t, update, reduced = self.tableau, self.update, self.reduced
        c0 = time.process_time()
        for step in range(self.steps):
            np.dot(self.weights, t, out=reduced)
            np.subtract(self.cost, reduced, out=reduced)
            j = int(reduced.argmin())
            if step % 2:
                t += update
            else:
                t -= update
            row = {i: float(i + j) for i in range(40)}
            self.sink += len(row)
        return time.process_time() - c0
