"""A fixed reference computation that tracks how fast the machine runs right now.

On a shared machine the speed one process gets swings by 20 % or more
within a minute, much more than the changes the benchmark has to see. The
benchmark therefore runs a short slice of this fixed computation before the
first job of a repetition and after every job, and scales the repetition's
time by ``REFERENCE_SLICE_S`` over the mean slice time. The result is the
repetition's time on the reference machine: seconds as they would read at
the speed that machine had when ``REFERENCE_SLICE_S`` was measured. On a
2-core virtual machine this cut the spread of a workload's time across runs
from about 20 % to a few percent.

The slice mixes the kinds of work the jobs do: small dense complex linear
algebra (LAPACK), a matrix product (BLAS), FFTs, JSON encoding and
interpreted Python. It does not touch oparma, so a change to the program
leaves it alone.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: typical mean slice time within a benchmark run on the reference machine:
#: a 2-core Intel Xeon virtual machine, OpenBLAS 0.3.31 on one thread,
#: Python 3.11, numpy 2.4
REFERENCE_SLICE_S = 0.021


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self.medium = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.rows = rng.standard_normal((300, 8)).tolist()
        self.samples = []
        for _ in range(3):  # first calls pay for workspaces and plans
            self.slice()
        self.samples.clear()

    def slice(self) -> float:
        """Run the fixed computation once; return its wall time."""
        t0 = time.perf_counter()
        for _ in range(12):
            np.linalg.svd(self.small)
            np.linalg.solve(self.small, self.small)
            np.fft.fft(self.small, axis=0)
        self.medium @ self.medium @ self.medium
        json.dumps(self.rows)
        json.dumps(self.rows)
        acc = 0
        for i in range(60000):
            acc += i * i
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def scale(self, elapsed: float, slices: list) -> float:
        """``elapsed`` seconds, measured among ``slices``, at reference speed."""
        return elapsed * REFERENCE_SLICE_S * len(slices) / sum(slices)
