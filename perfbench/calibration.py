"""Machine-speed probe that the benchmark's end-to-end timings are scaled by.

On a shared two-vCPU virtual machine the same replay runs up to 35 % faster
or slower for minutes at a time, as the host's other tenants come and go. A
30 s run sits inside one such phase, so raw timings of identical runs spread
by about as much as the loosest regression bound allows. The probe runs a
fixed kernel that does not use dynlo, shaped like its work (a k-d tree query,
batched 3x3 eigendecompositions, an interpreter-bound loop), between the
replays for a fixed share of their time. Over eight identical runs of one
workload and seed this cut the quartile spread of ``scans_per_s`` and
``scan_ms_p50`` from about 0.2 to 0.04-0.1.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.spatial import cKDTree

# mean kernel time between replays on the 2-vCPU VM the benchmark was tuned
# on, in its usual phase: scaled timings read as milliseconds there
REFERENCE_S = 0.016

_POINTS = np.random.default_rng(0).random((2000, 3))


def _kernel() -> None:
    nn = cKDTree(_POINTS).query(_POINTS, k=10)[1]
    neigh = _POINTS[nn]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered))
    acc = 0.0
    for i in range(20000):
        acc += math.sqrt(i % 97)


class SpeedProbe:
    """Accumulates kernel runs of one benchmark run."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self.runs = 0

    def sample(self, budget_s: float) -> None:
        """Run the kernel at least once and until ``budget_s`` is spent."""
        t_end = time.perf_counter() + budget_s
        while True:
            t0 = time.perf_counter()
            _kernel()
            t1 = time.perf_counter()
            self.total_s += t1 - t0
            self.runs += 1
            if t1 >= t_end:
                return

    @property
    def factor(self) -> float:
        """``REFERENCE_S`` over this run's mean kernel time: above 1 when the
        machine runs fast, so a duration times the factor is the duration at
        reference speed."""
        return REFERENCE_S / (self.total_s / self.runs)
