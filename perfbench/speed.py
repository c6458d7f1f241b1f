"""Machine-speed probe, so times are reported at one reference speed.

The shared 2-vCPU machine the benchmark was defined on changes speed by up to
1.5x within seconds, whatever runs in the benchmark's own process, so raw wall
times of 30 s runs spread by 12-17% from run to run.  Each timed op is
therefore preceded by `probe()`, a fixed mix of numpy and Python work that
touches no rigidkit code, and each op's time is scaled by REFERENCE_S over the
median probe time around it: the time the op would take on a machine where the
probe takes REFERENCE_S.  A change to rigidkit moves op times but not probe
times, so it shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0023  # about the probe's median on the machine of the baseline
# Probes on each side of an op that estimate its speed.  The speed changes
# within seconds, so a narrow window tracks it best: over 30 s slices of
# 5-7 minute recordings of each workload, windows of 2 gave run-to-run
# spreads of 1-4.4%, windows of 8 up to 8%, and raw times 12-17%.
WINDOW = 2
SETUP_PROBES = 9

_SMALL = np.random.default_rng(0).standard_normal((128, 3, 3))


def probe() -> float:
    """Seconds for small-matrix LAPACK stacks and a Python loop: rigidkit's
    mix of work, without rigidkit.  (A threaded BLAS product tracked op
    times worse and is left out.)"""
    start = time.perf_counter()
    acc = 0.0
    for k in range(0, len(_SMALL), 4):
        block = _SMALL[k : k + 4]
        acc += float(np.linalg.svd(block, compute_uv=False).sum())
        acc += float(np.linalg.eigh(block @ block.transpose(0, 2, 1))[0].sum())
    for i in range(10_000):
        acc += i * 0.5
    return time.perf_counter() - start


def op_factors(probes: list[float], count: int) -> list[float]:
    """Scale factor for each of `count` ops; probes[i] ran just before op i
    and probes[count] after the last op."""
    return [
        REFERENCE_S / statistics.median(probes[max(0, i - WINDOW + 1) : i + WINDOW + 1])
        for i in range(count)
    ]


def here_factor() -> float:
    """Scale factor for work that just finished in this process."""
    return REFERENCE_S / statistics.median(probe() for _ in range(SETUP_PROBES))
