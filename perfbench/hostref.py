"""The host-speed reference: a fixed numpy kernel that never calls biharwave.

The shared host's speed drifts by up to +-25% over minutes, in CPU time as
much as in wall time, and one run of 20-40 s sees a single point of that
drift.  So a run times this kernel right after every job, while the core is
still busy, and scales its times (set-up included) by the median of those
samples against REFERENCE_S, the kernel's time on the 2-vCPU Xeon the
benchmark was written on.  A cli job samples it in its child, after the
command: sampled in the parent after it waited for a child, the kernel reads
about a third slower than the command ran.
"""

import time

import numpy as np

REFERENCE_S = 0.034

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal(150_000)
_A = _RNG.standard_normal((160, 160))


def sample() -> float:
    """Seconds the reference kernel takes now (about 34 ms on the reference host)."""
    start = time.perf_counter()
    for _ in range(4):
        np.exp(1j * _X).sum()
        (_A @ _A).sum()
        np.sqrt(np.abs(_X)).sum()
    return time.perf_counter() - start
