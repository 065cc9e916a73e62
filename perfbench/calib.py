"""CPU speed probe for a shared host.

The host this benchmark runs on is shared: the same work can take 40% longer
from one minute to the next, in CPU time as much as in wall time, because
other tenants load the same cores, caches and memory.  A fixed reference
kernel, run right before and after each timed command in the same process,
measures how slow the CPU is at that moment; run.py divides each command's
time by the slowdown of its two neighbouring probes.  The kernel mixes the
kinds of work hopsign does: elementwise complex numpy over a stack of small
matrices, a small LAPACK call and interpreted Python with string formatting.
It imports nothing from hopsign, so a change to hopsign cannot move it.
"""

import time

import numpy as np

PROBE_S = 0.1            # length of one probe
REF_UNIT_S = 1.2e-3      # time of one kernel unit on an unloaded reference
                         # CPU (2-core Intel Xeon VM); normalised times are
                         # seconds on that CPU

_rng = np.random.default_rng(12345)
_Z = _rng.standard_normal((8, 32, 32)) + 1j * _rng.standard_normal((8, 32, 32))
_A = _rng.standard_normal((24, 24))


def _unit():
    z = _Z
    for _ in range(6):
        w = z * 0.999 + 1j * z.conj()
        z = w / np.abs(w).max()
    np.linalg.eigvals(_A)
    s = 0
    for i in range(6000):
        s += i * i % 7
    return "%.17g" % (s + z.real.sum())


def slowdown(seconds=PROBE_S):
    """Mean time of a kernel unit over about `seconds`, divided by
    REF_UNIT_S: 1.0 on the reference CPU, 1.4 when the CPU runs 40%
    slower."""
    _unit()                       # warm caches and lazy imports
    n, t0 = 0, time.perf_counter()
    end = t0 + seconds
    while True:
        _unit()
        n += 1
        t = time.perf_counter()
        if t >= end:
            return (t - t0) / n / REF_UNIT_S
