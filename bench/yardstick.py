"""Host-speed yardstick: a fixed computation timed between solves.

The benchmark runs on virtual machines that share their cores with other
tenants.  There the same solve can run a third slower for minutes at a
time, and CPU time slows with wall time, so the loss cannot be told apart
from the program's own cost by timing the program alone.  The kernel
below does a fixed mix of the work fsgreens does (interpreted loops,
small NumPy calls, element-wise work, BLAS products, LAPACK solves and
streaming over arrays larger than a core's L2 cache) and uses no fsgreens
code, so a change to the library cannot move it.

Each timed solve is bracketed by two yardstick runs.  Its time is reported
as seconds at the yardstick speed: the measured seconds times
`YARDSTICK_S / yardstick`, with `yardstick` the median of the brackets of
the solve and of its neighbours in the batch, which follows swings that
last seconds and ignores a single disturbed yardstick run.
When the host runs at the speed the benchmark was calibrated on, a scaled
time equals the measured one.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median time of one `yardstick()` call on the machine the benchmark was
# defined on (2 vCPUs of a shared Intel Xeon at 2.1 GHz, one BLAS thread).
YARDSTICK_S = 0.021

_rng = np.random.default_rng(20071)
_VEC = _rng.standard_normal(4096)
_MAT = _rng.standard_normal((160, 160))
_SPD = _MAT @ _MAT.T + 160.0 * np.eye(160)
# Two 4 MB arrays: more than a core's L2 cache, so streaming over them
# feels the memory traffic of other tenants as the large 2D solves do.
_BIG = _rng.standard_normal(1 << 19)
_BIG_OUT = np.empty_like(_BIG)


def _kernel() -> float:
    acc = 0.0
    for i in range(30000):                  # the interpreter
        acc += i * 0.5
    x = _VEC[:8]
    for _ in range(750):                    # per-call NumPy overhead
        acc += float(np.dot(x, x) + x.sum())
    for _ in range(75):                     # element-wise arrays
        acc += float((np.sin(_VEC) * _VEC + _VEC)[0])
    for _ in range(12):                     # BLAS
        acc += float((_MAT @ _MAT)[0, 0])
    for _ in range(2):                      # LAPACK
        acc += float(np.linalg.solve(_SPD, _MAT)[0, 0])
    for _ in range(10):                     # memory traffic
        np.multiply(_BIG, 0.5, out=_BIG_OUT)
        np.add(_BIG_OUT, _BIG, out=_BIG_OUT)
        acc += float(_BIG_OUT[0])
    return acc


def yardstick() -> float:
    """Seconds one run of the yardstick kernel takes now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def scale(*samples: float) -> float:
    """Factor from measured seconds to seconds at the yardstick speed, for
    work done while the yardstick took the median of `samples`."""
    return YARDSTICK_S / statistics.median(samples)
