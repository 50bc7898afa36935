"""Host-speed calibration: two fixed kernels that share no code with the
program, timed next to every op so that `op_s` can be given at a nominal
host speed.

On a shared virtual machine the speed of one fixed op drifts by a quarter
or more over minutes, for pure-Python and numpy code alike (see README.md,
"Steadiness").  A run divides each op's wall time by a kernel's time taken
around it and multiplies by the kernel's nominal time.  A change to the
program moves the op and not the kernel, so it moves `op_s` in full.

    python3 perfbench/calibrate.py      # print each kernel's time here
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REPEATS = 5


class _Pair:
    """a + b*w with w^2 = -1 - w: the shape of the ring arithmetic in the
    table and admissibility ops, without importing it."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def __mul__(self, o: "_Pair") -> "_Pair":
        bd = self.b * o.b
        return _Pair(self.a * o.a - bd, self.a * o.b + self.b * o.a - bd)

    def __add__(self, o: "_Pair") -> "_Pair":
        return _Pair(self.a + o.a, self.b + o.b)


_MOD = 3**13


def _python_kernel() -> None:
    x = _Pair(1, 2)
    step = _Pair(4, 7)
    for i in range(1500):
        x = x * step + _Pair(i, 1)
        x = _Pair(x.a % _MOD, x.b % _MOD)
    if x.a == x.b == -1:  # keep the loop from being dead code
        raise AssertionError


_TABLE = np.random.default_rng(0).permuted(
    np.tile(np.arange(243, dtype=np.int16), (243, 1)), axis=1
)


def _numpy_kernel() -> None:
    t = _TABLE
    same = 0
    for x in range(0, 243, 16):
        same += int((t[t[x], :] == t[x][t]).sum())
    if same < 0:
        raise AssertionError


# Kernel times on a 2-vCPU Intel Xeon 2.1 GHz virtual machine, median of
# REPEATS runs; `op_s` is given at this speed.
KERNELS = {
    "python": (_python_kernel, 1.4e-3),
    "numpy": (_numpy_kernel, 2.9e-3),
}


def kernel_seconds(kind: str) -> float:
    """Median wall time of REPEATS runs of one kernel."""
    kernel, _ = KERNELS[kind]
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def nominal_seconds(kind: str) -> float:
    return KERNELS[kind][1]


if __name__ == "__main__":
    for kind in KERNELS:
        runs = [kernel_seconds(kind) for _ in range(50)]
        print(f"{kind}: median {statistics.median(runs):.4g} s, nominal {nominal_seconds(kind):.4g} s")
