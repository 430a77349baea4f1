"""Machine-speed calibration shared by run.py and setup_probe.py.

Shared machines slow down and speed up by up to 2x within seconds.  Each
timing is divided by the speed factor that a fixed kernel measures right
next to it, so the benchmark's times read as seconds at full speed.
"""

import math
import time

import numpy as np

# Time of calibration_kernel at full speed on a 2-CPU Xeon KVM guest with
# Python 3.11 and numpy 2.4; it only sets the scale of the normalised times.
REFERENCE_S = 0.0045
KERNEL_LOOPS = 750      # REFERENCE_S holds for this many loops only


class _Pair:
    """A value with a two-entry gradient, built anew by every operation like autodiff.Dual."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = value
        self.grad = grad

    def __add__(self, other):
        return _Pair(self.value + other.value, (self.grad[0] + other.grad[0],
                                                self.grad[1] + other.grad[1]))

    def __mul__(self, other):
        return _Pair(self.value * other.value,
                     (self.value * other.grad[0] + other.value * self.grad[0],
                      self.value * other.grad[1] + other.value * self.grad[1]))

    def log(self):
        return _Pair(math.log(self.value), (self.grad[0] / self.value,
                                            self.grad[1] / self.value))


def calibration_kernel():
    """Fixed work of the engine's three kinds, in about equal parts.

    9-element numpy operations; dual-number style object arithmetic; and
    allocation of small tuples, lists and a dict.  Each kind alone followed
    the engine's slowdowns less closely than the three together.
    """
    n = KERNEL_LOOPS
    a = np.linspace(0.0, 1.0, 9)
    acc = 0.0
    for i in range(n):
        b = a * 1.0001 + 0.5
        c = np.sin(b) + b[::-1]
        acc += float(c[3]) * 0.5 + math.log(1.0 + float(c[4]) + i)
    x, y = _Pair(1.5, (1.0, 0.0)), _Pair(0.5, (0.0, 1.0))
    quarter, one = _Pair(0.25, (0.0, 0.0)), _Pair(1.0, (0.0, 0.0))
    for _ in range(n // 2):
        z = (x * y + x) * quarter + one
        w = z.log() + y * z
        acc += w.value + w.grad[0]
    table = {}
    for i in range(4 * n):
        table[(i, i * 7 % 13)] = [float(i), i * 0.5]
    for key, value in table.items():
        acc += value[0] * value[1] + key[1]
    return acc


def speed_factor():
    """Kernel time over its full-speed reference (above 1 when the machine is slow)."""
    start = time.perf_counter()
    calibration_kernel()
    return (time.perf_counter() - start) / REFERENCE_S


def calibrated(fn):
    """``fn()`` and the mean speed factor measured just before and just after it."""
    before = speed_factor()
    value = fn()
    after = speed_factor()
    return value, 0.5 * (before + after)
