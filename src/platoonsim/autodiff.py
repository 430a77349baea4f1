"""Forward-mode automatic differentiation on dual numbers.

A :class:`Dual` carries a value and a tuple of partial derivatives with
respect to a fixed set of seed directions.  Arithmetic propagates the
derivative part exactly (no finite differencing).  The control laws use
closed-form partials and build no dual number; the tests use dual numbers
as the reference for those closed forms.
"""

from __future__ import annotations

import math


class Dual:
    """Value plus gradient against a fixed set of seed directions."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = value
        self.grad = grad if type(grad) is tuple else tuple(grad)

    def __repr__(self):
        return f"Dual({self.value!r}, {self.grad!r})"

    def __neg__(self):
        return Dual(-self.value, tuple(-x for x in self.grad))

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value,
                        tuple(x + y for x, y in zip(self.grad, other.grad)))
        return Dual(self.value + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value,
                        tuple(x - y for x, y in zip(self.grad, other.grad)))
        return Dual(self.value - other, self.grad)

    def __rsub__(self, other):
        return Dual(other - self.value, tuple(-x for x in self.grad))

    def __mul__(self, other):
        if isinstance(other, Dual):
            u, v = self.value, other.value
            return Dual(u * v, tuple(x * v + u * y for x, y in zip(self.grad, other.grad)))
        return Dual(self.value * other, tuple(x * other for x in self.grad))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.value
            val = self.value * inv
            return Dual(val, tuple((x - val * y) * inv
                                   for x, y in zip(self.grad, other.grad)))
        inv = 1.0 / other
        return Dual(self.value * inv, tuple(x * inv for x in self.grad))

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        val = other * inv
        scale = -val * inv
        return Dual(val, tuple(scale * x for x in self.grad))

    def __pow__(self, n):
        # integer/float powers of the value part only
        scale = n * self.value ** (n - 1)
        return Dual(self.value ** n, tuple(scale * x for x in self.grad))

    def log(self):
        """Natural logarithm; ``np.log`` of a dual number calls this."""
        inv = 1.0 / self.value
        return Dual(math.log(self.value), tuple(inv * y for y in self.grad))


def seed_variables(values):
    """Lift ``values`` into duals with unit seeds (one direction per input)."""
    n = len(values)
    return tuple(Dual(v, tuple(1.0 if k == i else 0.0 for k in range(n)))
                 for i, v in enumerate(values))


def gradient(fn, inputs):
    """Value and full gradient of ``fn`` at ``inputs`` in one forward sweep."""
    out = fn(*seed_variables(tuple(inputs)))
    if isinstance(out, Dual):
        return out.value, out.grad
    return out, (0.0,) * len(inputs)

