"""Dual-number forward-mode differentiation tests."""

import math

import numpy as np
import pytest

from oracle import dual_eval
from platoonsim import controller as ctrl
from platoonsim.autodiff import Dual, gradient


def central_diff(fn, args, i, h=1e-6):
    hi = list(args)
    lo = list(args)
    hi[i] += h
    lo[i] -= h
    return (fn(*hi) - fn(*lo)) / (2 * h)


class TestDualEval:
    def test_square(self):
        value, deriv = dual_eval(lambda x: x * x, (3.0,), (1.0,))
        assert value == 9.0 and deriv == 6.0

    def test_directional_derivative(self):
        fn = lambda x, y: x * y + 2.0 * x
        value, deriv = dual_eval(fn, (1.5, -2.0), (1.0, 2.0))
        # grad = (y + 2, x) = (0, 1.5); direction (1, 2) -> 3.0
        assert value == pytest.approx(1.5 * -2.0 + 3.0)
        assert deriv == pytest.approx(3.0)

    def test_constant_function(self):
        value, deriv = dual_eval(lambda x: 4.2, (1.0,), (1.0,))
        assert value == 4.2 and deriv == 0.0


class TestArithmetic:
    def test_composite_expression_matches_finite_differences(self):
        def fn(x, y, z):
            return (x * y - 3.0) / (z + x * x) + np.log(y / z) - (2.0 - x) * y ** 2

        rng = np.random.default_rng(4)
        for _ in range(20):
            x, y, z = rng.uniform(0.5, 3.0, size=3)
            value, grad = gradient(fn, (x, y, z))
            assert value == pytest.approx(fn(x, y, z), rel=1e-14)
            for i in range(3):
                assert grad[i] == pytest.approx(central_diff(fn, (x, y, z), i),
                                                rel=1e-6, abs=1e-8)

    def test_five_direction_gradient(self):
        def fn(a, b, c, d, e):
            return a * b + b * c * c - d / e + 0.5 * a

        point = (1.0, 2.0, 3.0, 4.0, 5.0)
        _, grad = gradient(fn, point)
        expected = (2.0 + 0.5, 1.0 + 9.0, 12.0, -0.2, 4.0 / 25.0)
        assert grad == pytest.approx(expected, rel=1e-14)

    def test_right_hand_operations(self):
        x = Dual(2.0, (1.0,))
        assert (3.0 - x).value == 1.0 and (3.0 - x).grad[0] == -1.0
        assert (3.0 / x).value == 1.5 and (3.0 / x).grad[0] == pytest.approx(-0.75)
        assert (3.0 * x).grad[0] == 3.0
        assert (3.0 + x).grad[0] == 1.0

    def test_power(self):
        x = Dual(2.0, (1.0, 0.0))
        y = x ** 3
        assert y.value == 8.0 and y.grad == (12.0, 0.0)

    def test_log_on_floats_passes_through(self):
        # the barrier transform's logarithm: math.log on floats, Dual.log on duals
        assert ctrl._log(math.e) == pytest.approx(1.0)
        assert type(ctrl._log(2.0)) is float

    def test_log_chain_rule(self):
        x = Dual(2.0, (1.0,))
        y = np.log(x * x)
        assert type(y) is Dual and type(ctrl._log(x * x)) is Dual
        assert y.value == pytest.approx(math.log(4.0))
        assert y.grad[0] == pytest.approx(1.0)
