"""Tests for the Gauss-Legendre quadrature module."""

import math

import numpy as np
import pytest

from momentadapt.quadrature import (
    QuadratureError,
    default_order,
    gauss_rule,
    tensor_grid,
)


class TestGaussRule:
    def test_weights_sum_to_one(self):
        for n in (2, 16, 128, 512):
            rule = gauss_rule(n)
            assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)

    def test_nodes_inside_open_interval(self):
        rule = gauss_rule(64)
        assert np.all(rule.nodes > 0) and np.all(rule.nodes < 1)

    def test_polynomial_exactness(self):
        """n-point Gauss integrates monomials up to degree 2n-1 exactly."""
        rule = gauss_rule(8)
        for k in range(16):
            val = rule.integrate(lambda x, k=k: x**k)
            assert val == pytest.approx(1.0 / (k + 1), rel=1e-13)

    def test_smooth_integral(self):
        rule = gauss_rule(32)
        assert rule.integrate(np.exp) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_order_bounds(self):
        with pytest.raises(QuadratureError):
            gauss_rule(1)
        with pytest.raises(QuadratureError):
            gauss_rule(513)

    def test_non_finite_integrand_rejected(self):
        rule = gauss_rule(8)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(QuadratureError):
                rule.integrate(lambda x: 1.0 / (x - x))


class TestTensorGrid:
    def test_default_orders(self):
        assert default_order(1) == 128
        assert default_order(3) == 128
        assert default_order(4) == 32

    def test_weights_sum_to_one(self):
        grid = tensor_grid(3, 8)
        assert np.sum(grid.weights()) == pytest.approx(1.0, abs=1e-13)

    def test_separable_integral(self):
        """int exp(x+y) over the square equals (e-1)^2."""
        grid = tensor_grid(2, 16)
        val = grid.integrate(lambda p: np.exp(p[:, 0] + p[:, 1]))
        assert val == pytest.approx((math.e - 1.0) ** 2, rel=1e-13)

    def test_shape_validation(self):
        grid = tensor_grid(2, 4)
        with pytest.raises(QuadratureError):
            grid.integrate(lambda p: np.ones((p.shape[0], 2)))

