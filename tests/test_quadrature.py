"""Tests for the Gauss-Legendre quadrature module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentadapt.quadrature import (
    MAX_NODES,
    GridBudgetError,
    QuadGridND,
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
        grid = QuadGridND((gauss_rule(8),))
        for k in range(16):
            val = grid.integrate(lambda p, k=k: p[:, 0] ** k)
            assert val == pytest.approx(1.0 / (k + 1), rel=1e-13)

    def test_smooth_integral(self):
        grid = QuadGridND((gauss_rule(32),))
        assert grid.integrate(lambda p: np.exp(p[:, 0])) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_order_bounds(self):
        gauss_rule(2)
        gauss_rule(512)  # the cache is warm at both ends
        for n in (1, 513, 0, -3):
            with pytest.raises(QuadratureError):
                gauss_rule(n)

    def test_rule_built_once_and_read_only(self):
        rule = gauss_rule(64)
        assert gauss_rule(64) is rule
        assert gauss_rule(np.int64(64)) is rule
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_non_finite_integrand_rejected(self):
        grid = QuadGridND((gauss_rule(8),))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(QuadratureError):
                grid.integrate(lambda p: 1.0 / (p[:, 0] - p[:, 0]))


class TestTensorGrid:
    def test_default_orders(self):
        assert default_order(1) == 128
        assert default_order(3) == 128
        assert default_order(4) == 32

    def test_weights_sum_to_one(self):
        grid = tensor_grid(3, 8)
        assert grid.integrate_values(np.ones(grid.n_nodes)) == pytest.approx(1.0, abs=1e-13)

    def test_separable_integral(self):
        """int exp(x+y) over the square equals (e-1)^2."""
        grid = tensor_grid(2, 16)
        val = grid.integrate(lambda p: np.exp(p[:, 0] + p[:, 1]))
        assert val == pytest.approx((math.e - 1.0) ** 2, rel=1e-13)

    def test_shape_validation(self):
        grid = tensor_grid(2, 4)
        with pytest.raises(QuadratureError):
            grid.integrate(lambda p: np.ones((p.shape[0], 2)))
        # 32 values would contract to two "integrals" on the 16-node grid
        for n in (8, 32):
            with pytest.raises(QuadratureError):
                grid.integrate_values(np.ones(n))

    def test_node_budget(self):
        """Grids above MAX_NODES raise a typed error before allocating; the
        doubled grids of default-order 3-D and 4-D grid densities fit."""
        assert MAX_NODES == 2**24
        tensor_grid(3, 256).check_budget()
        tensor_grid(4, 64).check_budget()
        grid = tensor_grid(5, 128)  # 3.4e10 nodes
        for build in (grid.nodes, lambda: grid.integrate_values(np.ones(3)), grid.check_budget):
            with pytest.raises(GridBudgetError):
                build()
        assert issubclass(GridBudgetError, QuadratureError)


def _outer_weight_integral(orders, vals):
    """Reference: the joint weight vector built by explicit outer products."""
    w = np.ones(1)
    for n in orders:
        w = np.outer(w, gauss_rule(n).weights).ravel()
    return vals @ w


@settings(max_examples=60, deadline=None)
@given(
    orders=st.lists(st.integers(2, 12), min_size=1, max_size=3),
    batch=st.sampled_from([(), (1,), (3,), (2, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_integrate_values_matches_outer_weights(orders, batch, seed):
    """Axis-by-axis contraction of anisotropic grids equals the sum against
    the full outer-product weight vector, leading batch axes kept."""
    grid = QuadGridND(tuple(gauss_rule(n) for n in orders))
    vals = np.random.default_rng(seed).random(batch + (grid.n_nodes,)) + 0.5
    got = grid.integrate_values(vals)
    ref = _outer_weight_integral(orders, vals)
    if batch:
        assert got.shape == batch
    else:
        assert isinstance(got, float)
    np.testing.assert_allclose(got, ref, rtol=1e-13)
