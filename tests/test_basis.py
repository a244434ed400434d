"""Tests for the shifted-Legendre basis module."""

import math

import numpy as np
import pytest

from momentadapt.basis import (
    DegreeError,
    build_legendre_basis,
    coefficient_abs_sums,
    feature_table,
    make_tensor_basis,
)
from momentadapt.quadrature import gauss_rule

# printed monomial forms of eta_1..eta_5 (low-to-high powers, before the
# sqrt(2n+1) scaling)
PRINTED_INT_COEFFS = {
    1: [-1, 2],
    2: [1, -6, 6],
    3: [-1, 12, -30, 20],
    4: [1, -20, 90, -140, 70],
    5: [-1, 30, -210, 560, -630, 252],
}


class TestLegendreBasis:
    def test_printed_coefficients_exact(self):
        """eta_n coefficients equal sqrt(2n+1) times integer Legendre rows."""
        basis = build_legendre_basis(5)
        for n, ints in PRINTED_INT_COEFFS.items():
            scale = math.sqrt(2 * n + 1)
            expected = np.zeros(6)
            expected[: n + 1] = scale * np.array(ints, dtype=float)
            np.testing.assert_array_equal(basis.coeffs[n], expected)

    def test_gram_matrix_identity(self):
        """Exact Gram matrix of eta_0..eta_5 is the identity."""
        gram = build_legendre_basis(5).gram_matrix()
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)

    def test_gram_matrix_identity_high_degree(self):
        gram = build_legendre_basis(10).gram_matrix()
        np.testing.assert_allclose(gram, np.eye(11), atol=1e-9)

    def test_recurrence_matches_monomial_evaluation(self):
        """Stable recurrence equals direct polynomial evaluation."""
        basis = build_legendre_basis(6)
        x = np.linspace(0, 1, 33)
        rec = basis.eval_all(x)
        for n in range(7):
            direct = np.polynomial.polynomial.polyval(x, basis.coeffs[n])
            np.testing.assert_allclose(rec[:, n], direct, atol=1e-10)

    def test_quadrature_orthonormality(self):
        """Numerical inner products reproduce the identity."""
        basis = build_legendre_basis(8)
        rule = gauss_rule(32)
        vals = basis.eval_all(rule.nodes)
        gram = vals.T @ (vals * rule.weights[:, None])
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)

    def test_endpoint_values(self):
        """eta_n(1) = sqrt(2n+1), eta_n(0) = (-1)^n sqrt(2n+1)."""
        basis = build_legendre_basis(7)
        at1 = basis.eval_all(np.array([1.0]))[0]
        at0 = basis.eval_all(np.array([0.0]))[0]
        for n in range(8):
            assert at1[n] == pytest.approx(math.sqrt(2 * n + 1), abs=1e-12)
            assert at0[n] == pytest.approx((-1) ** n * math.sqrt(2 * n + 1), abs=1e-12)

    def test_degree_bounds(self):
        with pytest.raises(DegreeError):
            build_legendre_basis(0)
        with pytest.raises(DegreeError):
            build_legendre_basis(31)

    def test_json_round_trip(self):
        import json

        basis = build_legendre_basis(3)
        loaded = json.loads(basis.to_json())
        np.testing.assert_allclose(np.array(loaded), basis.coeffs)


def _plain_recurrence(m, x):
    """eta_0..eta_m at x by the three-term recurrence with a fresh array per
    operation, stacked on a last axis."""
    u = 2.0 * np.asarray(x, dtype=float) - 1.0
    out = np.empty(u.shape + (m + 1,))
    p_prev, p_cur = np.ones_like(u), u.copy()
    out[..., 0] = p_prev
    out[..., 1] = math.sqrt(3.0) * p_cur
    for n in range(1, m):
        p_next = ((2 * n + 1) * u * p_cur - n * p_prev) / (n + 1)
        out[..., n + 1] = math.sqrt(2 * n + 3) * p_next
        p_prev, p_cur = p_cur, p_next
    return out


class TestEvalAll:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 12, 30])
    @pytest.mark.parametrize("shape", [(), (1,), (257,), (40, 3), (4, 2, 3)])
    def test_bits_and_layout_of_plain_recurrence(self, m, shape):
        """eval_all writes the recurrence in place and keeps the bits and
        the C-contiguous x.shape + (m+1,) layout that matmuls downstream
        depend on."""
        x = np.random.default_rng(m).random(shape)
        got, ref = build_legendre_basis(m).eval_all(x), _plain_recurrence(m, x)
        assert got.shape == ref.shape and got.flags.c_contiguous
        assert got.tobytes() == ref.tobytes()

    def test_endpoints_and_centre_bit_for_bit(self):
        x = np.array([0.0, 0.5, 1.0, 0.25, np.nextafter(1.0, 0.0)])
        basis = build_legendre_basis(7)
        assert basis.eval_all(x).tobytes() == _plain_recurrence(7, x).tobytes()


class TestFeatureTable:
    def test_equals_eval_all_bit_for_bit(self):
        for order, m in ((16, 1), (128, 3), (512, 8)):
            rule = gauss_rule(order)
            table = feature_table(rule, m)
            ref = build_legendre_basis(m).eval_all(rule.nodes)[:, 1:]
            assert table.shape == (order, m)
            assert np.array_equal(table, ref)

    def test_shared_and_read_only(self):
        table = feature_table(gauss_rule(64), 4)
        assert feature_table(gauss_rule(64), 4) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


class TestTensorBasis:
    def test_eval_matches_per_dim(self):
        basis = make_tensor_basis(2, 3)
        pt = np.array([0.2, 0.5, 0.9])
        vals = basis.eval(pt)
        per = basis.per_dim.eval_all(pt)[:, 1:]
        np.testing.assert_allclose(vals, per.reshape(-1))

    def test_eval_batch_shape(self):
        basis = make_tensor_basis(2, 2)
        pts = np.random.default_rng(0).random((7, 2))
        assert basis.eval(pts).shape == (7, 4)

    def test_eval_rejects_outside_cube(self):
        basis = make_tensor_basis(2, 2)
        with pytest.raises(ValueError):
            basis.eval(np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            basis.eval(np.array([[0.5, 0.5], [np.nan, 0.5]]))


class TestCoefficientSums:
    def test_section7_values(self):
        """Per-power abs sums over eta_1..eta_5 and their maximum."""
        r, c5 = coefficient_abs_sums(build_legendre_basis(5))
        # independent recomputation from the printed integer coefficients
        expected = np.zeros(5)
        for n, ints in PRINTED_INT_COEFFS.items():
            for power, c in enumerate(ints):
                if power >= 1:
                    expected[power - 1] += math.sqrt(2 * n + 1) * abs(c)
        np.testing.assert_allclose(r, expected, rtol=1e-12)
        assert c5 == pytest.approx(float(np.max(expected)), rel=1e-12)
        assert c5 == pytest.approx(2330.2249, rel=1e-6)
