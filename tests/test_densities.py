"""Tests for density construction, functionals, and sampling."""

import math

import numpy as np
import pytest
from scipy import stats

from momentadapt.basis import make_tensor_basis
from momentadapt.densities import (
    DensityError,
    ExpFamilyDensity,
    GridResolutionError,
    MomentVector,
    ProductDensity,
    Sample,
    draw_sample,
    entropy,
    make_truncated_normal,
    marginal_pdf,
    moments,
    product_density,
    sample_moments,
    smoothness_report,
    sup_log_density,
    uniform_density,
)
from momentadapt.quadrature import QuadGridND


def _scipy_truncnorm(mean, sigma):
    a, b = (0.0 - mean) / sigma, (1.0 - mean) / sigma
    return stats.truncnorm(a, b, loc=mean, scale=sigma)


class TestMomentVector:
    def test_length_validation(self):
        basis = make_tensor_basis(2, 2)
        with pytest.raises(ValueError):
            MomentVector(basis=basis, values=np.zeros(3))

    def test_range_validation(self):
        """Feature eta_i is bounded by sqrt(2i+1); moments beyond that are
        unattainable."""
        basis = make_tensor_basis(2, 1)
        with pytest.raises(ValueError):
            MomentVector(basis=basis, values=np.array([2.0, 0.0]))

    def test_per_dim_slicing(self):
        basis = make_tensor_basis(2, 2)
        mu = MomentVector(basis=basis, values=np.array([0.1, 0.2, 0.3, 0.4]))
        np.testing.assert_allclose(mu.per_dim(1), [0.3, 0.4])

    def test_subtraction_checks_basis(self):
        mu1 = MomentVector(basis=make_tensor_basis(2, 1), values=np.zeros(2))
        mu2 = MomentVector(basis=make_tensor_basis(3, 1), values=np.zeros(3))
        with pytest.raises(ValueError):
            mu1 - mu2


class TestGridDensity:
    def test_uniform_normalization(self):
        u = uniform_density(2, order=16)
        pts = np.array([[0.1, 0.9], [0.5, 0.5]])
        np.testing.assert_allclose(u.pdf(pts), [1.0, 1.0])

    def test_truncated_normal_against_scipy(self):
        """Quadrature-normalized truncated normal matches the closed form."""
        p = make_truncated_normal(0.45, 0.15)
        ref = _scipy_truncnorm(0.45, 0.15)
        xs = np.linspace(0.01, 0.99, 17)
        np.testing.assert_allclose(
            p.pdf(xs.reshape(-1, 1)), ref.pdf(xs), rtol=1e-10
        )

    def test_narrow_peak_raises_resolution_error(self):
        """Order 128 cannot certify a sigma=0.01 peak at 1e-9."""
        with pytest.raises(GridResolutionError):
            make_truncated_normal(0.5, 0.01, order=128)

    def test_narrow_peak_resolved_at_512(self):
        p = make_truncated_normal(0.5, 0.01, order=512)
        assert p.pdf(np.array([[0.5]])) == pytest.approx(
            _scipy_truncnorm(0.5, 0.01).pdf(0.5), rel=1e-9
        )

    def test_negative_values_rejected(self):
        from momentadapt.quadrature import tensor_grid

        from momentadapt.densities import GridDensity

        with pytest.raises(DensityError):
            GridDensity(tensor_grid(1, 8), raw=lambda p: p[:, 0] - 0.5)


class TestExpFamilyDensity:
    def test_zero_lambda_is_uniform(self):
        basis = make_tensor_basis(3, 2)
        p = ExpFamilyDensity(basis=basis, lam=np.zeros(6))
        pts = np.random.default_rng(1).random((5, 2))
        np.testing.assert_allclose(p.pdf(pts), np.ones(5), atol=1e-13)

    def test_normalization(self):
        basis = make_tensor_basis(2, 2)
        p = ExpFamilyDensity(basis=basis, lam=np.array([0.5, -0.3, 0.2, 0.4]))
        from momentadapt.quadrature import tensor_grid

        grid = tensor_grid(2, 64)
        total = grid.integrate(p.pdf)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_product_structure(self):
        """Joint pdf equals the product of factor pdfs."""
        basis = make_tensor_basis(2, 2)
        p = ExpFamilyDensity(basis=basis, lam=np.array([0.5, -0.3, 0.2, 0.4]))
        pts = np.random.default_rng(2).random((6, 2))
        factored = p.factor_pdf(0, pts[:, 0]) * p.factor_pdf(1, pts[:, 1])
        np.testing.assert_allclose(p.pdf(pts), factored, rtol=1e-12)

    def test_log_quadratic_is_truncated_normal(self):
        """lam reproducing -x^2/(2 s^2) matches the truncated normal."""
        mean, sigma = 0.45, 0.15
        basis = make_tensor_basis(2, 1)
        # log p = -(x-mean)^2/(2 sigma^2) + const; express in eta_1, eta_2
        # eta_1 = sqrt3(2x-1), eta_2 = sqrt5(6x^2-6x+1)
        a2 = 1.0 / (2 * sigma**2)  # coefficient of x^2 with minus sign
        a1 = -mean / sigma**2  # coefficient of x
        lam2 = a2 / (6 * math.sqrt(5))
        lam1 = (a1 + 6 * math.sqrt(5) * lam2) / (2 * math.sqrt(3))
        p = ExpFamilyDensity(basis=basis, lam=np.array([lam1, lam2]))
        ref = _scipy_truncnorm(mean, sigma)
        xs = np.linspace(0.05, 0.95, 13)
        np.testing.assert_allclose(p.pdf(xs.reshape(-1, 1)), ref.pdf(xs), rtol=1e-10)


class TestMoments:
    def test_uniform_moments_vanish(self):
        """All non-constant Legendre features integrate to zero under the
        uniform density."""
        basis = make_tensor_basis(4, 2)
        mu = moments(uniform_density(2, order=32), basis)
        np.testing.assert_allclose(mu.values, np.zeros(8), atol=1e-14)

    def test_truncnorm_moments_against_scipy(self):
        """Feature moments match expectation under the scipy oracle."""
        basis = make_tensor_basis(3, 1)
        p = make_truncated_normal(0.4, 0.2)
        mu = moments(p, basis)
        ref = _scipy_truncnorm(0.4, 0.2)
        coeffs = basis.per_dim.coeffs
        for i in range(1, 4):
            expected = sum(
                coeffs[i, t] * ref.moment(t) for t in range(i + 1)
            )
            assert mu.values[i - 1] == pytest.approx(expected, abs=1e-9)

    def test_expfam_vs_grid_agreement(self):
        """Moments of the same density via both representations agree."""
        from momentadapt.densities import from_callable

        basis = make_tensor_basis(3, 1)
        p = ExpFamilyDensity(basis=basis, lam=np.array([0.3, -0.2, 0.1]))
        g = from_callable(lambda pts: p.pdf(pts), 1)
        np.testing.assert_allclose(
            moments(p, basis).values, moments(g, basis).values, atol=1e-12
        )

    def test_product_density_moments(self):
        basis = make_tensor_basis(2, 2)
        f1 = make_truncated_normal(0.4, 0.2)
        f2 = make_truncated_normal(0.6, 0.15)
        p = product_density([f1, f2])
        mu = moments(p, basis)
        b1 = make_tensor_basis(2, 1)
        np.testing.assert_allclose(mu.per_dim(0), moments(f1, b1).values, atol=1e-12)
        np.testing.assert_allclose(mu.per_dim(1), moments(f2, b1).values, atol=1e-12)


class TestEntropy:
    def test_uniform_entropy_zero(self):
        assert entropy(uniform_density(2, order=16)) == pytest.approx(0.0, abs=1e-13)

    def test_truncnorm_entropy_against_scipy(self):
        p = make_truncated_normal(0.45, 0.15)
        assert entropy(p) == pytest.approx(
            _scipy_truncnorm(0.45, 0.15).entropy(), rel=1e-10
        )

    def test_expfam_entropy_additive(self):
        """Entropy of a product is the sum of factor entropies."""
        basis2 = make_tensor_basis(2, 2)
        joint = ExpFamilyDensity(basis=basis2, lam=np.array([0.5, -0.3, 0.2, 0.4]))
        basis1 = make_tensor_basis(2, 1)
        f1 = ExpFamilyDensity(basis=basis1, lam=np.array([0.5, -0.3]))
        f2 = ExpFamilyDensity(basis=basis1, lam=np.array([0.2, 0.4]))
        assert entropy(joint) == pytest.approx(entropy(f1) + entropy(f2), abs=1e-12)


class TestMarginals:
    def test_grid_marginal_matches_factor(self):
        f1 = make_truncated_normal(0.4, 0.2)
        f2 = make_truncated_normal(0.6, 0.15)
        p = product_density([f1, f2])
        xs = np.linspace(0.1, 0.9, 9)
        np.testing.assert_allclose(
            marginal_pdf(p, 0)(xs), f1.pdf(xs.reshape(-1, 1)), rtol=1e-10
        )

    def test_expfam_marginal_is_factor(self):
        basis = make_tensor_basis(2, 2)
        p = ExpFamilyDensity(basis=basis, lam=np.array([0.5, -0.3, 0.2, 0.4]))
        xs = np.linspace(0, 1, 11)
        np.testing.assert_allclose(marginal_pdf(p, 1)(xs), p.factor_pdf(1, xs))


class TestSampling:
    def test_deterministic_given_seed(self):
        p = make_truncated_normal(0.5, 0.2)
        s1 = draw_sample(p, 100, 42)
        s2 = draw_sample(p, 100, 42)
        np.testing.assert_array_equal(s1.points, s2.points)

    def test_seed_changes_sample(self):
        p = make_truncated_normal(0.5, 0.2)
        assert not np.array_equal(
            draw_sample(p, 50, 1).points, draw_sample(p, 50, 2).points
        )

    def test_sample_mean_matches_density_mean(self):
        """Inverse-CDF sampling reproduces the first moment."""
        p = make_truncated_normal(0.4, 0.15)
        sample = draw_sample(p, 200_000, 7)
        ref = _scipy_truncnorm(0.4, 0.15)
        assert np.mean(sample.points) == pytest.approx(ref.mean(), abs=2e-3)

    def test_kolmogorov_smirnov_against_scipy(self):
        p = make_truncated_normal(0.45, 0.2)
        sample = draw_sample(p, 5000, 11)
        ref = _scipy_truncnorm(0.45, 0.2)
        stat = stats.kstest(sample.points[:, 0], ref.cdf).pvalue
        assert stat > 1e-3

    def test_product_sampling(self):
        p = product_density(
            [make_truncated_normal(0.3, 0.1), make_truncated_normal(0.7, 0.1)]
        )
        sample = draw_sample(p, 50_000, 3)
        assert np.mean(sample.points[:, 0]) == pytest.approx(0.3, abs=5e-3)
        assert np.mean(sample.points[:, 1]) == pytest.approx(0.7, abs=5e-3)

    def test_sample_moments_converge(self):
        basis = make_tensor_basis(2, 1)
        p = make_truncated_normal(0.5, 0.2)
        mu = moments(p, basis)
        mu_hat = sample_moments(draw_sample(p, 400_000, 5), basis)
        np.testing.assert_allclose(mu_hat.values, mu.values, atol=1e-2)

    def test_non_product_rejected(self):
        from momentadapt.densities import from_callable

        corr = from_callable(
            lambda pts: 1.0 + 0.5 * (pts[:, 0] - 0.5) * (pts[:, 1] - 0.5), 2, order=16
        )
        with pytest.raises(DensityError):
            draw_sample(corr, 10, 0)


class TestSmoothness:
    def test_uniform_is_member(self):
        """The uniform density satisfies all three conditions trivially."""
        report = smoothness_report(uniform_density(1), 3)
        assert report.member is True
        assert report.epsilon <= 1e-10
        assert report.c_inf <= 1e-10
        assert float(np.max(report.c_r)) <= 1e-6

    def test_sup_log_density_truncnorm(self):
        """sup |log p| is attained in the tail at the boundary, not at the
        peak, for a narrow truncated normal."""
        p = make_truncated_normal(0.5, 0.1)
        ref = _scipy_truncnorm(0.5, 0.1)
        expected = max(abs(math.log(ref.pdf(0.5))), abs(math.log(ref.pdf(0.0))))
        assert sup_log_density(p) == pytest.approx(expected, rel=1e-3)

    def test_narrow_truncnorm_fails_a2_at_m5(self):
        """sigma=0.05 peaks at log p ~ 2.08 > 0 but tails far below -4.5."""
        p = make_truncated_normal(0.5, 0.05, order=256)
        report = smoothness_report(p, 5)
        assert report.a2_ok is False
        assert report.member in (False, None)

    def test_fd_derivative_exact_for_polynomial_log(self):
        """m-th derivative of a cubic log-density is recovered exactly."""
        basis = make_tensor_basis(3, 1)
        lam3 = 4e-4
        p = ExpFamilyDensity(basis=basis, lam=np.array([0.1, -0.05, lam3]))
        report = smoothness_report(p, 3)
        # d^3/dx^3 of -lam3 * eta_3 = -lam3 * sqrt7 * 120
        expected = abs(lam3) * math.sqrt(7) * 120.0
        assert report.derivative_converged
        assert float(report.c_r[0]) == pytest.approx(expected, rel=1e-6)


class TestProductDensity:
    @staticmethod
    def _factors():
        basis = make_tensor_basis(2, 1)
        return [
            make_truncated_normal(0.4, 0.2),
            ExpFamilyDensity(basis=basis, lam=np.array([0.5, -0.3]), order=64),
        ]

    def test_functionals_build_no_joint_grid(self, monkeypatch):
        """A product is handled factor by factor: no tensor-grid nodes are
        built, neither at construction nor by its functionals."""
        factors = self._factors()
        built = []
        nodes = QuadGridND.nodes
        monkeypatch.setattr(
            QuadGridND, "nodes", lambda grid: built.append(grid.n_nodes) or nodes(grid)
        )
        p = product_density(factors)
        assert isinstance(p, ProductDensity)
        assert [r.order for r in p.grid.rules] == [128, 64]
        moments(p, make_tensor_basis(3, 2))
        entropy(p)
        marginal_pdf(p, 1)(np.linspace(0.0, 1.0, 5))
        draw_sample(p, 10, 0)
        sup_log_density(p)
        assert built == []

    def test_pdf_is_product_of_factors(self):
        factors = self._factors()
        pts = np.random.default_rng(4).random((6, 2))
        expected = factors[0].pdf(pts[:, :1]) * factors[1].pdf(pts[:, 1:])
        np.testing.assert_allclose(product_density(factors).pdf(pts), expected, rtol=1e-13)

    def test_entropy_is_sum_of_factor_entropies(self):
        factors = self._factors()
        assert entropy(product_density(factors)) == pytest.approx(
            sum(entropy(f) for f in factors), abs=1e-12
        )

    def test_vanishing_density_sup_log_is_inf(self):
        """A density that underflows to 0 on [0,1] has unbounded log."""
        p = make_truncated_normal(0.1, 0.01, order=512)
        assert sup_log_density(p) == math.inf
        assert sup_log_density(product_density([make_truncated_normal(0.5, 0.2), p])) == math.inf

    def test_factors_must_be_one_dimensional(self):
        with pytest.raises(DensityError):
            product_density([uniform_density(2, order=8)])


class TestSampleContainer:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            Sample(points=np.array([[1.2, 0.5]]))

    def test_csv_round_trip(self):
        pts = np.random.default_rng(0).random((4, 2))
        text = Sample(points=pts).to_csv()
        back = np.loadtxt(text.splitlines(), delimiter=",")
        np.testing.assert_allclose(back, pts)
