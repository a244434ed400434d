"""Tests for probability metrics and risk functionals."""

import math

import numpy as np
import pytest
from scipy import stats

from momentadapt.basis import make_tensor_basis
from momentadapt.densities import (
    DensityError,
    ExpFamilyDensity,
    Sample,
    make_truncated_normal,
    moments,
    uniform_density,
)
from momentadapt.metrics import (
    Classifier,
    Labeling,
    central_moments,
    cmd,
    empirical_risk,
    kl_divergence,
    kl_expfam_closed_form,
    l1_distance,
    labeling_gap,
    levy_metric,
    moment_l1,
    risk,
    tabulate_cdf,
    threshold_classifier,
    total_variation,
    worst_case_labeling,
)


class TestL1AndTV:
    def test_identical_densities(self):
        p = make_truncated_normal(0.5, 0.2)
        assert l1_distance(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_range_bounds(self):
        p = make_truncated_normal(0.2, 0.05, order=256)
        q = make_truncated_normal(0.8, 0.05, order=256)
        val = l1_distance(p, q)
        assert 1.99 <= val <= 2.0 + 1e-12

    def test_tv_is_half_l1(self):
        p = make_truncated_normal(0.4, 0.2)
        q = make_truncated_normal(0.6, 0.2)
        assert total_variation(p, q) == pytest.approx(0.5 * l1_distance(p, q))

    def test_uniform_vs_linear(self):
        """Closed form: int |1 - (2x)| on the relevant pieces."""
        from momentadapt.densities import from_callable

        u = uniform_density(1)
        lin = from_callable(lambda pts: 2.0 * pts[:, 0], 1)
        # |1 - 2x| has a kink at 1/2, so Gauss quadrature converges only
        # algebraically there
        assert l1_distance(u, lin) == pytest.approx(0.5, abs=1e-3)


class TestKL:
    def test_self_divergence_zero(self):
        p = make_truncated_normal(0.5, 0.15)
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-13)

    def test_gaussian_closed_form(self):
        """Interior-supported truncated normals approximate the Gaussian
        KL formula when the truncation mass is negligible."""
        p = make_truncated_normal(0.45, 0.05, order=256)
        q = make_truncated_normal(0.55, 0.05, order=256)
        expected = (0.55 - 0.45) ** 2 / (2 * 0.05**2)
        assert kl_divergence(p, q) == pytest.approx(expected, rel=1e-4)

    def test_pinsker_inequality(self):
        """||p-q||_1 <= sqrt(2 KL) across a parameter sweep."""
        for mean_q in (0.45, 0.55, 0.7):
            p = make_truncated_normal(0.4, 0.15)
            q = make_truncated_normal(mean_q, 0.15)
            assert l1_distance(p, q) <= math.sqrt(2.0 * kl_divergence(p, q)) + 1e-12

    def test_closed_form_matches_quadrature(self):
        basis = make_tensor_basis(3, 1)
        p = ExpFamilyDensity(basis=basis, lam=np.array([0.4, -0.2, 0.1]))
        q = ExpFamilyDensity(basis=basis, lam=np.array([0.1, 0.2, -0.05]))
        assert kl_expfam_closed_form(p, q) == pytest.approx(
            kl_divergence(p, q), abs=1e-10
        )

    def test_closed_form_additive_over_dimensions(self):
        basis2 = make_tensor_basis(2, 2)
        basis1 = make_tensor_basis(2, 1)
        lp, lq = np.array([0.3, -0.2, 0.1, 0.05]), np.array([0.2, -0.1, 0.15, 0.0])
        joint = kl_expfam_closed_form(
            ExpFamilyDensity(basis=basis2, lam=lp),
            ExpFamilyDensity(basis=basis2, lam=lq),
        )
        split = sum(
            kl_expfam_closed_form(
                ExpFamilyDensity(basis=basis1, lam=lp[2 * j : 2 * j + 2]),
                ExpFamilyDensity(basis=basis1, lam=lq[2 * j : 2 * j + 2]),
            )
            for j in range(2)
        )
        assert joint == pytest.approx(split, abs=1e-12)


class TestMomentL1:
    def test_zero_for_identical(self):
        basis = make_tensor_basis(3, 1)
        mu = moments(make_truncated_normal(0.5, 0.2), basis)
        assert moment_l1(mu, mu) == 0.0

    def test_triangle_inequality(self):
        basis = make_tensor_basis(2, 1)
        mus = [
            moments(make_truncated_normal(m, 0.2), basis) for m in (0.4, 0.5, 0.6)
        ]
        assert moment_l1(mus[0], mus[2]) <= moment_l1(mus[0], mus[1]) + moment_l1(
            mus[1], mus[2]
        ) + 1e-14


class TestCMD:
    def test_central_moments_against_scipy(self):
        pts = np.random.default_rng(0).random((5000, 2))
        cm = central_moments(Sample(points=pts), 4)
        np.testing.assert_allclose(cm[0], pts.mean(axis=0))
        for j in (2, 3, 4):
            np.testing.assert_allclose(
                cm[j - 1], stats.moment(pts, moment=j, axis=0), rtol=1e-10
            )

    def test_identical_samples_zero(self):
        s = Sample(points=np.random.default_rng(1).random((100, 2)))
        assert cmd(s, s, 5) == 0.0

    def test_shift_increases_cmd(self):
        rng = np.random.default_rng(2)
        base = 0.4 + 0.1 * rng.random((2000, 1))
        s0 = Sample(points=base)
        s1 = Sample(points=base + 0.05)
        s2 = Sample(points=base + 0.2)
        assert cmd(s0, s1, 5) < cmd(s0, s2, 5)

    def test_dimension_mismatch(self):
        with pytest.raises(DensityError):
            cmd(
                Sample(points=np.zeros((3, 1))),
                Sample(points=np.zeros((3, 2))),
                3,
            )


class TestLevy:
    def test_identical_cdfs_zero(self):
        cdf = tabulate_cdf(make_truncated_normal(0.5, 0.2))
        assert levy_metric(cdf, cdf) == 0.0

    def test_shift_bound(self):
        """For a pure location shift t, the Levy distance is at most t."""
        p = make_truncated_normal(0.4, 0.15)
        q = make_truncated_normal(0.5, 0.15)
        d = levy_metric(tabulate_cdf(p), tabulate_cdf(q))
        assert 0.0 < d <= 0.1 + 1e-6

    def test_symmetry(self):
        cp = tabulate_cdf(make_truncated_normal(0.35, 0.1))
        cq = tabulate_cdf(make_truncated_normal(0.6, 0.2))
        assert levy_metric(cp, cq) == pytest.approx(levy_metric(cq, cp), abs=2e-6)

    def test_uniform_cdf(self):
        cdf = tabulate_cdf(uniform_density(1))
        xs = np.linspace(0, 1, 11)
        np.testing.assert_allclose(cdf(xs), xs, atol=1e-9)


class TestRisk:
    def test_risk_of_perfect_classifier(self):
        f = threshold_classifier(0, 0.5)
        l = Labeling(fn=lambda pts: (pts[:, 0] > 0.5).astype(float))
        assert risk(f, l, uniform_density(1)) == pytest.approx(0.0, abs=1e-12)

    def test_risk_uniform_closed_form(self):
        """|1[x>0.3] - 1[x>0.5]| has uniform measure 0.2."""
        f = threshold_classifier(0, 0.3)
        l = Labeling(fn=lambda pts: (pts[:, 0] > 0.5).astype(float))
        # indicator integrand: only algebraic quadrature convergence
        assert risk(f, l, uniform_density(1)) == pytest.approx(0.2, abs=5e-3)

    def test_empirical_risk_matches_fraction(self):
        f = threshold_classifier(0, 0.5)
        l = Labeling(fn=lambda pts: np.zeros(pts.shape[0]))
        pts = np.array([[0.2], [0.6], [0.8], [0.4]])
        assert empirical_risk(f, l, Sample(points=pts)) == pytest.approx(0.5)

    def test_classifier_output_validated(self):
        f = Classifier(fn=lambda pts: pts[:, 0])
        with pytest.raises(ValueError):
            f(np.array([[0.3]]))


class TestWorstCaseLabeling:
    def test_gap_equals_half_l1(self):
        """The constructed labeling realizes the total variation."""
        p = make_truncated_normal(0.4, 0.15)
        q = make_truncated_normal(0.6, 0.15)
        f = threshold_classifier(0, 0.5)
        _, gap = worst_case_labeling(f, p, q)
        assert gap == pytest.approx(0.5 * l1_distance(p, q), abs=1e-8)

    def test_no_labeling_beats_it(self):
        p = make_truncated_normal(0.4, 0.15)
        q = make_truncated_normal(0.6, 0.15)
        f = threshold_classifier(0, 0.5)
        _, gap = worst_case_labeling(f, p, q)
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = rng.random()
            l = Labeling(fn=lambda pts, t=t: (pts[:, 0] > t).astype(float))
            assert labeling_gap(f, l, p, q) <= gap + 1e-8

    def test_identical_densities_zero_gap(self):
        p = make_truncated_normal(0.5, 0.2)
        _, gap = worst_case_labeling(threshold_classifier(0, 0.5), p, p)
        assert gap == pytest.approx(0.0, abs=1e-12)
