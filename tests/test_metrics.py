"""Tests for probability metrics and risk functionals."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from momentadapt.basis import make_tensor_basis
from momentadapt.densities import (
    DensityError,
    ExpFamilyDensity,
    GridDensity,
    Sample,
    from_callable,
    make_truncated_normal,
    moments,
    product_density,
    uniform_density,
)
from momentadapt.maxent import project
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
from momentadapt.quadrature import GridBudgetError, tensor_grid


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

    @settings(max_examples=25, deadline=None)
    @given(
        mean=st.floats(0.05, 0.95),
        sigma=st.floats(0.05, 1.0),
        m=st.integers(2, 5),
        data=st.data(),
    )
    def test_pythagorean_identity(self, mean, sigma, m, data):
        """D(p||q) = D(p||p*) + D(p*||q) for the information projection p* of
        p and any member q (Csiszar, Ann. Probab. 1975): the factor-wise KL,
        project and the closed form agree up to the Newton tolerance."""
        basis = make_tensor_basis(m, 1)
        p = make_truncated_normal(mean, sigma)
        p_star = project(p, basis).density
        lam = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=m, max_size=m))
        q = ExpFamilyDensity(basis, np.array(lam))
        split = kl_divergence(p, p_star) + kl_expfam_closed_form(p_star, q)
        assert kl_divergence(p, q) == pytest.approx(split, rel=1e-7)


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


def _expfam(lam, order=128):
    lam = np.asarray(lam, dtype=float)
    return ExpFamilyDensity(basis=make_tensor_basis(3, lam.size // 3), lam=lam, order=order)


@st.composite
def _product_pairs(draw):
    """(p, q, order) with p and q product-form densities on order^N grids."""
    unit = st.floats(0.2, 0.8)
    sigma = st.floats(0.1, 0.4)
    kind = draw(st.sampled_from(["expfam", "product", "truncnorm"]))
    if kind == "expfam":
        dim = draw(st.integers(1, 3))
        order = draw(st.sampled_from([8, 12, 16]))
        lams = draw(st.lists(st.floats(-1.5, 1.5), min_size=6 * dim, max_size=6 * dim))
        return _expfam(lams[: 3 * dim], order), _expfam(lams[3 * dim :], order), order
    if kind == "product":
        # factors of native orders 64 and 128 on the common 128-point rule
        pair = [
            product_density(
                [
                    make_truncated_normal(draw(unit), draw(sigma), order=64),
                    make_truncated_normal(draw(unit), draw(sigma), order=128),
                ]
            )
            for _ in range(2)
        ]
        return pair[0], pair[1], 128
    p = make_truncated_normal(draw(unit), draw(sigma), order=128)
    return p, make_truncated_normal(draw(unit), draw(sigma), order=512), 512


class TestProductForm:
    """Product-form densities are integrated from their 1-D factors."""

    @settings(max_examples=40, deadline=None)
    @given(
        pair=_product_pairs(),
        axes=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        cuts=st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
    )
    def test_matches_joint_grid_reference(self, pair, axes, cuts):
        p, q, order = pair
        f = threshold_classifier(axes[0] % p.dim, cuts[0])
        axis, cut = axes[1] % p.dim, cuts[1]
        l = Labeling(fn=lambda pts: (pts[:, axis] > cut).astype(float))
        grid = tensor_grid(p.dim, order)
        pts = grid.nodes()
        pv, qv = p.pdf(pts), q.pdf(pts)
        diff = np.abs(f(pts) - l(pts))
        reference = [
            grid.integrate_values(np.abs(pv - qv)),
            grid.integrate_values(pv * (np.log(pv) - np.log(qv))),
            grid.integrate_values(diff * pv),
            abs(grid.integrate_values(diff * qv) - grid.integrate_values(diff * pv)),
        ]
        got = [
            l1_distance(p, q, order),
            kl_divergence(p, q, order),
            risk(f, l, p, order),
            labeling_gap(f, l, p, q, order),
        ]
        # atol: the labeling gap is a difference of two O(1) integrals
        np.testing.assert_allclose(got, reference, rtol=1e-12, atol=1e-15)

    def test_kl_at_n5_is_sum_of_factor_kls(self):
        """At the application dimension N=5 the joint 128^5 grid is never
        built: KL returns at once and matches the closed form."""
        rng = np.random.default_rng(5)
        p, q = (_expfam(rng.uniform(-1.5, 1.5, 15)) for _ in range(2))
        start = time.perf_counter()
        value = kl_divergence(p, q)
        assert time.perf_counter() - start < 1.0
        assert value == pytest.approx(kl_expfam_closed_form(p, q), abs=1e-7)

    def test_l1_and_risk_at_n5_exceed_node_budget(self):
        rng = np.random.default_rng(6)
        p, q = (_expfam(rng.uniform(-1.5, 1.5, 15)) for _ in range(2))
        with pytest.raises(GridBudgetError):
            l1_distance(p, q)
        with pytest.raises(GridBudgetError):
            risk(threshold_classifier(0, 0.5), Labeling(fn=lambda pts: pts[:, 1] > 0.5), p)

    def test_value_only_grid_densities(self):
        """A GridDensity given only node values is integrated on its own grid."""
        f = threshold_classifier(0, 0.4)
        l = Labeling(fn=lambda pts: (pts[:, -1] > 0.6).astype(float))
        for dim, order in ((1, 64), (2, 16)):
            p, q = (
                from_callable(lambda pts, c=c: np.exp(-np.sum((pts - c) ** 2, axis=1)), dim, order)
                for c in (0.3, 0.7)
            )
            p_vals, q_vals = (GridDensity(d.grid, values=d.values) for d in (p, q))
            assert not p_vals.has_evaluator
            for metric in (l1_distance, kl_divergence):
                assert metric(p_vals, q_vals, order) == pytest.approx(
                    metric(p, q, order), rel=1e-12
                )
            assert risk(f, l, p_vals, order) == pytest.approx(risk(f, l, p, order), rel=1e-12)

    def test_n3_l1_memory(self):
        """The L1 of two N=3 members on the 128^3 grid stores a few value
        tables, not the 2.1e6 x 3 nodes and the 2.1e6 x 3 x 4 feature tensor."""
        rng = np.random.default_rng(3)
        p, q = (_expfam(rng.uniform(-1.5, 1.5, 9)) for _ in range(2))
        tracemalloc.start()
        try:
            l1_distance(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
