"""Tests for density construction, functionals, and sampling."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from momentadapt import densities, quadrature
from momentadapt.basis import make_tensor_basis
from momentadapt.bounds import smoothness_membership
from momentadapt.densities import (
    BLOCK_ROWS,
    CDF_TABLE_SIZE,
    GUIDE_SIZE,
    DensityError,
    ExpFamilyDensity,
    GridDensity,
    GridResolutionError,
    MomentVector,
    ProductDensity,
    Sample,
    _fd_derivative_values,
    _inverse_cdf,
    _log_marginal,
    draw_sample,
    entropy,
    make_truncated_normal,
    marginal_pdf,
    moments,
    product_density,
    sample_moments,
    smoothness_report,
    sup_log_density,
    trapezoid_cdf,
    uniform_density,
)
from momentadapt.metrics import kl_divergence, l1_distance
from momentadapt.quadrature import GridBudgetError, QuadGridND, gauss_rule


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
        with pytest.raises(ValueError):
            MomentVector(basis=basis, values=np.array([np.nan, 0.1]))

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

    def test_axis_at_max_order_is_checked_at_half_order(self):
        """An axis at MAX_ORDER cannot double, so it is checked against order
        MAX_ORDER // 2; a peak that order 512 cannot resolve raises instead
        of passing a check of the grid against itself."""
        with pytest.raises(GridResolutionError, match="too narrow for MAX_ORDER"):
            make_truncated_normal(0.5, 1e-3, order=512)
        grid = QuadGridND((gauss_rule(8), gauss_rule(512)))
        with pytest.raises(GridResolutionError, match="too narrow for MAX_ORDER"):
            GridDensity(grid, raw=lambda x: np.exp(-(((x[:, 1] - 0.5) / 1e-3) ** 2)))

    def test_doubled_grid_check_is_per_axis(self):
        """The self-check doubles each axis's own order: a peak that only the
        order-128 axis resolves must not be re-checked at order 16."""
        grid = QuadGridND((gauss_rule(8), gauss_rule(128)))
        p = GridDensity(grid, raw=lambda x: np.exp(-(((x[:, 1] - 0.5) / 0.03) ** 2)))
        fine = QuadGridND((gauss_rule(16), gauss_rule(256)))
        total = fine.integrate(p.pdf)
        assert total == pytest.approx(1.0, abs=1e-12)

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

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 5),
        dim=st.integers(2, 3),
        lams=st.lists(st.floats(-1.5, 1.5), min_size=30, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=2, dim=2, lams=[0.5, -0.3, 0.2, 0.4] * 7 + [0.0] * 2, seed=2)
    def test_product_of_its_members(self, m, dim, lams, seed):
        """An N-D member is the product_density of its 1-D members, bit for
        bit: pdf, moments, entropy, KL, L1 (N <= 2) and samples."""
        basis, one = make_tensor_basis(m, dim), make_tensor_basis(m, 1)

        def pair(lam):
            joint = ExpFamilyDensity(basis, np.array(lam[: m * dim]))
            return joint, product_density(ExpFamilyDensity(one, joint.lam_dim(j)) for j in range(dim))

        (p, p_prod), (q, q_prod) = pair(lams[:15]), pair(lams[15:])
        pts = np.random.default_rng(seed).random((6, dim))
        assert p.pdf(pts).tobytes() == p_prod.pdf(pts).tobytes()
        assert moments(p, basis).values.tobytes() == moments(p_prod, basis).values.tobytes()
        assert entropy(p) == entropy(p_prod)
        assert kl_divergence(p, q) == kl_divergence(p_prod, q_prod)
        if dim <= 2:
            assert l1_distance(p, q) == l1_distance(p_prod, q_prod)
        assert draw_sample(p, 100, seed).points.tobytes() == draw_sample(p_prod, 100, seed).points.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_rejected(self, bad):
        with pytest.raises(DensityError, match="finite"):
            ExpFamilyDensity(make_tensor_basis(2, 1), np.array([0.1, bad]))

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

    def test_hand_built_rule_uses_its_own_nodes(self):
        """A density on a non-Gauss rule takes moments at that rule's nodes,
        also after a Gauss rule of the same order filled the table cache."""
        from momentadapt.densities import GridDensity
        from momentadapt.quadrature import QuadRule1D

        n = 64
        basis = make_tensor_basis(3, 1)
        moments(uniform_density(1, order=n), basis)
        mid = QuadRule1D(nodes=(np.arange(n) + 0.5) / n, weights=np.full(n, 1.0 / n))
        p = GridDensity(QuadGridND(rules=(mid,)), values=2.0 * mid.nodes)
        feats = basis.per_dim.eval_all(mid.nodes)[:, 1:]
        expected = feats.T @ (mid.weights * p.values)
        assert np.array_equal(moments(p, basis).values, expected)
        # p(x) = 2x: E[eta_1] = sqrt(3)/3, higher features vanish
        np.testing.assert_allclose(expected, [math.sqrt(3) / 3, 0, 0], atol=1e-3)

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
    def test_grid_marginal_values_brute_force(self):
        """marginal_values(j) equals the weighted sum over all other axes,
        accumulated node by node."""
        rules = tuple(gauss_rule(n) for n in (3, 4, 5))
        grid = QuadGridND(rules)
        p = GridDensity(grid, values=np.random.default_rng(2).random(grid.n_nodes) + 0.1)
        vals = p.values.reshape(3, 4, 5)
        for j in range(3):
            ref = np.zeros(rules[j].order)
            for idx in itertools.product(*(range(r.order) for r in rules)):
                w = math.prod(rules[ax].weights[i] for ax, i in enumerate(idx) if ax != j)
                ref[idx[j]] += w * vals[idx]
            np.testing.assert_allclose(p.marginal_values(j), ref, rtol=1e-13)

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
        np.testing.assert_allclose(marginal_pdf(p, 1)(xs), p.factors[1].pdf(xs))


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


@st.composite
def _sampled_density(draw):
    """An exp-family member (m 2..4, N 1..3, small lambda), a narrow truncated
    normal whose CDF table has runs of exactly 0.0 and 1.0, or its product
    with the uniform density."""
    kind = draw(st.sampled_from(["expfam", "truncnorm", "product"]))
    if kind == "expfam":
        m, dim = draw(st.integers(2, 4)), draw(st.integers(1, 3))
        lam = draw(st.lists(st.floats(-0.5, 0.5), min_size=m * dim, max_size=m * dim))
        return ExpFamilyDensity(make_tensor_basis(m, dim), np.array(lam))
    narrow = make_truncated_normal(draw(st.floats(0.05, 0.95)), 0.01, order=512)
    return narrow if kind == "truncnorm" else product_density([narrow, uniform_density(1)])


class TestSamplingBitIdentical:
    """The guide-table lookup and the kept CDF tables leave every sample
    bit for bit what plain np.interp on fresh tables gives."""

    @staticmethod
    def _reference(p, k, seed):
        u = np.random.default_rng(seed).random((k, p.dim))
        cols = []
        for j in range(p.dim):
            xs, cdf = trapezoid_cdf(lambda x: p.factors[j].pdf(x), CDF_TABLE_SIZE)
            cols.append(np.interp(u[:, j], cdf, xs))
        return np.column_stack(cols)

    @settings(max_examples=50, deadline=None)
    @given(
        p=_sampled_density(),
        k=st.integers(1, 3 * BLOCK_ROWS + 7),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p=make_truncated_normal(0.3, 0.2), k=2 * BLOCK_ROWS + 1, seed=5)
    @example(
        p=ExpFamilyDensity(make_tensor_basis(2, 2), np.array([0.5, -0.3, 0.2, 0.4])),
        k=3 * BLOCK_ROWS,
        seed=0,
    )
    def test_draw_matches_plain_interp(self, p, k, seed):
        """Blocks of BLOCK_ROWS rows continue one PCG64 stream: the sample is
        the one whose uniforms come from a single rng.random((k, N)) call."""
        expected = self._reference(p, k, seed).tobytes()
        assert draw_sample(p, k, seed).points.tobytes() == expected
        assert draw_sample(p, k, seed).points.tobytes() == expected  # kept tables

    def test_bucket_order_matches_interp(self):
        """Edge uniforms: 0.0 (inside the CDF's leading run of 0.0), CDF table
        entries, repeats, the guide's bucket edges b/2^13, the old 2^-16
        bucket edges and the largest double below 1."""
        p = make_truncated_normal(0.5, 0.01, order=512)
        xs, cdf = trapezoid_cdf(lambda x: p.factors[0].pdf(x), CDF_TABLE_SIZE)
        assert np.count_nonzero(cdf == 0.0) > 1
        u = np.concatenate(
            [
                [0.0, np.nextafter(1.0, 0.0)],
                cdf[cdf < 1.0],
                np.repeat([0.25, 0.5, 0.75], 4),
                np.arange(GUIDE_SIZE) / GUIDE_SIZE,
                np.arange(65536) / 65536.0,
            ]
        )
        np.random.default_rng(0).shuffle(u)
        got = _inverse_cdf(u, p.factors[0].cdf_table)
        assert got.tobytes() == np.interp(u, cdf, xs).tobytes()

    def test_cdf_table_built_once_per_factor(self, monkeypatch):
        calls = []
        build = densities.trapezoid_cdf
        monkeypatch.setattr(
            densities, "trapezoid_cdf", lambda *args: calls.append(1) or build(*args)
        )
        p = ExpFamilyDensity(make_tensor_basis(2, 2), np.array([0.5, -0.3, 0.2, 0.4]))
        draw_sample(p, 100, 0)
        draw_sample(p, 100, 1)
        assert len(calls) == 2

    def test_product_shares_its_members_tables(self, monkeypatch):
        """A product keeps the factors of its members, and with them their
        CDF tables: one table serves p and both coordinates of p x p."""
        calls = []
        build = densities.trapezoid_cdf
        monkeypatch.setattr(
            densities, "trapezoid_cdf", lambda *args: calls.append(1) or build(*args)
        )
        p = make_truncated_normal(0.4, 0.2)
        draw_sample(p, 100, 0)
        draw_sample(product_density([p, p]), 100, 1)
        assert len(calls) == 1

    def test_sample_size_within_node_budget(self, monkeypatch):
        """k * N sample values are checked against MAX_NODES before the
        uniforms are drawn."""
        monkeypatch.setattr(quadrature, "MAX_NODES", 1_000)
        with pytest.raises(GridBudgetError):
            draw_sample(make_truncated_normal(0.5, 0.2), 1_001, 0)
        pair = product_density([make_truncated_normal(0.5, 0.2), uniform_density(1)])
        assert draw_sample(pair, 500, 0).points.shape == (500, 2)


_BLOCK_EDGES = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7]


class TestBlockedSampleMoments:
    """sample_moments streams the sample through row blocks and keeps the
    bits of the whole-table mean it replaces."""

    @staticmethod
    def _assert_whole_table_mean(basis, pts):
        expected = basis.eval(pts).mean(axis=0).tobytes()
        assert sample_moments(Sample(points=pts), basis).values.tobytes() == expected

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 5),
        dim=st.integers(1, 3),
        k=st.one_of(st.sampled_from(_BLOCK_EDGES), st.integers(1, 3 * BLOCK_ROWS + 7)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_whole_table_mean(self, m, dim, k, seed):
        pts = np.random.default_rng(seed).random((k, dim))
        pts[0, 0] = 0.0
        pts[-1, -1] = 1.0
        self._assert_whole_table_mean(make_tensor_basis(m, dim), pts)

    @pytest.mark.parametrize("m, dim", [(1, 1), (1, 2), (2, 1), (5, 3)])
    @pytest.mark.parametrize("k", _BLOCK_EDGES)
    def test_block_edges(self, m, dim, k):
        """Each size at and around a block boundary, for the single feature
        (summed pairwise) and for two or more (summed in sequence)."""
        pts = np.random.default_rng(k).random((k, dim))
        self._assert_whole_table_mean(make_tensor_basis(m, dim), pts)

    @pytest.mark.parametrize("k", [1, BLOCK_ROWS + 1])
    def test_negative_zero_features(self, k):
        """eta_3(0.5) is -0.0; numpy's column sums start from +0.0, and so
        do the carried block sums."""
        self._assert_whole_table_mean(make_tensor_basis(3, 2), np.full((k, 2), 0.5))


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedMemory:
    """The working memory of sampling and sample moments does not grow with
    the sample size."""

    K = 200_000

    def test_sample_moments_peak(self):
        basis = make_tensor_basis(5, 2)
        sample = Sample(points=np.random.default_rng(0).random((self.K, 2)))
        assert _traced_peak(lambda: sample_moments(sample, basis)) < 2**20

    def test_draw_sample_peak(self):
        p = ExpFamilyDensity(make_tensor_basis(3, 2), np.array([0.2, -0.1, 0.05, 0.3, 0.1, -0.2]))
        draw_sample(p, 10, 0)  # builds and keeps the CDF tables
        output = self.K * 2 * 8
        assert _traced_peak(lambda: draw_sample(p, self.K, 1)) < output + 2**20


class TestSmoothness:
    def test_uniform_is_member(self):
        """The uniform density satisfies all three conditions trivially."""
        report = smoothness_report(uniform_density(1), 3)
        assert smoothness_membership(report, epsilon=0.0).member is True
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

    def test_sup_log_probe_mesh_within_node_budget(self, monkeypatch):
        """The probe mesh of a multivariate grid density (101 uniform points
        plus the rule's nodes per axis) is checked against MAX_NODES before
        it is allocated: 105^2 = 11,025 points exceed a budget of 1,000."""
        p = GridDensity(QuadGridND((gauss_rule(4),) * 2), raw=lambda x: 1.0 + x[:, 0] * x[:, 1])
        monkeypatch.setattr(quadrature, "MAX_NODES", 1_000)
        with pytest.raises(GridBudgetError):
            sup_log_density(p)

    def test_narrow_truncnorm_fails_a2_at_m5(self):
        """sigma=0.05 peaks at log p ~ 2.08 > 0 but tails far below -4.5."""
        p = make_truncated_normal(0.5, 0.05, order=256)
        verdict = smoothness_membership(smoothness_report(p, 5), epsilon=1e-7)
        assert verdict.a2_ok is False
        assert verdict.member in (False, None)

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
        q_factors = [  # built here: a GridDensity checks itself on 1-D grids
            make_truncated_normal(0.6, 0.25),
            ExpFamilyDensity(basis=make_tensor_basis(2, 1), lam=np.array([-0.2, 0.4]), order=64),
        ]
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
        q = product_density(q_factors)
        kl_divergence(p, q)
        l1_distance(p, q)
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
        with pytest.raises(ValueError):
            Sample(points=np.array([[np.nan], [0.5]]))

    def test_csv_round_trip(self):
        pts = np.random.default_rng(0).random((4, 2))
        text = Sample(points=pts).to_csv()
        back = np.loadtxt(text.splitlines(), delimiter=",")
        np.testing.assert_allclose(back, pts)


def _fd_reference(logf, order, h, xs):
    """Per-point finite differences: one window, one weight solve and one
    logf call per point."""
    half = (order + 8) // 2
    width = 2 * half + 1
    out = np.empty(xs.shape)
    for idx, x in enumerate(xs):
        lo = -half
        if x + lo * h < 0:
            lo = int(math.ceil(-x / h))
        hi = lo + width - 1
        if x + hi * h > 1:
            hi = int(math.floor((1 - x) / h))
            lo = hi - width + 1
        offs = np.arange(lo, hi + 1)
        rhs = np.zeros(width)
        rhs[order] = math.factorial(order)
        w = np.linalg.solve(np.vander(offs, width, increasing=True).T.astype(float), rhs)
        out[idx] = np.dot(w, logf(x + offs * h)) / h**order
    return out


_FD_DENSITIES = {
    "expfam": lambda: ExpFamilyDensity(
        basis=make_tensor_basis(3, 1), lam=np.array([0.3, -0.2, 0.05])
    ),
    "truncnorm": lambda: make_truncated_normal(0.4, 0.2),
}


class TestFiniteDifferences:
    @pytest.mark.parametrize("family", sorted(_FD_DENSITIES))
    @settings(max_examples=40, deadline=None)
    @given(
        inner=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=40),
        h=st.sampled_from([2e-2, 1e-2]),
        order=st.integers(1, 6),
    )
    def test_batched_matches_per_point(self, family, inner, h, order):
        logf = _log_marginal(_FD_DENSITIES[family](), 0)
        calls = []

        def counted(x):
            calls.append(x)
            return logf(x)

        xs = np.array([0.0, *inner, 1.0])
        got = _fd_derivative_values(counted, order, h, xs)
        assert len(calls) == 1
        ref = _fd_reference(logf, order, h, xs)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0)
