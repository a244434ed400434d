"""Tests for maximum-entropy fitting via the convex dual."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentadapt import densities, maxent
from momentadapt.basis import make_tensor_basis
from momentadapt.densities import (
    ExpFamilyDensity,
    MomentVector,
    _log_partition,
    entropy,
    make_truncated_normal,
    moments,
    uniform_density,
)
from momentadapt.maxent import (
    InfeasibleMomentsError,
    _condition_numbers,
    _fit_rows,
    epsilon_gap,
    fit_maxent,
    maxent_entropy,
    project,
)
from momentadapt.metrics import l1_distance
from momentadapt.quadrature import gauss_rule


class TestFitMaxent:
    def test_zero_moments_give_uniform(self):
        basis = make_tensor_basis(3, 2)
        fit = fit_maxent(MomentVector(basis=basis, values=np.zeros(6)))
        np.testing.assert_allclose(fit.density.lam, np.zeros(6), atol=1e-12)

    def test_lambda_round_trip(self):
        """Moments of a family member recover its natural parameters."""
        rng = np.random.default_rng(0)
        for m in (2, 3, 5):
            basis = make_tensor_basis(m, 1)
            for _ in range(10):
                lam = rng.uniform(-0.5, 0.5, m)
                p = ExpFamilyDensity(basis=basis, lam=lam)
                fit = fit_maxent(moments(p, basis))
                np.testing.assert_allclose(fit.density.lam, lam, atol=1e-7)

    def test_residual_below_tolerance(self):
        basis = make_tensor_basis(3, 1)
        p = ExpFamilyDensity(basis=basis, lam=np.array([0.4, -0.3, 0.2]))
        fit = fit_maxent(moments(p, basis), tol=1e-11)
        assert fit.residual <= 1e-11

    def test_moments_of_fit_match_target(self):
        """The fitted density reproduces the requested moments."""
        basis = make_tensor_basis(2, 1)
        p = make_truncated_normal(0.4, 0.2)
        mu = moments(p, basis)
        fit = fit_maxent(mu)
        mu_fit = moments(fit.density, basis)
        np.testing.assert_allclose(mu_fit.values, mu.values, atol=1e-9)

    def test_truncated_normal_recovery(self):
        """A truncated normal is its own order-2 maxent density."""
        p = make_truncated_normal(0.45, 0.15)
        fit = fit_maxent(moments(p, make_tensor_basis(2, 1)))
        assert l1_distance(p, fit.density) <= 1e-6

    def test_product_split_matches_joint(self):
        """Per-dimension fits assemble into the joint product fit."""
        basis2 = make_tensor_basis(2, 2)
        p = ExpFamilyDensity(basis=basis2, lam=np.array([0.3, -0.2, 0.15, 0.1]))
        fit = fit_maxent(moments(p, basis2))
        basis1 = make_tensor_basis(2, 1)
        for j in range(2):
            f = ExpFamilyDensity(basis=basis1, lam=p.lam_dim(j))
            fit_j = fit_maxent(moments(f, basis1))
            np.testing.assert_allclose(fit.density.lam_dim(j), fit_j.density.lam, atol=1e-9)

    def test_boundary_moments_infeasible(self):
        """Moments at the feature cap lie outside the open moment space."""
        basis = make_tensor_basis(2, 1)
        mu = MomentVector(
            basis=basis, values=np.array([np.sqrt(3.0), np.sqrt(5.0)])
        )
        with pytest.raises(InfeasibleMomentsError):
            fit_maxent(mu)

    def test_invalid_inputs(self):
        basis = make_tensor_basis(2, 1)
        mu = MomentVector(basis=basis, values=np.zeros(2))
        for tol in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                fit_maxent(mu, tol=tol)

    def test_one_normalization_per_newton_step(self, monkeypatch):
        """Each full Newton step normalizes its candidate once and reuses its
        node values for the next gradient: 1 + iterations calls in all."""
        calls = []

        def counted(*args):
            calls.append(args)
            return _log_partition(*args)

        monkeypatch.setattr(maxent, "_log_partition", counted)
        basis = make_tensor_basis(3, 1)
        p = ExpFamilyDensity(basis=basis, lam=np.array([0.4, -0.3, 0.2]))
        fit = fit_maxent(moments(p, basis))
        assert fit.iterations >= 2
        assert len(calls) == 1 + fit.iterations

    def test_fitted_density_not_normalized_again(self, monkeypatch):
        """The fit keeps the log Z and node values of each dimension's last
        Newton step: building its density adds no normalization."""
        calls = []

        def counted(*args):
            calls.append(args)
            return _log_partition(*args)

        monkeypatch.setattr(densities, "_log_partition", counted)
        basis = make_tensor_basis(3, 2)
        p = ExpFamilyDensity(basis=basis, lam=np.array([0.4, -0.3, 0.2, -0.1, 0.25, 0.05]))
        calls.clear()
        fit_maxent(moments(p, basis))
        assert calls == []

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 4),
        dim=st.integers(1, 3),
        data=st.data(),
        order=st.sampled_from([64, 128]),
    )
    def test_fitted_density_bits_match_fresh_construction(self, m, dim, data, order):
        """lambda, log_norm and the node values of the fit are bit for bit
        those of ExpFamilyDensity built from the fitted lambda."""
        basis = make_tensor_basis(m, dim)
        lam = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=m * dim, max_size=m * dim))
        fit = fit_maxent(moments(ExpFamilyDensity(basis, np.array(lam)), basis), order=order)
        fresh = ExpFamilyDensity(basis, fit.density.lam.copy(), order=order)
        assert fit.density.grid == fresh.grid
        assert fit.density.log_norm.tobytes() == fresh.log_norm.tobytes()
        for j in range(dim):
            assert fit.density.marginal_values(j).tobytes() == fresh.marginal_values(j).tobytes()


class TestBatchedRows:
    """_fit_rows fits a stack of 1-D moment rows in one Newton; each row is
    the fit of that row alone."""

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 4), data=st.data())
    def test_rows_match_fit_maxent(self, m, data):
        lams = data.draw(
            st.lists(
                st.lists(st.floats(-1.5, 1.5), min_size=m, max_size=m), min_size=1, max_size=6
            )
        )
        basis = make_tensor_basis(m, 1)
        mu = np.array([moments(ExpFamilyDensity(basis, np.array(lam)), basis).values for lam in lams])
        lam, iters, residual, dual, log_z, vals, errors = _fit_rows(mu, gauss_rule(128))
        assert errors == [None] * len(mu)
        for b, row in enumerate(mu):
            alone = fit_maxent(MomentVector(basis=basis, values=row))
            np.testing.assert_allclose(lam[b], alone.density.lam, rtol=0, atol=1e-13)
            assert iters[b] == alone.iterations
            assert residual[b] == alone.residual and dual[b] == alone.dual_value
            assert log_z[b] == -alone.density.log_norm[0]
            assert vals[b].tobytes() == alone.density.marginal_values(0).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), max_size=5),
        at=st.integers(0, 5),
    )
    def test_infeasible_row_fails_alone(self, rows, at):
        """The moments (1.7, 1.9) lie outside the m=2 moment space; in a
        stack only their row fails, with the error fit_maxent raises."""
        mu = np.array(rows + [(0.0, 0.0)])  # feasible: the uniform density
        at = min(at, len(mu))
        mu = np.insert(mu, at, [1.7, 1.9], axis=0)
        errors = _fit_rows(mu, gauss_rule(128))[-1]
        assert [b for b, err in enumerate(errors) if err is not None] == [at]
        assert isinstance(errors[at], InfeasibleMomentsError)
        with pytest.raises(InfeasibleMomentsError, match=re.escape(str(errors[at]))):
            fit_maxent(MomentVector(basis=make_tensor_basis(2, 1), values=np.array([1.7, 1.9])))


def test_condition_numbers_match_cond():
    """max|eig| / min|eig| is the 2-norm condition number of an SPD matrix."""
    rng = np.random.default_rng(0)
    for m in range(1, 7):
        a = rng.standard_normal((40, m, m))
        spd = a @ a.transpose(0, 2, 1) + 0.05 * np.eye(m)
        want = np.array([np.linalg.cond(h) for h in spd])
        np.testing.assert_allclose(_condition_numbers(spd), want, rtol=1e-12)


class TestProjectionFunctionals:
    def test_maxent_entropy_dominates(self):
        """h_phi(p) >= h(p) on assorted densities."""
        basis = make_tensor_basis(2, 1)
        for p in (
            uniform_density(1),
            make_truncated_normal(0.4, 0.2),
            make_truncated_normal(0.6, 0.12),
            ExpFamilyDensity(basis=make_tensor_basis(4, 1), lam=np.array([0.3, -0.2, 0.1, 0.05])),
        ):
            assert maxent_entropy(p, basis) >= entropy(p) - 1e-8

    def test_epsilon_gap_zero_for_family_members(self):
        basis = make_tensor_basis(3, 1)
        p = ExpFamilyDensity(basis=basis, lam=np.array([0.3, -0.2, 0.1]))
        assert epsilon_gap(p, basis) <= 1e-10

    def test_epsilon_gap_positive_outside_family(self):
        """A bimodal density is not order-2 maxent: strict entropy gap."""
        from momentadapt.densities import from_callable

        def bimodal(pts):
            x = pts[:, 0]
            return np.exp(-((x - 0.25) ** 2) / 0.005) + np.exp(
                -((x - 0.75) ** 2) / 0.005
            )

        p = from_callable(bimodal, 1)
        assert epsilon_gap(p, make_tensor_basis(2, 1)) > 1e-3

    def test_projection_idempotent(self):
        """Projecting a projection changes nothing."""
        basis = make_tensor_basis(2, 1)
        p = make_truncated_normal(0.35, 0.2)
        first = project(p, basis).density
        second = project(first, basis).density
        np.testing.assert_allclose(first.lam, second.lam, atol=1e-8)
