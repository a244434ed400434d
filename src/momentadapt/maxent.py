"""Maximum-entropy fitting: information projection onto the product
exponential family constrained at a given moment vector.

The fit minimizes the convex dual objective

    Gamma(lam) = <lam, mu> + log Z(lam),      Z(lam) = int exp(-<lam, phi>)

per dimension, by damped Newton: the gradient is mu - E_lam[phi] and the
Hessian is the feature covariance, both evaluated by 1-D quadrature.  The
basis contains only univariate terms, so the mN-dimensional problem splits
exactly into N independent m-dimensional problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import TensorBasis, feature_table
from .densities import (
    Density,
    DensityError,
    ExpFamilyDensity,
    MomentVector,
    _log_partition,
    entropy,
    moments,
)
from .quadrature import QuadRule1D, gauss_rule

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200
HESSIAN_COND_LIMIT = 1e12


class InfeasibleMomentsError(DensityError):
    """The moment vector does not lie in the interior of the moment space;
    the dual Newton iteration diverged or the Hessian degenerated."""


class MaxIterationsError(DensityError):
    def __init__(self, residual: float, max_iter: int):
        super().__init__(
            f"moment residual {residual:.3e} after {max_iter} Newton iterations"
        )
        self.residual = residual


@dataclass(frozen=True)
class FitResult:
    density: ExpFamilyDensity
    iterations: int
    residual: float
    dual_value: float

    def to_dict(self) -> dict:
        return {
            "lambda": self.density.lam.tolist(),
            "iterations": self.iterations,
            "residual": self.residual,
            "dual_value": self.dual_value,
        }


def _condition_numbers(hess: np.ndarray) -> list[float]:
    """2-norm condition numbers of a stack of symmetric matrices: max|eig| /
    min|eig| from one eigvalsh, no SVD; inf for a singular matrix."""
    mags = [[abs(e) for e in eig] for eig in np.linalg.eigvalsh(hess).tolist()]
    return [max(a) / min(a) if min(a) > 0 else math.inf for a in mags]


def _fit_rows(mu: np.ndarray, rule: QuadRule1D, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Damped Newton on the 1-D dual of every row of mu (B, m) at once.

    Returns per row lam (B, m), iterations, residual, Gamma, log Z and the
    normalized factor at the rule's nodes (B, n) of its last step, and the
    error that ended it (None if it converged).  Stacked matmuls and solves
    make one BLAS or LAPACK call per row, so each row is bit for bit its fit
    alone; it converges, backtracks, stalls or fails on its own.
    """
    b_rows, m = mu.shape
    feats = feature_table(rule, m)  # (n, m)
    lam = np.zeros((b_rows, m))  # uniform start; the dual is globally convex
    log_z, vals = _log_partition(rule, feats, lam)
    g_val = log_z.tolist()  # Gamma(0) = log Z(0)
    iters, stall, errors = np.zeros(b_rows, dtype=int), [0] * b_rows, [None] * b_rows
    live = list(range(b_rows))
    for it in range(max_iter):
        w = rule.weights * vals
        expect = (feats.T @ w[:, :, None])[:, :, 0]
        grad = mu - expect
        residual = np.abs(grad).max(axis=1).tolist()
        iters[live] = it
        live = [r for r in live if not residual[r] <= tol]
        if not live:
            break
        hess = feats.T @ (feats * w[:, :, None]) - expect[:, :, None] * expect[:, None, :]
        # covariance of linearly independent features: must stay SPD
        cond = _condition_numbers(hess)
        for r in live:
            if not cond[r] <= HESSIAN_COND_LIMIT:
                errors[r] = InfeasibleMomentsError(
                    f"dual Hessian condition number {cond[r]:.2e} exceeds "
                    f"{HESSIAN_COND_LIMIT:.0e}: moments at or beyond the "
                    "boundary of the moment space"
                )
        live = [r for r in live if errors[r] is None]
        if not live:
            break
        if len(live) < b_rows:  # frozen rows take no step
            hess[np.isin(np.arange(b_rows), live, invert=True)] = np.eye(m)
        step = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        # backtracking: halve until Gamma decreases; near the optimum the
        # decrease (~residual^2) drops below float resolution, so accept
        # steps that change Gamma by less than rounding; a row that never
        # decreases Gamma stays where it is
        old = list(g_val)
        bar = [g + 1e-14 * max(1.0, abs(g)) for g in old]
        t, trying = 1.0, live
        while t > 1e-12 and trying:
            cand = lam - t * step
            c_log_z, c_vals = _log_partition(rule, feats, cand)
            c_val = ((cand[:, None, :] @ mu[:, :, None])[:, 0, 0] + c_log_z).tolist()
            ok = [r for r in trying if c_val[r] < bar[r]]
            if len(ok) == b_rows:
                lam, g_val, log_z, vals = cand, c_val, c_log_z, c_vals
                break
            if ok:
                lam[ok], log_z[ok], vals[ok] = cand[ok], c_log_z[ok], c_vals[ok]
                for r in ok:
                    g_val[r] = c_val[r]
                trying = [r for r in trying if not c_val[r] < bar[r]]
            t *= 0.5
        for r in live:
            stuck = g_val[r] >= old[r] - 1e-15 and residual[r] > 1e-6
            stall[r] = stall[r] + 1 if stuck else 0
            if stall[r] >= 3:
                errors[r] = InfeasibleMomentsError(
                    f"dual objective stagnated at residual {residual[r]:.3e}"
                )
        live = [r for r in live if errors[r] is None]
    else:
        for r in live:
            errors[r] = MaxIterationsError(residual[r], max_iter)
    return lam, iters, residual, g_val, log_z, vals, errors


def fit_maxent(
    mu: MomentVector,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    order: int = 128,
) -> FitResult:
    """Fit the maximum-entropy density with the given feature moments.

    Each dimension is one row of a batched Newton (_fit_rows); the result
    is the product density, with the moment residual guaranteed below tol
    in sup norm.  It keeps the log Z and node values of each dimension's
    last Newton step rather than normalizing again.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    basis = mu.basis
    rule = gauss_rule(order)
    fits = _fit_rows(mu.values.reshape(basis.dim, basis.m), rule, tol, max_iter)
    lam, iters, residual, dual, log_z, vals, errors = fits
    for err in filter(None, errors):  # the first failed dimension raises
        raise err
    density = ExpFamilyDensity._normalized(basis, lam.ravel(), rule, log_z, vals)
    return FitResult(density, int(iters.max()), max(residual), sum(dual))


def project(p: Density, basis: TensorBasis, order: int = 128) -> FitResult:
    """Information projection of p: maxent fit at the moments of p."""
    return fit_maxent(moments(p, basis), order=order)


def maxent_entropy(p: Density, basis: TensorBasis, order: int = 128) -> float:
    """Entropy of the maximum-entropy density sharing the moments of p."""
    return entropy(project(p, basis, order=order).density)


def epsilon_gap(p: Density, basis: TensorBasis, order: int = 128) -> float:
    """Entropy gap h_phi(p) - h(p) = D(p || p*), clamped at tiny negatives.

    Zero exactly when p already lies in the exponential family spanned by
    the basis.
    """
    gap = maxent_entropy(p, basis, order=order) - entropy(p)
    if gap < -1e-8:
        raise DensityError(
            f"entropy gap {gap:.3e} below numerical tolerance: inconsistent "
            "density functionals"
        )
    return max(gap, 0.0)
