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


def _fit_1d(
    mu: np.ndarray, basis: TensorBasis, tol: float, max_iter: int, rule: QuadRule1D
) -> tuple[np.ndarray, int, float, float, tuple[float, np.ndarray]]:
    """Damped Newton on the 1-D dual; returns (lam, iters, residual, Gamma,
    part), where part is _log_partition at lam: log Z and the normalized
    density at the rule's nodes."""
    feats = feature_table(rule, basis.m)  # (n, m)

    def gamma(lam: np.ndarray) -> tuple[float, tuple[float, np.ndarray]]:
        """Gamma(lam) and _log_partition at lam."""
        part = _log_partition(rule, feats, lam)
        return float(np.dot(lam, mu)) + part[0], part

    lam = np.zeros(len(mu))  # uniform start; the dual is globally convex
    g_val, part = gamma(lam)
    iters = 0
    stall = 0
    residual = np.inf
    for iters in range(1, max_iter + 1):
        w = rule.weights * part[1]
        expect = feats.T @ w
        grad = mu - expect
        residual = float(np.max(np.abs(grad)))
        if residual <= tol:
            return lam, iters - 1, residual, g_val, part
        hess = feats.T @ (feats * w[:, None]) - np.outer(expect, expect)
        # covariance of linearly independent features: must stay SPD
        try:
            cond = np.linalg.cond(hess)
            if not np.isfinite(cond) or cond > HESSIAN_COND_LIMIT:
                raise InfeasibleMomentsError(
                    f"dual Hessian condition number {cond:.2e} exceeds "
                    f"{HESSIAN_COND_LIMIT:.0e}: moments at or beyond the "
                    "boundary of the moment space"
                )
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise InfeasibleMomentsError("singular dual Hessian") from exc
        # backtracking: halve until Gamma decreases; near the optimum the
        # decrease (~residual^2) drops below float resolution, so accept
        # steps that change Gamma by less than rounding
        t = 1.0
        accept_tol = 1e-14 * max(1.0, abs(g_val))
        while t > 1e-12:
            cand = lam - t * step
            c_val, c_part = gamma(cand)
            if c_val < g_val + accept_tol:
                break
            t *= 0.5
        else:
            cand, c_val, c_part = lam, g_val, part
        if c_val >= g_val - 1e-15 and residual > 1e-6:
            stall += 1
            if stall >= 3:
                raise InfeasibleMomentsError(
                    f"dual objective stagnated at residual {residual:.3e}"
                )
        else:
            stall = 0
        lam, g_val, part = cand, c_val, c_part
    raise MaxIterationsError(residual, max_iter)


def fit_maxent(
    mu: MomentVector,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    order: int = 128,
) -> FitResult:
    """Fit the maximum-entropy density with the given feature moments.

    Each dimension is fitted independently; the result is the product
    density, with the moment residual guaranteed below tol in sup norm.  It
    keeps the log Z and node values of each dimension's last Newton step
    rather than normalizing again.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    basis = mu.basis
    m = basis.m
    rule = gauss_rule(order)
    lam = np.empty(basis.n_features)
    parts = []
    iters = 0
    residual = 0.0
    dual = 0.0
    for j in range(basis.dim):
        lam_j, it_j, res_j, dual_j, part_j = _fit_1d(
            mu.per_dim(j), basis, tol, max_iter, rule
        )
        lam[j * m : (j + 1) * m] = lam_j
        parts.append(part_j)
        iters = max(iters, it_j)
        residual = max(residual, res_j)
        dual += dual_j
    density = ExpFamilyDensity._normalized(basis, lam, rule, parts)
    return FitResult(density=density, iterations=iters, residual=residual, dual_value=dual)


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
