"""Distances between densities and classification risk functionals.

Covers L1 / total variation, KL by quadrature and in exponential-family
closed form, the feature-moment l1 distance, the central moment discrepancy
between samples, the Levy metric between 1-D CDFs and the worst-case labeling.
Product-form pairs are integrated factor by factor (KL as a sum of 1-D KLs,
L1 and risk from outer products of factor values) within quadrature.MAX_NODES.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .densities import (
    Density,
    DensityError,
    ExpFamilyDensity,
    MomentVector,
    Sample,
    grid_values,
    marginal_pdf,
    moments,
    native_order,
    trapezoid_cdf,
)
from .quadrature import MAX_ORDER, QuadGridND, default_order, tensor_grid

CDF_GRID_SIZE = 10_001  # uniform points of tabulate_cdf

# levy_metric: width of the final eps bracket, and the uniform x-grid on
# which the two CDFs are compared
LEVY_TOL = 1e-6
LEVY_GRID_SIZE = 10_000


def _common_grid(p: Density, q: Density, order: Optional[int] = None):
    if p.dim != q.dim:
        raise DensityError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if order is None:
        order = max(native_order(p), native_order(q), default_order(p.dim))
    return tensor_grid(p.dim, min(order, MAX_ORDER))


def l1_distance(p: Density, q: Density, order: Optional[int] = None) -> float:
    """int |p - q| over the cube; always in [0, 2] for densities."""
    grid = _common_grid(p, q, order)
    return grid.integrate_values(np.abs(grid_values(p, grid) - grid_values(q, grid)))


def total_variation(p: Density, q: Density, order: Optional[int] = None) -> float:
    return 0.5 * l1_distance(p, q, order)


def kl_divergence(p: Density, q: Density, order: Optional[int] = None) -> float:
    """int p log(p/q) by quadrature; for two products, the sum of the factor KLs.

    Rejects node-level support violations (q = 0 where p > 0) instead of
    silently returning inf; on a tensor grid of products such a node exists
    exactly when one exists in some factor.
    """
    grid = _common_grid(p, q, order)
    if p.factors and q.factors:
        return sum(
            _kl_on_grid(fp.values_at(r), fq.values_at(r), QuadGridND((r,)))
            for fp, fq, r in zip(p.factors, q.factors, grid.rules)
        )
    return _kl_on_grid(grid_values(p, grid), grid_values(q, grid), grid)


def _kl_on_grid(pv: np.ndarray, qv: np.ndarray, grid: QuadGridND) -> float:
    bad = (pv > 0) & (qv <= 0)
    if np.any(bad):
        raise DensityError(
            f"support violation: q vanishes at weighted node {grid.nodes()[bad][0]!r}"
        )
    integrand = np.where(pv > 0, pv * (np.log(np.maximum(pv, 1e-300)) - np.log(np.maximum(qv, 1e-300))), 0.0)
    return grid.integrate_values(integrand)


def kl_expfam_closed_form(p: ExpFamilyDensity, q: ExpFamilyDensity) -> float:
    """KL between exponential-family members from normalizers and moments.

    D(p||q) = (log c(lam_p) - log c(lam_q)) + <mu_p, lam_q - lam_p>, with
    mu_p the feature moments of p.  No N-dimensional integral involved.
    """
    if p.basis.m != q.basis.m or p.dim != q.dim:
        raise DensityError("densities built on different bases")
    mu_p = moments(p, p.basis).values
    log_c_p = float(np.sum(p.log_norm))
    log_c_q = float(np.sum(q.log_norm))
    return (log_c_p - log_c_q) + float(np.dot(mu_p, q.lam - p.lam))


def moment_l1(mu_p: MomentVector, mu_q: MomentVector) -> float:
    """l1 norm of the difference of two feature-moment vectors."""
    return float(np.sum(np.abs(mu_p - mu_q)))


def central_moments(sample: Sample, m: int) -> np.ndarray:
    """Empirical mean and central moments c_1..c_m, shape (m, N).

    Biased 1/k estimators with element-wise powers: c_1 = mean,
    c_j = mean((x - c_1)^j) for j >= 2.
    """
    if sample.k == 0:
        raise DensityError("empty sample")
    pts = sample.points
    out = np.empty((m, pts.shape[1]))
    mean = pts.mean(axis=0)
    out[0] = mean
    centered = pts - mean
    for j in range(2, m + 1):
        out[j - 1] = np.mean(centered**j, axis=0)
    return out


def cmd(x: Sample, y: Sample, m: int) -> float:
    """Central moment discrepancy: sum_j ||c_j(X) - c_j(Y)||_2."""
    if x.dim != y.dim:
        raise DensityError("samples of different dimension")
    if m < 1:
        raise ValueError("m must be >= 1")
    cx = central_moments(x, m)
    cy = central_moments(y, m)
    return float(np.sum(np.linalg.norm(cx - cy, axis=1)))


@dataclass(frozen=True)
class TabulatedCDF:
    """Nondecreasing CDF tabulated on a grid over [0,1], 0 at the left end
    and 1 at the right."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if xs.shape != vals.shape or xs.ndim != 1:
            raise ValueError("grid and values must be equal-length vectors")
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("CDF must be nondecreasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", np.clip(vals, 0.0, 1.0))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.xs, self.values, left=0.0, right=1.0)


def tabulate_cdf(p: Density) -> TabulatedCDF:
    """CDF of a 1-D density by trapezoid accumulation on a uniform grid."""
    if p.dim != 1:
        raise DensityError("CDF tabulation requires a 1-D density")
    xs, cdf = trapezoid_cdf(marginal_pdf(p, 0), CDF_GRID_SIZE)
    return TabulatedCDF(xs=xs, values=cdf)


def levy_metric(cdf_p: TabulatedCDF, cdf_q: TabulatedCDF) -> float:
    """Levy metric: smallest eps with P(x-eps)-eps <= Q(x) <= P(x+eps)+eps.

    Solved by bisection on eps over a dense x-grid; the distance always
    lies in [0, 1].
    """
    xs = np.linspace(0.0, 1.0, LEVY_GRID_SIZE)
    qv = cdf_q(xs)

    def fits(eps: float) -> bool:
        lo = cdf_p(xs - eps) - eps
        hi = cdf_p(xs + eps) + eps
        return bool(np.all(lo <= qv + 1e-15) and np.all(qv <= hi + 1e-15))

    lo, hi = 0.0, 1.0
    if fits(0.0):
        return 0.0
    while hi - lo > LEVY_TOL:
        mid = 0.5 * (lo + hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class Classifier:
    """Binary discriminative model f: [0,1]^N -> {0,1}."""

    fn: Callable[[np.ndarray], np.ndarray]
    description: str = ""

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(np.atleast_2d(pts)), dtype=float)
        if np.any((out != 0.0) & (out != 1.0)):
            raise ValueError("classifier output must be in {0, 1}")
        return out


@dataclass(frozen=True)
class Labeling:
    """Labeling function l: [0,1]^N -> [0,1] (soft labels allowed)."""

    fn: Callable[[np.ndarray], np.ndarray]
    description: str = ""

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(np.atleast_2d(pts)), dtype=float)
        if np.any(out < -1e-12) or np.any(out > 1 + 1e-12):
            raise ValueError("labeling output must lie in [0, 1]")
        return np.clip(out, 0.0, 1.0)


def threshold_classifier(axis: int, threshold: float) -> Classifier:
    return Classifier(
        fn=lambda pts: (pts[:, axis] > threshold).astype(float),
        description=f"x[{axis}] > {threshold}",
    )


def risk(
    f: Classifier, l: Labeling, p: Density, order: Optional[int] = None
) -> float:
    """Misclassification risk int |f - l| p.

    Indicator integrands are only piecewise smooth, so the quadrature
    order is doubled relative to the density default.
    """
    if order is None:
        order = min(2 * max(native_order(p), default_order(p.dim)), MAX_ORDER)
    return _loss_integrals(f, l, tensor_grid(p.dim, order), p)[0]


def _loss_integrals(
    f: Classifier, l: Labeling, grid: QuadGridND, *densities: Density
) -> list[float]:
    """int |f - l| p over grid, for each of the densities."""
    pts = grid.nodes()
    loss = np.abs(f(pts) - l(pts))
    return [grid.integrate_values(loss * grid_values(p, grid)) for p in densities]


def empirical_risk(f: Classifier, l: Labeling, sample: Sample) -> float:
    """Sample mean of |f - l|."""
    if sample.k == 0:
        raise DensityError("empty sample")
    pts = sample.points
    return float(np.mean(np.abs(f(pts) - l(pts))))


def worst_case_labeling(
    f: Classifier, p: Density, q: Density, order: Optional[int] = None
) -> tuple[Labeling, float]:
    """Labeling maximizing the source/target risk gap, and the gap itself.

    l*(x) disagrees with f exactly on the set {p >= q}, which makes
    |f - l*| the indicator of that set and the achieved gap equal to half
    the L1 distance between p and q.
    """

    def lstar_fn(pts: np.ndarray) -> np.ndarray:
        agree = p.pdf(pts) < q.pdf(pts)  # outside {p >= q}: copy f
        fv = f(pts)
        return np.where(agree, fv, 1.0 - fv)

    lstar = Labeling(fn=lstar_fn, description="worst-case labeling for " + f.description)
    return lstar, labeling_gap(f, lstar, p, q, order)


def labeling_gap(
    f: Classifier, l: Labeling, p: Density, q: Density, order: Optional[int] = None
) -> float:
    """|E_q|f-l| - E_p|f-l|| on a shared grid (for maximality checks)."""
    risk_q, risk_p = _loss_integrals(f, l, _common_grid(p, q, order), q, p)
    return abs(risk_q - risk_p)
