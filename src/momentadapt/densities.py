"""Probability densities on [0,1]^N: construction, functionals, sampling.

Three concrete representations are used everywhere:

* GridDensity -- values tabulated on a Gauss tensor grid, optionally with a
  closed-form evaluator (truncated normals, mixtures, ad-hoc test
  densities).
* ExpFamilyDensity -- the product exponential family
  p(x) = prod_j c_j exp(-<lam_j, (eta_1..eta_m)(x_j)>)
  spanned by the per-coordinate Legendre features.  The basis contains only
  univariate terms, so members always factorize over dimensions.
* ProductDensity -- independent 1-D densities, one per coordinate.

Every density carries a `grid` whose rule j is its native 1-D quadrature
for coordinate j.  Exponential-family members, products and 1-D densities
are products of their 1-D marginals on that grid, so their functionals
split into per-coordinate 1-D quadratures; only a multivariate
GridDensity is integrated on the joint tensor grid.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .basis import TensorBasis, make_tensor_basis
from .quadrature import QuadGridND, gauss_rule, tensor_grid

NORMALIZATION_TOL = 1e-9

# CDF tables for inverse-transform sampling; refinement of the quadrature
# grid so interpolation error stays below sampling noise.
CDF_TABLE_SIZE = 8193


class DensityError(ValueError):
    pass


class GridResolutionError(DensityError):
    """The quadrature grid cannot resolve the density (normalization check
    failed); the caller must raise the grid order."""


@dataclass(frozen=True)
class MomentVector:
    """Expectations of the m*N Legendre features under some density.

    Ordering matches TensorBasis: entry (j, i) at flat index j*m + (i-1).
    """

    basis: TensorBasis
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.basis.n_features,):
            raise ValueError(
                f"expected {self.basis.n_features} moment entries, got {vals.shape}"
            )
        # features eta_i attain max |eta_i| = sqrt(2i+1) at the endpoints
        caps = np.tile(np.sqrt(2 * np.arange(1, self.basis.m + 1) + 1), self.basis.dim)
        if np.any(np.abs(vals) > caps + 1e-9):
            raise ValueError("moment entry outside the attainable feature range")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    def per_dim(self, j: int) -> np.ndarray:
        m = self.basis.m
        return self.values[j * m : (j + 1) * m]

    def __sub__(self, other: "MomentVector") -> np.ndarray:
        if other.basis.m != self.basis.m or other.basis.dim != self.basis.dim:
            raise ValueError("moment vectors built on different bases")
        return self.values - other.values


@dataclass(frozen=True)
class Sample:
    """k points in [0,1]^N plus the seed they were drawn with."""

    points: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("sample points must lie in [0,1]^N")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        np.savetxt(buf, self.points, delimiter=",", fmt="%.17g")
        return buf.getvalue()


class GridDensity:
    """Density tabulated on a Gauss tensor grid over [0,1]^N.

    `raw` is any positive, integrable function; the normalization constant
    is fixed by quadrature at construction.  When `raw` is None the density
    is defined only at the grid nodes by `values`.
    """

    def __init__(
        self,
        grid: QuadGridND,
        raw: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        values: Optional[np.ndarray] = None,
        check_tol: float = NORMALIZATION_TOL,
    ):
        self.grid = grid
        self._raw = raw
        if values is None:
            if raw is None:
                raise DensityError("need either node values or an evaluator")
            values = np.asarray(raw(grid.nodes()), dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise DensityError("density values must be finite and non-negative")
        z = grid.integrate_values(values)
        if z <= 0.0:
            raise DensityError("density integrates to zero on the grid")
        self._z = z
        self.values = values / z
        self.values.setflags(write=False)
        if raw is not None:
            # doubling self-check: a grid too coarse for the density shows
            # up as a normalization error on the refined grid
            fine = tensor_grid(grid.dim, min(2 * grid.rules[0].order, 512))
            total = fine.integrate(lambda p: np.asarray(raw(p)) / z)
            if abs(total - 1.0) > check_tol:
                raise GridResolutionError(
                    f"normalization off by {abs(total - 1.0):.2e} on the doubled "
                    "grid; increase the quadrature order"
                )

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def has_evaluator(self) -> bool:
        return self._raw is not None

    def pdf(self, x) -> np.ndarray:
        if self._raw is None:
            raise DensityError("density has no closed-form evaluator")
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        out = np.asarray(self._raw(pts), dtype=float) / self._z
        return out[0] if single else out

    def log_pdf(self, x) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.pdf(x))

    def factor_pdf(self, j: int, x) -> np.ndarray:
        """A 1-D grid density is its own only factor (j = 0)."""
        if self.dim != 1:
            raise DensityError("a multivariate grid density has no factors")
        return self.pdf(np.asarray(x, dtype=float).reshape(-1, 1))

    def marginal_values(self, j: int) -> np.ndarray:
        """Marginal density of coordinate j at the nodes of grid.rules[j]."""
        vals = self.values.reshape(tuple(r.order for r in self.grid.rules))
        for axis in reversed(range(self.dim)):
            if axis == j:
                continue
            vals = np.tensordot(vals, self.grid.rules[axis].weights, axes=([axis], [0]))
        return vals

    def to_dict(self) -> dict:
        return {
            "type": "grid",
            "dim": self.dim,
            "order": native_order(self),
            "values": self.values.tolist(),
        }


class ExpFamilyDensity:
    """Member of the product exponential family over [0,1]^N.

    Parameterized as p(x) = prod_j c_j exp(-<lam_j, phi_j(x_j)>), matching
    the minus-sign convention used for the dual solver; lam is therefore
    the negative of the conventional natural parameter.
    """

    def __init__(self, basis: TensorBasis, lam, order: int = 128):
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (basis.n_features,):
            raise DensityError(
                f"lambda must have length {basis.n_features}, got {lam.shape}"
            )
        self.basis = basis
        self.lam = lam
        self.lam.setflags(write=False)
        rule = gauss_rule(order)
        self.grid = QuadGridND(rules=(rule,) * basis.dim)
        feats = basis.per_dim.eval_all(rule.nodes)[:, 1:]  # (n, m)
        m = basis.m
        self._log_z = np.empty(basis.dim)
        # factor densities at the rule nodes, kept so that moments, entropy
        # and KL never recompute the exponentials
        self._factor_node_vals = np.empty((basis.dim, rule.order))
        for j in range(basis.dim):
            expo = -feats @ lam[j * m : (j + 1) * m]
            shift = float(np.max(expo))
            z = rule.integrate_values(np.exp(expo - shift))
            self._log_z[j] = shift + math.log(z)
            self._factor_node_vals[j] = np.exp(expo - self._log_z[j])
        self._log_z.setflags(write=False)
        self._factor_node_vals.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def log_norm(self) -> np.ndarray:
        """Per-dimension log normalization constants log c_j = -log Z_j."""
        return -self._log_z

    def lam_dim(self, j: int) -> np.ndarray:
        m = self.basis.m
        return self.lam[j * m : (j + 1) * m]

    def log_pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        feats = self.basis.per_dim.eval_all(pts)[..., 1:]  # (k, N, m)
        m = self.basis.m
        lam = self.lam.reshape(self.dim, m)
        out = -np.einsum("knm,nm->k", feats, lam) - np.sum(self._log_z)
        return out[0] if single else out

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.log_pdf(x))

    def factor_pdf(self, j: int, x) -> np.ndarray:
        """1-D marginal factor along dimension j."""
        x = np.asarray(x, dtype=float)
        feats = self.basis.per_dim.eval_all(x)[..., 1:]
        return np.exp(-feats @ self.lam_dim(j) - self._log_z[j])

    def marginal_values(self, j: int) -> np.ndarray:
        """Factor j at the nodes of grid.rules[j]."""
        return self._factor_node_vals[j]

    def to_dict(self) -> dict:
        return {
            "type": "expfam",
            "dim": self.dim,
            "m": self.basis.m,
            "lambda": self.lam.tolist(),
        }


class ProductDensity:
    """Product of independent 1-D densities over [0,1]^N.

    Rule j of `grid` is the native rule of factor j.  Nothing is tabulated
    on the joint grid: every functional of a product splits into 1-D
    functionals of its factors.
    """

    def __init__(self, factors: Sequence[Density]):
        factors = tuple(factors)
        if not factors or any(f.dim != 1 for f in factors):
            raise DensityError("factors must be one-dimensional")
        self.factors = factors
        self.grid = QuadGridND(rules=tuple(f.grid.rules[0] for f in factors))

    @property
    def dim(self) -> int:
        return len(self.factors)

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        out = np.ones(pts.shape[0])
        for j in range(self.dim):
            out *= self.factor_pdf(j, pts[:, j])
        return out[0] if single else out

    def factor_pdf(self, j: int, x) -> np.ndarray:
        """1-D density of factor j."""
        return self.factors[j].factor_pdf(0, x)

    def marginal_values(self, j: int) -> np.ndarray:
        """Factor j at the nodes of grid.rules[j]."""
        return self.factors[j].marginal_values(0)


Density = Union[GridDensity, ExpFamilyDensity, ProductDensity]


def native_order(p: Density) -> int:
    """Finest 1-D quadrature order of p's own grid."""
    return max(r.order for r in p.grid.rules)


def _is_product(p: Density) -> bool:
    """Whether p is the product of its 1-D marginals on p.grid."""
    return p.dim == 1 or not isinstance(p, GridDensity)


def uniform_density(dim: int, order: Optional[int] = None) -> GridDensity:
    grid = tensor_grid(dim, order)
    return GridDensity(grid, raw=lambda p: np.ones(p.shape[0]))


def make_truncated_normal(
    mean: float, sigma: float, order: Optional[int] = None
) -> GridDensity:
    """Normal restricted to [0,1], normalized by quadrature.

    Raises GridResolutionError for sigma so small that the grid cannot
    resolve the peak; the caller may retry with a higher order.
    """
    if sigma <= 0:
        raise DensityError("sigma must be positive")

    def raw(p: np.ndarray) -> np.ndarray:
        x = p[:, 0]
        return np.exp(-((x - mean) ** 2) / (2.0 * sigma**2))

    return GridDensity(tensor_grid(1, order), raw=raw)


def from_callable(
    fn: Callable[[np.ndarray], np.ndarray], dim: int, order: Optional[int] = None
) -> GridDensity:
    """Normalize an arbitrary positive function into a GridDensity."""
    return GridDensity(tensor_grid(dim, order), raw=fn)


def product_density(factors: Sequence[Density]) -> ProductDensity:
    """Product of independent 1-D densities."""
    return ProductDensity(factors)


def marginal_pdf(p: Density, j: int) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form marginal density of coordinate j as a callable on [0,1]."""
    if _is_product(p):
        return lambda x: p.factor_pdf(j, x)
    if not p.has_evaluator:
        raise DensityError("marginal of a value-only grid density is undefined")
    other = [ax for ax in range(p.dim) if ax != j]
    sub = QuadGridND(rules=tuple(p.grid.rules[ax] for ax in other))
    sub_nodes = sub.nodes()
    sub_w = sub.weights()

    def marg(x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x.shape)
        for idx, xv in enumerate(x):
            pts = np.empty((sub_nodes.shape[0], p.dim))
            pts[:, other] = sub_nodes
            pts[:, j] = xv
            out[idx] = float(np.dot(sub_w, p.pdf(pts)))
        return out

    return marg


def moments(p: Density, basis: TensorBasis) -> MomentVector:
    """Feature moments int eta_i(x_j) p(x) dx, dimension-major."""
    if basis.dim != p.dim:
        raise DensityError(f"basis dim {basis.dim} != density dim {p.dim}")
    m = basis.m
    out = np.empty(basis.n_features)
    for j, rule in enumerate(p.grid.rules):
        feats = basis.per_dim.eval_all(rule.nodes)[:, 1:]
        out[j * m : (j + 1) * m] = feats.T @ (rule.weights * p.marginal_values(j))
    return MomentVector(basis=basis, values=out)


def sample_moments(sample: Sample, basis: TensorBasis) -> MomentVector:
    """(1/k) sum over the sample of the feature vector."""
    if sample.k == 0:
        raise DensityError("empty sample")
    if basis.dim != sample.dim:
        raise DensityError("sample/basis dimension mismatch")
    vals = basis.eval(sample.points)
    vals = np.atleast_2d(vals)
    return MomentVector(basis=basis, values=vals.mean(axis=0))


def _xlogx(vals: np.ndarray) -> np.ndarray:
    return np.where(vals > 0, vals * np.log(np.maximum(vals, 1e-300)), 0.0)


def entropy(p: Density) -> float:
    """Shannon differential entropy -int p log p, with 0*log(0) = 0."""
    if _is_product(p):
        total = 0.0
        for j, rule in enumerate(p.grid.rules):
            total += -rule.integrate_values(_xlogx(p.marginal_values(j)))
        return total
    return -p.grid.integrate_values(_xlogx(p.values))


def trapezoid_cdf(
    pdf1d: Callable[[np.ndarray], np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """CDF of a 1-D density by trapezoid accumulation on n uniform points.

    Returns the points and the CDF values, normalized to end at 1.
    """
    xs = np.linspace(0.0, 1.0, n)
    dens = np.maximum(np.asarray(pdf1d(xs), dtype=float), 0.0)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(xs))])
    if cdf[-1] <= 0:
        raise DensityError("degenerate CDF: the density integrates to zero")
    return xs, cdf / cdf[-1]


def draw_sample(p: Density, k: int, seed: int) -> Sample:
    """Inverse-CDF sampling, per dimension, deterministic given the seed.

    Only product-form densities are supported: exponential-family members
    (always products), 1-D densities and ProductDensity.
    """
    if k < 1:
        raise DensityError("sample size must be >= 1")
    if not _is_product(p):
        raise DensityError(
            "sampling requires a product-form density (expfam, 1-D, or "
            "product_density)"
        )
    u = np.random.default_rng(seed).random((k, p.dim))
    cols = []
    for j in range(p.dim):
        xs, cdf = trapezoid_cdf(lambda x: p.factor_pdf(j, x), CDF_TABLE_SIZE)
        cols.append(np.interp(u[:, j], cdf, xs))
    return Sample(points=np.column_stack(cols), seed=seed)


@dataclass(frozen=True)
class SmoothnessReport:
    """Estimated membership data for the smooth high-entropy class.

    epsilon is the entropy gap to the moment-matched exponential-family
    projection; c_inf estimates sup |log p|; c_r[i] estimates the L2 norm
    of the m-th derivative of the log marginal in dimension i (finite
    differences, so an estimate, not a certificate).
    """

    m: int
    epsilon: float
    c_inf: float
    c_r: np.ndarray
    a1_ok: bool
    a2_ok: bool
    a3_ok: bool
    derivative_converged: bool = True

    @property
    def member(self) -> Optional[bool]:
        if not self.derivative_converged:
            return None
        return self.a1_ok and self.a2_ok and self.a3_ok


def _fd_weights(offsets: np.ndarray, deriv: int) -> np.ndarray:
    """Finite-difference weights for the deriv-th derivative on the given
    integer offsets (unit step)."""
    n = len(offsets)
    a = np.vander(offsets, n, increasing=True).T.astype(float)
    b = np.zeros(n)
    b[deriv] = math.factorial(deriv)
    return np.linalg.solve(a, b)


def _fd_derivative_values(
    logf: Callable[[np.ndarray], np.ndarray], order: int, h: float, xs: np.ndarray
) -> np.ndarray:
    """order-th derivative of logf at xs by order-8 finite differences.

    The stencil window shifts near the boundary so all evaluation points
    stay inside [0,1].
    """
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
        w = _fd_weights(offs, order)
        out[idx] = np.dot(w, logf(x + offs * h)) / h**order
    return out


def _log_marginal(p: Density, j: int) -> Callable[[np.ndarray], np.ndarray]:
    marg = marginal_pdf(p, j)

    def logf(x):
        v = np.asarray(marg(np.atleast_1d(x)), dtype=float)
        return np.log(np.maximum(v, 1e-300))

    return logf


def sup_log_density(p: Density, refine: int = 10) -> float:
    """sup |log p| probed on a refined uniform grid plus quadrature nodes.

    For a product, log p is a sum over coordinates, so its extremes are the
    sums of the per-coordinate extremes.  A density that vanishes somewhere
    gives inf.
    """
    if _is_product(p):
        total_max = 0.0
        total_min = 0.0
        for j, rule in enumerate(p.grid.rules):
            xs = np.unique(
                np.concatenate([np.linspace(0, 1, refine * rule.order + 1), rule.nodes])
            )
            with np.errstate(divide="ignore"):
                lv = np.log(p.factor_pdf(j, xs))
            total_max += float(np.max(lv))
            total_min += float(np.min(lv))
        return max(abs(total_max), abs(total_min))
    # moderate-dimensional grid densities: probe on a product grid
    axes = [
        np.unique(np.concatenate([np.linspace(0, 1, 101), r.nodes]))
        for r in p.grid.rules
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    lv = p.log_pdf(pts)
    return float(np.max(np.abs(lv)))


def class_margins(
    m: int, epsilon_bound: float, epsilon: float, c_inf: float, c_r
) -> tuple[float, float, float]:
    """Margins of the three smooth high-entropy class conditions at order m.

    Each margin is threshold minus estimate, so a non-negative margin means
    the condition holds: a1 epsilon <= epsilon_bound, a2 c_inf <= (3m-6)/2,
    a3 max_j c_r[j] <= 5^(m-4).
    """
    return (
        epsilon_bound - epsilon,
        (3 * m - 6) / 2.0 - c_inf,
        5.0 ** (m - 4) - float(np.max(c_r)),
    )


def smoothness_report(
    p: Density, m: int, basis: Optional[TensorBasis] = None
) -> SmoothnessReport:
    """Estimate the three membership conditions of the smooth high-entropy
    class at order m.

    The derivative norms come from finite differences on the log marginals
    with a step-halving self-check; a failed check leaves the verdict
    indeterminate rather than wrong.
    """
    from . import maxent  # deferred: maxent builds on this module

    if basis is None:
        basis = make_tensor_basis(m, p.dim)
    # fit/entropy quadrature must be at least as fine as the density's own
    # grid, or sharply peaked densities show spurious negative gaps
    try:
        eps = maxent.epsilon_gap(p, basis, order=max(native_order(p), 128))
    except DensityError:
        # projection infeasible/divergent: the entropy gap is unverifiable,
        # which counts as failing the gap condition
        eps = math.inf
    c_inf = sup_log_density(p)

    xs = np.linspace(0.0, 1.0, 201)
    c_r = np.empty(p.dim)
    converged = True
    for j in range(p.dim):
        logf = _log_marginal(p, j)
        norms = []
        for h in (2e-2, 1e-2):
            dv = _fd_derivative_values(logf, m, h, xs)
            norms.append(math.sqrt(float(np.trapezoid(dv**2, xs))))
        c_r[j] = norms[-1]
        scale = max(1.0, abs(norms[-1]))
        if abs(norms[1] - norms[0]) > 1e-3 * scale:
            converged = False
    c_r.setflags(write=False)

    a1, a2, a3 = class_margins(m, 1e-7, eps, c_inf, c_r)
    return SmoothnessReport(
        m=m,
        epsilon=eps,
        c_inf=c_inf,
        c_r=c_r,
        a1_ok=a1 >= 0,
        a2_ok=a2 >= 0,
        a3_ok=a3 >= 0,
        derivative_converged=converged,
    )
