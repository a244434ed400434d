"""Probability densities on [0,1]^N: construction, functionals, sampling.

The paper's product structure lives in one private type, _Factor: a 1-D
density on its own Gauss rule, holding its normalized values at that
rule's nodes, its pdf, and its inverse-CDF table, built on the first draw.
Every density has `factors`, a tuple of _Factor for a product-form density
and None for a multivariate grid density:

* GridDensity -- values tabulated on a Gauss tensor grid, optionally with a
  closed-form evaluator (truncated normals, mixtures, ad-hoc test
  densities).  A 1-D one is its own single factor.
* ProductDensity -- independent 1-D factors, one per coordinate, with the
  product of their pdfs as its pdf.
* ExpFamilyDensity -- the ProductDensity
  p(x) = prod_j c_j exp(-<lam_j, (eta_1..eta_m)(x_j)>)
  spanned by the per-coordinate Legendre features.  The basis contains only
  univariate terms, so members always factorize over dimensions.

Rule j of a density's `grid` is the rule of factor j.  The functionals of a
product-form density split into 1-D quadratures of its factors; only a
multivariate GridDensity is integrated on the joint tensor grid.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import quadrature
from .basis import TensorBasis, feature_table, make_tensor_basis
from .quadrature import MAX_ORDER, QuadGridND, QuadRule1D, gauss_rule, tensor_grid

NORMALIZATION_TOL = 1e-9

# CDF tables for inverse-transform sampling; refinement of the quadrature
# grid so interpolation error stays below sampling noise.
CDF_TABLE_SIZE = 8193

# Inverse-CDF guide entries; a power of two, so u's bucket is floor(u * GUIDE_SIZE).
GUIDE_SIZE = 8192

# Sampling and sample moments stream the sample through blocks of this many
# rows, so their working memory does not grow with the sample size k.
BLOCK_ROWS = 8192

# sup_log_density probes each coordinate on a uniform grid this many times
# finer than its quadrature rule, plus the rule's nodes.
SUP_LOG_REFINE = 10


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
        if not np.all(np.abs(vals) <= caps + 1e-9):
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
        # min/max rather than a mask: no k-row temporary, and NaN fails both
        if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):
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


class _Factor:
    """A 1-D factor of a product-form density: its Gauss rule, its normalized
    values at that rule's nodes, its pdf on [0,1] and its inverse-CDF table."""

    def __init__(self, rule: QuadRule1D, values: np.ndarray, pdf: Callable[[np.ndarray], np.ndarray]):
        self.rule = rule
        self.values = values
        self.values.setflags(write=False)
        self.pdf = pdf

    def values_at(self, rule: QuadRule1D) -> np.ndarray:
        """The factor at the nodes of rule."""
        return self.values if rule is self.rule else self.pdf(rule.nodes)

    @functools.cached_property
    def cdf_table(self) -> tuple[np.ndarray, ...]:
        """Inverse-CDF table (points, CDF, cell slopes, cell guide), built on
        the first draw and kept for later draws."""
        xs, cdf = trapezoid_cdf(self.pdf, CDF_TABLE_SIZE)
        with np.errstate(divide="ignore", over="ignore"):  # see _inverse_cdf
            slope = np.diff(xs) / np.diff(cdf)
        # guide[b] + 1 counts the j with cdf[j] <= b/G, that is ceil(cdf[j] * G) <= b
        ceil = np.ceil(cdf * GUIDE_SIZE).astype(np.intp)
        guide = np.cumsum(np.bincount(ceil, minlength=GUIDE_SIZE + 1))[:GUIDE_SIZE] - 1
        table = (xs, cdf, slope, guide)
        for arr in table:
            arr.setflags(write=False)
        return table


def _scaled_raw(raw, z: float, pts: np.ndarray) -> np.ndarray:
    """raw(pts) / z at a batch of points (k, N): the pdf of a grid density."""
    if raw is None:
        raise DensityError("density has no closed-form evaluator")
    return np.asarray(raw(pts), dtype=float) / z


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
        # a 1-D grid density is its own single factor; its pdf does not refer
        # back to the density, whose memory a reference cycle would hold
        pdf = lambda x: _scaled_raw(raw, z, np.asarray(x, dtype=float).reshape(-1, 1))
        self.factors = (_Factor(grid.rules[0], self.values, pdf),) if grid.dim == 1 else None
        if raw is not None:
            # resolution self-check: a grid too coarse for the density shows
            # up as a normalization error on the doubled grid; an axis at
            # MAX_ORDER cannot double and is checked at half its order
            orders = [r.order for r in grid.rules]
            check = [MAX_ORDER // 2 if n == MAX_ORDER else min(2 * n, MAX_ORDER) for n in orders]
            total = QuadGridND(rules=tuple(map(gauss_rule, check))).integrate(
                lambda p: np.asarray(raw(p)) / z
            )
            if abs(total - 1.0) > NORMALIZATION_TOL:
                fix = "increase the quadrature order"
                if MAX_ORDER in orders:
                    fix = f"the density is too narrow for MAX_ORDER = {MAX_ORDER}"
                raise GridResolutionError(
                    f"normalization off by {abs(total - 1.0):.2e} on the check grid; {fix}"
                )

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def has_evaluator(self) -> bool:
        return self._raw is not None

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = _scaled_raw(self._raw, self._z, np.atleast_2d(x))
        return out[0] if x.ndim == 1 else out

    def log_pdf(self, x) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.pdf(x))

    def marginal_values(self, j: int) -> np.ndarray:
        """Marginal density of coordinate j at the nodes of grid.rules[j]."""
        rules = self.grid.rules
        vals = np.moveaxis(self.values.reshape(tuple(r.order for r in rules)), j, 0)
        others = QuadGridND(rules=rules[:j] + rules[j + 1 :])
        return others.integrate_values(vals.reshape(rules[j].order, -1))


class ProductDensity:
    """Product of independent 1-D factors over [0,1]^N.

    Rule j of `grid` is the rule of factor j.  Nothing is tabulated on the
    joint grid: every functional of a product splits into 1-D functionals
    of its factors.
    """

    def __init__(self, factors: tuple[_Factor, ...]):
        self.factors = factors
        self.grid = QuadGridND(rules=tuple(f.rule for f in factors))

    @property
    def dim(self) -> int:
        return len(self.factors)

    def pdf(self, x) -> np.ndarray:
        """Product of the factor pdfs, at one point of shape (N,) or a batch (k, N)."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        out = np.ones(pts.shape[0])
        for j, f in enumerate(self.factors):
            out *= f.pdf(pts[:, j])
        return out[0] if x.ndim == 1 else out


def _log_partition(
    rule: QuadRule1D, feats: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """log Z of the 1-D factors exp(-<lam_b, eta>), one per row lam_b of
    lam (B, m), on rule, whose feature table is feats; and the normalized
    factors at the rule's nodes, (B, n).  The products are stacked matmuls,
    one BLAS call per row, so each row is bit for bit what it gives alone."""
    expo = -(feats @ lam[:, :, None])[:, :, 0]
    shift = expo.max(axis=1)
    sums = (rule.weights @ np.exp(expo - shift[:, None])[:, :, None])[:, 0]
    log_z = shift + np.array([math.log(z) for z in sums.tolist()])
    return log_z, np.exp(expo - log_z[:, None])


class ExpFamilyDensity(ProductDensity):
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
        if not np.isfinite(lam).all():
            raise DensityError(f"lambda must be finite, got {lam.tolist()}")
        rule = gauss_rule(order)
        feats = feature_table(rule, basis.m)  # (n, m)
        log_z, vals = _log_partition(rule, feats, lam.reshape(basis.dim, basis.m))
        self._set_factors(basis, lam, rule, log_z, vals)

    @classmethod
    def _normalized(cls, basis: TensorBasis, lam: np.ndarray, rule: QuadRule1D, log_z, vals):
        """The member with parameters lam whose per-dimension log Z and factor
        values at the nodes of rule are already known, as _log_partition
        returns them; nothing is normalized again."""
        self = cls.__new__(cls)
        self._set_factors(basis, lam, rule, log_z, vals)
        return self

    def _set_factors(self, basis, lam, rule, log_z, vals) -> None:
        self.basis = basis
        self.lam = lam
        self.lam.setflags(write=False)
        self.log_norm = -log_z  # per-dimension log c_j = -log Z_j
        self.log_norm.setflags(write=False)

        def factor(j: int) -> _Factor:
            lam_j, log_z_j = self.lam_dim(j), log_z[j]

            def pdf(x):
                feats = basis.per_dim.eval_all(np.asarray(x, dtype=float))[..., 1:]
                return np.exp(-feats @ lam_j - log_z_j)

            # kept node values: moments, entropy and KL never recompute exp
            return _Factor(rule, vals[j], pdf)

        super().__init__(tuple(map(factor, range(basis.dim))))

    def lam_dim(self, j: int) -> np.ndarray:
        m = self.basis.m
        return self.lam[j * m : (j + 1) * m]


Density = Union[GridDensity, ProductDensity]


def native_order(p: Density) -> int:
    """Finest 1-D quadrature order of p's own grid."""
    return max(r.order for r in p.grid.rules)


def grid_values(p: Density, grid: QuadGridND) -> np.ndarray:
    """p at the nodes of grid, in grid.nodes() order: the outer product of the
    factor values of a product, the stored values of a grid density on its
    own grid, else p.pdf at the joint nodes."""
    if p.factors:
        grid.check_budget()
        factors = (f.values_at(rule) for f, rule in zip(p.factors, grid.rules))
        return functools.reduce(np.multiply.outer, factors).ravel()
    return p.values if grid == p.grid else p.pdf(grid.nodes())


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
    """Product of independent 1-D densities, sharing their factors."""
    densities = tuple(factors)
    if not densities or any(d.dim != 1 for d in densities):
        raise DensityError("factors must be one-dimensional")
    return ProductDensity(tuple(d.factors[0] for d in densities))


def marginal_pdf(p: Density, j: int) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form marginal density of coordinate j as a callable on [0,1]."""
    if p.factors:
        return p.factors[j].pdf
    if not p.has_evaluator:
        raise DensityError("marginal of a value-only grid density is undefined")
    other = [ax for ax in range(p.dim) if ax != j]
    sub = QuadGridND(rules=tuple(p.grid.rules[ax] for ax in other))
    sub_nodes = sub.nodes()

    def marg(x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x.shape)
        for idx, xv in enumerate(x):
            pts = np.empty((sub_nodes.shape[0], p.dim))
            pts[:, other] = sub_nodes
            pts[:, j] = xv
            out[idx] = sub.integrate_values(p.pdf(pts))
        return out

    return marg


def moments(p: Density, basis: TensorBasis) -> MomentVector:
    """Feature moments int eta_i(x_j) p(x) dx, dimension-major."""
    if basis.dim != p.dim:
        raise DensityError(f"basis dim {basis.dim} != density dim {p.dim}")
    m = basis.m
    out = np.empty(basis.n_features)
    for j, rule in enumerate(p.grid.rules):
        feats = feature_table(rule, m)
        marginal = p.factors[j].values if p.factors else p.marginal_values(j)
        out[j * m : (j + 1) * m] = feats.T @ (rule.weights * marginal)
    return MomentVector(basis=basis, values=out)


def sample_moments(sample: Sample, basis: TensorBasis) -> MomentVector:
    """(1/k) sum over the sample of the feature vector.

    The result is bit for bit basis.eval(sample.points).mean(axis=0), whose
    summation order it keeps: numpy sums each column of that (k, m*N) table
    sequentially from 0.0 when it has two or more columns, and pairwise
    over all k rows when it has one.  With two or more features the sample
    is streamed through blocks of BLOCK_ROWS = 8192 rows: the features of a
    block are written one contiguous row per feature, the running column
    sums are carried into each block's first entries and np.add.accumulate
    continues them along the rows.  The working memory is then a few
    arrays of BLOCK_ROWS rows, whatever k.  A single feature (m = N = 1) is
    evaluated over the whole column and summed pairwise, as numpy does.
    """
    if sample.k == 0:
        raise DensityError("empty sample")
    if basis.dim != sample.dim:
        raise DensityError("sample/basis dimension mismatch")
    # the points were checked against the unit cube when the Sample was made
    k, m, pts = sample.k, basis.m, sample.points
    if basis.n_features == 1:
        total = basis.per_dim.eval_all(pts[:, 0])[:, 1].sum()
        return MomentVector(basis=basis, values=np.array([total]) / k)
    sums = np.zeros((basis.dim, m))
    rows = np.empty((m + 1, min(k, BLOCK_ROWS)))
    u = np.empty(rows.shape[1])
    for lo in range(0, k, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, k)
        block, ub = rows[:, : hi - lo], u[: hi - lo]
        for j in range(basis.dim):
            np.multiply(pts[lo:hi, j], 2.0, out=ub)
            ub -= 1.0
            basis.per_dim._eval_into(ub, block.T)
            feats = block[1:]
            feats[:, 0] += sums[j]
            np.add.accumulate(feats, axis=1, out=feats)
            sums[j] = feats[:, -1]
    return MomentVector(basis=basis, values=sums.ravel() / k)


def _xlogx(vals: np.ndarray) -> np.ndarray:
    return np.where(vals > 0, vals * np.log(np.maximum(vals, 1e-300)), 0.0)


def entropy(p: Density) -> float:
    """Shannon differential entropy -int p log p, with 0*log(0) = 0."""
    if p.factors:
        total = 0.0
        for f in p.factors:
            total += -f.rule.integrate_values(_xlogx(f.values))
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


def _inverse_cdf(u: np.ndarray, table: tuple[np.ndarray, ...]) -> np.ndarray:
    """np.interp(u, cdf, xs), bit for bit, for uniforms u in [0, 1).

    Guide entry b, the last cell j with cdf[j] <= b/GUIDE_SIZE, is at or one
    before the cell of most u in bucket b.  The rest, and the u where the
    formula slope[j] * (u - cdf[j]) + xs[j] gives inf * 0 = nan in a cell
    too narrow for a finite slope, go to np.interp."""
    xs, cdf, slope, guide = table
    upper = cdf[1:]  # right ends of the cells
    j = guide[(u * GUIDE_SIZE).astype(np.intp)]
    j += upper[j] <= u
    with np.errstate(invalid="ignore"):
        out = slope[j] * (u - cdf[j]) + xs[j]
    slow = np.flatnonzero((upper[j] <= u) | np.isnan(out))
    out[slow] = np.interp(u[slow], cdf, xs)
    return out


def draw_sample(p: Density, k: int, seed: int) -> Sample:
    """Inverse-CDF sampling, per dimension, deterministic given the seed.

    Only product-form densities are supported: exponential-family members
    (always products), 1-D densities and ProductDensity.  k * N may not
    exceed quadrature.MAX_NODES.

    The (k, N) result is allocated once and filled in blocks of
    BLOCK_ROWS = 8192 rows: each block draws its uniforms with
    rng.random((rows, N)), which continues the PCG64 stream exactly as one
    rng.random((k, N)) call would, and interpolates them column by column.
    Each value depends on its own uniform alone, so the sample is bit for
    bit the one drawn whole, and the working memory besides the result is
    a few arrays of BLOCK_ROWS rows, whatever k.
    """
    if k < 1:
        raise DensityError("sample size must be >= 1")
    if not p.factors:
        raise DensityError(
            "sampling requires a product-form density (expfam, 1-D, or "
            "product_density)"
        )
    if k * p.dim > quadrature.MAX_NODES:  # read at call time, like check_budget
        raise quadrature.GridBudgetError(
            f"{k} x {p.dim} sample values exceed MAX_NODES = {quadrature.MAX_NODES}"
        )
    rng = np.random.default_rng(seed)
    tables = [f.cdf_table for f in p.factors]
    pts = np.empty((k, p.dim))
    for lo in range(0, k, BLOCK_ROWS):
        u = rng.random((min(BLOCK_ROWS, k - lo), p.dim))
        for j, table in enumerate(tables):
            pts[lo : lo + len(u), j] = _inverse_cdf(u[:, j], table)
    return Sample(points=pts, seed=seed)


@dataclass(frozen=True)
class SmoothnessReport:
    """Estimates of the smooth high-entropy class quantities at order m.

    epsilon is the entropy gap to the moment-matched exponential-family
    projection; c_inf estimates sup |log p|; c_r[i] estimates the L2 norm
    of the m-th derivative of the log marginal in dimension i (finite
    differences, so an estimate, not a certificate).  derivative_converged
    is False when the step-halving check on c_r fails.  The report holds
    no verdict: `bounds.smoothness_membership` checks the class conditions.
    """

    m: int
    epsilon: float
    c_inf: float
    c_r: np.ndarray
    derivative_converged: bool = True


@functools.lru_cache(maxsize=None)  # windows start in [1 - width, 0]
def _fd_weights(lo: int, width: int, deriv: int) -> np.ndarray:
    """Finite-difference weights for the deriv-th derivative on the integer
    offsets lo..lo+width-1 (unit step); built once per window, read-only."""
    offsets = np.arange(lo, lo + width)
    a = np.vander(offsets, width, increasing=True).T.astype(float)
    b = np.zeros(width)
    b[deriv] = math.factorial(deriv)
    w = np.linalg.solve(a, b)
    w.setflags(write=False)
    return w


def _fd_derivative_values(
    logf: Callable[[np.ndarray], np.ndarray], order: int, h: float, xs: np.ndarray
) -> np.ndarray:
    """order-th derivative of logf at xs by order-8 finite differences.

    The stencil window shifts near the boundary so all evaluation points
    stay inside [0,1].  logf is called once on all stencil points.
    """
    half = (order + 8) // 2
    width = 2 * half + 1
    lo = np.where(xs - half * h < 0, np.ceil(-xs / h), -half)
    shift = xs + (lo + width - 1) * h > 1
    lo[shift] = np.floor((1 - xs[shift]) / h) - width + 1
    starts = lo.astype(int)
    offs = starts[:, None] + np.arange(width)
    vals = logf((xs[:, None] + offs * h).ravel()).reshape(offs.shape)
    out = np.empty(xs.shape)
    for idx, start in enumerate(starts.tolist()):
        out[idx] = np.dot(_fd_weights(start, width, order), vals[idx]) / h**order
    return out


def _log_marginal(p: Density, j: int) -> Callable[[np.ndarray], np.ndarray]:
    marg = marginal_pdf(p, j)

    def logf(x):
        v = np.asarray(marg(np.atleast_1d(x)), dtype=float)
        return np.log(np.maximum(v, 1e-300))

    return logf


def sup_log_density(p: Density) -> float:
    """sup |log p| probed on a refined uniform grid plus quadrature nodes.

    For a product, log p is a sum over coordinates, so its extremes are the
    sums of the per-coordinate extremes.  A density that vanishes somewhere
    gives inf.
    """
    if p.factors:
        total_max = 0.0
        total_min = 0.0
        for f in p.factors:
            xs = np.unique(
                np.concatenate([np.linspace(0, 1, SUP_LOG_REFINE * f.rule.order + 1), f.rule.nodes])
            )
            with np.errstate(divide="ignore"):
                lv = np.log(f.pdf(xs))
            total_max += float(np.max(lv))
            total_min += float(np.min(lv))
        return max(abs(total_max), abs(total_min))
    # moderate-dimensional grid densities: probe on a product grid
    axes = [
        np.unique(np.concatenate([np.linspace(0, 1, 101), r.nodes]))
        for r in p.grid.rules
    ]
    n_points = math.prod(len(a) for a in axes)
    if n_points > quadrature.MAX_NODES:  # read at call time, like check_budget
        raise quadrature.GridBudgetError(
            f"{n_points} sup-log probe points exceed MAX_NODES = {quadrature.MAX_NODES}"
        )
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    lv = p.log_pdf(pts)
    return float(np.max(np.abs(lv)))


def smoothness_report(p: Density, m: int) -> SmoothnessReport:
    """Estimate the smooth high-entropy class quantities of p at order m.

    The derivative norms come from finite differences on the log marginals
    with a step-halving self-check; a failed check leaves the verdict
    indeterminate rather than wrong.
    """
    from . import maxent  # deferred: maxent builds on this module

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

    return SmoothnessReport(
        m=m, epsilon=eps, c_inf=c_inf, c_r=c_r, derivative_converged=converged
    )
