"""Orthonormal shifted-Legendre polynomial bases on [0,1].

The feature vector used throughout the library stacks, for each coordinate
x_j of the unit cube, the orthonormal shifted-Legendre polynomials
eta_1(x_j), ..., eta_m(x_j).  The constant eta_0 = 1 is excluded, so a
basis of degree m in dimension N has m*N features, ordered dimension-major:
feature (j, i) sits at index j*m + (i-1).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quadrature import QuadRule1D

MAX_DEGREE = 30


class DegreeError(ValueError):
    """Requested polynomial degree outside the supported range."""


def _shifted_legendre_int_coeffs(n: int) -> list[int]:
    """Integer monomial coefficients of the shifted Legendre polynomial.

    P~_n(x) = sum_k (-1)^(n+k) C(n,k) C(n+k,k) x^k, orthogonal on [0,1]
    with norm 1/(2n+1).  Returned low-to-high in the power of x.
    """
    return [
        (-1) ** (n + k) * math.comb(n, k) * math.comb(n + k, k)
        for k in range(n + 1)
    ]


@dataclass(frozen=True)
class PolyBasis1D:
    """Orthonormal polynomials eta_0..eta_m on [0,1] in monomial form.

    ``coeffs[i, t]`` is the coefficient of x^t in eta_i; row 0 is the
    constant polynomial 1.  eta_i(x) = sqrt(2i+1) * P~_i(x) with P~_i the
    shifted Legendre polynomial, so deg(eta_i) = i and the leading
    coefficient is positive.
    """

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.degree + 1, self.degree + 1):
            raise ValueError("coefficient matrix must be (m+1) x (m+1)")
        self.coeffs.setflags(write=False)

    @property
    def m(self) -> int:
        return self.degree

    def eval_all(self, x) -> np.ndarray:
        """Evaluate eta_0..eta_m at x; output shape = x.shape + (m+1,)."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (self.degree + 1,))
        self._eval_into(2.0 * x - 1.0, out)
        return out

    def _eval_into(self, u, out: np.ndarray) -> None:
        """Write eta_n at the points with shifted argument u = 2x-1 into
        out[..., n] for n = 0..m; out may be any view of shape
        u.shape + (m+1,), so callers choose where each eta_n lands.

        Uses the three-term recurrence on u, which stays well conditioned
        for high degrees where the monomial coefficients do not.  Apart
        from out it allocates three arrays of u's shape.
        """
        out[..., 0] = 1.0
        if self.degree == 0:
            return
        np.multiply(u, math.sqrt(3.0), out=out[..., 1])
        if self.degree == 1:
            return
        p_prev = np.ones_like(u)
        p_cur = np.array(u, dtype=float)
        p_next = np.empty_like(p_cur)
        for n in range(1, self.degree):
            # p_next = ((2n+1) u p_cur - n p_prev) / (n+1), in place
            np.multiply(u, 2 * n + 1, out=p_next)
            p_next *= p_cur
            p_prev *= n
            p_next -= p_prev
            p_next /= n + 1
            np.multiply(p_next, math.sqrt(2 * n + 3), out=out[..., n + 1])
            p_prev, p_cur, p_next = p_cur, p_next, p_prev

    def gram_matrix(self) -> np.ndarray:
        """Exact Gram matrix via integration of monomial products.

        Coefficient products are accumulated in rational arithmetic
        (integer coefficient part) before the sqrt(2i+1) scalings enter,
        so the result is exact up to the final float rounding.
        """
        m = self.degree
        gram = np.empty((m + 1, m + 1))
        int_rows = [_shifted_legendre_int_coeffs(i) for i in range(m + 1)]
        for i in range(m + 1):
            for j in range(i + 1):
                acc = Fraction(0)
                for s, a in enumerate(int_rows[i]):
                    for t, b in enumerate(int_rows[j]):
                        acc += Fraction(a * b, s + t + 1)
                val = float(acc) * math.sqrt((2 * i + 1) * (2 * j + 1))
                gram[i, j] = gram[j, i] = val
        return gram

    def to_json(self) -> str:
        """Coefficients as JSON: one array per polynomial, index = power."""
        return json.dumps([[c for c in row] for row in self.coeffs.tolist()])


def build_legendre_basis(m: int) -> PolyBasis1D:
    """Build the orthonormal shifted-Legendre basis eta_0..eta_m on [0,1].

    eta_n(x) = sqrt(2n+1) * P_n(2x-1).  The integer part of the monomial
    coefficients is exact; only the sqrt normalization is floating point,
    which reproduces the usual printed forms digit for digit.

    Raises DegreeError outside 1 <= m <= 30: beyond that the monomial
    representation is too ill-conditioned to be meaningful.
    """
    if not (1 <= m <= MAX_DEGREE):
        raise DegreeError(f"degree must be in [1, {MAX_DEGREE}], got {m}")
    coeffs = np.zeros((m + 1, m + 1))
    for n in range(m + 1):
        scale = math.sqrt(2 * n + 1)
        for k, c in enumerate(_shifted_legendre_int_coeffs(n)):
            coeffs[n, k] = scale * c
    return PolyBasis1D(degree=m, coeffs=coeffs)


@functools.lru_cache(maxsize=64)  # bounds what hand-built rules keep alive
def feature_table(rule: QuadRule1D, m: int) -> np.ndarray:
    """eta_1..eta_m at the nodes of a quadrature rule, shape (n, m).

    Built once per (rule, m) and shared read-only by every fit, density
    and moment computation on that rule.
    """
    feats = build_legendre_basis(m).eval_all(rule.nodes)[:, 1:]
    feats.setflags(write=False)
    return feats


@dataclass(frozen=True)
class TensorBasis:
    """Per-coordinate univariate basis on [0,1]^N with m*N features.

    Feature (j, i) = eta_i(x_j) for dimension j in {0..N-1} and order
    i in {1..m}, stored at flat index j*m + (i-1).  This dimension-major
    ordering is fixed so moment vectors are stable under serialization.
    """

    dim: int
    per_dim: PolyBasis1D

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    @property
    def m(self) -> int:
        return self.per_dim.degree

    @property
    def n_features(self) -> int:
        return self.m * self.dim

    def eval(self, x) -> np.ndarray:
        """Evaluate the feature vector at points in [0,1]^N.

        Accepts a single point of shape (N,) or a batch (k, N); returns
        shape (m*N,) or (k, m*N) respectively.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"expected points in [0,1]^{self.dim}, got shape {x.shape}")
        if not np.all((pts >= 0.0) & (pts <= 1.0)):
            raise ValueError("point outside the unit cube")
        vals = self.per_dim.eval_all(pts)[..., 1:]  # drop the constant
        out = vals.reshape(pts.shape[0], self.n_features)
        return out[0] if single else out


def make_tensor_basis(m: int, dim: int) -> TensorBasis:
    return TensorBasis(dim=dim, per_dim=build_legendre_basis(m))


def coefficient_abs_sums(basis: PolyBasis1D) -> tuple[np.ndarray, float]:
    """Per-power absolute coefficient sums over eta_1..eta_m and their max.

    r[i-1] collects sum over eta_1..eta_m of |coefficient of x^i|; the
    returned scalar is max_i r_i, the constant used to convert raw-moment
    differences into feature-moment differences.
    """
    m = basis.degree
    r = np.zeros(m)
    for i in range(1, m + 1):  # power of x
        r[i - 1] = np.sum(np.abs(basis.coeffs[1:, i]))
    return r, float(np.max(r))
