"""Deterministic Gauss-Legendre quadrature on [0,1] and [0,1]^N.

All moment, entropy, KL and L1 computations in the library reduce to
weighted sums over these rules.  Everything here is a pure function of its
inputs: identical calls give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

MIN_ORDER = 2
MAX_ORDER = 512

# Per-dimension defaults: smooth integrands on the closed cube, so a fixed
# Gauss order with a doubling self-check is enough.
DEFAULT_ORDER_LOW_DIM = 128
DEFAULT_ORDER_HIGH_DIM = 32


class QuadratureError(ValueError):
    pass


@dataclass(frozen=True)
class QuadRule1D:
    """Gauss-Legendre nodes/weights mapped to (0,1)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.nodes)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        vals = np.asarray(f(self.nodes), dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = self.nodes[~np.isfinite(vals)][0]
            raise QuadratureError(f"non-finite integrand value at node x={bad!r}")
        return float(np.dot(self.weights, vals))

    def integrate_values(self, vals: np.ndarray) -> float:
        """Weighted sum of values already tabulated at the nodes."""
        return float(np.dot(self.weights, np.asarray(vals, dtype=float)))


def gauss_rule(n: int) -> QuadRule1D:
    """n-point Gauss-Legendre rule on [0,1].

    Nodes/weights come from numpy's leggauss (companion matrix plus Newton
    polish, machine precision for n <= 512) and are affinely mapped from
    [-1,1]; the mapped weights sum to 1 exactly up to rounding.
    """
    if not (MIN_ORDER <= n <= MAX_ORDER):
        raise QuadratureError(f"order must be in [{MIN_ORDER}, {MAX_ORDER}], got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadRule1D(nodes=(x + 1.0) / 2.0, weights=w / 2.0)


def default_order(dim: int) -> int:
    return DEFAULT_ORDER_LOW_DIM if dim <= 3 else DEFAULT_ORDER_HIGH_DIM


@dataclass(frozen=True)
class QuadGridND:
    """Tensor product of per-dimension 1-D rules on [0,1]^N.

    Nodes are enumerated with the last dimension fastest, which keeps the
    reduction order fixed and the results deterministic.
    """

    rules: tuple[QuadRule1D, ...]

    @property
    def dim(self) -> int:
        return len(self.rules)

    @property
    def n_nodes(self) -> int:
        out = 1
        for r in self.rules:
            out *= r.order
        return out

    def nodes(self) -> np.ndarray:
        """All tensor nodes as a (n_nodes, dim) array."""
        grids = np.meshgrid(*(r.nodes for r in self.rules), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def weights(self) -> np.ndarray:
        w = self.rules[0].weights
        for r in self.rules[1:]:
            w = np.outer(w, r.weights).ravel()
        return w

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integrate f over [0,1]^N; f receives a (n_nodes, dim) batch."""
        pts = self.nodes()
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise QuadratureError(
                f"integrand returned shape {vals.shape}, expected ({pts.shape[0]},)"
            )
        if not np.all(np.isfinite(vals)):
            bad = pts[~np.isfinite(vals)][0]
            raise QuadratureError(f"non-finite integrand value at node {bad!r}")
        return float(np.dot(self.weights(), vals))

    def integrate_values(self, vals: np.ndarray) -> float:
        return float(np.dot(self.weights(), np.asarray(vals, dtype=float)))


def tensor_grid(dim: int, order: int | None = None) -> QuadGridND:
    n = order if order is not None else default_order(dim)
    return QuadGridND(rules=tuple(gauss_rule(n) for _ in range(dim)))
