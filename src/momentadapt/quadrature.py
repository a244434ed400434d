"""Deterministic Gauss-Legendre quadrature on [0,1] and [0,1]^N.

All moment, entropy, KL and L1 computations in the library reduce to
weighted sums over these rules.  Everything here is a pure function of its
inputs: identical calls give bit-identical results.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

MIN_ORDER = 2
MAX_ORDER = 512

# Per-dimension defaults: smooth integrands on the closed cube, so a fixed
# Gauss order with a doubling self-check is enough.
DEFAULT_ORDER_LOW_DIM = 128
DEFAULT_ORDER_HIGH_DIM = 32

MAX_NODES = 2**24  # admits the doubled grids 256^3 and 64^4 of default-order grid densities


class QuadratureError(ValueError):
    pass


class GridBudgetError(QuadratureError):
    """A tensor grid, probe mesh or sample has more than MAX_NODES entries."""


@dataclass(frozen=True, eq=False)
class QuadRule1D:
    """Gauss-Legendre nodes/weights mapped to (0,1).

    Rules compare and hash by identity, so a rule can key the caches of
    tables built on its nodes.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.nodes)

    def integrate_values(self, vals: np.ndarray) -> float:
        """Weighted sum of values already tabulated at the nodes."""
        return float(np.dot(self.weights, np.asarray(vals, dtype=float)))


def gauss_rule(n: int) -> QuadRule1D:
    """n-point Gauss-Legendre rule on [0,1].

    Nodes/weights come from numpy's leggauss (companion matrix plus Newton
    polish, machine precision for n <= 512) and are affinely mapped from
    [-1,1]; the mapped weights sum to 1 exactly up to rounding.  Each order
    is built once and the same read-only rule is returned on every call.
    """
    if not (MIN_ORDER <= n <= MAX_ORDER):
        raise QuadratureError(f"order must be in [{MIN_ORDER}, {MAX_ORDER}], got {n}")
    return _build_gauss_rule(operator.index(n))


@functools.lru_cache(maxsize=None)  # at most MAX_ORDER - 1 rules, ~2 MB
def _build_gauss_rule(n: int) -> QuadRule1D:
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

    def check_budget(self) -> None:
        """Raise GridBudgetError, before any allocation, above MAX_NODES."""
        if self.n_nodes > MAX_NODES:
            raise GridBudgetError(f"{self.n_nodes} tensor-grid nodes exceed MAX_NODES = {MAX_NODES}")

    def nodes(self) -> np.ndarray:
        """All tensor nodes as a (n_nodes, dim) array."""
        self.check_budget()
        grids = np.meshgrid(*(r.nodes for r in self.rules), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

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
        return self.integrate_values(vals)

    def integrate_values(self, vals: np.ndarray) -> float | np.ndarray:
        """Weighted sum over the trailing node axis of values tabulated in
        nodes() order; leading axes are kept.

        The grid axes are contracted with one rule's weights at a time, last
        (fastest) axis first, so no joint weight table exists.
        """
        self.check_budget()
        vals = np.asarray(vals, dtype=float)
        lead = vals.shape[:-1]
        if vals.shape[-1:] != (self.n_nodes,):
            raise QuadratureError(f"expected {self.n_nodes} node values, got shape {vals.shape}")
        for r in reversed(self.rules):
            vals = vals.reshape(-1, r.order) @ r.weights
        return vals.reshape(lead) if lead else float(vals[0])


def tensor_grid(dim: int, order: int | None = None) -> QuadGridND:
    n = order if order is not None else default_order(dim)
    return QuadGridND(rules=tuple(gauss_rule(n) for _ in range(dim)))
