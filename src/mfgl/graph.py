"""Complete weighted graph on the low-fidelity points.

Weights use a Gaussian kernel with self-tuning bandwidths: each point's
scale is its distance to the knn_k-th nearest neighbor, and the pairwise
bandwidth is the geometric mean of the two scales,

    W_ij = exp(-||x_i - x_j||^2 / (l_i * l_j)),   W_ii = 0.

The Laplacian family is L = D^{-p} (D - W) D^{-q}.  For p != q, L is a
similarity transform D^{-(p-q)/2} L_sym D^{(p-q)/2} of the symmetric
member with exponent (p+q)/2, which is what makes a symmetric eigensolve
and the reweighted inner product <u, v> = u^T D^{p-q} v work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .exceptions import (
    DenseLimitExceeded,
    DimensionMismatch,
    DuplicatePointScale,
    InvalidConfig,
    NonFiniteInput,
    ZeroDegree,
)

DEFAULT_KNN_K = 7
DENSE_WEIGHT_LIMIT = 20_000
SCALE_TOL = 1e-14
_BLOCK_ROWS = 2048


def self_tuning_scales(lf: np.ndarray, knn_k: int = DEFAULT_KNN_K) -> np.ndarray:
    """Distance from each point to its knn_k-th nearest neighbor.

    The point itself is excluded from the neighbor count, so exact
    duplicates shrink the scale; that degeneracy is an error, not a clamp.

    Raises
    ------
    DuplicatePointScale
        When some scale falls below 1e-14 (>= knn_k exact duplicates).
    InvalidConfig
        When knn_k is not in [1, N).
    """
    lf = np.asarray(lf, dtype=np.float64)
    n = lf.shape[0]
    if not 1 <= knn_k < n:
        raise InvalidConfig(f"knn_k must be in [1, {n}), got {knn_k}")
    if not np.all(np.isfinite(lf)):
        raise NonFiniteInput("points contain NaN or Inf")
    dists, _ = cKDTree(lf).query(lf, k=knn_k + 1)
    # column 0 is the zero self-distance; column knn_k is the knn_k-th
    # neighbor once self is dropped
    scales = np.ascontiguousarray(dists[:, knn_k])
    bad = np.flatnonzero(scales < SCALE_TOL)
    if bad.size:
        raise DuplicatePointScale(int(bad[0]))
    return scales


def weight_columns(
    lf: np.ndarray, scales: np.ndarray, indices: Sequence[int]
) -> np.ndarray:
    """Columns W[:, indices] of the kernel matrix, without forming W.

    Runs in O(N * len(indices)) memory; this is the only weight access the
    large-N solver path is allowed to use.
    """
    lf = np.asarray(lf, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    idx = np.asarray(indices, dtype=np.intp)
    cols_pts = lf[idx]
    cols_sq = np.einsum("ij,ij->i", cols_pts, cols_pts)
    out = np.empty((lf.shape[0], idx.size))
    for start in range(0, lf.shape[0], _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, lf.shape[0])
        rows = lf[start:stop]
        d2 = (
            np.einsum("ij,ij->i", rows, rows)[:, None]
            + cols_sq[None, :]
            - 2.0 * rows @ cols_pts.T
        )
        np.maximum(d2, 0.0, out=d2)
        d2 /= scales[start:stop, None] * scales[idx][None, :]
        np.exp(-d2, out=d2)
        out[start:stop] = d2
    out[idx, np.arange(idx.size)] = 0.0  # kernel has a zero diagonal
    return out


@dataclass(frozen=True)
class AffinityGraph:
    """Dense symmetric kernel matrix with degrees and self-tuning scales."""

    weights: np.ndarray
    degrees: np.ndarray
    scales: np.ndarray
    knn_k: int

    def __post_init__(self):
        for name in ("weights", "degrees", "scales"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            a = a.copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        bad = np.flatnonzero(self.degrees <= 0.0)
        if bad.size:
            raise ZeroDegree(int(bad[0]))

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def build_graph(
    lf: np.ndarray,
    knn_k: int = DEFAULT_KNN_K,
    dense_limit: int = DENSE_WEIGHT_LIMIT,
) -> AffinityGraph:
    """Build the fully connected affinity graph on the rows of ``lf``.

    Parameters
    ----------
    lf : ndarray, shape (N, D)
    knn_k : int
        Neighbor index that sets the self-tuning scale.
    dense_limit : int
        Largest N for which the O(N^2) weight matrix may be materialized.

    Raises
    ------
    DenseLimitExceeded
        When N exceeds ``dense_limit``; use the low-rank path instead.
    ZeroDegree
        When a row of W underflows to all zeros.
    """
    lf = np.asarray(lf, dtype=np.float64)
    n = lf.shape[0]
    if n > dense_limit:
        raise DenseLimitExceeded(
            f"N={n} exceeds the dense weight-matrix limit {dense_limit}"
        )
    scales = self_tuning_scales(lf, knn_k)
    w = np.empty((n, n))
    sq = np.einsum("ij,ij->i", lf, lf)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * lf[start:stop] @ lf.T
        np.maximum(d2, 0.0, out=d2)
        d2 /= scales[start:stop, None] * scales[None, :]
        np.exp(-d2, out=d2)
        w[start:stop] = d2
    w = 0.5 * (w + w.T)  # kill round-off asymmetry from the blocked pass
    np.fill_diagonal(w, 0.0)
    degrees = w.sum(axis=1)
    bad = np.flatnonzero(degrees <= 0.0)
    if bad.size:
        raise ZeroDegree(int(bad[0]))
    return AffinityGraph(weights=w, degrees=degrees, scales=scales, knn_k=knn_k)


@dataclass(frozen=True)
class GraphLaplacian:
    """One member L = D^{-p} (D - W) D^{-q} of the Laplacian family."""

    graph: AffinityGraph
    p: float
    q: float
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def shift_bound(self) -> float:
        """a = 2 max_i D_ii^{1-p-q}; the spectrum of L lies in [0, a]."""
        return 2.0 * float(np.max(self.graph.degrees ** (1.0 - self.p - self.q)))

    @cached_property
    def sym_matrix(self) -> np.ndarray:
        """The similar symmetric member with exponent (p+q)/2."""
        if self.p == self.q:
            return self.matrix
        return laplacian(self.graph, 0.5 * (self.p + self.q), 0.5 * (self.p + self.q)).matrix


def laplacian(graph: AffinityGraph, p: float, q: float) -> GraphLaplacian:
    """Materialize L = D^{-p} (D - W) D^{-q} densely.

    For p == q the result is symmetrized to remove round-off asymmetry.

    Raises
    ------
    ZeroDegree
        When any degree is non-positive (cannot happen for graphs built by
        :func:`build_graph`, which validates on construction).
    """
    d = graph.degrees
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        raise ZeroDegree(int(bad[0]))
    dm = np.diag(d) - graph.weights
    mat = (d ** -p)[:, None] * dm * (d ** -q)[None, :]
    if p == q:
        mat = 0.5 * (mat + mat.T)
    return GraphLaplacian(graph=graph, p=p, q=q, matrix=mat)


def weighted_inner(
    u: np.ndarray, v: np.ndarray, graph: AffinityGraph, p: float, q: float
) -> float:
    """Reweighted dot product u^T D^{p-q} v."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape or u.shape[0] != graph.n:
        raise DimensionMismatch(
            f"expected two length-{graph.n} vectors, got {u.shape} and {v.shape}"
        )
    if p == q:
        return float(u @ v)
    return float(u @ (graph.degrees ** (p - q) * v))


def self_adjointness_check(
    gl: GraphLaplacian, trials: int = 20, seed: int = 0
) -> float:
    """Max relative asymmetry of <u, Lv> - <v, Lu> over random vector pairs.

    The inner product is the D^{p-q}-reweighted one, under which every
    member of the Laplacian family is self-adjoint; values near machine
    precision certify the (p, q) algebra.
    """
    rng = np.random.default_rng(seed)
    n = gl.graph.n
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lhs = weighted_inner(u, gl.matrix @ v, gl.graph, gl.p, gl.q)
        rhs = weighted_inner(v, gl.matrix @ u, gl.graph, gl.p, gl.q)
        worst = max(
            worst,
            abs(lhs - rhs) / (np.linalg.norm(u) * np.linalg.norm(v)),
        )
    return worst
