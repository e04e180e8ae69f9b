"""Sparse weighted graph on the low-fidelity points.

Weights use a Gaussian kernel with self-tuning bandwidths: each point's
scale is its distance to the knn_k-th nearest neighbor, and the pairwise
bandwidth is the geometric mean of the two scales,

    W_ij = exp(-||x_i - x_j||^2 / (l_i * l_j)),   W_ii = 0.

Pairs whose weight falls below ``WEIGHT_EPS`` are dropped, so W, the
degrees and every Laplacian are built and stored in CSR form; with a
self-tuning kernel almost every pair weight is far below round-off.
Each kept weight is taken from the direct difference x_i - x_j, once per
unordered pair, so it is exact to round-off and W is exactly symmetric.
Building W holds the kept pairs and one working set of ``_WORK_BYTES``
bytes, never an N x N array.

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
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .data import frozen
from .exceptions import (
    DenseLimitExceeded,
    DimensionMismatch,
    DuplicatePointScale,
    InvalidConfig,
    NonFiniteInput,
    ZeroDegree,
)

DEFAULT_KNN_K = 7
SCALE_TOL = 1e-14
# Smallest kernel weight the graph keeps.
WEIGHT_EPS = 1e-12
# Most bytes the CSR weights may take: 8 for the value and 4 for the
# column index of each kept pair.
GRAPH_BYTE_BUDGET = 1 << 30
_CSR_ENTRY_BYTES = 12
# Most bytes of one block of squared distances, or of one chunk of
# gathered point differences, in build_graph and weight_columns.
_WORK_BYTES = 1 << 20


def _block_rows(width: int) -> int:
    """Rows of a float block ``width`` wide that fit in ``_WORK_BYTES``."""
    return max(1, _WORK_BYTES // (8 * width))


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
    large-N solver path is allowed to use.  Raises ``DimensionMismatch``
    unless ``scales`` has shape (N,), and ``InvalidConfig`` for an index
    outside [0, N).
    """
    lf = np.asarray(lf, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    idx = np.asarray(indices, dtype=np.intp)
    n = lf.shape[0]
    if scales.shape != (n,):
        raise DimensionMismatch(f"scales must have shape ({n},), got {scales.shape}")
    if idx.size and not (0 <= idx.min() and idx.max() < n):
        raise InvalidConfig(f"column indices must lie in [0, {n}), got {idx.min()} to {idx.max()}")
    cols_pts = lf[idx]
    cols_sq = np.einsum("ij,ij->i", cols_pts, cols_pts)
    out = np.empty((lf.shape[0], idx.size))
    block = _block_rows(idx.size)
    for start in range(0, lf.shape[0], block):
        stop = min(start + block, lf.shape[0])
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
    """Sparse symmetric kernel matrix (CSR) with degrees and self-tuning
    scales."""

    weights: sp.csr_array
    degrees: np.ndarray
    scales: np.ndarray
    knn_k: int

    def __post_init__(self):
        object.__setattr__(self, "weights", sp.csr_array(self.weights, dtype=np.float64))
        for name in ("degrees", "scales"):
            object.__setattr__(self, name, frozen(getattr(self, name)))
        bad = np.flatnonzero(self.degrees <= 0.0)
        if bad.size:
            raise ZeroDegree(int(bad[0]))

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def build_graph(lf: np.ndarray, knn_k: int = DEFAULT_KNN_K) -> AffinityGraph:
    """Build the epsilon-thresholded affinity graph on the rows of ``lf``.

    A pair is kept when its weight is at least ``WEIGHT_EPS``.  One pass
    over the upper triangle, in row blocks of at most ``_WORK_BYTES``
    bytes, picks candidate pairs from the Gram form |x|^2 + |y|^2 - 2 x.y,
    with a margin that covers its round-off: |error| <= gamma (|x| + |y|)^2
    with gamma = (D + 3) u / (1 - (D + 3) u), u the unit round-off
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    sec. 3.1).  The margin takes 4 (D + 3) u, which also covers the
    rounding of the scaling and of the kept weight.  Each candidate's
    exponent d^2 / (l_i l_j) is then recomputed from the float64
    difference x_i - x_j, squared and summed in extended precision
    (``np.longdouble``), and rounded once; the weight is cut exactly at
    ``WEIGHT_EPS``.  Where long double is wider than double (80 bits on
    x86-64), the exponent is within about 3 u of exact whatever D is, so
    a weight near the cut, with exponent ln(1 / WEIGHT_EPS) = 27.6, is
    within about 1e-14 relative of exact.  W is assembled once from the
    kept triangle and its mirror, so W_ij and W_ji are the same float.

    Parameters
    ----------
    lf : ndarray, shape (N, D)
    knn_k : int
        Neighbor index that sets the self-tuning scale.

    Raises
    ------
    DenseLimitExceeded
        When the kept pairs would take more than ``GRAPH_BYTE_BUDGET``
        bytes of CSR storage.
    ZeroDegree
        When a row of W keeps no pair.
    """
    lf = np.asarray(lf, dtype=np.float64)
    n, d = lf.shape
    scales = self_tuning_scales(lf, knn_k)
    sq = np.einsum("ij,ij->i", lf, lf)
    norms = np.sqrt(sq)
    gamma = 2.0 * (d + 3) * np.finfo(float).eps  # 4 (D + 3) u
    # per row i: ln(1 / WEIGHT_EPS) plus the Gram round-off bound over l_i l_j
    limit = np.log(1.0 / WEIGHT_EPS) * (1.0 + gamma) + gamma * (
        (norms + norms.max()) ** 2 / (scales * scales.min())
    )
    chunk = max(1, _WORK_BYTES // (32 * d))
    counts = np.zeros(n, dtype=np.int32)
    cols, vals = [], []
    kept = 0
    start = 0
    while start < n:
        stop = min(start + _block_rows(n - start), n)
        g = lf[start:stop] @ lf[start:].T
        g *= -2.0
        g += sq[start:stop, None]
        g += sq[None, start:]
        g /= scales[start:stop, None]
        g /= scales[None, start:]
        r, c = np.nonzero(g <= limit[start:stop, None])
        upper = c > r
        i, j = r[upper] + start, c[upper] + start
        arg = np.empty(i.size, dtype=np.longdouble)
        for s in range(0, i.size, chunk):
            diff = lf[i[s : s + chunk]]
            diff -= lf[j[s : s + chunk]]
            diff = diff.astype(np.longdouble)
            arg[s : s + chunk] = np.einsum("ij,ij->i", diff, diff)
        arg /= scales[i]
        arg /= scales[j]
        w = np.exp(-arg.astype(np.float64))
        keep = w >= WEIGHT_EPS
        kept += int(np.count_nonzero(keep))
        if 2 * kept * _CSR_ENTRY_BYTES > GRAPH_BYTE_BUDGET:
            raise DenseLimitExceeded(
                f"the graph on N={n} points keeps over {2 * kept * _CSR_ENTRY_BYTES} "
                f"bytes of CSR weights, above the {GRAPH_BYTE_BUDGET}-byte budget"
            )
        counts[start:stop] = np.bincount(i[keep] - start, minlength=stop - start)
        cols.append(j[keep].astype(np.int32))
        vals.append(w[keep])
        start = stop
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    upper = sp.csr_array((np.concatenate(vals), np.concatenate(cols), indptr), shape=(n, n))
    del cols, vals
    w = upper + upper.T  # the pairs' patterns are disjoint, so no sum rounds
    return AffinityGraph(weights=w, degrees=w.sum(axis=1), scales=scales, knn_k=knn_k)


@dataclass(frozen=True)
class GraphLaplacian:
    """One member L = D^{-p} (D - W) D^{-q} of the Laplacian family, in CSR."""

    graph: AffinityGraph
    p: float
    q: float
    matrix: sp.csr_array

    def __post_init__(self):
        object.__setattr__(self, "matrix", sp.csr_array(self.matrix, dtype=np.float64))

    @property
    def shift_bound(self) -> float:
        """a = 2 max_i D_ii^{1-p-q}; the spectrum of L lies in [0, a]."""
        return 2.0 * float(np.max(self.graph.degrees ** (1.0 - self.p - self.q)))

    @cached_property
    def sym_matrix(self) -> sp.csr_array:
        """The similar symmetric member with exponent (p+q)/2."""
        if self.p == self.q:
            return self.matrix
        return laplacian(self.graph, 0.5 * (self.p + self.q), 0.5 * (self.p + self.q)).matrix


def laplacian(graph: AffinityGraph, p: float, q: float) -> GraphLaplacian:
    """L = D^{-p} (D - W) D^{-q} as a CSR matrix.

    Off the diagonal, entry (i, j) is -W_ij (d_i^{-p} d_j^{-q}); for p == q
    the scale factor is a product of two commuting numbers, so L is
    exactly symmetric.

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
    w = graph.weights
    # -(d_i^{-p} d_j^{-q}) W_ij in one array, with one nnz-sized temporary
    data = np.repeat(d ** -p, np.diff(w.indptr))
    data *= (d ** -q)[w.indices]
    data *= w.data
    np.negative(data, out=data)
    off = sp.csr_array((data, w.indices, w.indptr), shape=w.shape)
    mat = (off + sp.diags_array(d ** (1.0 - p - q))).tocsr()
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
