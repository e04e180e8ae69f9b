"""Sparse weighted graph on the low-fidelity points.

Weights use a Gaussian kernel with self-tuning bandwidths: each point's
scale is its distance to the knn_k-th nearest neighbor, and the pairwise
bandwidth is the geometric mean of the two scales,

    W_ij = exp(-||x_i - x_j||^2 / (l_i * l_j)),   W_ii = 0.

Pairs whose weight falls below ``WEIGHT_EPS`` are dropped, so the graph
and every Laplacian are built and stored in CSR form; with a self-tuning
kernel almost every pair weight is far below round-off.  Each kept
weight is taken from the direct difference x_i - x_j, once per unordered
pair, so it is exact to round-off.  The graph stores only those pairs,
W's strict upper triangle, with the degrees: W is exactly symmetric by
construction, its diagonal is zero, and it is formed only on request.
Building the graph holds the triangle and one Gram block of
``_WORK_BYTES`` bytes at a time, never an N x N array, and for the
degrees W's values, freed on return.

The Laplacian family is L = D^{-p} (D - W) D^{-q}.  For p != q, L is a
similarity transform D^{-(p-q)/2} L_sym D^{(p-q)/2} of the symmetric
member with exponent (p+q)/2, which is what makes a symmetric eigensolve
and the reweighted inner product <u, v> = u^T D^{p-q} v work.  So only
L_sym and the degrees are built and stored, and L is formed on request.
L_sym is written straight from the triangle in two passes, its values
and then its column indices; a graph handed on is freed in stages, its
values after the first pass and its pattern after the second, so no
stage holds the whole triangle next to the whole of L_sym.  The
eigensolve shifts L_sym's diagonal in its own arrays
(:meth:`GraphLaplacian.shifted`), so no stage holds two copies of L_sym's
values.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .config import PipelineConfig, check_budget
from .data import frozen, require_finite
from .exceptions import (
    DimensionMismatch,
    DuplicatePointScale,
    InvalidConfig,
    NonFiniteInput,
    SingularSystem,
    ZeroDegree,
)

# Smallest self-tuning scale, relative to the largest row norm.
SCALE_TOL = 1e-14
# Smallest kernel weight the graph keeps.
WEIGHT_EPS = 1e-12
# Bytes a kept pair is charged against the memory budget: the degree
# pass holds the triangle's entry (12) next to W's two values (16), and
# the Laplacian the triangle's column index (4) next to L_sym's two
# entries (24).
_PAIR_BYTES = 28
# Most bytes of one block of squared distances, point differences or
# scale factors, in build_graph and laplacian.
_WORK_BYTES = 1 << 20


def _block_rows(width: int) -> int:
    """Rows of a float block ``width`` wide that fit in ``_WORK_BYTES``."""
    return max(1, _WORK_BYTES // (8 * width))


def self_tuning_scales(lf: np.ndarray, knn_k: int = PipelineConfig.knn_k) -> np.ndarray:
    """Distance from each point to its knn_k-th nearest neighbor.

    The point itself is excluded from the neighbor count, so duplicates
    shrink the scale; that degeneracy is an error, not a clamp.

    Raises
    ------
    DuplicatePointScale
        When some scale is at most ``SCALE_TOL`` times the largest row
        norm, i.e. zero to round-off of the data's scale.
    NonFiniteInput
        When a row holds NaN or Inf, or its squared norm overflows.
    InvalidConfig
        When knn_k is not in [1, N).
    """
    lf = np.asarray(lf, dtype=np.float64)
    n = lf.shape[0]
    if not 1 <= knn_k < n:
        raise InvalidConfig(f"knn_k must be in [1, {n}), got {knn_k}")
    require_finite(lf, "points")
    # the data's scale, the largest row norm, without an N x D temporary
    top = np.einsum("ij,ij->i", lf, lf).max()
    if top == np.inf:
        raise NonFiniteInput("the squared row norms overflow float64: scale the rows "
                             "down, or use --normalization component")
    floor = SCALE_TOL * np.sqrt(top)
    dists, _ = cKDTree(lf).query(lf, k=knn_k + 1)
    # column 0 is the zero self-distance; column knn_k is the knn_k-th
    # neighbor once self is dropped
    scales = np.ascontiguousarray(dists[:, knn_k])
    bad = np.flatnonzero(scales <= floor)
    if bad.size:
        raise DuplicatePointScale(int(bad[0]))
    return scales


@dataclass(frozen=True, eq=False)
class AffinityGraph:
    """The kept pairs of the kernel matrix W's strict upper triangle (CSR,
    sorted columns), with W's degrees.

    W, whose diagonal is zero, is formed only on request (:attr:`weights`).
    """

    upper: sp.csr_array
    degrees: np.ndarray

    def __post_init__(self):
        upper = sp.csr_array(self.upper, dtype=np.float64)
        if not upper.has_sorted_indices:
            upper = upper.sorted_indices()  # a copy: the caller's stays as it is
        rows = np.flatnonzero(np.diff(upper.indptr))
        if upper.shape[0] != upper.shape[1] or np.any(upper.indices[upper.indptr[rows]] <= rows):
            raise InvalidConfig("upper must be the strict upper triangle of a square matrix")
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "degrees", frozen(self.degrees))
        bad = np.flatnonzero(~(self.degrees > 0.0))
        if bad.size:
            raise ZeroDegree(int(bad[0]))

    @property
    def n(self) -> int:
        return self.upper.shape[0]

    @property
    def weights(self) -> sp.csr_array:
        """W = upper + upper^T, formed on each call; the disjoint triangles add exactly."""
        return self.upper + self.upper.T


def _row_blocks(indptr: np.ndarray, step: int):
    """Row bounds (a, b) that cut a CSR pattern into blocks of about
    ``step`` entries; a longer row is a block of its own."""
    starts = np.searchsorted(indptr, np.arange(0, indptr[-1], step), "right") - 1
    bounds = np.unique(np.r_[starts, indptr.size - 1])
    return zip(bounds[:-1], bounds[1:])


def _symmetric_indptr(uptr: np.ndarray, uind: np.ndarray, gap: int) -> np.ndarray:
    """Row pointers of the symmetric matrix whose strict upper triangle has
    the sorted CSR pattern (``uptr``, ``uind``).  Each row holds its
    mirrored entries, then ``gap`` (0 or 1) diagonal slots, then its own
    entries, so its columns ascend; with the gap, row i's diagonal slot
    is ``indptr[i + 1] - (uptr[i + 1] - uptr[i]) - 1``."""
    n = uptr.size - 1
    lower = np.zeros(n, dtype=np.intp)  # mirrored entries of each row
    step = max(1, _WORK_BYTES // 32)
    for s in range(0, uind.size, step):
        lower += np.bincount(uind[s : s + step], minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lower + gap + np.diff(uptr), out=indptr[1:])
    return indptr


def _symmetric_write(out: np.ndarray, uptr: np.ndarray, uind: np.ndarray,
                     indptr: np.ndarray, values) -> None:
    """Write into ``out`` the off-diagonal slots of the symmetric matrix
    whose strict upper triangle has the sorted CSR pattern (``uptr``,
    ``uind``), laid out by ``indptr`` (:func:`_symmetric_indptr`).

    ``values(a, b)`` gives, for the triangle's rows a..b-1, two arrays
    with one item per stored entry: what its own slot holds and what its
    mirrored slot holds.  The mirror is a counting-sort transpose
    (Gustavson, ACM TOMS 4(3), 1978), one ``tocsc`` per block of about
    ``_WORK_BYTES / 16`` entries; at most about 32 work bytes each, or 2
    ``_WORK_BYTES``, are held at once, each freed once written.  Each
    row's mirrored entries come in ascending order without a sort, and
    every write goes through an ascending list of slots.
    """
    n = uptr.size - 1
    counts = np.diff(uptr)
    offset = indptr[1:].astype(np.intp) - uptr[1:]  # own slot minus entry index, per row
    nxt = indptr[:-1].astype(np.intp)  # next free mirror slot of each row
    for a, b in _row_blocks(uptr, max(1, _WORK_BYTES // 16)):
        lo, hi = uptr[a], uptr[b]
        here, there = values(a, b)
        own = np.repeat(offset[a:b], counts[a:b])
        own += np.arange(lo, hi)
        out[own] = here
        del here, own
        # the block's mirrored items by column, and by row within a column
        csc = sp.csr_array(
            (there, uind[lo:hi] - np.int32(a), uptr[a : b + 1] - lo), shape=(b - a, n - a)
        ).tocsc()
        del there
        per_col = np.diff(csc.indptr)
        mirror = np.repeat(nxt[a:] - csc.indptr[:-1], per_col)
        mirror += np.arange(hi - lo)
        nxt[a:] += per_col
        out[mirror] = csc.data
        del csc, per_col, mirror  # before the next block is formed


def build_graph(lf: np.ndarray, knn_k: int = PipelineConfig.knn_k) -> AffinityGraph:
    """Build the epsilon-thresholded affinity graph on the rows of ``lf``.

    A pair is kept when its weight is at least ``WEIGHT_EPS``.  One pass
    over the upper triangle, in row blocks of at most ``_WORK_BYTES``
    bytes, picks candidate pairs from the Gram form |x|^2 + |y|^2 - 2 x.y,
    with a margin that covers its round-off: |error| <= gamma (|x| + |y|)^2
    with gamma = (D + 3) u / (1 - (D + 3) u), u the unit round-off
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    sec. 3.1); each block is freed once cut to its candidate mask, before
    the pairs are listed.  The margin takes 4 (D + 3) u, which also covers the
    rounding of the scaling and of the kept weight.  Each candidate's
    exponent d^2 / (l_i l_j) is then recomputed from the float64
    difference x_i - x_j, squared and summed in extended precision
    (``np.longdouble``), and rounded once; the weight is cut exactly at
    ``WEIGHT_EPS``.  Where long double is wider than double (80 bits on
    x86-64), the exponent is within about 3 u of exact whatever D is, so
    a weight near the cut, with exponent ln(1 / WEIGHT_EPS) = 27.6, is
    within about 1e-14 relative of exact.  The graph keeps only that
    triangle, so W_ij and W_ji are always the same float.  The degrees
    are W's row sums, taken as scipy sums the rows of a CSR W (one
    ``np.add.reduceat`` over each row in column order) from an array of
    W's values that :func:`_symmetric_write` writes; that array
    is dropped on return, so the graph never holds W.

    Parameters
    ----------
    lf : ndarray, shape (N, D)
    knn_k : int
        Neighbor index that sets the self-tuning scale.

    Raises
    ------
    MemoryBudgetExceeded
        As soon as the pairs kept so far, at ``_PAIR_BYTES`` each, and two
        ``_WORK_BYTES`` blocks exceed the memory budget
        (:data:`~mfgl.config.MEMORY_BUDGET`), before the degree pass.
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
        g = g <= limit[start:stop, None]  # the candidate mask; the block is freed
        i, j = np.nonzero(np.triu(g, 1))  # its strict upper part, row-major
        del g
        i += start
        j += start
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
        check_budget(f"the graph on N={n} points", _PAIR_BYTES * kept + 2 * _WORK_BYTES)
        counts[start:stop] = np.bincount(i[keep] - start, minlength=stop - start)
        cols.append(j[keep].astype(np.int32))
        vals.append(w[keep])
        start = stop
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    upper = sp.csr_array((np.concatenate(vals), np.concatenate(cols), indptr), shape=(n, n))
    del cols, vals
    # W's values in W's row order, summed per row as scipy sums W
    w_indptr = _symmetric_indptr(indptr, upper.indices, 0)
    w_data = np.zeros(w_indptr[-1])
    _symmetric_write(w_data, indptr, upper.indices, w_indptr,
                     lambda a, b: (upper.data[indptr[a] : indptr[b]],) * 2)
    degrees = np.zeros(n)
    rows = np.flatnonzero(np.diff(w_indptr))
    degrees[rows] = np.add.reduceat(w_data, w_indptr[rows])
    return AffinityGraph(upper=upper, degrees=degrees)


@dataclass(frozen=True, eq=False)
class GraphLaplacian:
    """L_sym, the symmetric member of exponent (p+q)/2 of the Laplacian
    family, in CSR, and the degrees: all the solvers read of the graph.
    :meth:`matrix` forms the similar member L = D^{-p} (D - W) D^{-q} on
    request.  It holds no W.  Build it with :func:`laplacian`."""

    sym_matrix: sp.csr_array
    degrees: np.ndarray
    p: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "degrees", frozen(self.degrees))

    @property
    def n(self) -> int:
        return self.sym_matrix.shape[0]

    @property
    def nbytes(self) -> int:
        """The bytes of L_sym's CSR arrays."""
        lsym = self.sym_matrix
        return lsym.data.nbytes + lsym.indices.nbytes + lsym.indptr.nbytes

    @property
    def shift_bound(self) -> float:
        """a = 2 max_i D_ii^{1-p-q}; the spectrum of L lies in [0, a]."""
        return 2.0 * float(np.max(self.degrees ** (1.0 - self.p - self.q)))

    def matrix(self) -> sp.csr_array:
        """L = D^{-(p-q)/2} L_sym D^{(p-q)/2}, formed on each call on
        L_sym's pattern; ``sym_matrix`` itself when p == q."""
        lsym = self.sym_matrix
        if self.p == self.q:
            return lsym
        h = 0.5 * (self.p - self.q)
        data = np.repeat(self.degrees ** -h, np.diff(lsym.indptr))
        data *= lsym.data
        data *= (self.degrees ** h)[lsym.indices]
        return sp.csr_array((data, lsym.indices, lsym.indptr), shape=lsym.shape)

    @contextmanager
    def shifted(self, sigma: float) -> Iterator[sp.csc_array]:
        """L_sym - sigma I in CSC, on L_sym's own arrays, for the span of
        the ``with`` block: L_sym is exactly symmetric, so its CSR arrays
        are also its CSC arrays, and the shifted diagonal is written into
        its diagonal slots.  So no copy of its values is made, and while
        the block runs ``sym_matrix`` reads shifted too.  On exit, also
        when the block raises, the saved diagonal is written back bit for
        bit and the arrays are read-only again.  The one place L_sym's
        values are written after :func:`laplacian`, for two callers: the
        shift-invert LU of :func:`~mfgl.spectral.low_spectrum` (sigma =
        -1e-3 a) and the integer power of the dense prior,
        :func:`~mfgl.posterior.shifted_power` (sigma = -tau).

        Raises ``InvalidConfig`` unless L_sym is in canonical form and
        stores every diagonal entry, as :func:`laplacian` builds it.
        """
        lsym = self.sym_matrix
        slots = _diagonal_slots(lsym)
        saved = lsym.data[slots]
        shifted = sp.csc_array((lsym.data, lsym.indices, lsym.indptr), shape=lsym.shape)
        views = [shifted.data]  # and the arrays it views, down to the memory's owner
        while isinstance(views[-1].base, np.ndarray):
            views.append(views[-1].base)
        for arr in reversed(views):  # a view is writeable only once its base is
            arr.setflags(write=True)
        try:
            shifted.data[slots] = saved - sigma
            yield shifted
        finally:
            shifted.data[slots] = saved
            for arr in views:
                arr.setflags(write=False)


def _diagonal_slots(lsym: sp.csr_array) -> np.ndarray:
    """The slot in ``lsym.data`` of each row's diagonal entry, found in
    row blocks of about ``_WORK_BYTES / 16`` entries."""
    ptr, ind = lsym.indptr, lsym.indices
    slots = [np.zeros(0, dtype=np.intp)]
    for a, b in _row_blocks(ptr, max(1, _WORK_BYTES // 16)):
        rows = np.repeat(np.arange(a, b, dtype=ind.dtype), np.diff(ptr[a : b + 1]))
        slots.append(ptr[a] + np.flatnonzero(ind[ptr[a] : ptr[b]] == rows))
    slots = np.concatenate(slots)
    if not lsym.has_canonical_format or slots.size != lsym.shape[0]:
        raise InvalidConfig("L_sym must be in canonical form and store every diagonal entry")
    return slots


def laplacian(graph: AffinityGraph, p: float, q: float) -> GraphLaplacian:
    """L_sym = D^{-s} (D - W) D^{-s}, s = (p+q)/2, as a CSR matrix.

    Off the diagonal, entry (i, j) is -((d_i^{-s} d_j^{-s}) W_ij), a
    product of two commuting numbers, so L_sym is exactly symmetric.  It
    is written straight from the graph's triangle into its final
    pattern, W's sorted pattern plus the diagonal, in two passes of
    blocks of the triangle's rows (:func:`_symmetric_write`): the first
    scales each kept pair once and writes its two values, the second
    writes their two column indices.  The reference to ``graph`` is
    dropped on entry, and the triangle's values once the first pass is
    done, so a caller that passes its only reference (``laplacian(
    build_graph(...), p, q)``) frees the triangle in stages: the call
    holds the triangle next to L_sym's values, then the triangle's
    pattern next to L_sym, and a few ``_WORK_BYTES`` blocks, never W.  A
    caller that keeps the graph gets the same L_sym bit for bit.  The
    arrays are read-only: the member L that :meth:`GraphLaplacian.matrix`
    forms shares the pattern, so an in-place scipy operation raises
    ``ValueError``; work on a copy.  The result keeps no reference to
    ``graph``.  The degrees are positive: :class:`AffinityGraph` refuses
    any other.  So every value is finite and the diagonal, d_i^{1-2s}, is
    positive, unless a degree power leaves float64's range: that L_sym is
    refused as ``SingularSystem``, naming p and q.
    """
    d = graph.degrees
    uptr, uind, tvals = graph.upper.indptr, graph.upper.indices, graph.upper.data
    del graph  # so a triangle handed on is freed in stages
    n = d.size
    s = 0.5 * (p + q)

    def scaled(a, b):  # -((d_i^{-s} d_j^{-s}) W_ij), once per kept pair
        lo, hi = uptr[a], uptr[b]
        scale = np.repeat(ds[a:b], np.diff(uptr[a : b + 1]))
        scale *= ds[uind[lo:hi]]
        scale *= tvals[lo:hi]
        np.negative(scale, out=scale)
        return scale, scale

    def pattern(a, b):  # column j in row i's slot, and i in row j's
        return uind[uptr[a] : uptr[b]], np.repeat(np.arange(a, b, dtype=np.int32),
                                                  np.diff(uptr[a : b + 1]))

    indptr = _symmetric_indptr(uptr, uind, 1)
    diag = indptr[1:] - np.diff(uptr) - 1  # the slot of each row's diagonal
    data = np.zeros(indptr[-1])
    with np.errstate(all="ignore"):  # a power past float64's range is refused below
        ds = d ** -s  # read by scaled
        _symmetric_write(data, uptr, uind, indptr, scaled)
        data[diag] = d ** (1.0 - s - s)
    if not (np.isfinite(data.min()) and np.isfinite(data.max()) and data[diag].min() > 0):
        raise SingularSystem(f"L_sym at p={p}, q={q}: a degree power leaves float64's range")
    del tvals  # the triangle's values, before L_sym's column indices are formed
    indices = np.empty(indptr[-1], dtype=np.int32)
    _symmetric_write(indices, uptr, uind, indptr, pattern)
    indices[diag] = np.arange(n)
    for arr in (data, indices, indptr):
        arr.setflags(write=False)
    lsym = sp.csr_array((data, indices, indptr), shape=(n, n))
    return GraphLaplacian(sym_matrix=lsym, degrees=d, p=p, q=q)


def weighted_inner(
    u: np.ndarray, v: np.ndarray, degrees: np.ndarray, p: float, q: float
) -> float:
    """Reweighted dot product u^T D^{p-q} v."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    n = len(degrees)
    if u.shape != v.shape or u.shape[0] != n:
        raise DimensionMismatch(
            f"expected two length-{n} vectors, got {u.shape} and {v.shape}"
        )
    return float(u @ (degrees ** (p - q) * v))


def self_adjointness_check(gl: GraphLaplacian) -> float:
    """Max relative asymmetry of <u, Lv> - <v, Lu> over 20 random vector
    pairs, drawn from seed 0.

    The inner product is the D^{p-q}-reweighted one, under which every
    member of the Laplacian family is self-adjoint; values near machine
    precision certify the exponents of the similarity that forms L from
    L_sym.
    """
    rng = np.random.default_rng(0)
    mat = gl.matrix()
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(gl.n)
        v = rng.standard_normal(gl.n)
        lhs = weighted_inner(u, mat @ v, gl.degrees, gl.p, gl.q)
        rhs = weighted_inner(v, mat @ u, gl.degrees, gl.p, gl.q)
        worst = max(
            worst,
            abs(lhs - rhs) / (np.linalg.norm(u) * np.linalg.norm(v)),
        )
    return worst
