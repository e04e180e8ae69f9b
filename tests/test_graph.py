import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp

import mfgl.graph
from conftest import random_points, two_blob_points
from mfgl.bench import Generator, generate
from mfgl.exceptions import (
    DenseLimitExceeded,
    DimensionMismatch,
    DuplicatePointScale,
    InvalidConfig,
    ZeroDegree,
)
from mfgl.graph import (
    WEIGHT_EPS,
    AffinityGraph,
    GraphLaplacian,
    build_graph,
    laplacian,
    self_adjointness_check,
    self_tuning_scales,
    weight_columns,
    weighted_inner,
)
from mfgl.nystrom import nystrom_factor
from mfgl.spectral import low_spectrum

GENERATOR_CASES = [
    (Generator.CLUSTERED_SHIFT, 3000, 5),
    (Generator.SMOOTH_MANIFOLD, 3000, 5),
    (Generator.BEAM_LIKE_1D, 2000, 256),
]


def brute_force_weights(lf, knn_k):
    """Independent O(N^2) reimplementation of the kernel from its formula."""
    n = lf.shape[0]
    dist = np.sqrt(((lf[:, None, :] - lf[None, :, :]) ** 2).sum(axis=2))
    scales = np.array([np.sort(dist[i])[knn_k] for i in range(n)])
    w = np.exp(-(dist**2) / np.outer(scales, scales))
    np.fill_diagonal(w, 0.0)
    return 0.5 * (w + w.T), scales


def test_two_points_weight_is_exp_minus_one():
    lf = np.array([[0.0, 0.0], [0.0, 3.7]])
    g = build_graph(lf, knn_k=1)
    assert g.weights.toarray()[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert g.scales[0] == pytest.approx(3.7)


def test_weights_symmetric_zero_diagonal(rng):
    w = build_graph(rng.normal(size=(12, 3)), knn_k=4).weights.toarray()
    assert np.array_equal(w, w.T)
    assert np.all(np.diag(w) == 0.0)
    assert np.all(w >= 0.0)


def test_weights_match_brute_force_oracle():
    lf = random_points(10, 2, seed=3)
    g = build_graph(lf, knn_k=3)
    w_ref, scales_ref = brute_force_weights(lf, 3)
    assert np.abs(g.scales - scales_ref).max() < 1e-12
    assert np.abs(g.weights.toarray() - w_ref).max() < 1e-12
    assert np.abs(g.degrees - w_ref.sum(axis=1)).max() < 1e-12


def test_lazy_columns_match_full_matrix():
    lf = random_points(30, 3, seed=7)
    scales = self_tuning_scales(lf, 5)
    g = build_graph(lf, knn_k=5)
    idx = np.array([0, 4, 17, 29])
    cols = weight_columns(lf, scales, idx)
    assert cols.shape == (30, 4)
    assert np.abs(cols - g.weights.toarray()[:, idx]).max() < 1e-12


def test_weight_columns_checks_indices_and_scales():
    lf = random_points(200, 3, seed=1)
    scales = self_tuning_scales(lf, 5)
    with pytest.raises(InvalidConfig, match=r"\[0, 200\)"):
        nystrom_factor(lambda idx: weight_columns(lf, scales, idx), [0, 500])
    with pytest.raises(InvalidConfig, match=r"\[0, 200\)"):
        weight_columns(lf, scales, [-1, 3])  # no silent wrap to the last row
    with pytest.raises(DimensionMismatch):
        weight_columns(lf, scales[:-1], [0, 3])


def test_duplicate_points_rejected():
    lf = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DuplicatePointScale):
        self_tuning_scales(lf, 1)


def test_knn_k_bounds():
    lf = random_points(5, 2, seed=0)
    with pytest.raises(InvalidConfig):
        self_tuning_scales(lf, 0)
    with pytest.raises(InvalidConfig):
        self_tuning_scales(lf, 5)


def test_dense_limit_enforced(monkeypatch):
    lf = random_points(25, 2, seed=0)
    monkeypatch.setattr(mfgl.graph, "GRAPH_BYTE_BUDGET", 12 * 100)
    with pytest.raises(DenseLimitExceeded, match="1200-byte budget"):
        build_graph(lf, knn_k=3)


def test_block_byte_cap_leaves_the_graph_unchanged(monkeypatch):
    lf = generate(Generator.SMOOTH_MANIFOLD, 600, 5, seed=0).lf_data
    ref = build_graph(lf)
    # 7 rows in the first block, more as the triangle narrows, the last
    # one partial, and 210-pair chunks of differences, where the default
    # takes one block
    monkeypatch.setattr(mfgl.graph, "_WORK_BYTES", 8 * 600 * 7)
    got = build_graph(lf).weights
    # each kept weight comes from its own direct difference, so no block
    # shape can move it
    assert np.array_equal(got.indptr, ref.weights.indptr)
    assert np.array_equal(got.indices, ref.weights.indices)
    assert np.array_equal(got.data, ref.weights.data)


def test_graph_blocks_are_bounded_by_bytes():
    # 2048-row blocks of N=6000 distances peaked at 310 MB for 2.6 MB of
    # CSR; the triangle pass holds the triangle, W and one working set
    lf = generate(Generator.SMOOTH_MANIFOLD, 6000, 5, seed=0).lf_data
    tracemalloc.start()
    try:
        w = build_graph(lf).weights
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    csr_bytes = w.data.nbytes + w.indices.nbytes + w.indptr.nbytes
    assert peak < 2 * csr_bytes + 4 * mfgl.graph._WORK_BYTES


@pytest.mark.parametrize("kind, n, d", GENERATOR_CASES)
def test_weights_exactly_symmetric_with_zero_diagonal(kind, n, d):
    w = build_graph(generate(kind, n, d, seed=0).lf_data).weights
    assert (w != w.T).nnz == 0
    assert np.all(w.diagonal() == 0.0)
    rows = np.repeat(np.arange(n), np.diff(w.indptr))
    assert not np.any(w.indices == rows)  # no stored diagonal entry
    assert w.has_canonical_format


def exact_weight(x, y, lx, ly):
    """exp(-|x - y|^2 / (lx ly)) for float inputs: the exponent in exact
    rational arithmetic, the exponential at 40 digits."""
    d2 = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x.tolist(), y.tolist()))
    arg = d2 / (Fraction(lx) * Fraction(ly))
    with mpmath.workdps(40):
        return mpmath.exp(-mpmath.mpf(arg.numerator) / arg.denominator)


@pytest.mark.parametrize("kind, n, d", GENERATOR_CASES)
def test_kept_weights_match_exact_arithmetic(kind, n, d):
    # the sample: the ten closest pairs in distance and in kernel units,
    # the ten kept weights next to the 1e-12 cut, and ten at random
    lf = generate(kind, n, d, seed=0).lf_data
    g = build_graph(lf)
    upper = sp.triu(g.weights, k=1).tocoo()
    i, j, w = upper.row, upper.col, upper.data
    d2 = np.einsum("ij,ij->i", lf[i] - lf[j], lf[i] - lf[j])
    by_weight = np.argsort(w)
    rng = np.random.default_rng(0)
    sample = np.unique(np.concatenate([
        np.argsort(d2)[:10], by_weight[-10:], by_weight[:10],
        rng.choice(w.size, 10, replace=False),
    ]))
    assert w.min() >= WEIGHT_EPS
    for k in sample:
        exact = exact_weight(lf[i[k]], lf[j[k]], g.scales[i[k]], g.scales[j[k]])
        assert abs((mpmath.mpf(w[k]) - exact) / exact) <= 1e-14, (i[k], j[k])


def test_front_end_peak_is_bounded_by_the_csr():
    # build_graph -> laplacian -> low_spectrum holds W, L and one working
    # set: no N x N block, no CSC copy of L_sym, one shifted data array.
    # The LU factor lives in SuperLU's own allocations, which tracemalloc
    # does not see.
    lf = generate(Generator.CLUSTERED_SHIFT, 3000, 5, seed=0).lf_data
    tracemalloc.start()
    try:
        g = build_graph(lf)
        low_spectrum(laplacian(g, 0.5, 0.5), 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    w = g.weights
    csr_bytes = w.data.nbytes + w.indices.nbytes + w.indptr.nbytes
    assert peak < 3 * csr_bytes + mfgl.graph._WORK_BYTES


def test_two_node_symmetric_laplacian():
    lf = np.array([[0.0], [1.0]])
    lmat = laplacian(build_graph(lf, knn_k=1), 0.5, 0.5).matrix.toarray()
    assert np.allclose(lmat, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)
    assert np.allclose(np.sort(np.linalg.eigvalsh(lmat)), [0.0, 2.0], atol=1e-12)


def test_random_walk_rows_sum_to_zero():
    gl = laplacian(build_graph(random_points(15, 3, seed=2), knn_k=4), 1.0, 0.0)
    assert np.abs(gl.matrix.sum(axis=1)).max() < 1e-12


def test_general_pq_matches_elementwise_formula():
    lf = random_points(6, 2, seed=5)
    g = build_graph(lf, knn_k=2)
    gl = laplacian(g, 0.3, 0.7)
    d = g.degrees
    w = g.weights.toarray()
    ref = np.empty((6, 6))
    for i in range(6):
        for j in range(6):
            lij = (d[i] if i == j else 0.0) - w[i, j]
            ref[i, j] = d[i] ** -0.3 * lij * d[j] ** -0.7
    assert np.abs(gl.matrix.toarray() - ref).max() < 1e-12


def test_symmetric_laplacian_is_psd(rng):
    for seed in range(5):
        gl = laplacian(build_graph(random_points(18, 3, seed=seed), knn_k=4), 0.5, 0.5)
        lmat = gl.matrix.toarray()
        assert np.array_equal(lmat, lmat.T)
        assert np.linalg.eigvalsh(lmat).min() >= -1e-10


def test_kernel_vector_is_annihilated():
    # L (D^q 1) = 0 for every (p, q)
    for p, q in [(0.5, 0.5), (1.0, 0.0), (0.3, 0.7)]:
        g = build_graph(random_points(14, 2, seed=9), knn_k=4)
        gl = laplacian(g, p, q)
        v = g.degrees**q
        rel = np.abs(gl.matrix @ v).max() / np.abs(v).max()
        assert rel < 1e-10


def test_eigenvalues_lie_in_shift_interval():
    for p, q in [(0.5, 0.5), (1.0, 0.0)]:
        for seed in range(3):
            g = build_graph(random_points(16, 3, seed=seed), knn_k=4)
            gl = laplacian(g, p, q)
            lam = np.linalg.eigvals(gl.matrix.toarray()).real
            a = 2.0 * np.max(g.degrees ** (1.0 - p - q))
            assert gl.shift_bound == pytest.approx(a)
            assert lam.min() > -1e-10
            assert lam.max() < a + 1e-10


def test_similarity_to_symmetric_member():
    g = build_graph(random_points(12, 2, seed=4), knn_k=3)
    gl = laplacian(g, 1.0, 0.0)
    s = g.degrees**0.5  # D^{(p-q)/2}
    conj = (s[:, None] * gl.matrix.toarray()) / s[None, :]
    assert np.abs(conj - conj.T).max() < 1e-10
    assert np.abs(conj - gl.sym_matrix.toarray()).max() < 1e-10


def test_scale_invariance_of_weights():
    lf = random_points(13, 3, seed=6)
    g1 = build_graph(lf, knn_k=4)
    g2 = build_graph(2.5 * lf, knn_k=4)
    assert np.abs(g1.weights.toarray() - g2.weights.toarray()).max() < 1e-12


def test_zero_degree_detected():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0  # node 2 isolated
    with pytest.raises(ZeroDegree):
        AffinityGraph(
            weights=w, degrees=w.sum(axis=1), scales=np.ones(3), knn_k=1
        )


def test_weighted_inner_reduces_to_dot_for_equal_pq(rng):
    g = build_graph(random_points(10, 2, seed=1), knn_k=3)
    u, v = rng.normal(size=(2, 10))
    assert weighted_inner(u, v, g, 0.5, 0.5) == pytest.approx(float(u @ v))


def test_weighted_inner_ones_gives_total_degree():
    g = build_graph(random_points(9, 2, seed=8), knn_k=3)
    ones = np.ones(9)
    assert weighted_inner(ones, ones, g, 1.0, 0.0) == pytest.approx(
        float(g.degrees.sum())
    )


def test_weighted_inner_matches_elementwise_oracle(rng):
    g = build_graph(random_points(11, 3, seed=2), knn_k=3)
    u, v = rng.normal(size=(2, 11))
    oracle = sum(u[i] * g.degrees[i] * v[i] for i in range(11))
    assert weighted_inner(u, v, g, 1.0, 0.0) == pytest.approx(oracle)


def test_self_adjointness_in_weighted_inner():
    for p, q in [(0.5, 0.5), (1.0, 0.0)]:
        gl = laplacian(build_graph(random_points(12, 2, seed=3), knn_k=3), p, q)
        assert self_adjointness_check(gl) <= 1e-10


def test_self_adjointness_negative_control(rng):
    g = build_graph(random_points(12, 2, seed=3), knn_k=3)
    fake = GraphLaplacian(graph=g, p=0.5, q=0.5, matrix=rng.normal(size=(12, 12)))
    assert self_adjointness_check(fake) > 1e-6
