import dataclasses
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import mfgl.config
import mfgl.graph
from conftest import hand_graph, random_points, refused_peak, traced_peak
from mfgl.bench import Generator, generate
from mfgl.exceptions import (
    DimensionMismatch,
    DuplicatePointScale,
    InvalidConfig,
    MemoryBudgetExceeded,
    NonFiniteInput,
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
    weighted_inner,
)
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
    assert self_tuning_scales(lf, 1)[0] == pytest.approx(3.7)


def test_weights_symmetric_zero_diagonal(rng):
    w = build_graph(rng.normal(size=(12, 3)), knn_k=4).weights.toarray()
    assert np.array_equal(w, w.T)
    assert np.all(np.diag(w) == 0.0)
    assert np.all(w >= 0.0)


def test_weights_match_brute_force_oracle():
    lf = random_points(10, 2, seed=3)
    g = build_graph(lf, knn_k=3)
    w_ref, scales_ref = brute_force_weights(lf, 3)
    assert np.abs(self_tuning_scales(lf, 3) - scales_ref).max() < 1e-12
    assert np.abs(g.weights.toarray() - w_ref).max() < 1e-12
    assert np.abs(g.degrees - w_ref.sum(axis=1)).max() < 1e-12


def test_duplicate_points_rejected():
    lf = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DuplicatePointScale):
        self_tuning_scales(lf, 1)


def test_self_tuning_scales_make_no_copy_of_the_rows():
    # the kd-tree indexes the rows where they lie, and the data's scale
    # comes from one row-norm array: measured at 0.13x the rows' bytes on
    # a 2000 x 256 beam-like field (1.08x while np.linalg.norm squared a
    # copy of the rows)
    lf = generate(Generator.BEAM_LIKE_1D, 2000, 256, seed=0).lf_data
    _, peak = traced_peak(lambda: self_tuning_scales(lf))
    assert peak < 0.2 * lf.nbytes


def test_knn_k_bounds():
    lf = random_points(5, 2, seed=0)
    with pytest.raises(InvalidConfig):
        self_tuning_scales(lf, 0)
    with pytest.raises(InvalidConfig):
        self_tuning_scales(lf, 5)


def test_graph_budget_checked_before_the_degree_pass(monkeypatch):
    # a budget the kept pairs cross about halfway through the triangle:
    # refused as pairs are kept, before the degree pass writes W's values,
    # and below the budget all the while
    lf = generate(Generator.SMOOTH_MANIFOLD, 2000, 5, seed=0).lf_data
    pairs = build_graph(lf).upper.nnz
    budget = 2 * mfgl.graph._WORK_BYTES + mfgl.graph._PAIR_BYTES * pairs // 2
    monkeypatch.setattr(mfgl.config, "MEMORY_BUDGET", budget)
    degree_pass = []
    monkeypatch.setattr(mfgl.graph, "_symmetric_indptr", lambda *args: degree_pass.append(args))
    exc, peak = refused_peak(lambda: build_graph(lf), MemoryBudgetExceeded)
    assert str(exc).startswith("the graph on N=2000 points would hold about ")
    assert str(exc).endswith(f" bytes, above the {budget}-byte memory budget")
    assert degree_pass == []
    assert peak < budget


@pytest.mark.parametrize("scale", [2.0**530, 1e160])
def test_overflowing_row_norms_are_refused_by_name(scale):
    # the squared row norms overflow, which made the scale floor inf and
    # read as a scale underflow (DuplicatePointScale, exit 4)
    lf = generate(Generator.CLUSTERED_SHIFT, 200, 5, seed=0).lf_data * scale
    with pytest.raises(NonFiniteInput, match="squared row norms overflow.*--normalization component"):
        self_tuning_scales(lf)


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
    w, peak = traced_peak(lambda: build_graph(lf).weights)
    csr_bytes = w.data.nbytes + w.indices.nbytes + w.indptr.nbytes
    assert peak < 2 * csr_bytes + 4 * mfgl.graph._WORK_BYTES


def test_graph_build_holds_one_gram_block():
    # each Gram block becomes its candidate mask and is freed before the
    # strict-upper pairs and their extended-precision recompute are
    # formed: measured 1.20x _WORK_BYTES (2.06x while the block lived
    # through the pair selection and the recompute)
    lf = generate(Generator.SMOOTH_MANIFOLD, 400, 5, seed=0).lf_data
    _, peak = traced_peak(lambda: build_graph(lf))
    assert peak < 1.5 * mfgl.graph._WORK_BYTES


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
    g, scales = build_graph(lf), self_tuning_scales(lf)
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
        exact = exact_weight(lf[i[k]], lf[j[k]], scales[i[k]], scales[j[k]])
        assert abs((mpmath.mpf(w[k]) - exact) / exact) <= 1e-14, (i[k], j[k])


def front_end_bound(lsym, k):
    """Most bytes the graph front end may trace: L_sym's CSR, ARPACK's
    workspace inside eigsh, 8 N (2 ncv + K) with ncv = 2K + 1, and about
    two ``_WORK_BYTES`` of working blocks."""
    n = lsym.shape[0]
    csr_bytes = lsym.data.nbytes + lsym.indices.nbytes + lsym.indptr.nbytes
    return csr_bytes + 8 * n * (2 * (2 * k + 1) + k) + 2 * mfgl.graph._WORK_BYTES


def test_front_end_peak_is_bounded_by_the_csr():
    # build_graph -> laplacian -> low_spectrum never holds W, and no stage
    # holds two copies of L_sym's values: laplacian frees the triangle it
    # is handed in stages as it writes L_sym, and low_spectrum shifts
    # L_sym's diagonal in place, so the peak is ARPACK's workspace next
    # to L_sym inside eigsh (measured 16.4 MB here; 19.0 MB while
    # low_spectrum factored a shifted copy of L_sym's values).  The LU
    # factor lives in SuperLU's own allocations, which tracemalloc does
    # not see.
    lf = generate(Generator.CLUSTERED_SHIFT, 3000, 5, seed=0).lf_data

    def front_end():
        gl = laplacian(build_graph(lf), 0.5, 0.5)
        low_spectrum(gl, 40)
        return gl

    gl, peak = traced_peak(front_end)
    assert peak < front_end_bound(gl.sym_matrix, 40)


def test_truncated_pipeline_peak_is_the_front_ends(monkeypatch):
    # the same bound over a whole truncated run: a reference in plan_rows,
    # planning_spectrum or run_pipeline that kept the triangle alive
    # through laplacian or the eigensolve would break it
    import mfgl.bench
    from mfgl.bench import PipelineConfig, run_pipeline

    bounds = []
    real = mfgl.bench.low_spectrum

    def bounded(gl, k):
        bounds.append(front_end_bound(gl.sym_matrix, k))
        return real(gl, k)

    monkeypatch.setattr(mfgl.bench, "low_spectrum", bounded)
    prob = generate(Generator.CLUSTERED_SHIFT, 3000, 5, seed=0)
    _, peak = traced_peak(lambda: run_pipeline(prob, PipelineConfig(m=10)))
    [bound] = bounds
    assert peak < bound


@pytest.mark.parametrize("p, q", [(0.5, 0.5), (1.0, 0.0)])
def test_handed_on_and_kept_graphs_give_the_same_laplacian(p, q, monkeypatch):
    # a graph handed on is dropped on entry, its triangle's values once
    # L_sym's values are written and its pattern once L_sym's column
    # indices are; a graph the caller keeps gives the same bytes and is
    # left as it was
    lf = generate(Generator.CLUSTERED_SHIFT, 600, 5, seed=0).lf_data
    kept = build_graph(lf)
    parts = ("indptr", "indices", "data")
    before = [getattr(kept.upper, part).copy() for part in parts]
    want = laplacian(kept, p, q)
    for part, old in zip(parts, before):
        assert getattr(kept.upper, part).tobytes() == old.tobytes(), part

    handed = [build_graph(lf)]
    refs = [weakref.ref(handed[0]), weakref.ref(handed[0].upper.data)]
    alive = []
    write = mfgl.graph._symmetric_write

    def recorded(*args):
        alive.append([ref() is not None for ref in refs])
        return write(*args)

    monkeypatch.setattr(mfgl.graph, "_symmetric_write", recorded)
    got = laplacian(handed.pop(), p, q)
    assert alive == [[False, True], [False, False]]
    assert_same_csr(got.sym_matrix, want.sym_matrix)
    assert got.degrees.tobytes() == want.degrees.tobytes()


def _laplacian_reference(graph, p, q):
    """L by the two-step formula: the scaled off-diagonal part plus the
    diagonal as a sparse sum."""
    d, w = graph.degrees, graph.weights
    data = np.repeat(d ** -p, np.diff(w.indptr))
    data *= (d ** -q)[w.indices]
    data *= w.data
    np.negative(data, out=data)
    off = sp.csr_array((data, w.indices, w.indptr), shape=w.shape)
    return (off + sp.diags_array(d ** (1.0 - p - q))).tocsr()


def assert_same_csr(got, want):
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype, part
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), part


PQ_CASES = [(0.5, 0.5), (1.0, 0.0), (0.75, 0.25)]


def assert_same_pattern_within_ulps(got, want, ulps=8):
    for part in ("indptr", "indices"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part
    err = np.abs(got.data - want.data)
    assert np.all(err <= ulps * np.finfo(float).eps * np.abs(want.data))


def assert_matches_reference(g):
    # L_sym bitwise as the two-step formula builds it; L, formed from L_sym
    # by the similarity, on L's exact pattern and within 8 ulp of its formula
    for p, q in PQ_CASES:
        gl = laplacian(g, p, q)
        s = 0.5 * (p + q)
        lsym, mat = gl.sym_matrix, gl.matrix()
        assert_same_csr(lsym, _laplacian_reference(g, s, s))
        assert lsym.indices.dtype == lsym.indptr.dtype == np.int32
        assert lsym.has_canonical_format
        if p == q:
            assert mat is lsym
        else:
            assert_same_pattern_within_ulps(mat, _laplacian_reference(g, p, q))
            assert np.shares_memory(lsym.indices, mat.indices)
            assert np.shares_memory(lsym.indptr, mat.indptr)
            assert not np.shares_memory(lsym.data, mat.data)


@pytest.mark.parametrize("kind, n, d", GENERATOR_CASES)
def test_laplacian_equals_two_step_formula_bitwise(kind, n, d):
    assert_matches_reference(build_graph(generate(kind, n, d, seed=0).lf_data))


def test_laplacian_diagonal_slot_first_middle_and_last():
    # row 0 has no column below it (slot first), row 3 none above it
    # (slot last), rows 1 and 2 have columns on both sides
    w = np.array([[0.0, 0.5, 0.0, 0.2],
                  [0.5, 0.0, 0.3, 0.1],
                  [0.0, 0.3, 0.0, 0.7],
                  [0.2, 0.1, 0.7, 0.0]])
    g = hand_graph(w)
    assert_matches_reference(g)
    gl = laplacian(g, 0.5, 0.5)
    assert gl.sym_matrix.indices.tolist() == [0, 1, 3, 0, 1, 2, 3, 1, 2, 3, 0, 1, 2, 3]


def test_laplacian_sorts_unsorted_weights_into_a_copy():
    g = build_graph(random_points(40, 3, seed=3), knn_k=5)
    perm = np.random.default_rng(0).permutation(40)
    w = g.weights[perm][:, perm]
    assert not w.has_sorted_indices
    before = [getattr(w, part).copy() for part in ("indptr", "indices", "data")]
    shuffled = hand_graph(w)
    for p, q in PQ_CASES:
        gl, ref = laplacian(shuffled, p, q), laplacian(g, p, q)
        got = gl.sym_matrix
        assert got.has_canonical_format
        want = ref.sym_matrix[perm][:, perm]
        want.sort_indices()
        assert_same_csr(got, want)
        want = ref.matrix()[perm][:, perm]
        want.sort_indices()
        assert_same_pattern_within_ulps(gl.matrix(), want)
    assert not w.has_sorted_indices
    for part, old in zip(("indptr", "indices", "data"), before):
        assert np.array_equal(getattr(w, part), old)


def test_laplacian_arrays_are_read_only():
    gl = laplacian(build_graph(random_points(30, 2, seed=1), knn_k=4), 1.0, 0.0)
    # one stored matrix: L is formed on request, not kept
    assert [f.name for f in dataclasses.fields(gl)] == ["sym_matrix", "degrees", "p", "q"]
    for part in ("data", "indices", "indptr"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(gl.sym_matrix, part)[0] = 0


def test_laplacian_and_permuted_arrays_are_read_only_down_to_their_memory():
    # the views and every array they view, down to the one owning the
    # memory: a writeable base would let L_sym be written around its views
    def writeable(arr):
        while isinstance(arr, np.ndarray):
            if arr.flags.writeable:
                return True
            arr = arr.base
        return False

    gl = laplacian(build_graph(random_points(30, 2, seed=1), knn_k=4), 1.0, 0.0)
    perm = np.random.default_rng(1).permutation(30)
    for g in (gl, gl.permuted(perm), gl.permuted(perm).permuted(np.argsort(perm))):
        parts = [getattr(g.sym_matrix, part) for part in ("data", "indices", "indptr")]
        assert not any(writeable(arr) for arr in parts)
        with g.shifted(0.1):  # writes the diagonal, then makes all read-only again
            pass
        assert not any(writeable(arr) for arr in parts)


def test_shift_in_place_refuses_a_matrix_without_its_diagonal():
    # the shift is written into stored diagonal slots, so a matrix that
    # lacks one is refused before anything is written
    g = build_graph(random_points(30, 2, seed=1), knn_k=4)
    gl = GraphLaplacian(sym_matrix=g.weights, degrees=g.degrees, p=0.5, q=0.5)
    before = gl.sym_matrix.data.copy()
    with pytest.raises(InvalidConfig, match="diagonal"):
        with gl.shifted(0.1):
            pass
    assert gl.sym_matrix.data.tobytes() == before.tobytes()


@pytest.mark.parametrize("p, q", [(0.5, 0.5), (1.0, 0.0)])
def test_laplacian_peak_is_its_output_and_a_few_blocks(p, q):
    # L_sym is written from the triangle into its final pattern: beyond its
    # input the stage holds L_sym and block-sized temporaries, not W, a
    # scaled copy of the pairs and a sparse sum, nor L for p != q.  At
    # N=1500 a scaled copy of the pairs (1.0 MB) fits inside the bound's
    # three blocks, so the case is N=3000, where it takes 3.8 MB.
    g = build_graph(generate(Generator.CLUSTERED_SHIFT, 3000, 5, seed=0).lf_data)
    gl, peak = traced_peak(lambda: laplacian(g, p, q))
    mat = gl.sym_matrix
    out = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= out + 3 * mfgl.graph._WORK_BYTES


def test_two_node_symmetric_laplacian():
    lf = np.array([[0.0], [1.0]])
    lmat = laplacian(build_graph(lf, knn_k=1), 0.5, 0.5).matrix().toarray()
    assert np.allclose(lmat, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)
    assert np.allclose(np.sort(np.linalg.eigvalsh(lmat)), [0.0, 2.0], atol=1e-12)


def test_random_walk_rows_sum_to_zero():
    gl = laplacian(build_graph(random_points(15, 3, seed=2), knn_k=4), 1.0, 0.0)
    assert np.abs(gl.matrix().sum(axis=1)).max() < 1e-12


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
    assert np.abs(gl.matrix().toarray() - ref).max() < 1e-12


def test_symmetric_laplacian_is_psd(rng):
    for seed in range(5):
        gl = laplacian(build_graph(random_points(18, 3, seed=seed), knn_k=4), 0.5, 0.5)
        lmat = gl.matrix().toarray()
        assert np.array_equal(lmat, lmat.T)
        assert np.linalg.eigvalsh(lmat).min() >= -1e-10


def test_kernel_vector_is_annihilated():
    # L (D^q 1) = 0 for every (p, q)
    for p, q in [(0.5, 0.5), (1.0, 0.0), (0.3, 0.7)]:
        g = build_graph(random_points(14, 2, seed=9), knn_k=4)
        gl = laplacian(g, p, q)
        v = g.degrees**q
        rel = np.abs(gl.matrix() @ v).max() / np.abs(v).max()
        assert rel < 1e-10


def test_eigenvalues_lie_in_shift_interval():
    for p, q in [(0.5, 0.5), (1.0, 0.0)]:
        for seed in range(3):
            g = build_graph(random_points(16, 3, seed=seed), knn_k=4)
            gl = laplacian(g, p, q)
            lam = np.linalg.eigvals(gl.matrix().toarray()).real
            a = 2.0 * np.max(g.degrees ** (1.0 - p - q))
            assert gl.shift_bound == pytest.approx(a)
            assert lam.min() > -1e-10
            assert lam.max() < a + 1e-10


def test_similarity_to_symmetric_member():
    g = build_graph(random_points(12, 2, seed=4), knn_k=3)
    gl = laplacian(g, 1.0, 0.0)
    s = g.degrees**0.5  # D^{(p-q)/2}
    conj = (s[:, None] * gl.matrix().toarray()) / s[None, :]
    assert np.abs(conj - conj.T).max() < 1e-10
    assert np.abs(conj - gl.sym_matrix.toarray()).max() < 1e-10


def test_scale_invariance_of_weights():
    # the scale floor is relative to the data, so tiny units are no duplicates
    lf = random_points(13, 3, seed=6)
    g1 = build_graph(lf, knn_k=4)
    for factor in (2.5, 1e-15):
        g2 = build_graph(factor * lf, knn_k=4)
        assert np.abs(g1.weights.toarray() - g2.weights.toarray()).max() < 1e-12


def test_zero_degree_detected():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0  # node 2 isolated
    with pytest.raises(ZeroDegree):
        hand_graph(w)


def test_nan_degree_detected():
    # NaN <= 0 is False: the guard must ask for positive, not for non-positive
    upper = sp.csr_array(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ZeroDegree, match="node 1 has zero degree"):
        AffinityGraph(upper, degrees=[1.0, np.nan, 1.0])


@pytest.mark.parametrize("node", [0, 2, 3])
def test_graph_refuses_a_self_loop(node):
    # the kernel has W_ii = 0, so the graph's triangle is a strict one:
    # a stored W_ii is refused, as is an entry below the diagonal
    w = np.array([[0.0, 0.5, 0.0, 0.2],
                  [0.5, 0.0, 0.3, 0.1],
                  [0.0, 0.3, 0.0, 0.7],
                  [0.2, 0.1, 0.7, 0.0]])
    loop = w.copy()
    loop[node, node] = 1e-300
    for upper in (np.triu(loop), w):
        with pytest.raises(InvalidConfig, match="strict upper triangle"):
            AffinityGraph(upper=sp.csr_array(upper), degrees=loop.sum(axis=1))


@settings(max_examples=40)
@given(
    n=st.integers(3, 40),
    d=st.integers(1, 4),
    knn_k=st.integers(1, 6),
    p=st.floats(0.0, 1.0),
    q=st.floats(0.0, 1.0),
    work_bytes=st.sampled_from([64, 1024, 8 * 1024]),
    seed=st.integers(0, 2**16),
)
def test_triangle_and_weights_routes_agree(n, d, knn_k, p, q, work_bytes, seed):
    # small work blocks split the triangle pass and the mirror into many
    # blocks; the graph rebuilt from its own W, at the default blocks,
    # gives the same bytes
    lf = random_points(n, d, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mfgl.graph, "_WORK_BYTES", work_bytes)
        try:
            g = build_graph(lf, knn_k=min(knn_k, n - 1))
        except ZeroDegree:
            reject()
        gl = laplacian(g, p, q)
    w = g.weights
    assert g.degrees.tobytes() == w.sum(axis=1).tobytes()
    assert (w != w.T).nnz == 0
    rows = np.repeat(np.arange(n), np.diff(w.indptr))
    assert not np.any(w.indices == rows)  # no stored diagonal
    rebuilt = laplacian(hand_graph(w), p, q)
    assert rebuilt.degrees.tobytes() == gl.degrees.tobytes()
    assert_same_csr(rebuilt.sym_matrix, gl.sym_matrix)


def test_weighted_inner_reduces_to_dot_for_equal_pq(rng):
    g = build_graph(random_points(10, 2, seed=1), knn_k=3)
    u, v = rng.normal(size=(2, 10))
    assert weighted_inner(u, v, g.degrees, 0.5, 0.5) == float(u @ v)  # D^0 is exactly 1


def test_weighted_inner_ones_gives_total_degree():
    g = build_graph(random_points(9, 2, seed=8), knn_k=3)
    ones = np.ones(9)
    assert weighted_inner(ones, ones, g.degrees, 1.0, 0.0) == pytest.approx(
        float(g.degrees.sum())
    )


def test_weighted_inner_matches_elementwise_oracle(rng):
    g = build_graph(random_points(11, 3, seed=2), knn_k=3)
    u, v = rng.normal(size=(2, 11))
    oracle = sum(u[i] * g.degrees[i] * v[i] for i in range(11))
    assert weighted_inner(u, v, g.degrees, 1.0, 0.0) == pytest.approx(oracle)


def test_self_adjointness_in_weighted_inner():
    for p, q in [(0.5, 0.5), (1.0, 0.0)]:
        gl = laplacian(build_graph(random_points(12, 2, seed=3), knn_k=3), p, q)
        assert self_adjointness_check(gl) <= 1e-10


def test_self_adjointness_negative_control(rng):
    g = build_graph(random_points(12, 2, seed=3), knn_k=3)
    mat = rng.normal(size=(12, 12))
    fake = GraphLaplacian(sym_matrix=mat, degrees=g.degrees, p=0.5, q=0.5)
    assert self_adjointness_check(fake) > 1e-6


@pytest.mark.parametrize("u, v", [(np.ones(3), np.ones(4)), (np.ones(4), np.ones(4))])
def test_weighted_inner_refuses_vectors_of_another_length(u, v):
    with pytest.raises(DimensionMismatch, match="expected two length-3 vectors"):
        weighted_inner(u, v, np.ones(3), 0.5, 0.5)
