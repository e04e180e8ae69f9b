import dataclasses

import numpy as np
import numpy.linalg as nla
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import mfgl.config
import mfgl.spectral
from conftest import random_points, refused_peak, small_laplacian, traced_peak, two_blob_points
from mfgl.bench import Generator, generate
from mfgl.data import HyperParameters
from mfgl.exceptions import (
    ConvergenceFailure,
    DimensionMismatch,
    InsufficientSpectrum,
    InvalidConfig,
    MemoryBudgetExceeded,
    SingularSystem,
)
from mfgl.graph import WEIGHT_EPS, build_graph, laplacian, self_tuning_scales
from mfgl.spectral import (
    EIG_RESIDUAL_TOL,
    Spectrum,
    TruncatedPosterior,
    checked_cholesky,
    embed,
    low_spectrum,
    shifted_eigenvalues,
    truncated_factor,
    truncated_posterior,
    truncated_variances,
)


def dense_map_oracle(gl, phi_hat, hp):
    """Direct assembly of the posterior from its defining formula."""
    lmat = gl.matrix().toarray()
    n = lmat.shape[0]
    m = phi_hat.shape[0]
    b = nla.matrix_power(lmat + hp.tau * np.eye(n), int(hp.beta))
    a = hp.omega * b
    a[np.arange(m), np.arange(m)] += 1.0 / hp.sigma**2
    c = nla.inv(a)
    return c[:, :m] @ phi_hat / hp.sigma**2, c


def test_two_node_spectrum():
    gl = laplacian(build_graph(np.array([[0.0], [1.0]]), knn_k=1), 0.5, 0.5)
    spec = low_spectrum(gl, 2)
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)
    psi1 = spec.eigenvectors[:, 0]
    assert np.allclose(np.abs(psi1), [ 2**-0.5, 2**-0.5], atol=1e-12)


def test_two_cluster_graph_has_two_near_kernel_modes():
    lf = two_blob_points(n_per=12, gap=1.5, seed=2)
    spec = low_spectrum(laplacian(build_graph(lf, knn_k=4), 0.5, 0.5), 6)
    assert spec.eigenvalues[0] <= 1e-8
    assert spec.eigenvalues[1] <= 1e-6


def test_matches_dense_eigensolve_oracle():
    gl = laplacian(build_graph(random_points(50, 3, seed=1), knn_k=5), 0.5, 0.5)
    spec = low_spectrum(gl, 10)
    lam_ref, psi_ref = nla.eigh(gl.matrix().toarray())
    assert np.abs(spec.eigenvalues - lam_ref[:10]).max() < 1e-8
    # eigenvectors agree to sign when well separated
    gaps = np.diff(lam_ref[:11])
    for k in range(10):
        if min(gaps[max(k - 1, 0)], gaps[k]) < 1e-6:
            continue
        dot = abs(float(spec.eigenvectors[:, k] @ psi_ref[:, k]))
        assert dot == pytest.approx(1.0, abs=1e-8)


def test_iterative_branch_matches_dense_branch():
    gl = laplacian(build_graph(random_points(120, 3, seed=4), knn_k=5), 0.5, 0.5)
    lam_ref, psi_ref = nla.eigh(gl.sym_matrix.toarray())  # dense oracle
    krylov = low_spectrum(gl, 8)
    assert np.abs(lam_ref[:8] - krylov.eigenvalues).max() < 1e-8
    for k in range(8):
        dot = abs(float(psi_ref[:, k] @ krylov.eigenvectors[:, k]))
        assert dot == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize(
    "kind, d",
    [
        (Generator.CLUSTERED_SHIFT, 5),
        (Generator.SMOOTH_MANIFOLD, 5),
        (Generator.BEAM_LIKE_1D, 64),
    ],
)
def test_sparse_engine_matches_unthresholded_dense_oracle(kind, d):
    lf = generate(kind, 400, d, seed=3).lf_data
    g = build_graph(lf, knn_k=7)
    # the complete kernel, from its formula with direct differences, in
    # extended precision and rounded once.  The Gram form |x|^2 + |y|^2 -
    # 2 x.y shares the round-off of a Gram route (up to 4e-9 relative on
    # beam-like-1d), and plain float64 is ~1e-14 off near the cut, where
    # the exponent is 27.6.
    scales = self_tuning_scales(lf, 7)
    ext = lf.astype(np.longdouble)
    d2 = np.array([np.einsum("ij,ij->i", ext - x, ext - x) for x in ext])
    scales_ext = scales.astype(np.longdouble)
    w_full = np.exp(-d2 / np.outer(scales_ext, scales_ext)).astype(np.float64)
    np.fill_diagonal(w_full, 0.0)
    w = g.weights.toarray()
    kept = w != 0.0
    assert g.weights.nnz < w.size // 2  # the threshold drops most pairs
    assert np.all(w_full[~kept] < WEIGHT_EPS)
    np.testing.assert_allclose(w[kept], w_full[kept], rtol=1e-14, atol=0)

    inv_sqrt = 1.0 / np.sqrt(w_full.sum(axis=1))
    lsym = np.eye(lf.shape[0]) - inv_sqrt[:, None] * w_full * inv_sqrt[None, :]
    lam_ref = sla.eigh(lsym, eigvals_only=True, subset_by_index=[0, 39])
    spec = low_spectrum(laplacian(g, 0.5, 0.5), 40)
    assert np.abs(spec.eigenvalues - lam_ref).max() <= 1e-11
    psi = spec.eigenvectors
    resid = nla.norm(lsym @ psi - psi * spec.eigenvalues, axis=0)
    assert resid.max() <= EIG_RESIDUAL_TOL


def test_orthonormality_and_residual_invariants():
    for p, q in [(0.5, 0.5), (1.0, 0.0)]:
        g = build_graph(random_points(30, 3, seed=6), knn_k=4)
        gl = laplacian(g, p, q)
        spec = low_spectrum(gl, 12)
        psi = spec.eigenvectors
        gram = psi.T @ (psi * (g.degrees ** (p - q))[:, None])
        assert np.abs(gram - np.eye(12)).max() < 1e-8
        resid = nla.norm(gl.matrix() @ psi - psi * spec.eigenvalues, "fro")
        assert resid <= 1e-6 * nla.norm(psi, "fro")
        assert spec.eigenvalues[0] <= 1e-8
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)


def test_shift_bound_recorded():
    g = build_graph(random_points(20, 2, seed=3), knn_k=4)
    gl = laplacian(g, 0.5, 0.5)
    spec = low_spectrum(gl, 5)
    assert spec.shift_a == pytest.approx(2.0 * np.max(g.degrees**0.0))


def test_deterministic_repeat():
    gl = laplacian(build_graph(random_points(25, 3, seed=9), knn_k=4), 0.5, 0.5)
    s1 = low_spectrum(gl, 6)
    s2 = low_spectrum(gl, 6)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_spectrum_pairs_each_eigenvalue_with_one_eigenvector():
    vecs = np.eye(5)[:, :3]
    assert Spectrum(eigenvalues=np.arange(3.0), eigenvectors=vecs, shift_a=2.0).K == 3
    for vals, vectors in ((np.arange(2.0), vecs), (np.arange(4.0), vecs),
                          (np.arange(3.0)[:, None], vecs), (np.float64(1.0), vecs[:, :1]),
                          (np.arange(5.0), np.arange(5.0))):
        with pytest.raises(DimensionMismatch, match="one eigenvector column per eigenvalue"):
            Spectrum(eigenvalues=vals, eigenvectors=vectors, shift_a=2.0)


@pytest.mark.parametrize("route", ["laplacian", "permuted"])
def test_low_spectrum_leaves_l_sym_unchanged_and_read_only(route, monkeypatch):
    # the factor is made of L_sym - sigma I written into L_sym's own
    # diagonal slots; the saved diagonal is written back, also when the
    # factorization raises, and no array of L_sym is left writeable
    gl = laplacian(build_graph(generate(Generator.CLUSTERED_SHIFT, 300, 3, seed=0).lf_data),
                   0.5, 0.5)
    if route == "permuted":
        gl = gl.permuted(np.random.default_rng(0).permutation(gl.n))
    lsym = gl.sym_matrix
    parts = ("data", "indices", "indptr")
    before = [getattr(lsym, part).copy() for part in parts]

    def check():
        for part, old in zip(parts, before):
            arr = getattr(lsym, part)
            assert arr.tobytes() == old.tobytes(), part
            assert not arr.flags.writeable, part

    low_spectrum(gl, 10)
    check()

    class Refused(Exception):
        pass

    factored = []

    def refusing(a, **kwargs):
        factored.append((a.diagonal(), lsym.data.flags.writeable))
        raise Refused

    monkeypatch.setattr(mfgl.spectral, "splu", refusing)
    with pytest.raises(Refused):
        low_spectrum(gl, 10)
    check()
    [(diagonal, writeable)] = factored
    sigma = mfgl.spectral._SHIFT_FRACTION * gl.shift_bound
    assert diagonal.tobytes() == (lsym.diagonal() - sigma).tobytes()
    assert not writeable


def _eigensolve_held(gl, k):
    """L_sym and ARPACK's workspace at eigsh's default ncv = 2K + 1."""
    return gl.nbytes + 8 * gl.n * (2 * (2 * k + 1) + k)


def test_eigensolve_budget_checked_before_splu(monkeypatch):
    # L_sym and ARPACK's workspace fit, the LU at 2 x nnz(L_sym) does not:
    # refused before splu, and below the budget all the while
    gl = laplacian(build_graph(generate(Generator.CLUSTERED_SHIFT, 1000, 5, seed=0).lf_data),
                   0.5, 0.5)
    budget = _eigensolve_held(gl, 40) + 12 * gl.sym_matrix.nnz
    monkeypatch.setattr(mfgl.config, "MEMORY_BUDGET", budget)
    factored = []
    monkeypatch.setattr(mfgl.spectral, "splu", lambda *args, **kwargs: factored.append(args))
    exc, peak = refused_peak(lambda: low_spectrum(gl, 40), MemoryBudgetExceeded)
    assert str(exc).startswith("the eigensolve would hold about ")
    assert factored == []
    assert peak < budget


def test_eigensolve_budget_checked_against_the_lu_made(monkeypatch):
    # charged no LU in advance, the eigensolve is refused on the LU's own
    # nonzeros, before ARPACK runs, with L_sym's diagonal written back
    gl = laplacian(build_graph(generate(Generator.CLUSTERED_SHIFT, 1000, 5, seed=0).lf_data),
                   0.5, 0.5)
    before = gl.sym_matrix.data.tobytes()
    monkeypatch.setattr(mfgl.spectral, "_LU_FILL", 0.0)
    monkeypatch.setattr(mfgl.config, "MEMORY_BUDGET", _eigensolve_held(gl, 40))
    iterated = []
    monkeypatch.setattr(mfgl.spectral, "eigsh", lambda *args, **kwargs: iterated.append(args))
    with pytest.raises(MemoryBudgetExceeded, match="^the eigensolve would hold about "):
        low_spectrum(gl, 40)
    assert iterated == []
    assert gl.sym_matrix.data.tobytes() == before


def test_dense_eigensolve_budget_checked_before_the_copy(monkeypatch):
    gl = laplacian(build_graph(generate(Generator.SMOOTH_MANIFOLD, 300, 5, seed=0).lf_data),
                   0.5, 0.5)
    budget = 4 * 8 * 300 * 300 - 1
    monkeypatch.setattr(mfgl.config, "MEMORY_BUDGET", budget)
    exc, peak = refused_peak(lambda: low_spectrum(gl, 300), MemoryBudgetExceeded)
    assert str(exc).startswith("the dense eigensolve would hold about ")
    assert peak < 8 * 300 * 300  # no copy of L_sym was made


@pytest.mark.parametrize("k", [5, 19], ids=["krylov", "dense"])
def test_eigenpairs_past_the_residual_tolerance_are_refused(k, monkeypatch):
    # no pair of a float64 eigensolve has a residual below 1e-300
    gl = laplacian(build_graph(random_points(20, 3, seed=0), knn_k=5), 0.5, 0.5)
    monkeypatch.setattr(mfgl.spectral, "EIG_RESIDUAL_TOL", 1e-300)
    with pytest.raises(ConvergenceFailure, match=r"^eigenpair \d+ residual \S+ exceeds tolerance$"):
        low_spectrum(gl, k)


@pytest.mark.parametrize("k", [5, 19], ids=["krylov", "dense"])
def test_a_non_finite_l_sym_is_refused_before_the_eigensolve(k):
    # an L_sym built by hand may hold Inf, which reached eigh and raised a
    # bare ValueError (laplacian refuses degree powers past float64's range)
    gl = laplacian(build_graph(random_points(20, 3, seed=0), knn_k=5), 0.5, 0.5)
    lsym = gl.sym_matrix
    data = lsym.data.copy()
    data[0] = np.inf
    bad = dataclasses.replace(gl, sym_matrix=sp.csr_array((data, lsym.indices, lsym.indptr)))
    with pytest.raises(SingularSystem, match="^L_sym contains NaN or Inf$"):
        low_spectrum(bad, k)


def test_an_exactly_singular_shift_invert_factor_is_refused():
    # L_sym = sigma I leaves the shift-invert factor zero: splu's
    # RuntimeError once ended the run with a traceback
    gl = laplacian(build_graph(random_points(20, 3, seed=0), knn_k=5), 0.5, 0.5)
    sigma = mfgl.spectral._SHIFT_FRACTION * gl.shift_bound
    bad = dataclasses.replace(gl, sym_matrix=sp.csr_array(sigma * sp.eye_array(20)))
    with pytest.raises(SingularSystem, match="^the shift-invert factor of L_sym: Factor is exactly singular"):
        low_spectrum(bad, 5)


def test_embed_is_column_slice():
    gl = laplacian(build_graph(random_points(18, 2, seed=5), knn_k=4), 0.5, 0.5)
    spec = low_spectrum(gl, 7)
    assert np.array_equal(embed(spec, 1), spec.eigenvectors[:, :1])
    assert np.array_equal(embed(spec, 5), spec.eigenvectors[:, :5])
    with pytest.raises(InsufficientSpectrum):
        embed(spec, 8)


def test_embed_separates_two_clusters():
    # wide kernel (knn_k=7) keeps within-cluster degrees near-uniform, so
    # the indicator modes give tight groups in the embedding
    for seed in range(4):
        lf = two_blob_points(n_per=10, gap=1.5, seed=seed)
        spec = low_spectrum(laplacian(build_graph(lf, knn_k=7), 0.5, 0.5), 4)
        coords = embed(spec, 2)
        a, b = coords[:10], coords[10:]
        within = max(
            np.linalg.norm(a - a.mean(axis=0), axis=1).mean(),
            np.linalg.norm(b - b.mean(axis=0), axis=1).mean(),
        )
        between = np.linalg.norm(a.mean(axis=0) - b.mean(axis=0))
        assert between > 5.0 * within


def test_shifted_eigenvalues_clip_roundoff():
    lam = np.array([-1e-12, 0.0, 0.5])
    out = shifted_eigenvalues(lam, tau=0.1, beta=1.5)
    assert out[0] == pytest.approx(0.1**1.5)
    assert out[2] == pytest.approx(0.6**1.5)
    assert np.all(np.isfinite(out))


def test_truncated_zero_rhs():
    gl = laplacian(build_graph(random_points(16, 2, seed=2), knn_k=3), 0.5, 0.5)
    spec = low_spectrum(gl, 8)
    tp = truncated_posterior(truncated_factor(spec, 4, 0.2), np.zeros((4, 2)), 1.0, 0.1)
    assert np.all(tp.coeff_mean == 0.0)
    assert np.all(spec.eigenvectors @ tp.coeff_mean == 0.0)


def test_truncated_full_rank_matches_dense_oracle(rng):
    n, m = 30, 5
    lf = random_points(n, 3, seed=8)
    hf = lf[:m] + 0.1 * rng.normal(size=(m, 3))
    gl = laplacian(build_graph(lf, knn_k=4), 0.5, 0.5)
    hp = HyperParameters(sigma=0.05, omega=2.0, tau=0.3, beta=2.0)
    phi_hat = hf - lf[: len(hf)]
    phi_ref, c_ref = dense_map_oracle(gl, phi_hat, hp)

    spec = low_spectrum(gl, n)
    tp = truncated_posterior(truncated_factor(spec, m, hp.tau, hp.beta), phi_hat, hp.omega, hp.sigma)
    phi = spec.eigenvectors @ tp.coeff_mean
    assert nla.norm(phi - phi_ref, "fro") <= 1e-8 * nla.norm(phi_ref, "fro")
    var = truncated_variances(tp)
    assert np.abs(var - np.diag(c_ref)).max() <= 1e-8 * np.abs(np.diag(c_ref)).max()


def test_truncated_data_dominated_limit(rng):
    n = 20
    lf = random_points(n, 2, seed=4)
    hf = lf + 0.3 * rng.normal(size=(n, 2))  # observe every point
    gl = laplacian(build_graph(lf, knn_k=4), 0.5, 0.5)
    spec = low_spectrum(gl, n)
    phi_hat = hf - lf[: len(hf)]
    tp = truncated_posterior(truncated_factor(spec, n, 0.2), phi_hat, 1e-6, 1e-6)
    phi = spec.eigenvectors @ tp.coeff_mean
    rel = nla.norm(phi - phi_hat, "fro") / nla.norm(phi_hat, "fro")
    assert rel < 1e-3


def test_variances_with_identity_covariance():
    gl = laplacian(build_graph(random_points(15, 2, seed=1), knn_k=3), 0.5, 0.5)
    spec = low_spectrum(gl, 6)
    tp = truncated_posterior(truncated_factor(spec, 3, 0.2), np.zeros((3, 1)), 1.0, 0.1)
    forced = type(tp)(
        coeff_mean=tp.coeff_mean, coeff_cov=np.eye(6), spectrum=spec
    )
    var = truncated_variances(forced)
    assert np.allclose(var, (spec.eigenvectors**2).sum(axis=1), atol=1e-12)


def test_variances_form_no_whole_n_by_k_product(rng):
    # Psi_K C is formed a row block at a time: measured 0.07x the N x K
    # product's bytes (1.01x while it was formed whole)
    n, k = 2000, 80
    a = rng.normal(size=(k, k))
    spec = Spectrum(np.arange(k, dtype=float), rng.normal(size=(n, k)), 1.0)
    tp = TruncatedPosterior(coeff_mean=np.zeros((k, 1)), coeff_cov=a @ a.T, spectrum=spec)
    var, peak = traced_peak(lambda: truncated_variances(tp))
    assert peak < n * k * 8 / 4
    # near-equal blocks of at least two rows round as the whole product does
    whole = np.einsum("nk,nk->n", spec.eigenvectors @ tp.coeff_cov, spec.eigenvectors)
    assert np.array_equal(var, whole)


def test_variances_positive(rng):
    gl = laplacian(build_graph(random_points(22, 3, seed=3), knn_k=4), 0.5, 0.5)
    spec = low_spectrum(gl, 10)
    tp = truncated_posterior(truncated_factor(spec, 5, 0.4), rng.normal(size=(5, 2)), 1.5, 0.2)
    assert np.all(truncated_variances(tp) > 0.0)


def test_general_pq_truncated_matches_weighted_dense(rng):
    # at K=N with (p,q)=(1,0) the truncated solve must equal the dense
    # general-normalization posterior
    from mfgl.posterior import dense_factor, dense_posterior

    n, m = 24, 4
    lf = random_points(n, 2, seed=11)
    hf = lf[:m] + 0.1 * rng.normal(size=(m, 2))
    gl = laplacian(build_graph(lf, knn_k=4), 1.0, 0.0)
    hp = HyperParameters(sigma=0.1, omega=1.0, tau=0.3, beta=2.0)
    phi_hat = hf - lf[: len(hf)]
    ref = dense_posterior(dense_factor(gl, m, hp.tau, hp.beta), phi_hat, hp.omega, hp.sigma)
    spec = low_spectrum(gl, n)
    tp = truncated_posterior(truncated_factor(spec, m, hp.tau, hp.beta), phi_hat, hp.omega, hp.sigma)
    phi = spec.eigenvectors @ tp.coeff_mean
    assert nla.norm(phi - ref.phi_star, "fro") <= 1e-8 * nla.norm(
        ref.phi_star, "fro"
    )
    var = truncated_variances(tp)
    assert np.abs(var - ref.stddevs**2).max() <= 1e-8 * (ref.stddevs**2).max()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checked_cholesky_refuses_a_non_finite_entry_anywhere(bad, order):
    # LAPACK reads the lower triangle only, so an entry above the diagonal
    # is refused by the check alone
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 30))
    spd = x @ x.T + 30 * np.eye(30)
    for i, j in ((29, 0), (13, 12), (0, 29), (12, 13), (7, 7), (29, 29)):
        a = np.array(spd, order=order)
        a[i, j] = bad
        with pytest.raises(SingularSystem, match="NaN or Inf"):
            checked_cholesky(a, "test block")
    chol = checked_cholesky(np.array(spd, order=order), "test block")
    np.testing.assert_array_equal(chol, sla.cholesky(spd, lower=True))


def test_checked_cholesky_checks_finiteness_without_a_whole_mask():
    # the block factored in place, as dense_factor does: a K x K boolean
    # mask (scipy's check_finite) would take K^2 bytes, and a mask of a
    # row block up to 1 MB; min and max make none, so the check holds a
    # few K-vectors (measured 25 KB at K = 1000: the diagonal, the pivots)
    k = 1000
    x = np.random.default_rng(1).normal(size=(k, 20))
    a = np.asfortranarray(x @ x.T + np.eye(k))
    chol, peak = traced_peak(lambda: checked_cholesky(a, "test block"))
    assert np.shares_memory(chol, a)
    assert peak <= 4 * 8 * k


@pytest.mark.parametrize("k", [0, 21])
def test_low_spectrum_refuses_k_outside_one_to_n(k):
    with pytest.raises(InvalidConfig, match=r"K must be in \[1, 20\]"):
        low_spectrum(small_laplacian(n=20), k)
