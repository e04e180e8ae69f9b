import numpy as np
import numpy.linalg as nla
import pytest
import scipy.linalg as sla

from conftest import random_points, two_blob_points
from mfgl.bench import Generator, generate
from mfgl.data import Dataset, HyperParameters, displacements
from mfgl.exceptions import InsufficientSpectrum
from mfgl.graph import WEIGHT_EPS, build_graph, laplacian, self_tuning_scales
from mfgl.spectral import (
    EIG_RESIDUAL_TOL,
    embed,
    low_spectrum,
    shifted_eigenvalues,
    truncated_posterior,
    truncated_variances,
)


def dense_map_oracle(gl, phi_hat, hp):
    """Direct assembly of the posterior from its defining formula."""
    lmat = gl.matrix.toarray()
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
    lam_ref, psi_ref = nla.eigh(gl.matrix.toarray())
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
    # the complete kernel, from its formula
    scales = self_tuning_scales(lf, 7)
    sq = np.einsum("ij,ij->i", lf, lf)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * lf @ lf.T, 0.0)
    w_full = np.exp(-d2 / np.outer(scales, scales))
    np.fill_diagonal(w_full, 0.0)
    w_full = 0.5 * (w_full + w_full.T)
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
        resid = nla.norm(gl.matrix @ psi - psi * spec.eigenvalues, "fro")
        assert resid <= 1e-6 * nla.norm(psi, "fro")
        assert spec.eigenvalues[0] <= 1e-8
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)


def test_shift_bound_recorded():
    g = build_graph(random_points(20, 2, seed=3), knn_k=4)
    gl = laplacian(g, 0.5, 0.5)
    spec = low_spectrum(gl, 5)
    assert spec.shift_a == pytest.approx(2.0 * np.max(g.degrees**0.0))
    assert spec.pq == (0.5, 0.5)


def test_deterministic_repeat():
    gl = laplacian(build_graph(random_points(25, 3, seed=9), knn_k=4), 0.5, 0.5)
    s1 = low_spectrum(gl, 6)
    s2 = low_spectrum(gl, 6)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


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
    hp = HyperParameters(sigma=0.1, omega=1.0, tau=0.2)
    tp = truncated_posterior(spec, np.zeros((4, 2)), hp)
    assert np.all(tp.coeff_mean == 0.0)
    assert np.all(tp.map_displacements() == 0.0)


def test_truncated_full_rank_matches_dense_oracle(rng):
    n, m = 30, 5
    lf = random_points(n, 3, seed=8)
    hf = lf[:m] + 0.1 * rng.normal(size=(m, 3))
    ds = Dataset(lf=lf, hf=hf)
    gl = laplacian(build_graph(lf, knn_k=4), 0.5, 0.5)
    hp = HyperParameters(sigma=0.05, omega=2.0, tau=0.3, beta=2.0)
    phi_hat = displacements(ds)
    phi_ref, c_ref = dense_map_oracle(gl, phi_hat, hp)

    spec = low_spectrum(gl, n)
    tp = truncated_posterior(spec, phi_hat, hp)
    phi = tp.map_displacements()
    assert nla.norm(phi - phi_ref, "fro") <= 1e-8 * nla.norm(phi_ref, "fro")
    var = truncated_variances(tp)
    assert np.abs(var - np.diag(c_ref)).max() <= 1e-8 * np.abs(np.diag(c_ref)).max()


def test_truncated_data_dominated_limit(rng):
    n = 20
    lf = random_points(n, 2, seed=4)
    hf = lf + 0.3 * rng.normal(size=(n, 2))  # observe every point
    ds = Dataset(lf=lf, hf=hf)
    gl = laplacian(build_graph(lf, knn_k=4), 0.5, 0.5)
    spec = low_spectrum(gl, n)
    hp = HyperParameters(sigma=1e-6, omega=1e-6, tau=0.2)
    phi_hat = displacements(ds)
    phi = truncated_posterior(spec, phi_hat, hp).map_displacements()
    rel = nla.norm(phi - phi_hat, "fro") / nla.norm(phi_hat, "fro")
    assert rel < 1e-3


def test_variances_with_identity_covariance():
    gl = laplacian(build_graph(random_points(15, 2, seed=1), knn_k=3), 0.5, 0.5)
    spec = low_spectrum(gl, 6)
    hp = HyperParameters(sigma=0.1, omega=1.0, tau=0.2)
    tp = truncated_posterior(spec, np.zeros((3, 1)), hp)
    forced = type(tp)(
        coeff_mean=tp.coeff_mean, coeff_cov=np.eye(6), spectrum=spec
    )
    var = truncated_variances(forced)
    assert np.allclose(var, (spec.eigenvectors**2).sum(axis=1), atol=1e-12)


def test_variances_positive(rng):
    gl = laplacian(build_graph(random_points(22, 3, seed=3), knn_k=4), 0.5, 0.5)
    spec = low_spectrum(gl, 10)
    hp = HyperParameters(sigma=0.2, omega=1.5, tau=0.4)
    tp = truncated_posterior(spec, rng.normal(size=(5, 2)), hp)
    assert np.all(truncated_variances(tp) > 0.0)


def test_general_pq_truncated_matches_weighted_dense(rng):
    # at K=N with (p,q)=(1,0) the truncated solve must equal the dense
    # general-normalization posterior
    from mfgl.posterior import dense_posterior

    n, m = 24, 4
    lf = random_points(n, 2, seed=11)
    hf = lf[:m] + 0.1 * rng.normal(size=(m, 2))
    ds = Dataset(lf=lf, hf=hf)
    gl = laplacian(build_graph(lf, knn_k=4), 1.0, 0.0)
    hp = HyperParameters(sigma=0.1, omega=1.0, tau=0.3, beta=2.0)
    phi_hat = displacements(ds)
    ref = dense_posterior(gl, phi_hat, hp)
    spec = low_spectrum(gl, n)
    tp = truncated_posterior(spec, phi_hat, hp)
    phi = tp.map_displacements()
    assert nla.norm(phi - ref.phi_star, "fro") <= 1e-8 * nla.norm(
        ref.phi_star, "fro"
    )
    var = truncated_variances(tp)
    assert np.abs(var - ref.stddevs**2).max() <= 1e-8 * (ref.stddevs**2).max()
