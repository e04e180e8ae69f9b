import numpy as np
import numpy.linalg as nla
import pytest
import scipy.linalg as sla

from conftest import random_points
from mfgl.data import HyperParameters
from mfgl.exceptions import (
    DimensionMismatch,
    InvalidConfig,
    NegativeApproxDegree,
    NonFiniteInput,
    SingularCapacitance,
    SingularLandmarkBlock,
)
from mfgl.graph import build_graph, laplacian
from mfgl.nystrom import (
    LowRankLaplacian,
    build_saddle,
    lowrank_power_apply,
    nystrom_factor,
    select_landmarks,
)
from mfgl.posterior import dense_factor, dense_posterior


def cols(w):
    """The column callable of a dense weight matrix."""
    return lambda idx: w[:, idx]


def graph_weights(n, d, seed, knn_k=6):
    return build_graph(random_points(n, d, seed=seed), knn_k=knn_k).weights.toarray()


def sym_normalized(w):
    d = w.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return inv[:, None] * w * inv[None, :]


def test_select_landmarks():
    lm = select_landmarks(50, 5, 12, seed=3)
    assert lm[:5] == (0, 1, 2, 3, 4)
    assert len(set(lm)) == 12
    assert list(lm[5:]) == sorted(lm[5:])
    assert all(5 <= i < 50 for i in lm[5:])
    assert select_landmarks(50, 5, 12, seed=3) == lm
    assert select_landmarks(50, 5, 50, seed=0) == tuple(range(50))
    with pytest.raises(InvalidConfig):
        select_landmarks(50, 5, 4, seed=0)
    with pytest.raises(InvalidConfig):
        select_landmarks(50, 5, 51, seed=0)


def test_full_landmarks_reproduce_kernel():
    w = graph_weights(60, 3, seed=0)
    lrl = nystrom_factor(cols(w), range(60))
    recon = (lrl.u_tilde * lrl.sigma_vals) @ lrl.u_tilde.T
    target = sym_normalized(w)
    assert np.abs(recon - target).max() < 1e-8 * np.abs(target).max()
    assert np.abs(lrl.d_hat - w.sum(axis=1)).max() < 1e-8
    assert np.all(np.diff(lrl.sigma_vals) <= 1e-14)
    ref = np.sort(nla.eigvalsh(target))[::-1]
    assert np.abs(lrl.sigma_vals - ref).max() < 1e-8


def test_exact_low_rank_kernel_recovered_from_two_columns():
    # W = c c^T + d d^T has rank two, so two independent columns pin it
    rng = np.random.default_rng(7)
    c = rng.uniform(0.5, 1.5, size=12)
    d = rng.uniform(0.1, 2.0, size=12)
    w = np.outer(c, c) + np.outer(d, d)
    lrl = nystrom_factor(cols(w), (0, 5))
    recon = (lrl.u_tilde * lrl.sigma_vals) @ lrl.u_tilde.T
    target = sym_normalized(w)
    assert np.abs(recon - target).max() < 1e-10
    assert np.abs(lrl.d_hat - w.sum(axis=1)).max() < 1e-10
    ref = np.sort(nla.eigvalsh(target))
    assert np.abs(lrl.sigma_vals - ref[::-1][: lrl.rank]).max() < 1e-10


def test_factor_is_deterministic():
    w = graph_weights(35, 3, seed=4)
    lm = select_landmarks(35, 3, 9, seed=5)
    # the zero-diagonal kernel leaves the landmark block indefinite, so
    # every sub-sampled factor here truncates it via rank_r
    a = nystrom_factor(cols(w), lm, rank_r=5)
    b = nystrom_factor(cols(w), lm, rank_r=5)
    assert np.array_equal(a.u_tilde, b.u_tilde)


def test_u_tilde_orthonormal():
    for seed, count, rr in ((0, 8, 4), (1, 20, 10), (2, 50, None)):
        w = graph_weights(50, 3, seed=seed)
        lrl = nystrom_factor(cols(w), select_landmarks(50, 5, count, seed=seed), rank_r=rr)
        gram = lrl.u_tilde.T @ lrl.u_tilde
        assert np.abs(gram - np.eye(lrl.rank)).max() < 1e-10


def test_landmark_validation():
    w = graph_weights(20, 2, seed=0)
    with pytest.raises(InvalidConfig):
        nystrom_factor(cols(w), ())
    with pytest.raises(InvalidConfig):
        nystrom_factor(cols(w), (0, 0, 1))
    with pytest.raises(DimensionMismatch, match="N x 2 block"):
        nystrom_factor(lambda idx: w[:, :3], (0, 1))
    with pytest.raises(DimensionMismatch, match="N x 2 block"):
        nystrom_factor(lambda idx: w[0, idx], (0, 1))
    with pytest.raises(InvalidConfig):
        nystrom_factor(cols(w), (0, 1, 2), rank_r=4)
    with pytest.raises(SingularLandmarkBlock):
        nystrom_factor(cols(np.zeros((6, 6))), (0, 1))


def test_negative_approx_degree_guard():
    # not a kernel, just a symmetric matrix engineered so the landmark
    # extension drives one approximate degree negative
    w = np.array([[0.0, 1.0, -2.0], [1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    with pytest.raises(NegativeApproxDegree):
        nystrom_factor(cols(w), (0, 1))


def test_rank_r_truncates_core():
    rng = np.random.default_rng(9)
    c = rng.uniform(0.5, 1.5, size=10)
    d = rng.uniform(0.1, 2.0, size=10)
    w = np.outer(c, c) + np.outer(d, d)
    lrl = nystrom_factor(cols(w), (0, 3, 7), rank_r=1)
    nonzero = np.abs(lrl.sigma_vals) > 1e-12 * np.abs(lrl.sigma_vals).max()
    assert int(nonzero.sum()) == 1


def test_power_apply_matches_dense_eigenbasis(rng):
    w = graph_weights(80, 3, seed=3)
    lrl = nystrom_factor(cols(w), select_landmarks(80, 8, 20, seed=1), rank_r=10)
    tau, beta = 0.2, 1.7
    recon = (lrl.u_tilde * lrl.sigma_vals) @ lrl.u_tilde.T
    a = (1.0 + tau) * np.eye(80) - recon
    lam, vecs = nla.eigh(a)
    dense_pow = (vecs * np.clip(lam, 0.0, None) ** beta) @ vecs.T
    block = rng.normal(size=(80, 3))
    got = lowrank_power_apply(lrl, tau, beta, block)
    assert np.abs(got - dense_pow @ block).max() < 1e-8
    single = lowrank_power_apply(lrl, tau, beta, block[:, 0])
    assert np.abs(single - got[:, 0]).max() < 1e-12


def test_saddle_diagonals_by_hand(rng):
    u_tilde = nla.qr(rng.normal(size=(6, 3)))[0]
    d_hat = rng.uniform(0.5, 2.0, size=6)
    lrl = LowRankLaplacian(
        u_tilde=u_tilde,
        sigma_vals=np.array([0.9, 0.5, 1e-15]), d_hat=d_hat,
    )
    hp = HyperParameters(sigma=0.3, omega=2.0, tau=0.1, beta=2.0)
    ops = build_saddle(lrl, hp, m=2)
    weight = 0.09 * 2.0
    base = weight * 1.1**2  # d_hat^0 = 1 at p = 1/2
    assert np.abs(ops.theta[:2] - (1.0 + base)).max() < 1e-14
    assert np.abs(ops.theta[2:] - base).max() < 1e-14
    assert ops.retained == (0, 1)
    assert ops.dropped_columns == (2,)
    assert ops.xi[0] == pytest.approx(weight * (1.1**2 - 0.2**2), rel=1e-14)
    assert ops.xi[1] == pytest.approx(weight * (1.1**2 - 0.6**2), rel=1e-14)


def test_saddle_drops_inadmissible_sigma(rng):
    u_tilde = nla.qr(rng.normal(size=(5, 3)))[0]
    lrl = LowRankLaplacian(
        u_tilde=u_tilde,
        sigma_vals=np.array([1.3, 0.5, 0.1]), d_hat=np.ones(5),
    )
    hp = HyperParameters(sigma=1.0, omega=1.0, tau=0.1, beta=2.0)
    ops = build_saddle(lrl, hp, m=1)
    assert 0 in ops.dropped_columns  # sigma beyond 1 + tau
    assert ops.retained == (1, 2)
    with pytest.raises(DimensionMismatch):
        build_saddle(lrl, hp, m=9)


def test_linear_beta_xi_is_proportional_to_sigma(rng):
    w = graph_weights(30, 2, seed=6)
    lrl = nystrom_factor(cols(w), select_landmarks(30, 3, 10, seed=0), rank_r=5)
    hp = HyperParameters(sigma=0.5, omega=3.0, tau=0.2, beta=1.0)
    ops = build_saddle(lrl, hp, m=3)
    expect = 0.25 * 3.0 * lrl.sigma_vals[list(ops.retained)]
    assert np.abs(ops.xi - expect).max() < 1e-12


def test_woodbury_solve_residual(rng):
    # rank-truncated factor: the solve must satisfy the reduced system
    # (Theta - V Xi V^T) x = P_M^T phi_hat it was built from
    w = graph_weights(200, 3, seed=8)
    lrl = nystrom_factor(cols(w), select_landmarks(200, 10, 40, seed=4), rank_r=20)
    hp = HyperParameters(sigma=0.05, omega=4.0, tau=0.3, beta=2.0)
    ops = build_saddle(lrl, hp, m=10)
    phi_hat = rng.normal(size=(10, 2))
    x = ops.solve(phi_hat)
    vr = lrl.v[:, list(ops.retained)]
    resid = ops.theta[:, None] * x - vr @ (ops.xi[:, None] * (vr.T @ x))
    resid[:10] -= phi_hat
    assert nla.norm(resid) <= 1e-10 * nla.norm(phi_hat)


def test_full_landmarks_match_dense_posterior(rng):
    pts = random_points(120, 3, seed=10)
    g = build_graph(pts, knn_k=6)
    gl = laplacian(g, 0.5, 0.5)
    hp = HyperParameters(sigma=0.1, omega=2.0, tau=0.25, beta=2.0)
    m = 12
    phi_hat = rng.normal(size=(m, 2))
    ref = dense_posterior(dense_factor(gl, m, hp.tau, hp.beta), phi_hat, hp.omega, hp.sigma,
                          want_cov=True)

    lrl = nystrom_factor(cols(g.weights.toarray()), range(120))
    ops = build_saddle(lrl, hp, m=m)
    got = ops.solve(phi_hat)
    assert nla.norm(got - ref.phi_star) <= 1e-6 * nla.norm(ref.phi_star)
    dref = np.diag(ref.covariance)
    assert np.abs(ops.diagonal() - dref).max() <= 1e-6 * dref.max()


def test_zero_rhs_gives_zero():
    w = graph_weights(50, 2, seed=12)
    lrl = nystrom_factor(cols(w), select_landmarks(50, 4, 15, seed=1), rank_r=7)
    ops = build_saddle(lrl, HyperParameters(sigma=0.2, omega=1.0, tau=0.2), m=4)
    out = ops.solve(np.zeros((4, 2)))
    assert np.all(out == 0.0)


def test_map_shape_validation():
    w = graph_weights(30, 2, seed=13)
    lrl = nystrom_factor(cols(w), select_landmarks(30, 3, 8, seed=0), rank_r=4)
    ops = build_saddle(lrl, HyperParameters(sigma=0.2, omega=1.0, tau=0.2), m=3)
    with pytest.raises(DimensionMismatch):
        ops.solve(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        ops.solve(np.zeros((5, 2)))


def test_saddle_refuses_non_finite_rhs_and_misshapen_vector():
    w = graph_weights(30, 2, seed=13)
    lrl = nystrom_factor(cols(w), select_landmarks(30, 3, 8, seed=0), rank_r=4)
    ops = build_saddle(lrl, HyperParameters(sigma=0.2, omega=1.0, tau=0.2), m=3)
    for bad in (np.nan, np.inf):
        phi_hat = np.zeros((3, 2))
        phi_hat[1, 0] = bad
        with pytest.raises(NonFiniteInput, match="phi_hat"):
            ops.solve(phi_hat)
    for shape in ((30, 2), (29,), ()):
        with pytest.raises(DimensionMismatch, match=r"shape \(30,\)"):
            ops.matvec(np.ones(shape))


def test_saddle_factors_its_core_once(monkeypatch, rng):
    w = graph_weights(60, 2, seed=15)
    lrl = nystrom_factor(cols(w), select_landmarks(60, 5, 20, seed=1), rank_r=8)
    calls = []
    real = sla.lu_factor

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr("mfgl.nystrom.sla.lu_factor", counting)
    ops = build_saddle(lrl, HyperParameters(sigma=0.1, omega=2.0, tau=0.3), m=5)
    ops.solve(rng.normal(size=(5, 2)))
    ops.matvec(rng.normal(size=60))
    ops.diagonal()
    assert ops.rank > 0
    assert calls == [(ops.rank, ops.rank)]


def test_exactly_singular_core_refused():
    # Theta = [2, 1] and Xi = 2 give the 1 x 1 core 1/2 - 1/2 = 0 exactly;
    # LAPACK returns its zero pivot with only a warning
    lrl = LowRankLaplacian(
        u_tilde=[[0.0], [1.0]], sigma_vals=[2.0], d_hat=[1.0, 1.0]
    )
    with pytest.raises(SingularCapacitance, match="zero or non-finite pivot"):
        build_saddle(lrl, HyperParameters(sigma=1, omega=1, tau=1, beta=1), m=1)


def test_covariance_is_the_saddle_inverse(rng):
    w = graph_weights(90, 3, seed=14)
    lrl = nystrom_factor(cols(w), select_landmarks(90, 6, 25, seed=2), rank_r=12)
    hp = HyperParameters(sigma=0.1, omega=2.0, tau=0.3)
    ops = build_saddle(lrl, hp, m=6)
    vr = lrl.v[:, list(ops.retained)]
    vec = rng.normal(size=90)
    y = ops.matvec(vec)
    back = ops.theta * y - vr @ (ops.xi * (vr.T @ y))
    assert np.abs(back - hp.sigma**2 * vec).max() < 1e-8 * np.abs(vec).max()
    # diagonal agrees with basis-vector probes
    diag = ops.diagonal()
    for i in (0, 17, 88):
        e = np.zeros(90)
        e[i] = 1.0
        assert ops.matvec(e)[i] == pytest.approx(diag[i], rel=1e-10)


def test_empty_correction_reduces_to_diagonal(rng):
    # both sigmas above 1 + tau: every column is dropped, no core is factored
    u_tilde = nla.qr(rng.normal(size=(7, 2)))[0]
    lrl = LowRankLaplacian(
        u_tilde=u_tilde,
        sigma_vals=np.array([1.5, 1.2]), d_hat=np.ones(7),
    )
    ops = build_saddle(lrl, HyperParameters(sigma=0.2, omega=2.0, tau=0.1), m=1)
    assert ops.retained == () and ops.dropped_columns == (0, 1) and ops.lu is None
    theta = ops.theta
    assert np.abs(ops.diagonal() - 0.04 / theta).max() < 1e-15
    vec = rng.normal(size=7)
    assert np.abs(ops.matvec(vec) - 0.04 * vec / theta).max() < 1e-15
    rhs = rng.normal(size=(1, 2))
    out = ops.solve(rhs)
    expect = np.zeros((7, 2))
    expect[0] = rhs[0] / theta[0]
    assert np.abs(out - expect).max() < 1e-14


def test_general_p_duality_and_dense_agreement(rng):
    pts = random_points(100, 3, seed=16)
    g = build_graph(pts, knn_k=6)
    lrl = nystrom_factor(cols(g.weights.toarray()), range(100), p=1.0)
    u = (lrl.d_hat ** (0.5 - lrl.p))[:, None] * lrl.u_tilde  # approximate eigenvectors of L
    assert np.abs(lrl.v.T @ u - np.eye(lrl.rank)).max() < 1e-8

    hp = HyperParameters(sigma=0.1, omega=2.0, tau=0.25, beta=2.0)
    m = 10
    phi_hat = rng.normal(size=(m, 2))
    ops = build_saddle(lrl, hp, m=m)
    got = ops.solve(phi_hat)
    factor = dense_factor(laplacian(g, 1.0, 0.0), m, hp.tau, hp.beta)
    ref = dense_posterior(factor, phi_hat, hp.omega, hp.sigma)
    assert nla.norm(got - ref.phi_star) <= 1e-6 * nla.norm(ref.phi_star)


def test_p_half_views_are_shared():
    w = graph_weights(25, 2, seed=18)
    lrl = nystrom_factor(cols(w), select_landmarks(25, 2, 8, seed=0), rank_r=4)
    assert lrl.v is lrl.u_tilde

