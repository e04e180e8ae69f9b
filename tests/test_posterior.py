import numpy as np
import numpy.linalg as nla
import pytest

from conftest import random_points, two_blob_points
from mfgl.bench import Generator, generate
from mfgl.data import Dataset, HyperParameters, displacements
from mfgl.exceptions import (
    AllZeroSpectrum,
    DenseLimitExceeded,
    InvalidConfig,
    NoBracket,
)
from mfgl.graph import AffinityGraph, build_graph, laplacian
from mfgl.posterior import (
    calibrate_omega,
    choose_tau,
    constrained_minimizer,
    dense_mean_stddev,
    dense_posterior,
    regularization_path,
    shifted_power,
)
from mfgl.spectral import Spectrum, low_spectrum, truncated_posterior, truncated_variances


def hand_graph(w):
    w = np.asarray(w, dtype=np.float64)
    return AffinityGraph(
        weights=w, degrees=w.sum(axis=1), scales=np.ones(w.shape[0]), knn_k=1
    )


def test_zero_rhs_and_data_independent_covariance(rng):
    gl = laplacian(build_graph(random_points(20, 2, seed=0), knn_k=4), 0.5, 0.5)
    hp = HyperParameters(sigma=0.1, omega=1.0, tau=0.3)
    res0 = dense_posterior(gl, np.zeros((4, 2)), hp, want_cov=True)
    assert np.all(res0.phi_star == 0.0)
    res1 = dense_posterior(gl, rng.normal(size=(4, 2)), hp, want_cov=True)
    # covariance depends on the design, never on the observed values
    assert np.array_equal(res0.covariance, res1.covariance)
    assert np.array_equal(res0.stddevs, res1.stddevs)


def test_three_node_chain_matches_direct_solve():
    # hand-built 3-node chain, beta=1, M=1: small enough to solve by the
    # defining linear system with a generic solver as the oracle
    w = [[0.0, 0.6, 0.0], [0.6, 0.0, 0.4], [0.0, 0.4, 0.0]]
    g = hand_graph(w)
    gl = laplacian(g, 0.5, 0.5)
    hp = HyperParameters(sigma=0.5, omega=2.0, tau=0.25, beta=1.0)
    phi_hat = np.array([[1.2]])
    a = hp.omega * (gl.matrix.toarray() + hp.tau * np.eye(3))
    a[0, 0] += 1.0 / hp.sigma**2
    ref = nla.solve(a, np.array([[1.2 / hp.sigma**2], [0.0], [0.0]]))
    res = dense_posterior(gl, phi_hat, hp)
    assert np.abs(res.phi_star - ref).max() < 1e-12


def test_columns_decouple(rng):
    # each displacement component solves its own system with the shared
    # operator: solving columns together or separately is identical
    gl = laplacian(build_graph(random_points(15, 3, seed=5), knn_k=4), 0.5, 0.5)
    hp = HyperParameters(sigma=0.2, omega=1.0, tau=0.2)
    phi_hat = rng.normal(size=(4, 3))
    joint = dense_posterior(gl, phi_hat, hp).phi_star
    for j in range(3):
        single = dense_posterior(gl, phi_hat[:, j : j + 1], hp).phi_star
        assert np.abs(joint[:, j : j + 1] - single).max() < 1e-14


def test_cluster_propagation():
    # one observation per blob, displacement constant per blob: under
    # random-walk normalization the kernel mode is the plain constant
    # vector, so the posterior must move each blob together
    lf = two_blob_points(n_per=15, gap=0.8, spread=0.08, seed=3)
    shift = np.zeros((30, 2))
    shift[:15] = [0.5, 0.0]
    shift[15:] = [0.0, -0.5]
    # observe the first point of each blob: build the permuted problem
    order = [0, 15] + [i for i in range(30) if i not in (0, 15)]
    lf_p, shift_p = lf[order], shift[order]
    gl_p = laplacian(build_graph(lf_p, knn_k=7), 1.0, 0.0)
    tau = choose_tau(low_spectrum(gl_p, 30))
    hp = HyperParameters(sigma=0.01, omega=5.0, tau=tau)
    res = dense_posterior(gl_p, shift_p[:2], hp)
    labels = np.array([o < 15 for o in order])
    for blob, target in ((res.phi_star[labels], [0.5, 0.0]),
                         (res.phi_star[~labels], [0.0, -0.5])):
        assert blob.std(axis=0).max() < 0.01 * 0.5
        assert np.abs(blob.mean(axis=0) - target).max() < 0.05


def test_dense_limit_guard(rng):
    gl = laplacian(build_graph(random_points(30, 2, seed=1), knn_k=4), 0.5, 0.5)
    hp = HyperParameters(sigma=0.1, omega=1.0, tau=0.3)
    with pytest.raises(DenseLimitExceeded):
        dense_posterior(gl, rng.normal(size=(5, 2)), hp, dense_limit=10)


def test_shifted_power_integer_beta_is_matrix_power(rng):
    s = rng.normal(size=(8, 8))
    s = s @ s.T
    out = shifted_power(s, tau=0.3, beta=2.0)
    ref = nla.matrix_power(s + 0.3 * np.eye(8), 2)
    assert np.abs(out - ref).max() < 1e-10


def test_shifted_power_fractional_beta_matches_eigh(rng):
    s = rng.normal(size=(8, 8))
    s = s @ s.T
    lam, v = nla.eigh(s)
    ref = (v * (np.clip(lam, 0.0, None) + 0.4) ** 1.5) @ v.T
    out = shifted_power(s, tau=0.4, beta=1.5)
    assert np.abs(out - ref).max() < 1e-10


def test_choose_tau_two_node_graph():
    gl = laplacian(build_graph(np.array([[0.0], [1.0]]), knn_k=1), 0.5, 0.5)
    spec = low_spectrum(gl, 2)
    assert choose_tau(spec) == pytest.approx(2.0, abs=1e-12)


def spectrum_of(vals, shift_a=2.0):
    vals = np.asarray(vals, dtype=np.float64)
    return Spectrum(
        K=vals.size, eigenvalues=vals, eigenvectors=np.eye(vals.size),
        shift_a=shift_a, pq=(0.5, 0.5),
    )


def test_choose_tau_selection_rule():
    assert choose_tau(spectrum_of([0.0, 0.5, 1.3])) == 0.5
    # round-off negatives and tiny positives both count as zero
    assert choose_tau(spectrum_of([-1e-12, 1e-11, 0.7, 2.0])) == 0.7


def test_choose_tau_skips_disconnected_kernel():
    lf = two_blob_points(n_per=10, gap=50.0, seed=1)  # fully underflowed
    gl = laplacian(build_graph(lf, knn_k=3), 0.5, 0.5)
    spec = low_spectrum(gl, 20)
    tau = choose_tau(spec)
    lam = spec.eigenvalues
    positive = lam[lam > 1e-8 * spec.shift_a]
    assert tau == pytest.approx(positive.min())
    assert lam[1] < 1e-10  # really had two kernel modes


def test_choose_tau_all_zero():
    # the cutoff scales with the spectrum's bound, not with the largest
    # eigenvalue passed in, so a spectrum of tiny positives is all zero
    with pytest.raises(AllZeroSpectrum):
        choose_tau(spectrum_of([0.0, -1e-13, 1e-9]))


def test_choose_tau_does_not_depend_on_K():
    vals = np.concatenate([[0.0, 3e-9], np.arange(1, 20) / 10.0])
    full = spectrum_of(vals)
    first_three = Spectrum(
        K=3, eigenvalues=vals[:3], eigenvectors=full.eigenvectors[:, :3],
        shift_a=full.shift_a, pq=full.pq,
    )
    assert choose_tau(first_three) == choose_tau(full) == 0.1


def test_calibration_self_consistency():
    for seed in range(3):
        lf = random_points(40, 3, seed=seed)
        gl = laplacian(build_graph(lf, knn_k=5), 0.5, 0.5)
        sigma = 0.05
        hp0 = HyperParameters(sigma=sigma, omega=1.0, tau=0.3)
        handle = dense_mean_stddev(gl, hp0, m=8)
        omega = calibrate_omega(handle, sigma, r=3.0)
        achieved = handle(omega)
        assert abs(achieved - 3.0 * sigma) / (3.0 * sigma) <= 1e-3


def test_mean_stddev_monotone_in_omega():
    gl = laplacian(build_graph(random_points(30, 2, seed=7), knn_k=4), 0.5, 0.5)
    handle = dense_mean_stddev(
        gl, HyperParameters(sigma=0.1, omega=1.0, tau=0.2), m=6
    )
    values = [handle(om) for om in np.logspace(-3, 3, 10)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_no_bracket_when_target_unattainable():
    # truncated solver with K = M: every mode is observed, so the spread
    # stays bounded as omega -> 0 and a big enough target never brackets
    lf = random_points(25, 2, seed=9)
    gl = laplacian(build_graph(lf, knn_k=4), 0.5, 0.5)
    m = 6
    spec = low_spectrum(gl, m)
    sigma = 0.1
    phi_hat = np.zeros((m, 1))

    def handle(omega):
        hp = HyperParameters(sigma=sigma, omega=omega, tau=0.3)
        tp = truncated_posterior(spec, phi_hat, hp)
        return float(np.sqrt(truncated_variances(tp))[m:].mean())

    ceiling = handle(1e-12)  # sigma-only limit
    with pytest.raises(NoBracket):
        calibrate_omega(handle, sigma, r=max(3.0, 2.0 * ceiling / sigma))


def test_calibrate_omega_validates_inputs():
    with pytest.raises(InvalidConfig):
        calibrate_omega(lambda om: 1.0, 0.1, r=0.5)
    with pytest.raises(InvalidConfig):
        calibrate_omega(lambda om: 1.0, 0.1, bracket=(0.0, 1.0))


def test_constrained_minimizer_interpolates_and_minimizes(rng):
    lf = random_points(18, 2, seed=11)
    gl = laplacian(build_graph(lf, knn_k=4), 0.5, 0.5)
    hp = HyperParameters(sigma=1.0, omega=1.0, tau=0.25, beta=2.0)
    phi_obs = rng.normal(size=(4, 2))
    theta = constrained_minimizer(gl, phi_obs, hp)
    assert np.array_equal(theta[:4], phi_obs)

    b = shifted_power(gl.matrix.toarray(), hp.tau, hp.beta)
    energy = float(np.sum(theta * (b @ theta)))
    for _ in range(100):
        other = theta.copy()
        other[4:] += 0.3 * rng.normal(size=(14, 2))  # stays feasible
        assert float(np.sum(other * (b @ other))) >= energy - 1e-10


def test_regularization_path_converges():
    lf = random_points(30, 2, seed=13)
    gl = laplacian(build_graph(lf, knn_k=4), 0.5, 0.5)
    hp = HyperParameters(sigma=1.0, omega=1.0, tau=0.3, beta=2.0)
    rng = np.random.default_rng(3)
    phi_obs = rng.normal(size=(6, 2))
    deltas = 2.0 ** -np.arange(1, 21)
    path = regularization_path(gl, phi_obs, deltas, hp)
    ref = nla.norm(path.limit, "fro")
    errs = [nla.norm(it - path.limit, "fro") / ref for it in path.iterates]
    assert errs[-1] < 1e-4
    assert all(a >= b for a, b in zip(errs[4:], errs[5:]))


def test_regularization_path_zero_noise_data_consistency():
    lf = random_points(20, 2, seed=15)
    gl = laplacian(build_graph(lf, knn_k=4), 0.5, 0.5)
    hp = HyperParameters(sigma=1.0, omega=1.0, tau=0.3, beta=2.0)
    rng = np.random.default_rng(5)
    phi_obs = rng.normal(size=(4, 2))
    # tiny fixed omega, essentially-zero noise: observed rows reproduced
    path = regularization_path(
        gl, phi_obs, [1e-300], hp, omega_coeff=1e-9, omega_exponent=0.0
    )
    got = path.iterates[0][:4]
    rel = nla.norm(got - phi_obs, "fro") / nla.norm(phi_obs, "fro")
    assert rel < 1e-3


def test_regularization_path_rejects_bad_schedules():
    lf = random_points(12, 2, seed=17)
    gl = laplacian(build_graph(lf, knn_k=3), 0.5, 0.5)
    hp = HyperParameters(sigma=1.0, omega=1.0, tau=0.3)
    phi_obs = np.ones((2, 2))
    with pytest.raises(InvalidConfig):
        regularization_path(gl, phi_obs, [0.1, 0.2], hp)  # not decreasing
    with pytest.raises(InvalidConfig):
        regularization_path(gl, phi_obs, [0.2, 0.1], hp, omega_exponent=2.0)


def test_stddevs_are_positive_and_match_covariance(rng):
    gl = laplacian(build_graph(random_points(16, 2, seed=19), knn_k=4), 0.5, 0.5)
    hp = HyperParameters(sigma=0.1, omega=2.0, tau=0.4)
    res = dense_posterior(gl, rng.normal(size=(3, 2)), hp, want_cov=True)
    assert np.all(res.stddevs > 0)
    assert np.allclose(res.stddevs, np.sqrt(np.diag(res.covariance)))
    assert np.abs(res.covariance - res.covariance.T).max() < 1e-14
    assert nla.eigvalsh(res.covariance).min() > 0


def test_dense_posterior_accurate_with_unobserved_cluster():
    # clustered-shift with clusters 0, 5 and 9 unobserved and a tiny tau:
    # (L + tau I)^2 is near-singular there.  The oracle is the block form
    # [[P^T P / sigma^2, omega B], [B, -I]] with B = L + tau I, which
    # never squares B.
    prob = generate(Generator.CLUSTERED_SHIFT, 200, 5, seed=0)
    m, n = 10, 200
    assert {0, 5, 9}.isdisjoint(prob.cluster_labels[:m])
    gl = laplacian(build_graph(prob.lf_data, knn_k=7), 0.5, 0.5)
    hp = HyperParameters(sigma=0.05, omega=1.0, tau=5e-8, beta=2.0)
    phi_hat = (prob.true_data - prob.lf_data)[:m]
    b = gl.matrix.toarray() + hp.tau * np.eye(n)
    obs = np.zeros((n, n))
    obs[np.arange(m), np.arange(m)] = 1.0 / hp.sigma**2
    block = np.block([[obs, hp.omega * b], [b, -np.eye(n)]])
    rhs = np.zeros((2 * n, phi_hat.shape[1]))
    rhs[:m] = phi_hat / hp.sigma**2
    oracle = nla.solve(block, rhs)[:n]
    got = dense_posterior(gl, phi_hat, hp).phi_star
    assert nla.norm(got - oracle) <= 1e-3 * nla.norm(oracle)


def explicit_map_matrix(gl, hp, m):
    # A = omega S (L_sym + tau I)^beta S + P_M^T P_M / sigma^2, the power
    # taken on the eigenvalues of L_sym
    vals, vecs = nla.eigh(gl.sym_matrix.toarray())
    prior = (vecs * (np.clip(vals, 0.0, None) + hp.tau) ** hp.beta) @ vecs.T
    s = gl.graph.degrees ** (0.5 * (gl.p - gl.q))
    a = hp.omega * s[:, None] * prior * s[None, :]
    a[np.arange(m), np.arange(m)] += 1.0 / hp.sigma**2
    return a


@pytest.mark.parametrize("beta", [2.0, 1.5])
@pytest.mark.parametrize("pq", [(0.5, 0.5), (1.0, 0.0)])
@pytest.mark.parametrize("kind", [Generator.SMOOTH_MANIFOLD, Generator.CLUSTERED_SHIFT])
def test_dense_mean_stddev_matches_explicit_inverse(kind, pq, beta):
    prob = generate(kind, 150, 3, seed=1)
    gl = laplacian(build_graph(prob.lf_data, knn_k=7), *pq)
    m = 10
    template = HyperParameters(sigma=0.05, omega=1.0, tau=0.05, beta=beta)
    handle = dense_mean_stddev(gl, template, m)
    for omega in (1e-2, 1.0, 1e2):
        hp = HyperParameters(sigma=0.05, omega=omega, tau=0.05, beta=beta)
        exact = np.sqrt(np.diag(nla.inv(explicit_map_matrix(gl, hp, m))))[m:].mean()
        assert handle(omega) == pytest.approx(exact, rel=1e-12)


def test_dense_mean_stddev_builds_prior_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return shifted_power(*args, **kwargs)

    monkeypatch.setattr("mfgl.posterior.shifted_power", counting)
    gl = laplacian(build_graph(random_points(40, 3, seed=2), knn_k=5), 0.5, 0.5)
    handle = dense_mean_stddev(gl, HyperParameters(sigma=0.1, omega=1.0, tau=0.2), m=5)
    for omega in np.logspace(-2, 2, 5):
        handle(omega)
    assert len(calls) == 1


def test_dense_mean_stddev_limit_checked_on_creation(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("prior built above the dense limit")

    monkeypatch.setattr("mfgl.posterior.DENSE_POSTERIOR_LIMIT", 39)
    monkeypatch.setattr("mfgl.posterior.shifted_power", must_not_run)
    gl = laplacian(build_graph(random_points(40, 3, seed=2), knn_k=5), 0.5, 0.5)
    with pytest.raises(DenseLimitExceeded):
        dense_mean_stddev(gl, HyperParameters(sigma=0.1, omega=1.0, tau=0.2), m=5)


def test_dense_stddevs_without_covariance_match_covariance_diagonal(rng):
    prob = generate(Generator.SMOOTH_MANIFOLD, 150, 3, seed=3)
    gl = laplacian(build_graph(prob.lf_data, knn_k=7), 0.5, 0.5)
    hp = HyperParameters(sigma=0.05, omega=3.0, tau=0.05, beta=2.0)
    phi_hat = rng.normal(size=(10, 2))
    with_cov = dense_posterior(gl, phi_hat, hp, want_cov=True)
    without = dense_posterior(gl, phi_hat, hp)
    assert without.covariance is None
    np.testing.assert_allclose(
        without.stddevs, np.sqrt(np.diag(with_cov.covariance)), rtol=1e-12
    )
    np.testing.assert_array_equal(without.phi_star, with_cov.phi_star)


def unobserved_cluster_oracle():
    # The case of test_dense_posterior_accurate_with_unobserved_cluster,
    # with the block-form oracle's MAP and stddevs: the top-left N x N
    # block of the block matrix's inverse is A^{-1}.
    prob = generate(Generator.CLUSTERED_SHIFT, 200, 5, seed=0)
    m, n = 10, 200
    assert {0, 5, 9}.isdisjoint(prob.cluster_labels[:m])
    gl = laplacian(build_graph(prob.lf_data, knn_k=7), 0.5, 0.5)
    hp = HyperParameters(sigma=0.05, omega=1.0, tau=5e-8, beta=2.0)
    phi_hat = (prob.true_data - prob.lf_data)[:m]
    d = phi_hat.shape[1]
    b = gl.matrix.toarray() + hp.tau * np.eye(n)
    obs = np.zeros((n, n))
    obs[np.arange(m), np.arange(m)] = 1.0 / hp.sigma**2
    block = np.block([[obs, hp.omega * b], [b, -np.eye(n)]])
    rhs = np.zeros((2 * n, d + n))
    rhs[:m, :d] = phi_hat / hp.sigma**2
    rhs[:n, d:] = np.eye(n)
    sol = nla.solve(block, rhs)[:n]
    return gl, hp, phi_hat, sol[:, :d], np.sqrt(np.diag(sol[:, d:]))


@pytest.mark.xfail(
    strict=True,
    reason="shifted_power squares cond(L + tau I): the dense stddevs are "
    "7.2e-3 max-relative off the block oracle with 1 BLAS thread "
    "(2.9e-3 with 2)",
)
def test_dense_stddevs_accurate_with_unobserved_cluster():
    gl, hp, phi_hat, _, oracle_sd = unobserved_cluster_oracle()
    got = dense_posterior(gl, phi_hat, hp).stddevs
    assert np.max(np.abs(got - oracle_sd) / oracle_sd) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="the eigenbasis solver at K=N misses a component with no "
    "observation: its MAP is 5.8% off the block oracle with 1 BLAS thread "
    "(2.3% with 2)",
)
def test_truncated_full_rank_accurate_with_unobserved_cluster():
    gl, hp, phi_hat, oracle_map, _ = unobserved_cluster_oracle()
    tp = truncated_posterior(low_spectrum(gl, gl.graph.n), phi_hat, hp)
    got = tp.map_displacements()
    assert nla.norm(got - oracle_map) <= 1e-3 * nla.norm(oracle_map)
