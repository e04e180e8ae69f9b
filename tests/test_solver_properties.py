"""Properties of the Gaussian posterior that every solver keeps: the dense
solve, and the truncated solve at K = N and at K < N, on both the
symmetric and the random-walk normalization.  Each follows from the model

    A = (1/sigma^2) P_M^T P_M + omega Q,   MAP = A^{-1} P_M^T Phi_hat / sigma^2,

(restricted to the span of Psi_K for the truncated solve), so it holds
whatever the oracle of a single solver says."""
import numpy as np
import pytest

from conftest import hand_graph, random_points
from mfgl.graph import build_graph, laplacian
from mfgl.posterior import DenseFactor, dense_factor, dense_posterior
from mfgl.spectral import low_spectrum, truncated_factor, truncated_posterior, truncated_variances

N, M, TAU, BETA, OMEGA, SIGMA = 40, 6, 0.2, 2.0, 2.0, 0.1
# truncated-low keeps K = LOW_K < N - 2 pairs, so its spectrum comes from
# the shift-invert Lanczos branch; truncated-full takes the dense branch
LOW_K = 16

solvers = pytest.mark.parametrize("solver", ["dense", "truncated-full", "truncated-low"])
normalizations = pytest.mark.parametrize("pq", [(0.5, 0.5), (1.0, 0.0)], ids=["sym", "rw"])


def graph_laplacian(pq, perm=None):
    """The Laplacian of the test graph, with row i holding point
    ``perm[i]`` when ``perm`` is given: W relabeled before it is written."""
    graph = build_graph(random_points(N, 3, seed=3), knn_k=6)
    if perm is not None:
        graph = hand_graph(graph.weights[perm][:, perm])
    return laplacian(graph, *pq)


def prior_of(solver, gl):
    """What ``solver`` factors: the Laplacian itself or its K lowest pairs."""
    if solver == "dense":
        return gl
    return low_spectrum(gl, gl.n if solver == "truncated-full" else LOW_K)


def factor_of(solver, prior, m=M):
    """The factor for the first ``m`` rows observed."""
    if solver == "dense":
        return dense_factor(prior, range(m), TAU, BETA)
    return truncated_factor(prior, m, TAU, BETA)


def solve(factor, phi_hat, omega=OMEGA, sigma=SIGMA):
    """The MAP field (N x D) and the pointwise stddevs of either factor."""
    if isinstance(factor, DenseFactor):
        res = dense_posterior(factor, phi_hat, omega, sigma)
        return res.phi_star, res.stddevs
    tp = truncated_posterior(factor, phi_hat, omega, sigma)
    return tp.spectrum.eigenvectors @ tp.coeff_mean, np.sqrt(truncated_variances(tp))


@solvers
@normalizations
def test_map_is_linear_in_the_observations(solver, pq, rng):
    factor = factor_of(solver, prior_of(solver, graph_laplacian(pq)))
    x, y = rng.normal(size=(2, M, 2))
    map_x, sd_x = solve(factor, x)
    map_y, sd_y = solve(factor, y)
    map_z, sd_z = solve(factor, 1.5 * x - 0.7 * y)
    scale = np.abs(map_x).max() + np.abs(map_y).max()
    assert np.abs(map_z - (1.5 * map_x - 0.7 * map_y)).max() <= 1e-12 * scale
    map_0, sd_0 = solve(factor, np.zeros((M, 2)))
    assert np.all(map_0 == 0.0)
    # the spread depends on which rows are observed, never on their values
    for sd in (sd_y, sd_z, sd_0):
        assert np.array_equal(sd, sd_x)


@solvers
@normalizations
def test_solve_is_deterministic(solver, pq, rng):
    phi_hat = rng.normal(size=(M, 3))
    runs = [solve(factor_of(solver, prior_of(solver, graph_laplacian(pq))), phi_hat)
            for _ in range(2)]
    for first, second in zip(*runs):
        assert np.array_equal(first, second)


@solvers
@normalizations
def test_only_omega_sigma_squared_fixes_the_map(solver, pq, rng):
    # A(c omega, sigma / sqrt(c)) = c A(omega, sigma), and the right-hand
    # side scales by c too: the MAP stays, the stddevs shrink by sqrt(c)
    factor = factor_of(solver, prior_of(solver, graph_laplacian(pq)))
    phi_hat = rng.normal(size=(M, 2))
    ref_map, ref_sd = solve(factor, phi_hat)
    for c in (1e-2, 3.0, 1e2):
        got_map, got_sd = solve(factor, phi_hat, c * OMEGA, SIGMA / np.sqrt(c))
        assert np.abs(got_map - ref_map).max() <= 1e-10 * np.abs(ref_map).max()
        assert np.abs(got_sd * np.sqrt(c) / ref_sd - 1.0).max() <= 1e-10


@solvers
@normalizations
def test_observing_more_rows_never_raises_a_variance(solver, pq):
    # conditioning on more data shrinks the covariance in the Loewner
    # order, so no diagonal entry grows; a newly observed row's drops
    prior = prior_of(solver, graph_laplacian(pq))
    _, fewer = solve(factor_of(solver, prior, M), np.zeros((M, 1)))
    _, more = solve(factor_of(solver, prior, M + 4), np.zeros((M + 4, 1)))
    assert np.all(more <= fewer * (1.0 + 1e-12))
    assert np.all(more[M:M + 4] < fewer[M:M + 4])


@solvers
@normalizations
def test_an_observed_row_is_no_less_certain_than_its_noise(solver, pq):
    # observing x_i + sigma e alone leaves Var(x_i) = v sigma^2 / (v + sigma^2)
    # <= sigma^2, and the other observations only shrink it further
    factor = factor_of(solver, prior_of(solver, graph_laplacian(pq)))
    for sigma in (1e-3, 0.1, 10.0):
        _, sd = solve(factor, np.zeros((M, 1)), sigma=sigma)
        assert np.all(sd[:M] <= sigma * (1.0 + 1e-12))


@solvers
@normalizations
def test_noisier_observations_never_narrow_the_posterior(solver, pq):
    # 1/sigma^2 weighs the only data term of A: a larger sigma removes a
    # PSD term from it, so every variance grows or stays
    factor = factor_of(solver, prior_of(solver, graph_laplacian(pq)))
    sds = np.array([solve(factor, np.zeros((M, 1)), sigma=s)[1] for s in (1e-3, 0.1, 1.0, 10.0)])
    assert np.all(sds[1:] >= sds[:-1] * (1.0 - 1e-12))
    assert np.all(sds[-1, :M] > sds[0, :M])


@solvers
@normalizations
def test_relabeling_points_permutes_the_posterior(solver, pq, rng):
    # the observed rows are shuffled among themselves and the unobserved
    # among themselves: the same problem with its rows relabeled
    perm = np.concatenate([rng.permutation(M), M + rng.permutation(N - M)])
    phi_hat = rng.normal(size=(M, 2))
    ref_map, ref_sd = solve(factor_of(solver, prior_of(solver, graph_laplacian(pq))), phi_hat)
    relabeled = prior_of(solver, graph_laplacian(pq, perm))
    got_map, got_sd = solve(factor_of(solver, relabeled), phi_hat[perm[:M]])
    assert np.abs(got_map - ref_map[perm]).max() <= 1e-9 * np.abs(ref_map).max()
    assert np.abs(got_sd / ref_sd[perm] - 1.0).max() <= 1e-9
