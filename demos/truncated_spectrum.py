"""Posterior from a truncated spectrum: what rank actually buys.

Only the low-lying eigenpairs of the Laplacian carry the prior's
structure, so the posterior can be assembled from K of them instead of
an N x N factorization.  The tail modes encode the sharp pinning of the
observed rows; dropping them changes the estimate's distance to ground
truth barely at all.  At K = N the truncation reproduces the dense
oracle to machine precision.
"""

import time

import numpy as np

from mfgl.graph import build_graph, laplacian
from mfgl.posterior import calibrate_omega, choose_tau, dense_factor, dense_posterior
from mfgl.spectral import low_spectrum, truncated_factor, truncated_posterior

rng = np.random.default_rng(11)

n, m, sigma = 300, 20, 0.02
pts = rng.uniform(-1.0, 1.0, size=(n, 2))
truth = 0.6 * np.column_stack([
    np.sin(1.5 * pts[:, 0] + 0.5 * pts[:, 1]),
    np.cos(1.2 * pts[:, 1]) - 0.5,
])
phi_hat = truth[:m] + rng.normal(scale=sigma, size=(m, 2))

gl = laplacian(build_graph(pts, knn_k=7), p=0.5, q=0.5)
tau = choose_tau(low_spectrum(gl, K=12))
# one dense factor serves the calibration and the reference solve
factor = dense_factor(gl, range(m), tau)
omega = calibrate_omega(lambda w: factor.mean_stddev(w, sigma), sigma)

ref = dense_posterior(factor, phi_hat, omega, sigma)
scale = np.linalg.norm(truth)
print(f"N = {n}, M = {m}, calibrated omega = {omega:.1f}")
print(f"dense MAP error vs truth: {np.linalg.norm(ref.phi_star - truth) / scale:.3f}")
print(f"{'K':>4} {'vs dense':>10} {'vs truth':>10}")
for k in (10, 25, 50, 100, 200, n):
    tp = truncated_posterior(truncated_factor(low_spectrum(gl, k), m, tau), phi_hat, omega, sigma)
    est = tp.spectrum.eigenvectors @ tp.coeff_mean  # Psi_K A*
    rel_dense = np.linalg.norm(est - ref.phi_star) / np.linalg.norm(ref.phi_star)
    rel_truth = np.linalg.norm(est - truth) / scale
    print(f"{k:4d} {rel_dense:10.2e} {rel_truth:10.3f}")

# the spectrum is the expensive part; once held, one factor per (tau,
# beta) keeps B^T B, and each new omega costs one K x K Cholesky
spec = low_spectrum(gl, 100)
t0 = time.perf_counter()
tfactor = truncated_factor(spec, m, tau)
for w in np.logspace(-1, 2, 30):
    truncated_posterior(tfactor, phi_hat, w, sigma)
t_sweep = time.perf_counter() - t0
t0 = time.perf_counter()
dense_posterior(dense_factor(gl, range(m), tau), phi_hat, omega, sigma)
t_dense = time.perf_counter() - t0
print(f"30-point omega sweep at K=100: {t_sweep * 1e3:.1f} ms total "
      f"(one dense solve: {t_dense * 1e3:.1f} ms)")
