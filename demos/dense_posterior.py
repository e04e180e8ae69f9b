"""Dense-oracle posterior on a smooth field, plus spread calibration.

The estimate is a Gaussian over per-point displacement vectors: the MAP
is the smoothest field consistent with the few observed values, and the
covariance diagonal prices each point's remaining uncertainty.  This
demo checks that the advertised spread is honest against ground truth.
Everything uses the exact dense factorization, which is also the oracle
the scalable solvers are tested against.
"""

import numpy as np

from mfgl.graph import build_graph, laplacian
from mfgl.posterior import calibrate_omega, choose_tau, dense_factor, dense_posterior
from mfgl.spectral import low_spectrum

rng = np.random.default_rng(7)

# a displacement field that varies smoothly with position; the graph
# prior assumes exactly this kind of regularity
n, m, sigma = 150, 12, 0.02
pts = rng.uniform(-1.0, 1.0, size=(n, 2))
truth = 0.6 * np.column_stack([
    np.sin(1.5 * pts[:, 0] + 0.5 * pts[:, 1]),
    np.cos(1.2 * pts[:, 1]) - 0.5,
])

# the first m rows are the observed ones; observations are truth + noise
phi_hat = truth[:m] + rng.normal(scale=sigma, size=(m, 2))

gl = laplacian(build_graph(pts, knn_k=7), p=0.5, q=0.5)
tau = choose_tau(low_spectrum(gl, K=12))
print(f"{n} points, {m} observed, noise sigma = {sigma}, tau = {tau:.4f}")

# calibrate omega so the mean unobserved stddev hits r * sigma, then ask
# how the advertised spread compares with the realized error; the prior
# is built and factored once, and every omega below is closed form
factor = dense_factor(gl, range(m), tau)


def handle(omega):
    return factor.mean_stddev(omega, sigma)


print(f"{'r':>4} {'omega':>9} {'advertised':>11} {'realized':>9} {'2-sigma cover':>14}")
for r in (1.5, 3.0, 6.0):
    omega = calibrate_omega(handle, sigma, r=r)
    post = dense_posterior(factor, phi_hat, omega, sigma)
    resid = np.abs(post.phi_star - truth)
    cover = (resid[m:] <= 2.0 * post.stddevs[m:, None]).mean()
    print(f"{r:4.1f} {omega:9.1f} {post.stddevs[m:].mean():11.4f} "
          f"{resid[m:].mean():9.4f} {100 * cover:13.0f}%")

# r = 1.5 squeezes the band below the achievable error and the intervals
# start missing; r = 3 is honest; r = 6 just pads the band.
post = dense_posterior(factor, phi_hat, calibrate_omega(handle, sigma), sigma)
err = np.linalg.norm(post.phi_star - truth, axis=1)
scale = np.linalg.norm(truth, axis=1).mean()
print(f"default calibration: mean MAP error {err.mean():.4f} "
      f"({100 * err.mean() / scale:.1f}% of the field scale), "
      f"observed rows pinned to {err[:m].max():.4f}")
