"""Vanishing observation noise drives the MAP to exact interpolation.

Shrink the noise scale delta_n = 2^-n and the prior weight omega_n along
with it; the MAP solutions converge to the minimum-energy field that
interpolates the observed rows exactly.  The demo prints the distance to
that limit, computed independently by eliminating the constraint.
"""

import numpy as np

from mfgl.graph import build_graph, laplacian
from mfgl.posterior import constrained_minimizer, regularization_path

rng = np.random.default_rng(30)

n, m = 30, 6
gl = laplacian(build_graph(rng.normal(size=(n, 2)), knn_k=5), p=0.5, q=0.5)
tau, beta = 0.3, 2.0
phi_obs = rng.normal(size=(m, 2))

deltas = 2.0 ** -np.arange(1, 21)
path = regularization_path(gl, phi_obs, deltas, tau, beta)

limit = constrained_minimizer(gl, phi_obs, tau, beta)
print(f"limit matches the observed block exactly: "
      f"{np.abs(limit[:m] - phi_obs).max():.1e}")

ref = np.linalg.norm(limit)
print(f"{'n':>3} {'delta_n':>10} {'omega_n':>10} {'rel distance to limit':>22}")
for i in (0, 4, 9, 14, 19):
    err = np.linalg.norm(path.iterates[i] - limit) / ref
    print(f"{i + 1:3d} {path.deltas[i]:10.2e} {path.omegas[i]:10.2e} {err:22.2e}")

# the drive is delta_n^2 / omega_n -> 0: the data term overwhelms the
# prior at the observed rows while the prior still picks the smoothest
# completion elsewhere.  A schedule violating that cannot be built:
try:
    regularization_path(gl, phi_obs, deltas, tau, beta, omega_exponent=2.5)
except Exception as exc:
    print(f"omega_n = delta_n^2.5 rejected: {type(exc).__name__}")
