"""Build the affinity graph and inspect the Laplacian the prior rides on.

The graph is the only thing the low-fidelity data contributes: kernel
widths come from each point's distance to its 7th nearest neighbor, so
dense regions get narrow bumps and sparse regions wide ones.
"""

import numpy as np

from mfgl.graph import build_graph, laplacian, self_adjointness_check
from mfgl.posterior import choose_tau
from mfgl.spectral import embed, low_spectrum

rng = np.random.default_rng(0)

# two separated clouds, so the spectrum shows one near-zero mode per blob
pts = np.vstack([
    rng.normal(loc=0.0, scale=0.15, size=(60, 3)),
    rng.normal(loc=1.5, scale=0.15, size=(60, 3)),
])

graph = build_graph(pts, knn_k=7)
print(f"graph on {graph.n} points, degrees in "
      f"[{graph.degrees.min():.3f}, {graph.degrees.max():.3f}]")

gl = laplacian(graph, p=0.5, q=0.5)
spec = low_spectrum(gl, K=8)
print("8 lowest eigenvalues:", np.array2string(spec.eigenvalues, precision=4))
print(f"all eigenvalues sit in [0, a] with a = {gl.shift_bound:.3f}")

# D^q 1 spans the kernel of every member of the normalization family
kv = graph.degrees**gl.q
print(f"kernel vector residual |L D^q 1|_max = {np.abs(gl.matrix() @ kv).max():.2e}")

# the random-walk variant (p, q) = (1, 0) is self-adjoint under the
# degree-weighted inner product, not the Euclidean one
rw = laplacian(graph, p=1.0, q=0.0)
print(f"(1,0) self-adjointness residual: {self_adjointness_check(rw):.2e}")

# tau defaults to the smallest eigenvalue that is not numerically zero;
# here that is the spectral gap between the blob modes and the rest
tau = choose_tau(spec)
print(f"suggested tau = {tau:.4f}")

# the two near-zero modes are per-blob indicators (degree-modulated):
# each concentrates its mass on one cloud
coords = embed(spec, 2)
for j in range(2):
    mass_a = np.square(coords[:60, j]).sum()
    mass_b = np.square(coords[60:, j]).sum()
    side = "A" if mass_a > mass_b else "B"
    print(f"embedding mode {j}: {100 * max(mass_a, mass_b):.1f}% "
          f"of its mass on blob {side}")
