"""Landmark-compressed solves: exactness at full rank, O(NK) at scale.

A set of K landmark columns stands in for the whole kernel matrix.  With
all N points as landmarks the compressed posterior reproduces the dense
oracle; with K fixed and N growing, factor and solve cost grow linearly
and nothing N x N is ever formed.
"""

import time

import numpy as np

from mfgl.data import HyperParameters
from mfgl.exceptions import NegativeApproxDegree
from mfgl.graph import build_graph, laplacian, self_tuning_scales, weight_columns
from mfgl.nystrom import (
    CovarianceOperator,
    build_saddle,
    nystrom_factor,
    select_landmarks,
    solve_map_saddle,
)
from mfgl.posterior import dense_posterior

rng = np.random.default_rng(21)

# exactness check: full landmark set vs the dense oracle
n, m = 400, 20
g = build_graph(rng.normal(size=(n, 3)), knn_k=7)
hp = HyperParameters(sigma=0.5, omega=2.0, tau=0.3, beta=1.0)
phi_hat = rng.normal(size=(m, 2))
ref = dense_posterior(laplacian(g, 0.5, 0.5), phi_hat, hp)
lrl = nystrom_factor(g.weights.toarray(), range(n))
ops = build_saddle(lrl, hp, m)
got = solve_map_saddle(lrl, ops, phi_hat)
rel = np.linalg.norm(got - ref.phi_star) / np.linalg.norm(ref.phi_star)
print(f"full landmarks: dense agreement {rel:.2e}")

# at scale: K = 200 landmarks, truncated landmark block.  The kernel has
# a zero diagonal, so the untruncated landmark pseudoinverse can push
# approximate degrees negative; rank_r caps it at a stable core.
k_landmarks, rank_r, m, d = 200, 50, 10, 8
print(f"\nK = {k_landmarks} landmarks, rank_r = {rank_r}, D = {d}")
print(f"{'N':>7} {'factor':>9} {'solve':>9} {'stddevs':>9}")
for n in (2_000, 8_000, 32_000):
    pts = rng.uniform(size=(n, d))
    scales = self_tuning_scales(pts, 7)
    landmarks = select_landmarks(n, m, k_landmarks, seed=0)
    phi_hat = rng.normal(size=(m, d))

    t0 = time.perf_counter()
    lrl = nystrom_factor(
        lambda idx: weight_columns(pts, scales, idx), landmarks, rank_r=rank_r
    )
    t_factor = time.perf_counter() - t0
    ops = build_saddle(lrl, hp, m)
    t0 = time.perf_counter()
    solve_map_saddle(lrl, ops, phi_hat)
    t_solve = time.perf_counter() - t0
    t0 = time.perf_counter()
    np.sqrt(CovarianceOperator(lrl, ops).diagonal())
    t_std = time.perf_counter() - t0
    print(f"{n:7d} {t_factor:8.3f}s {t_solve:8.3f}s {t_std:8.3f}s")

# what the flag is protecting against
try:
    nystrom_factor(lambda idx: weight_columns(pts, scales, idx), landmarks)
except NegativeApproxDegree as exc:
    print(f"\nsame factorization without rank_r: {type(exc).__name__}")
