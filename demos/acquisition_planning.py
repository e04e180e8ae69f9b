"""Where to spend the high-fidelity budget: spectral k-means planning.

The M observation points are chosen by clustering the spectral embedding
and taking the member nearest each centroid.  On clustered data that
lands exactly one pick per cluster, which is what the propagation step
needs; a uniform random pick routinely doubles up and starves clusters.
"""

import tempfile

import numpy as np

from mfgl.acquisition import PlanRecord, plan_acquisition
from mfgl.bench import plan_rows
from mfgl.config import PipelineConfig
from mfgl.graph import build_graph, laplacian
from mfgl.spectral import low_spectrum

rng = np.random.default_rng(5)

# six tight clusters in 3-D, 40 points each
m = 6
centers = rng.uniform(-4.0, 4.0, size=(m, 3))
pts = np.vstack([c + rng.normal(scale=0.1, size=(40, 3)) for c in centers])
labels = np.repeat(np.arange(m), 40)
shuffle = rng.permutation(pts.shape[0])
pts, labels = pts[shuffle], labels[shuffle]

spec = low_spectrum(laplacian(build_graph(pts, knn_k=7), 0.5, 0.5), K=2 * m)
plan = plan_acquisition(spec, m, seed=0)

picked = labels[list(plan.selected_indices)]
print(f"planned picks cover clusters {sorted(picked.tolist())} "
      f"({len(set(picked.tolist()))} of {m} distinct)")

# how often does a uniform random choice miss a cluster?
misses = 0
trials = 1000
for t in range(trials):
    draw = rng.choice(pts.shape[0], size=m, replace=False)
    misses += len(set(labels[draw].tolist())) < m
print(f"uniform random picks miss at least one cluster "
      f"in {100 * misses / trials:.0f}% of {trials} trials")

# the spectral clustering recovers the true partition itself
agree = 0
for c in range(m):
    members = plan.cluster_assignment == c
    agree += np.bincount(labels[members]).max()
print(f"embedding k-means matches the true partition on "
      f"{100 * agree / pts.shape[0]:.1f}% of points")

# the plan directory mfgl plan writes holds the plan losslessly, and the
# spectrum in solve order bit for bit; the permutation puts the picks first
config = PipelineConfig(m=m, K=2 * m, seed=0)
record = plan_rows(pts, config).record
with tempfile.TemporaryDirectory() as plan_dir:
    rt = PlanRecord.read(record.write(plan_dir), config, pts[list(plan.permutation)])
same = (
    rt.plan.selected_indices == record.plan.selected_indices == plan.selected_indices
    and rt.plan.permutation == plan.permutation
    and np.array_equal(rt.plan.centroids, plan.centroids)
    and np.array_equal(rt.spectrum.eigenvectors, spec.eigenvectors[list(plan.permutation)])
)
print(f"plan directory round trip preserves the plan: {same}")
print(f"permutation head: {plan.permutation[:m]} == picks {plan.selected_indices}")
