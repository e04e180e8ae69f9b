"""High-fidelity acquisition: pick M points by clustering the spectral
embedding, and order the rows so the picks come first.

The pipeline convention downstream is that observed rows are the FIRST M
rows; the plan built here is the one place that ordering is constructed,
and callers apply its permutation to their own rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import frozen
from .exceptions import (
    EmptyCluster,
    InvalidConfig,
)
from .spectral import Spectrum, embed

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300


def _kmeanspp_init(points: np.ndarray, m: int, rng) -> np.ndarray:
    """Seed centroids by distance-squared-weighted sampling."""
    n = points.shape[0]
    centroids = np.empty((m, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, m):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass at existing centroids; reuse any point
            centroids[j] = points[rng.integers(n)]
            continue
        centroids[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int):
    """Lloyd iteration; empty clusters are re-seeded, in cluster order, to
    the point farthest from its current centroid (lowest index on ties).
    Re-seeding cannot keep a cluster when embedding rows coincide: a
    centroid placed on a point ties with the lower cluster its twins sit
    in, ties go to the lower cluster, and the cluster ends empty.

    Each centroid is one ``bincount`` sum per column, over its member
    count.  Like ``mean(axis=0)`` of the members' rows, it adds them in
    index order to +0.0, so members that are all -0.0 (``_fix_signs``
    makes such entries) average to +0.0; with two or more columns the two
    agree bit for bit.  With one column (M = 1) ``mean`` sums pairwise
    instead, so the centroid can differ from it in the last bit.
    """
    n, m = points.shape[0], centroids.shape[0]
    point_sq = np.sum(points**2, axis=1)[:, None]
    columns = np.ascontiguousarray(points.T)

    def sq_dists():
        return point_sq - 2.0 * points @ centroids.T + np.sum(centroids**2, axis=1)[None, :]

    assignment = np.full(n, -1, dtype=np.intp)
    for _ in range(max_iter):
        d2 = sq_dists()
        new_assignment = np.argmin(d2, axis=1)  # argmin ties -> lower cluster
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        counts = np.bincount(assignment, minlength=m)
        sums = np.stack([np.bincount(assignment, col, m) for col in columns], axis=1)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
        dist_to_own = d2[np.arange(n), assignment]
        for c in np.flatnonzero(~filled):
            far = int(np.argmax(dist_to_own))
            centroids[c] = points[far]
            dist_to_own[far] = 0.0  # a point re-seeds at most one cluster
    d2 = sq_dists()
    assignment = np.argmin(d2, axis=1)
    wcss = float(d2[np.arange(n), assignment].sum())
    return centroids, assignment, wcss


def kmeans(
    points: np.ndarray,
    m: int,
    seed: int,
):
    """k-means with k-means++ starts; keeps the lowest-WCSS of
    ``KMEANS_RESTARTS`` restarts.

    Parameters
    ----------
    points : ndarray, shape (N, dim)
    m : int
        Cluster count, m <= N.
    seed : int
        Master seed; restarts draw from one seeded stream, so identical
        inputs give identical output.

    Returns
    -------
    (centroids, assignment) : (m, dim) ndarray and length-N int array
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= m <= n:
        raise InvalidConfig(f"cluster count must be in [1, {n}], got {m}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_RESTARTS):
        init = _kmeanspp_init(points, m, rng)
        centroids, assignment, wcss = _lloyd(points, init.copy(), KMEANS_MAX_ITER)
        if best is None or wcss < best[2]:
            best = (centroids, assignment, wcss)
    return best[0], best[1]


@dataclass(frozen=True)
class AcquisitionPlan:
    """Which rows to observe, and the re-indexing that puts them first."""

    selected_indices: tuple
    permutation: tuple
    centroids: np.ndarray
    cluster_assignment: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "selected_indices", tuple(int(i) for i in self.selected_indices))
        object.__setattr__(self, "permutation", tuple(int(i) for i in self.permutation))
        object.__setattr__(self, "centroids", frozen(self.centroids))
        object.__setattr__(self, "cluster_assignment", frozen(self.cluster_assignment, np.intp))
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(n)):
            raise InvalidConfig("permutation must be a bijection on 0..N-1")
        m = len(self.selected_indices)
        if not m:
            raise InvalidConfig("selected_indices is empty: a plan selects at least one row")
        if self.permutation[:m] != self.selected_indices:
            raise InvalidConfig("permutation must lead with the selected indices")
        if len(set(self.selected_indices)) != m:
            raise InvalidConfig("selected indices must be distinct")

    @property
    def m(self) -> int:
        return len(self.selected_indices)


def plan_acquisition(
    spectrum: Spectrum,
    m: int,
    seed: int,
) -> AcquisitionPlan:
    """Choose M observation points by k-means in the spectral embedding.

    Embeds every point with the first ``m`` eigenvectors, clusters into
    ``m`` groups, picks the member nearest each centroid (lowest index on
    ties), and returns the permutation that moves the picks to the front
    while preserving the relative order of the remaining rows.

    Raises
    ------
    InvalidConfig
        When ``m`` is not in [1, N].
    InsufficientSpectrum
        When the spectrum holds fewer than ``m`` eigenvectors.
    EmptyCluster
        When k-means ends with an empty cluster, as it can when embedding
        rows coincide (see :func:`_lloyd`).
    """
    n = spectrum.n
    if not 1 <= m <= n:
        raise InvalidConfig(f"M must be in [1, {n}], got {m}")
    points = embed(spectrum, m)
    centroids, assignment = kmeans(points, m, seed)
    selected = []
    for c in range(m):
        members = np.flatnonzero(assignment == c)
        if members.size == 0:
            raise EmptyCluster(f"cluster {c} is empty")
        dists = np.linalg.norm(points[members] - centroids[c], axis=1)
        selected.append(int(members[np.argmin(dists)]))  # argmin: lowest index wins ties
    chosen = set(selected)
    rest = [i for i in range(n) if i not in chosen]
    return AcquisitionPlan(
        selected_indices=tuple(selected),
        permutation=tuple(selected) + tuple(rest),
        centroids=centroids,
        cluster_assignment=assignment,
        seed=seed,
    )


def plan_to_json(plan: AcquisitionPlan, **record) -> str:
    """Serialize a plan for the two-phase CLI workflow, with the JSON-ready
    values of ``record`` as further keys."""
    return json.dumps(
        {
            "selected_indices": list(plan.selected_indices),
            "permutation": list(plan.permutation),
            "seed": plan.seed,
            "centroids": plan.centroids.tolist(),
            "cluster_assignment": plan.cluster_assignment.tolist(),
            **record,
        },
        indent=2,
    )


def plan_from_json(text: str) -> tuple[AcquisitionPlan, dict]:
    """Inverse of :func:`plan_to_json`: the plan, and the whole JSON
    object, which holds the ``record`` keys too."""
    try:
        raw = json.loads(text)
        plan = AcquisitionPlan(
            selected_indices=tuple(raw["selected_indices"]),
            permutation=tuple(raw["permutation"]),
            centroids=np.asarray(raw["centroids"], dtype=np.float64),
            cluster_assignment=np.asarray(raw["cluster_assignment"], dtype=np.intp),
            seed=int(raw["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"malformed acquisition plan: {exc}") from exc
    return plan, raw
