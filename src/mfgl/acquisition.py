"""High-fidelity acquisition: pick M points by clustering the spectral
embedding, then re-index the dataset so the picks come first.

The pipeline convention downstream is that observed rows are the FIRST M
rows; this module is the only place allowed to construct that ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset, frozen
from .exceptions import (
    EmptyCluster,
    InsufficientSpectrum,
    InvalidConfig,
    RowCountMismatch,
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
    """Lloyd iteration; empty clusters are re-seeded to the point farthest
    from its current centroid (lowest index on ties)."""
    n, m = points.shape[0], centroids.shape[0]
    point_sq = np.sum(points**2, axis=1)[:, None]

    def sq_dists():
        return point_sq - 2.0 * points @ centroids.T + np.sum(centroids**2, axis=1)[None, :]

    assignment = np.full(n, -1, dtype=np.intp)
    for _ in range(max_iter):
        d2 = sq_dists()
        new_assignment = np.argmin(d2, axis=1)  # argmin ties -> lower cluster
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        dist_to_own = d2[np.arange(n), assignment]
        # a stable sort keeps each cluster's members in index order, so a
        # slice holds the same rows, in the same order, as a boolean mask
        grouped = points[np.argsort(assignment, kind="stable")]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(assignment, minlength=m))))
        for c in range(m):
            lo, hi = bounds[c], bounds[c + 1]
            if hi > lo:
                centroids[c] = grouped[lo:hi].mean(axis=0)
            else:
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
    embed_dim: int

    def __post_init__(self):
        object.__setattr__(self, "selected_indices", tuple(int(i) for i in self.selected_indices))
        object.__setattr__(self, "permutation", tuple(int(i) for i in self.permutation))
        object.__setattr__(self, "centroids", frozen(self.centroids))
        object.__setattr__(self, "cluster_assignment", frozen(self.cluster_assignment, np.intp))
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(n)):
            raise InvalidConfig("permutation must be a bijection on 0..N-1")
        m = len(self.selected_indices)
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
    embed_dim: Optional[int] = None,
) -> AcquisitionPlan:
    """Choose M observation points by k-means in the spectral embedding.

    Embeds every point with the first ``m`` eigenvectors (override with
    ``embed_dim``), clusters into ``m`` groups, picks the member nearest
    each centroid (lowest index on ties), and returns the permutation that
    moves the picks to the front while preserving the relative order of
    the remaining rows.

    Raises
    ------
    InsufficientSpectrum
        When the spectrum holds fewer than ``embed_dim`` eigenvectors.
    """
    n = spectrum.n
    if not 1 <= m <= n:
        raise InvalidConfig(f"M must be in [1, {n}], got {m}")
    dim = m if embed_dim is None else embed_dim
    if spectrum.K < dim:
        raise InsufficientSpectrum(
            f"planning needs {dim} eigenvectors, spectrum holds {spectrum.K}"
        )
    points = embed(spectrum, dim)
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
        embed_dim=dim,
    )


def apply_permutation(data: Dataset, plan: AcquisitionPlan) -> Dataset:
    """Reorder dataset rows per the plan (selected points first).

    The dataset must not already carry high-fidelity rows: their first-M
    alignment would be silently broken by reordering.  Attach hf to the
    returned dataset instead.
    """
    if len(plan.permutation) != data.n:
        raise RowCountMismatch(
            f"plan covers {len(plan.permutation)} rows, dataset has {data.n}"
        )
    if data.hf is not None:
        raise InvalidConfig(
            "cannot permute a dataset with attached high-fidelity rows"
        )
    rows = data.lf[np.asarray(plan.permutation, dtype=np.intp)]
    rows.setflags(write=False)
    return Dataset(lf=rows)


def plan_to_json(plan: AcquisitionPlan) -> str:
    """Serialize a plan for the two-phase CLI workflow."""
    return json.dumps(
        {
            "selected_indices": list(plan.selected_indices),
            "permutation": list(plan.permutation),
            "seed": plan.seed,
            "embed_dim": plan.embed_dim,
            "centroids": plan.centroids.tolist(),
            "cluster_assignment": plan.cluster_assignment.tolist(),
        },
        indent=2,
    )


def plan_from_json(text: str) -> AcquisitionPlan:
    """Inverse of :func:`plan_to_json`."""
    try:
        raw = json.loads(text)
        return AcquisitionPlan(
            selected_indices=tuple(raw["selected_indices"]),
            permutation=tuple(raw["permutation"]),
            centroids=np.asarray(raw["centroids"], dtype=np.float64),
            cluster_assignment=np.asarray(raw["cluster_assignment"], dtype=np.intp),
            seed=int(raw["seed"]),
            embed_dim=int(raw["embed_dim"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"malformed acquisition plan: {exc}") from exc
