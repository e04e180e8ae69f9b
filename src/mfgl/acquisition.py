"""High-fidelity acquisition: pick M points by clustering the spectral
embedding, and order the rows so the picks come first.

The pipeline convention downstream is that observed rows are the FIRST M
rows; the plan built here is the one place that ordering is constructed,
and callers apply its permutation to their own rows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import matio
from .config import Normalization, PipelineConfig, check_fields, same_setting
from .data import NormalizationSpec, frozen
from .exceptions import EmptyCluster, InvalidConfig, MatrixIOError
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
        # rng.choice(n, p=d2 / total) without its checks on p: the same
        # draw from the same one number of the stream
        cdf = (d2 / total).cumsum()
        cdf /= cdf[-1]
        centroids[j] = points[cdf.searchsorted(rng.random(), side="right")]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int):
    """Lloyd iteration; empty clusters are re-seeded, in cluster order, to
    the point farthest from its current centroid (lowest index on ties).
    Re-seeding cannot keep a cluster when embedding rows coincide: a
    centroid placed on a point ties with the lower cluster its twins sit
    in, ties go to the lower cluster, and the cluster ends empty.

    The centroid sums are one ``bincount`` over (cluster, column) bins,
    each over its member count.  Like ``mean(axis=0)`` of the members'
    rows, a bin adds them in index order to +0.0, so members that are all
    -0.0 (``_fix_signs`` makes such entries) average to +0.0; with two or
    more columns the two agree bit for bit.  With one column (M = 1)
    ``mean`` sums pairwise instead, so the centroid can differ from it in
    the last bit.
    """
    (n, dim), m = points.shape, centroids.shape[0]
    point_sq = np.sum(points**2, axis=1)[:, None]
    values, columns = points.ravel(), np.arange(dim)

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
        bins = (assignment[:, None] * dim + columns).ravel()
        sums = np.bincount(bins, values, m * dim).reshape(m, dim)
        if counts.all():
            np.divide(sums, counts[:, None], out=centroids)
            continue
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


def _array(name: str, values, ndim: int = 1, dtype=np.intp) -> np.ndarray:
    """``values`` as a read-only ``ndim``-D ``dtype`` array, refused unless
    each entry is an integer, or for float64 a real (numpy's count too)."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged list
        a = None
    if a is None or a.ndim != ndim or a.size and a.dtype.kind not in ("iu" if dtype is np.intp else "iuf"):
        raise InvalidConfig(f"{name} must be {ndim}-D, of {np.dtype(dtype).name} values, got {values!r:.60}")
    return frozen(a, dtype)


@dataclass(frozen=True, eq=False)
class AcquisitionPlan:
    """Which rows to observe, and the re-indexing that puts them first,
    with the k-means that chose them: M x M centroids in the embedding,
    and each row's cluster, in [0, M)."""

    selected_indices: tuple
    permutation: tuple
    centroids: np.ndarray
    cluster_assignment: np.ndarray
    seed: int = same_setting(PipelineConfig, "seed", required=True)

    def __post_init__(self):
        for name in ("selected_indices", "permutation"):
            object.__setattr__(self, name, tuple(_array(name, getattr(self, name)).tolist()))
        labels = _array("cluster_assignment", self.cluster_assignment)
        object.__setattr__(self, "cluster_assignment", labels)
        object.__setattr__(self, "centroids", _array("centroids", self.centroids, 2, np.float64))
        check_fields(self)
        n, m = len(self.permutation), len(self.selected_indices)
        if sorted(self.permutation) != list(range(n)):
            raise InvalidConfig("permutation must be a bijection on 0..N-1")
        if not m:
            raise InvalidConfig("selected_indices is empty: a plan selects at least one row")
        if self.permutation[:m] != self.selected_indices:
            raise InvalidConfig("permutation must lead with the selected indices")
        if labels.shape != (n,) or labels.min() < 0 or labels.max() >= m:
            raise InvalidConfig(f"cluster_assignment must hold one label in [0, {m}) per row")
        if self.centroids.shape != (m, m):
            raise InvalidConfig(f"centroids must be {m} x {m}, got shape {self.centroids.shape}")

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


@dataclass(frozen=True, eq=False)
class PlanRecord:
    """The planning step's result and the plan directory that holds it, in
    solve order (the plan's permutation, selected rows first): ``plan.json``
    holds the plan's fields, then the record's others, and
    ``spectrum_permuted.bin`` the eigenvalues, then one eigenvector row per
    point.  ``lf_input_sha256`` hashes the float64 rows plan parsed, in input
    order, ``normalization_stats`` holds the arrays of :attr:`nspec`, and the
    last five fields are the settings that shaped the graph prior."""

    plan: AcquisitionPlan
    lf_input_sha256: str
    spectrum: Spectrum
    normalization_stats: dict
    knn_k: int = same_setting(PipelineConfig, "knn_k", required=True)
    p: float = same_setting(PipelineConfig, "p", required=True)
    q: float = same_setting(PipelineConfig, "q", required=True)
    K: Optional[int] = same_setting(PipelineConfig, "K", required=True)
    normalization: Normalization = same_setting(PipelineConfig, "normalization", required=True)

    def __post_init__(self):
        check_fields(self)
        try:
            stats = {k: frozen(v) for k, v in self.normalization_stats.items()}
            NormalizationSpec(self.normalization, **stats)
        except (TypeError, ValueError, InvalidConfig) as exc:
            raise InvalidConfig(f"malformed normalization_stats: {exc}") from exc
        object.__setattr__(self, "normalization_stats", stats)

    @property
    def nspec(self) -> NormalizationSpec:
        """The planning normalization."""
        return NormalizationSpec(self.normalization, **self.normalization_stats)

    @classmethod
    def of(cls, config: PipelineConfig, plan: AcquisitionPlan, nspec: NormalizationSpec,
           spectrum: Spectrum, lf_input_sha256: str) -> PlanRecord:
        """The record of ``plan``, planned under ``config`` with ``nspec`` and ``spectrum``."""
        stats = {k: v for k, v in vars(nspec).items() if k != "mode" and v is not None}
        return cls(plan, lf_input_sha256, spectrum, stats, **{k: getattr(config, k) for k in _SETTINGS})

    def write(self, outdir: Path) -> Path:
        """Write ``plan.json`` and ``spectrum_permuted.bin`` into
        ``outdir``; return the plan file."""
        plan, spectrum, plan_file = self.plan, self.spectrum, Path(outdir) / "plan.json"
        plan_file.write_text(json.dumps({
            "selected_indices": list(plan.selected_indices),
            "permutation": list(plan.permutation),
            "seed": plan.seed,
            "centroids": plan.centroids.tolist(),
            "cluster_assignment": plan.cluster_assignment.tolist(),
            "lf_input_sha256": self.lf_input_sha256,
            "shift_a": spectrum.shift_a,
            "normalization_stats": {k: v.tolist() for k, v in self.normalization_stats.items()},
            **_settings(self),
        }, indent=2) + "\n")
        matio.write_binary(plan_file.with_name(_SPECTRUM_FILE),
                           iter((spectrum.eigenvalues, spectrum.eigenvectors)))
        return plan_file

    @classmethod
    def read(cls, path, config: PipelineConfig, lf: np.ndarray) -> PlanRecord:
        """The record of the ``plan.json`` at ``path`` and the spectrum file
        beside it, refused if ``plan.json`` is malformed (``InvalidConfig``,
        naming the file and the key), then if the spectrum file is not the
        record's own (N + 1) x K or not finite (``MatrixIOError``), then if
        the record was made for other settings than ``config``'s or other
        rows than ``lf`` (solve order, ``InvalidConfig``)."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except ValueError as exc:
            raise InvalidConfig(f"{path} is not valid JSON: {exc}") from exc
        raw = raw if isinstance(raw, dict) else {}  # lacks every key
        missing = [k for k in _JSON_KEYS if k not in raw]
        if missing:
            raise InvalidConfig(f"{path} lacks {', '.join(missing)}; run plan again")
        unknown = [k for k in raw if k not in _JSON_KEYS]
        if unknown:
            raise InvalidConfig(f"{path} holds unknown keys: {', '.join(unknown)}")
        mode = raw["normalization"]  # a member, or the value check_fields refuses by name
        mode = Normalization(mode) if mode in [e.value for e in Normalization] else mode
        try:
            plan = AcquisitionPlan(**{k: raw[k] for k in _PLAN_KEYS})
            n, file = len(plan.permutation), path.with_name(_SPECTRUM_FILE)
            shape = (n + 1, PipelineConfig(m=plan.m, K=raw["K"]).spectrum_size(n))  # the plan's K
            table = matio.read_binary(file)
            if table.shape != shape:
                raise MatrixIOError(f"{file} is {table.shape}, not {shape}")
            if not np.isfinite(table).all():
                raise MatrixIOError(f"{file} holds a non-finite entry")
            record = cls(plan, raw["lf_input_sha256"], Spectrum(table[0], table[1:], raw["shift_a"]),
                         **{k: raw[k] for k in ("normalization_stats", *_SETTINGS)} | {"normalization": mode})
            record._check(config, lf)
        except InvalidConfig as exc:
            raise InvalidConfig(f"{path}: {exc}") from exc
        return record

    def _check(self, config: PipelineConfig, lf: np.ndarray) -> None:
        """Refuse other settings than the record's, and other rows than
        plan hashed, whose SHA-256 is taken in input order, a row at a
        time, with no reordered copy."""
        given, made = _settings(config), _settings(self)
        differ = [f"{k}={given[k]!r} (plan: {made[k]!r})" for k in made if given[k] != made[k]]
        if differ:
            raise InvalidConfig(f"the plan was made with other graph settings: {', '.join(differ)}")
        perm, digest = self.plan.permutation, hashlib.sha256()
        if len(lf) == len(perm):  # rows of another count hash to nothing
            for i in np.argsort(perm):
                digest.update(lf[i])
        if digest.hexdigest() != self.lf_input_sha256:
            raise InvalidConfig("lf_input_sha256 is not the hash of the rows given: "
                                "they are not the rows plan copied to lf_permuted")
        if "mean" in self.normalization_stats and self.normalization_stats["mean"].shape != lf.shape[1:]:
            raise InvalidConfig(f"normalization_stats is for rows of another width than {lf.shape[1]}")


# The plan's keys in plan.json, the record's graph-prior settings, all
# the keys of plan.json in their order, and the spectrum file beside it.
_PLAN_KEYS = ("selected_indices", "permutation", "seed", "centroids", "cluster_assignment")
_SETTINGS = tuple(f.name for f in fields(PlanRecord) if f.name in PipelineConfig.__dataclass_fields__)
_JSON_KEYS = (*_PLAN_KEYS, "lf_input_sha256", "shift_a", "normalization_stats", *_SETTINGS)
_SPECTRUM_FILE = "spectrum_permuted.bin"


def _settings(record) -> dict:
    """The graph-prior settings of a record or a config, as plan.json holds them."""
    return {k: getattr(record, k) for k in _SETTINGS} | {"normalization": record.normalization.value}
