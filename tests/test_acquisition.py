import json

import numpy as np
import pytest

from conftest import random_points
from mfgl.acquisition import (
    AcquisitionPlan,
    apply_permutation,
    kmeans,
    plan_acquisition,
    plan_from_json,
    plan_to_json,
    _kmeanspp_init,
    _lloyd,
)
from mfgl.bench import Generator, generate
from mfgl.data import Dataset
from mfgl.exceptions import InsufficientSpectrum, InvalidConfig
from mfgl.graph import build_graph, laplacian
from mfgl.spectral import embed, low_spectrum


def spectrum_for(lf, k, knn_k=5):
    return low_spectrum(laplacian(build_graph(lf, knn_k=knn_k), 0.5, 0.5), k)


def test_kmeans_two_separated_groups(rng):
    pts = np.vstack(
        [
            np.array([0.0, 0.0]) + 0.01 * rng.normal(size=(20, 2)),
            np.array([10.0, 10.0]) + 0.01 * rng.normal(size=(20, 2)),
        ]
    )
    centroids, assignment = kmeans(pts, 2, seed=0)
    order = np.argsort(centroids[:, 0])
    assert np.linalg.norm(centroids[order[0]] - [0.0, 0.0]) < 0.05
    assert np.linalg.norm(centroids[order[1]] - [10.0, 10.0]) < 0.05
    assert len(set(assignment[:20].tolist())) == 1
    assert len(set(assignment[20:].tolist())) == 1


def test_kmeans_every_point_its_own_cluster(rng):
    pts = rng.normal(size=(8, 2))
    centroids, assignment = kmeans(pts, 8, seed=1)
    d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    wcss = d2[np.arange(8), assignment].sum()
    assert wcss == pytest.approx(0.0, abs=1e-24)
    assert sorted(assignment.tolist()) == list(range(8))


def test_kmeans_beats_random_assignments(rng):
    pts = random_points(20, 2, seed=13)
    centroids, assignment = kmeans(pts, 3, seed=0)
    d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    wcss = d2[np.arange(20), assignment].sum()
    worst = np.inf
    for _ in range(1000):
        labels = rng.integers(0, 3, size=20)
        total = 0.0
        for c in range(3):
            members = pts[labels == c]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        worst = min(worst, total)
    assert wcss <= worst + 1e-12


def test_lloyd_reseeds_empty_cluster(rng):
    pts = rng.normal(size=(10, 2))
    # both centroids identical: every point lands in cluster 0, cluster 1
    # must be re-seeded to the farthest point instead of dying
    c0 = pts.mean(axis=0)
    centroids, assignment, wcss = _lloyd(pts, np.vstack([c0, c0]), 50)
    assert len(set(assignment.tolist())) == 2
    assert np.isfinite(wcss)


def _lloyd_mask_reference(points, centroids, max_iter):
    """The boolean-mask Lloyd loop `_lloyd` replaced; its outputs are the
    bitwise reference for the sorted-slice update."""
    n, m = points.shape[0], centroids.shape[0]
    assignment = np.full(n, -1, dtype=np.intp)
    for _ in range(max_iter):
        d2 = (
            np.sum(points**2, axis=1)[:, None]
            - 2.0 * points @ centroids.T
            + np.sum(centroids**2, axis=1)[None, :]
        )
        new_assignment = np.argmin(d2, axis=1)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        dist_to_own = d2[np.arange(n), assignment]
        for c in range(m):
            members = assignment == c
            if np.any(members):
                centroids[c] = points[members].mean(axis=0)
            else:
                far = int(np.argmax(dist_to_own))
                centroids[c] = points[far]
                dist_to_own[far] = 0.0
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
    assignment = np.argmin(d2, axis=1)
    wcss = float(d2[np.arange(n), assignment].sum())
    return centroids, assignment, wcss


def _assert_lloyd_matches_reference(points, init, max_iter=300):
    got = _lloyd(points, init.copy(), max_iter)
    want = _lloyd_mask_reference(points, init.copy(), max_iter)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


@pytest.mark.parametrize("kind", list(Generator))
def test_lloyd_bitwise_equal_to_mask_loop(kind):
    problem = generate(kind, 150, 4, seed=3, clusters=5)
    m = 8
    points = embed(spectrum_for(problem.lf_data, m), m)
    rng = np.random.default_rng(11)
    for _ in range(3):
        _assert_lloyd_matches_reference(points, _kmeanspp_init(points, m, rng))


def test_lloyd_bitwise_equal_to_mask_loop_with_empty_clusters(rng):
    pts = rng.normal(size=(30, 3))
    c0 = pts.mean(axis=0)
    # three identical centroids: clusters 1 and 2 start empty and are
    # re-seeded, each to a different far point
    for max_iter in (1, 2, 50):
        _assert_lloyd_matches_reference(pts, np.vstack([c0, c0, c0]), max_iter)
    # a centroid far from every point stays empty after the first pass
    init = np.vstack([pts[0], pts[1], np.full(3, 1e3)])
    _assert_lloyd_matches_reference(pts, init, 50)


def test_plan_single_point_is_nearest_global_centroid():
    lf = random_points(17, 2, seed=4)
    spec = spectrum_for(lf, 5)
    plan = plan_acquisition(spec, 1, seed=0)
    coords = embed(spec, 1)
    center = coords.mean(axis=0)
    expected = int(np.argmin(np.linalg.norm(coords - center, axis=1)))
    assert plan.selected_indices == (expected,)


def test_plan_hits_every_labeled_cluster():
    problem = generate(Generator.CLUSTERED_SHIFT, 90, 3, seed=2, clusters=3)
    spec = spectrum_for(problem.lf_data, 6)
    plan = plan_acquisition(spec, 3, seed=0)
    labels = problem.cluster_labels[list(plan.selected_indices)]
    assert sorted(labels.tolist()) == [0, 1, 2]


def test_plan_is_deterministic():
    lf = random_points(25, 3, seed=6)
    spec = spectrum_for(lf, 8)
    p1 = plan_acquisition(spec, 4, seed=7)
    p2 = plan_acquisition(spec, 4, seed=7)
    assert p1.selected_indices == p2.selected_indices
    assert p1.permutation == p2.permutation
    assert np.array_equal(p1.centroids, p2.centroids)
    assert plan_to_json(p1) == plan_to_json(p2)


def test_plan_permutation_shape():
    lf = random_points(12, 2, seed=3)
    plan = plan_acquisition(spectrum_for(lf, 6), 3, seed=1)
    assert sorted(plan.permutation) == list(range(12))
    assert plan.permutation[:3] == plan.selected_indices
    rest = [i for i in plan.permutation[3:]]
    assert rest == sorted(rest)  # relative order of the others preserved


def test_plan_needs_enough_eigenvectors():
    lf = random_points(10, 2, seed=1)
    spec = spectrum_for(lf, 3)
    with pytest.raises(InsufficientSpectrum):
        plan_acquisition(spec, 5, seed=0)
    with pytest.raises(InsufficientSpectrum):
        plan_acquisition(spec, 2, seed=0, embed_dim=4)


def test_apply_permutation_identity(rng):
    lf = rng.normal(size=(6, 2))
    spec = spectrum_for(lf, 4, knn_k=3)
    plan = plan_acquisition(spec, 2, seed=0)
    identity = AcquisitionPlan(
        selected_indices=(0, 1),
        permutation=tuple(range(6)),
        centroids=plan.centroids,
        cluster_assignment=plan.cluster_assignment,
        seed=0,
        embed_dim=2,
    )
    out = apply_permutation(Dataset(lf=lf), identity)
    assert np.array_equal(out.lf, lf)


def test_apply_permutation_round_trip(rng):
    lf = rng.normal(size=(6, 2))
    perm = (3, 5, 0, 1, 2, 4)
    plan = AcquisitionPlan(
        selected_indices=(3, 5),
        permutation=perm,
        centroids=np.zeros((2, 2)),
        cluster_assignment=np.zeros(6, dtype=int),
        seed=0,
        embed_dim=2,
    )
    out = apply_permutation(Dataset(lf=lf), plan)
    assert np.array_equal(out.lf, lf[list(perm)])  # gather oracle
    inverse = np.argsort(np.asarray(perm))
    assert np.array_equal(out.lf[inverse], lf)


def test_apply_permutation_refuses_attached_hf(rng):
    lf = rng.normal(size=(6, 2))
    ds = Dataset(lf=lf, hf=lf[:2].copy())
    plan = AcquisitionPlan(
        selected_indices=(3, 5),
        permutation=(3, 5, 0, 1, 2, 4),
        centroids=np.zeros((2, 2)),
        cluster_assignment=np.zeros(6, dtype=int),
        seed=0,
        embed_dim=2,
    )
    with pytest.raises(InvalidConfig):
        apply_permutation(ds, plan)


def test_plan_validation_rules():
    with pytest.raises(InvalidConfig):
        AcquisitionPlan(
            selected_indices=(1, 2),
            permutation=(0, 1, 2),  # does not lead with selections
            centroids=np.zeros((2, 1)),
            cluster_assignment=np.zeros(3, dtype=int),
            seed=0,
            embed_dim=2,
        )
    with pytest.raises(InvalidConfig):
        AcquisitionPlan(
            selected_indices=(0,),
            permutation=(0, 0, 1),  # not a bijection
            centroids=np.zeros((1, 1)),
            cluster_assignment=np.zeros(3, dtype=int),
            seed=0,
            embed_dim=1,
        )


def test_plan_json_round_trip(tmp_path):
    lf = random_points(15, 2, seed=8)
    plan = plan_acquisition(spectrum_for(lf, 6), 3, seed=5)
    back = plan_from_json(plan_to_json(plan))
    assert back.selected_indices == plan.selected_indices
    assert back.permutation == plan.permutation
    assert back.seed == plan.seed
    assert back.embed_dim == plan.embed_dim
    assert np.allclose(back.centroids, plan.centroids)
    assert np.array_equal(back.cluster_assignment, plan.cluster_assignment)

    # the file mfgl plan writes and mfgl estimate reads
    path = tmp_path / "plan.json"
    path.write_text(plan_to_json(plan) + "\n")
    assert plan_from_json(path.read_text()).selected_indices == plan.selected_indices
    # stored as plain JSON, readable by anything
    json.loads(path.read_text())


def test_plan_json_rejects_garbage(tmp_path):
    with pytest.raises(InvalidConfig):
        plan_from_json("{not json")
    with pytest.raises(InvalidConfig):
        plan_from_json(json.dumps({"selected_indices": [0]}))  # missing keys
