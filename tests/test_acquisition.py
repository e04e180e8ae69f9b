import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_points
from mfgl.acquisition import (
    AcquisitionPlan,
    PlanRecord,
    kmeans,
    plan_acquisition,
    _kmeanspp_init,
    _lloyd,
)
from mfgl.bench import Generator, generate, plan_rows
from mfgl.config import Normalization, PipelineConfig
from mfgl.exceptions import EmptyCluster, InsufficientSpectrum, InvalidConfig, MatrixIOError
from mfgl.graph import build_graph, laplacian
from mfgl.spectral import Spectrum, embed, low_spectrum


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


def _lloyd_sorted_reference(points, centroids, max_iter):
    """The sorted-slice Lloyd loop `_lloyd` replaced: a stable argsort
    groups each cluster's members in index order, and each centroid is
    their ``mean``; its outputs are the bitwise reference for the
    ``bincount`` update."""
    n, m = points.shape[0], centroids.shape[0]
    point_sq = np.sum(points**2, axis=1)[:, None]

    def sq_dists():
        return point_sq - 2.0 * points @ centroids.T + np.sum(centroids**2, axis=1)[None, :]

    assignment = np.full(n, -1, dtype=np.intp)
    for _ in range(max_iter):
        d2 = sq_dists()
        new_assignment = np.argmin(d2, axis=1)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        dist_to_own = d2[np.arange(n), assignment]
        grouped = points[np.argsort(assignment, kind="stable")]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(assignment, minlength=m))))
        for c in range(m):
            lo, hi = bounds[c], bounds[c + 1]
            if hi > lo:
                centroids[c] = grouped[lo:hi].mean(axis=0)
            else:
                far = int(np.argmax(dist_to_own))
                centroids[c] = points[far]
                dist_to_own[far] = 0.0
    d2 = sq_dists()
    assignment = np.argmin(d2, axis=1)
    wcss = float(d2[np.arange(n), assignment].sum())
    return centroids, assignment, wcss


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(1, 50),
    dim=st.integers(2, 6),
    m=st.integers(1, 8),
    zero_share=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    duplicates=st.integers(0, 7),
    far=st.booleans(),
    max_iter=st.sampled_from([1, 2, 300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lloyd_bitwise_equal_to_sorted_slice_loop(n, dim, m, zero_share, duplicates, far,
                                                   max_iter, seed):
    # random points with a share of signed zeros (_fix_signs leaves -0.0
    # entries), started from centroids that leave clusters empty: copies of
    # the first one, and one far from every point
    m = min(m, n)
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    zeros = rng.random((n, dim)) < zero_share
    points[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    init = points[rng.integers(n, size=m)]
    init[1:1 + duplicates] = init[0]
    if far and m > 1:
        init[-1] = 1e3
    got = _lloyd(points, init.copy(), max_iter)
    want = _lloyd_sorted_reference(points, init.copy(), max_iter)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


def _kmeanspp_choice_reference(points, m, rng):
    """The k-means++ seeding `_kmeanspp_init` replaced, which draws each
    centroid with ``rng.choice``; the bitwise reference for its draws."""
    n = points.shape[0]
    centroids = np.empty((m, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, m):
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = points[rng.integers(n)]
            continue
        centroids[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    points=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 5)),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
    m=st.integers(1, 10),
    coincident=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeanspp_init_draws_as_rng_choice(points, m, coincident, seed):
    # the same centroids as rng.choice, and the stream left where it leaves
    # it; all points coincident take the zero-mass path after the first draw
    m = min(m, len(points))
    if coincident:
        points[:] = points[0]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _kmeanspp_init(points, m, got_rng)
    want = _kmeanspp_choice_reference(points, m, want_rng)
    assert got.tobytes() == want.tobytes()
    assert got_rng.random() == want_rng.random()


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
    assert p1.seed == p2.seed


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


def test_plan_refuses_coinciding_embedding_rows():
    # every row embeds at one point: each re-seeded centroid ties with
    # cluster 0, ties go to the lower cluster, so clusters 1 and 2 end empty
    spec = Spectrum(eigenvalues=np.arange(4.0), eigenvectors=np.ones((10, 4)), shift_a=2.0)
    assert not kmeans(embed(spec, 3), 3, 0)[1].any()
    with pytest.raises(EmptyCluster, match="cluster 1 is empty"):
        plan_acquisition(spec, 3, 0)


def test_plan_validation_rules():
    with pytest.raises(InvalidConfig):
        AcquisitionPlan(
            selected_indices=(1, 2),
            permutation=(0, 1, 2),  # does not lead with selections
            seed=0,
        )
    with pytest.raises(InvalidConfig):
        AcquisitionPlan(
            selected_indices=(0,),
            permutation=(0, 0, 1),  # not a bijection
            seed=0,
        )
    # a plan selects at least one row, so no estimate starts without one
    with pytest.raises(InvalidConfig, match="selected_indices is empty"):
        AcquisitionPlan(
            selected_indices=(),
            permutation=(0, 1, 2),
            seed=0,
        )
    # a valid one-row plan of three rows, then one field at a time made wrong
    valid = dict(selected_indices=(1,), permutation=(1, 0, 2), seed=0)
    assert AcquisitionPlan(**valid).m == 1
    # numpy integers are integers
    plan = AcquisitionPlan(**valid | {"selected_indices": (np.int64(1),),
                                      "permutation": np.array([1, 0, 2], dtype=np.int32)})
    assert plan.permutation == (1, 0, 2) and type(plan.permutation[0]) is int
    for field, value, says in [
        ("selected_indices", (1.7,), "selected_indices must be 1-D, of int"),
        ("permutation", (1.0, 0, 2), "permutation must be 1-D, of int"),
        ("selected_indices", (True,), "selected_indices must be 1-D"),
        ("seed", True, "seed must be of type int"),
        ("seed", 2.0, "seed must be of type int"),
        ("seed", -3, "seed must be non-negative"),
    ]:
        with pytest.raises(InvalidConfig, match=says):
            AcquisitionPlan(**valid | {field: value})


def test_records_of_arrays_compare_by_identity_and_hash():
    # value equality would compare the arrays elementwise and raise
    a, b = (Spectrum(np.zeros(1), np.ones((3, 1)), 1.0) for _ in range(2))
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2  # both hash
    # a plan, of tuples, and settings records keep value equality
    fields = dict(selected_indices=(1,), permutation=(1, 0, 2), seed=0)
    assert AcquisitionPlan(**fields) == AcquisitionPlan(**fields)
    assert len({AcquisitionPlan(**fields), AcquisitionPlan(**fields)}) == 1
    assert PipelineConfig(m=2) == PipelineConfig(m=2)


def planned_record(lf, config):
    """The plan directory's record of ``lf``, as ``mfgl plan`` makes it."""
    return plan_rows(lf, config).record


def assert_same_record(a, b):
    assert a.plan == b.plan
    for name in ("lf_input_sha256", "knn_k", "p", "q", "K", "normalization"):
        assert getattr(a, name) == getattr(b, name)
    assert a.spectrum.shift_a == b.spectrum.shift_a
    assert a.normalization_stats.keys() == b.normalization_stats.keys()
    for key, stats in a.normalization_stats.items():
        assert b.normalization_stats[key].tobytes() == stats.tobytes()


@pytest.mark.parametrize("normalization", ["none", "component"])
def test_plan_json_round_trip(tmp_path, normalization):
    lf = random_points(15, 2, seed=8)
    config = PipelineConfig(m=3, seed=5, normalization=Normalization(normalization))
    record = planned_record(lf, config)
    plan_file = record.write(tmp_path)
    assert plan_file == tmp_path / "plan.json"
    # read with the rows in solve order, as estimate reads lf_permuted
    back = PlanRecord.read(plan_file, config, lf[list(record.plan.permutation)])
    assert_same_record(back, record)
    eig, spectrum = back.spectrum, record.spectrum
    assert eig.eigenvalues.tobytes() == spectrum.eigenvalues.tobytes()
    assert eig.eigenvectors.tobytes() == spectrum.eigenvectors.tobytes()
    assert eig.shift_a == spectrum.shift_a
    # what was read writes the same bytes again
    (tmp_path / "again").mkdir()
    again = back.write(tmp_path / "again")
    for name in ("plan.json", "spectrum_permuted.bin"):
        assert again.with_name(name).read_bytes() == plan_file.with_name(name).read_bytes()
    # plain JSON, readable by anything, in plan.json's key order
    assert list(json.loads(plan_file.read_text())) == [
        "selected_indices", "permutation", "seed", "lf_input_sha256", "shift_a",
        "normalization_stats", "knn_k", "p", "q", "K", "normalization"]


def test_plan_json_rejects_garbage(tmp_path):
    lf = random_points(15, 2, seed=8)
    config = PipelineConfig(m=3, seed=5)
    record = planned_record(lf, config)
    plan_file = record.write(tmp_path)
    rows = lf[list(record.plan.permutation)]
    good = json.loads(plan_file.read_text())

    def refused(raw, match, config=config, rows=rows):
        plan_file.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        with pytest.raises(InvalidConfig, match=match) as info:
            PlanRecord.read(plan_file, config, rows)
        assert str(plan_file) in str(info.value)

    refused("{not json", "not valid JSON")
    refused([1, 2], "lacks selected_indices")
    refused({"selected_indices": [0]}, "lacks permutation, seed")  # missing keys
    refused(good | {"note": "kept"}, "unknown keys: note")
    # a plan directory that still holds the k-means by-products is planned again
    refused(good | {"centroids": [[0.0]], "cluster_assignment": [0]},
            "unknown keys: centroids, cluster_assignment")
    refused(good | {"knn_k": 7.0}, "knn_k must be of type int")
    refused(good | {"seed": "5"}, "seed must be of type int")
    refused(good | {"normalization": "bogus"}, "unknown normalization 'bogus'")
    refused(good | {"normalization": "instance"}, "unknown normalization 'instance'")
    refused(good | {"lf_input_sha256": 0}, "lf_input_sha256 must be of type str")
    refused(good | {"permutation": [[0], [1, 2]]}, "permutation must be 1-D")
    refused(good | {"normalization_stats": {"mean": [0.0, 0.0]}}, "normalization_stats")
    refused(good | {"normalization_stats": None}, "normalization_stats must be of type dict")
    refused(good, r"knn_k=5 \(plan: 7\)", config=PipelineConfig(m=3, knn_k=5))
    refused(good, "lf_input_sha256", rows=rows[::-1])
    plan_file.write_text(json.dumps(good))
    (tmp_path / "spectrum_permuted.bin").write_bytes(b"MFGL")
    with pytest.raises(MatrixIOError, match="spectrum_permuted.bin"):
        PlanRecord.read(plan_file, config, rows)


def test_plan_record_refuses_stats_that_do_not_fit(tmp_path):
    lf = random_points(15, 2, seed=8)
    config = PipelineConfig(m=3, seed=5, normalization=Normalization.COMPONENT)
    record = planned_record(lf, config)
    mean, std = record.normalization_stats["mean"], record.normalization_stats["std"]
    for stats in ({"mean": mean, "std": std[:1]},  # of another length
                  {"mean": mean[None], "std": std[None]},  # not a vector
                  {"mean": mean, "std": std, "scales": np.ones(15)},  # a key too many
                  {"mean": [np.inf, 0.0], "std": std}):  # not finite
        with pytest.raises(InvalidConfig, match="normalization_stats"):
            PlanRecord(**vars(record) | {"normalization_stats": stats})
    # statistics of another width than the rows, which only the reader sees
    wide = PlanRecord(**vars(record) | {"normalization_stats": {"mean": np.zeros(3), "std": np.ones(3)}})
    with pytest.raises(InvalidConfig, match="normalization_stats is for rows of another width than 2"):
        PlanRecord.read(wide.write(tmp_path), config, lf[list(record.plan.permutation)])


@pytest.mark.parametrize("m", [0, 21])
def test_kmeans_refuses_a_cluster_count_outside_one_to_n(m):
    with pytest.raises(InvalidConfig, match=r"cluster count must be in \[1, 20\]"):
        kmeans(random_points(20, 2, 0), m, seed=0)


def test_plan_acquisition_refuses_m_zero():
    spectrum = Spectrum(eigenvalues=np.array([0.0, 1.0]), eigenvectors=np.eye(20)[:, :2],
                        shift_a=2.0)
    with pytest.raises(InvalidConfig, match=r"M must be in \[1, 20\]"):
        plan_acquisition(spectrum, 0, seed=0)
