"""Shared builders for the test suite."""
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

import mfgl
from mfgl.graph import AffinityGraph, build_graph, laplacian
from mfgl.matio import write_csv

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 result does not depend on earlier runs.
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")


def random_points(n, d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d))


def hand_graph(w):
    """The graph of a weight matrix W given in full, dense or sparse: its
    strict upper triangle and its row sums, summed as scipy sums a CSR W."""
    w = sp.csr_array(w, dtype=np.float64)
    return AffinityGraph(upper=sp.triu(w, 1, format="csr"), degrees=w.sum(axis=1))


def small_laplacian(n=20, d=3, seed=0, p=0.5, q=0.5, knn_k=5):
    lf = random_points(n, d, seed)
    return laplacian(build_graph(lf, knn_k=knn_k), p, q)


def two_blob_points(n_per=15, gap=0.8, spread=0.1, d=2, seed=0):
    """Two Gaussian blobs whose kernel cross-weights are tiny but nonzero."""
    rng = np.random.default_rng(seed)
    a = spread * rng.normal(size=(n_per, d))
    b = spread * rng.normal(size=(n_per, d))
    b[:, 0] += gap
    return np.vstack([a, b])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def traced_peak(fn):
    """``fn()``'s result and the peak of the memory traced while it ran,
    in bytes.  Every memory bound of the suite is measured here: tracing
    starts after the test's imports and set-up, and stops even if ``fn``
    raises."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refused_peak(fn, error):
    """The ``error`` that ``fn()`` must raise, and the peak of the memory
    traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        with pytest.raises(error) as info:
            fn()
        return info.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_headed_csv(path, a, names=None):
    """``write_csv(path, a)`` under a first line of column ``names``, when
    given: a user's file with a header, which the readers skip on
    request."""
    write_csv(path, a)
    if names is not None:
        path.write_text(",".join(names) + "\n" + path.read_text())


def cli_env():
    """Environment whose PYTHONPATH puts the imported `mfgl` package first."""
    src = str(Path(mfgl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
