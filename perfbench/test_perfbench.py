"""Self-checks of the benchmark: tracing, failure accounting, output checks.

Run from the repository root with ``python -m pytest perfbench``.  The
workloads are shrunk so that the checks take seconds.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mfgl import bench, matio  # noqa: E402

SMALL = {
    name: dataclasses.replace(w, n=300, d=min(w.d, 16), instances=1)
    for name, w in workloads.WORKLOADS.items()
}
COUNTS = (".calls", ".handle_calls")


def traced_ops(w, tmp_path, ops=2):
    instances = workloads.setup(w, 0, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        loop = run.closed_loop(w, instances * ops, 0, tracer)
    assert not loop["failures"] and not loop["problems"]
    return tracer


@pytest.mark.parametrize("name", sorted(SMALL))
def test_child_spans_nest_inside_their_operation(name, tmp_path):
    tracer = traced_ops(SMALL[name], tmp_path)
    spans = tracer.spans
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == [tracing.ROOT_SPAN] * 2
    assert sorted(s.op for s in roots) == [0, 1]
    assert len(spans) > len(roots)
    for span in spans:
        if span.parent is None:
            continue
        parent = spans[span.parent]
        assert span.op == parent.op
        assert parent.start <= span.start <= span.end <= parent.end


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly_across_traced_runs(name, tmp_path):
    def counts(sub):
        per_op = traced_ops(SMALL[name], tmp_path / sub).op_metrics()
        return [{k: v for k, v in m.items() if k.endswith(COUNTS)} for m in per_op.values()]

    first = counts("a")
    assert first == counts("b")
    for ops in first:
        assert ops["graph.build_graph.calls"] == 2
        assert ops["spectral.low_spectrum.calls"] == 2
        assert ops[tracing.HANDLE_CALLS] > 0


def test_unpatched_after_tracing(tmp_path):
    original = bench.build_graph
    traced_ops(SMALL["manifold-dense-400"], tmp_path, ops=1)
    assert bench.build_graph is original


@pytest.mark.parametrize("name", sorted(SMALL))
def test_overhead_is_traced_minus_untraced_p50(name, tmp_path):
    record, tracer = run.measure(SMALL[name], 0, 0, True, tmp_path)
    assert record["problems"] == [] and record["failures"] == []
    untraced, traced = record["op_times"]
    assert record["metrics"]["trace.overhead_s"] == (
        statistics.median(traced) - statistics.median(untraced))
    assert set(record["metrics"]) == set(run.PER_LAYER)
    assert tracer.spans


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def duplicated(problem):
    lf = problem.lf_data.copy()
    lf[:10] = lf[0]  # more exact duplicates than knn_k: no self-tuning scale
    return dataclasses.replace(problem, lf_data=lf)


@pytest.mark.parametrize("name", ["clustered-truncated-3k", "beam-cli-2k"])
def test_failed_operation_is_counted_with_class_and_exit_code(name, tmp_path):
    w = SMALL[name]
    inst = workloads.setup(w, 0, tmp_path)[0]
    bad = dataclasses.replace(inst, problem=duplicated(inst.problem))
    if w.two_phase_cli:
        matio.write_csv(bad.lf_path, bad.problem.lf_data)
    loop = run.closed_loop(w, [bad], 0)
    assert loop["failures"] == [
        {"op": 0, "error": "DuplicatePointScale", "exit_code": 4}]
    assert len(loop["times"]) == 1 and loop["ok_times"] == []


def test_check_flags_non_finite_map_and_non_positive_stddev():
    truth = np.zeros((3, 2))
    sound = workloads.Outcome(mf=truth, stddevs=np.ones(3), truth=truth, lf=truth)
    assert workloads.check(sound) == []
    mf = truth.copy()
    mf[1, 0] = np.nan
    stddevs = np.array([1.0, 0.0, 1.0])
    bad = workloads.Outcome(mf=mf, stddevs=stddevs, truth=truth, lf=truth)
    assert len(workloads.check(bad)) == 2


def test_setup_is_timed_in_a_fresh_interpreter(tmp_path):
    assert run.timed_setup(workloads.WORKLOADS["manifold-dense-400"], 0, tmp_path) > 0
