"""The benchmark's workloads, shrunk, run end to end: set-up, one
operation, its outcome and its checks, through ``perfbench/workloads.py``
itself.  A change to what the workloads read of the package (the
permutation in ``plan.json``, the keys ``mfgl plan`` prints, the names
and layout of the output files) fails here, not only when the benchmark
runs.  Nothing under ``perfbench/`` is edited: each workload is shrunk
with ``dataclasses.replace``."""
import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()

# each workload at a size tier-1 can afford, keeping its solver, M and route
SHRUNK = {
    "clustered-truncated-3k": dict(n=300),
    "manifold-dense-400": dict(n=120, instances=2),
    "beam-cli-2k": dict(n=200, d=32),
}


def test_every_workload_is_shrunk():
    assert set(SHRUNK) == set(wl.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_shrunk_workload_runs_and_checks_clean(name, tmp_path):
    w = dataclasses.replace(wl.WORKLOADS[name], **SHRUNK[name])
    instances = wl.setup(w, 7, tmp_path)
    assert len(instances) == w.instances
    for inst in instances:
        o = wl.outcome(inst, wl.operate(w, inst))
        assert wl.check(o) == []
        if w.two_phase_cli:
            assert wl.gate_against_pipeline(w, inst, o) <= wl.GATE_RTOL
