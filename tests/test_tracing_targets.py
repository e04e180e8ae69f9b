"""The benchmark patches and calls package names it spells out in its own
files; a rename or removal in the package must fail here, not only when
the benchmark runs."""
import ast
import importlib
import json
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import mfgl.bench
import mfgl.cli
from mfgl.config import Generator, PipelineConfig, SolverTag
from mfgl.matio import write_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def traced_targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PATCHES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCHES table in {TRACING}")


@pytest.mark.parametrize("module, attr, span", traced_targets())
def test_traced_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_every_span_is_entered(monkeypatch, capsys, tmp_path):
    # a refactor that stops calling a traced name would blank its
    # per-layer median; the span counts, not the (module, name) entries,
    # since a span may be reached through one of its entries only
    entered = Counter()

    def counting(span, fn):
        def counted(*args, **kwargs):
            entered[span] += 1
            return fn(*args, **kwargs)
        return counted

    for module, attr, span in traced_targets():
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, counting(span, getattr(mod, attr)))
    prob = mfgl.bench.generate(Generator.CLUSTERED_SHIFT, 200, 3, seed=0)
    for solver in (SolverTag.TRUNCATED, SolverTag.DENSE):
        mfgl.bench.run_pipeline(prob, PipelineConfig(solver=solver, m=5, seed=7))
    beam = mfgl.bench.generate(Generator.BEAM_LIKE_1D, 120, 16, seed=0)
    write_csv(tmp_path / "lf.csv", beam.lf_data)
    shared = ["--m", "5", "--seed", "7", "--output-dir", str(tmp_path / "out")]
    assert mfgl.cli.main(["plan", "--lf-path", str(tmp_path / "lf.csv")] + shared) == 0
    planned = json.loads(capsys.readouterr().out)
    hf = mfgl.bench.sample_hf(beam, planned["selected_indices"], 8)
    write_csv(tmp_path / "hf.csv", hf)
    assert mfgl.cli.main([
        "estimate", "--lf-path", planned["lf_permuted_path"], "--hf-path",
        str(tmp_path / "hf.csv"), "--plan-path", planned["plan_path"],
        "--sigma", repr(beam.hf_noise_sigma),
    ] + shared) == 0
    spans = {span for _, _, span in traced_targets()}
    assert sorted(spans - set(entered)) == []


WORKLOADS_TREE = ast.parse(WORKLOADS.read_text())
# local name -> (module, name), for each name workloads.py imports from mfgl
IMPORTS = {
    alias.asname or alias.name: (node.module, alias.name)
    for node in ast.walk(WORKLOADS_TREE)
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mfgl"
    for alias in node.names
}
# (local name, attribute) for each X.attr whose X is one of those names
ATTRIBUTES = sorted({
    (node.value.id, node.attr)
    for node in ast.walk(WORKLOADS_TREE)
    if isinstance(node, ast.Attribute)
    and isinstance(node.value, ast.Name)
    and node.value.id in IMPORTS
})
# each keyword workloads.py passes to PipelineConfig
CONFIG_KEYWORDS = sorted({
    kw.arg
    for node in ast.walk(WORKLOADS_TREE)
    if isinstance(node, ast.Call)
    and isinstance(node.func, ast.Name)
    and node.func.id == "PipelineConfig"
    for kw in node.keywords
})


def test_workloads_reference_the_package():
    # guards the tables above against parsing nothing
    assert {"bench", "cli", "PipelineConfig", "SolverTag"} <= set(IMPORTS)
    assert ("SolverTag", "NYSTROM") in ATTRIBUTES
    assert "solver" in CONFIG_KEYWORDS


@pytest.mark.parametrize("local", sorted(IMPORTS))
def test_workload_import_resolves(local):
    module, name = IMPORTS[local]
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("local, attr", ATTRIBUTES)
def test_workload_attribute_resolves(local, attr):
    module, name = IMPORTS[local]
    assert hasattr(getattr(importlib.import_module(module), name), attr)


@pytest.mark.parametrize("keyword", CONFIG_KEYWORDS)
def test_workload_config_keyword_is_a_field(keyword):
    assert keyword in {f.name for f in fields(PipelineConfig)}
