import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfgl
from mfgl.bench import Generator, generate, sample_hf
from mfgl.cli import main
from mfgl.matio import read_binary, read_csv, write_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def write_problem(tmp_path, n=60, d=3, seed=0, clusters=3):
    prob = generate(Generator.CLUSTERED_SHIFT, n, d, seed=seed, clusters=clusters)
    lf_path = tmp_path / "lf.csv"
    write_csv(lf_path, prob.lf_data)
    return prob, lf_path


def test_plan_outputs_and_determinism(tmp_path, capsys):
    _, lf_path = write_problem(tmp_path)
    out_a = tmp_path / "a"
    code, out, _ = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "3",
        "--output-dir", str(out_a),
    )
    assert code == 0
    payload = last_json(out)
    assert len(payload["selected_indices"]) == 3
    assert payload["parameter_ids"] == payload["selected_indices"]
    assert (out_a / "plan.json").exists()
    permuted = read_csv(out_a / "lf_permuted.csv")
    assert permuted.shape == (60, 3)

    out_b = tmp_path / "b"
    code, _, _ = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "3",
        "--output-dir", str(out_b),
    )
    assert code == 0
    assert (out_a / "plan.json").read_bytes() == (out_b / "plan.json").read_bytes()
    assert (out_a / "lf_permuted.csv").read_bytes() == (
        out_b / "lf_permuted.csv"
    ).read_bytes()


def test_plan_m_larger_than_rows(tmp_path, capsys):
    _, lf_path = write_problem(tmp_path, n=20)
    code, _, err = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "25",
        "--output-dir", str(tmp_path / "out"),
    )
    assert code == 3
    assert last_json(err)["exit_code"] == 3


def test_estimate_with_exact_observations_returns_lf(tmp_path, capsys):
    # hf identical to the observed lf rows: zero displacement observed,
    # so the posterior mean displacement is identically zero and the
    # multi-fidelity output must equal the permuted low-fidelity input
    _, lf_path = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "4",
        "--output-dir", str(out_dir),
    )
    assert code == 0
    permuted = read_csv(out_dir / "lf_permuted.csv")
    hf_path = tmp_path / "hf.csv"
    write_csv(hf_path, permuted[:4])

    code, out, _ = run_cli(
        capsys, "estimate",
        "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(hf_path),
        "--plan-path", str(out_dir / "plan.json"),
        "--sigma", "0.02", "--omega", "1.5", "--tau", "0.01",
        "--output-dir", str(out_dir),
    )
    assert code == 0
    payload = last_json(out)
    assert payload["hyperparameters"]["omega"] == 1.5
    mf = read_csv(out_dir / "mf_estimates.csv")
    assert np.array_equal(mf, permuted)
    stddevs = read_csv(out_dir / "stddevs.csv")
    assert stddevs.shape == (60, 1)
    assert np.all(stddevs > 0)
    timings = json.loads((out_dir / "timings.json").read_text())
    assert {"factor", "hyperparameters", "solve"} <= set(timings)


def test_estimate_row_count_mismatch(tmp_path, capsys):
    _, lf_path = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    run_cli(capsys, "plan", "--lf-path", str(lf_path), "--m", "4",
            "--output-dir", str(out_dir))
    hf_path = tmp_path / "hf.csv"
    write_csv(hf_path, np.zeros((3, 3)))  # plan says M=4
    code, _, err = run_cli(
        capsys, "estimate",
        "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(hf_path),
        "--plan-path", str(out_dir / "plan.json"),
        "--sigma", "0.02",
        "--output-dir", str(out_dir),
    )
    assert code == 3
    assert last_json(err)["error"] == "RowCountMismatch"


def test_binary_format_round_trip(tmp_path, capsys):
    prob, _ = write_problem(tmp_path)
    from mfgl.matio import write_binary

    lf_bin = tmp_path / "lf.bin"
    write_binary(lf_bin, prob.lf_data)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "plan", "--lf-path", str(lf_bin), "--m", "4",
        "--format", "bin", "--output-dir", str(out_dir),
    )
    assert code == 0
    permuted = read_binary(out_dir / "lf_permuted.bin")
    hf_path = tmp_path / "hf.bin"
    write_binary(hf_path, permuted[:4])
    code, _, _ = run_cli(
        capsys, "estimate",
        "--lf-path", str(out_dir / "lf_permuted.bin"),
        "--hf-path", str(hf_path),
        "--plan-path", str(out_dir / "plan.json"),
        "--sigma", "0.02", "--omega", "1.5", "--tau", "0.01",
        "--format", "bin", "--output-dir", str(out_dir),
    )
    assert code == 0
    mf = read_binary(out_dir / "mf_estimates.bin")
    assert np.array_equal(mf, permuted)


def test_header_flag(tmp_path, capsys):
    prob, _ = write_problem(tmp_path, n=30)
    lf_path = tmp_path / "lf_header.csv"
    write_csv(lf_path, prob.lf_data, header=["x", "y", "z"])
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "3", "--header",
        "--output-dir", str(out_dir),
    )
    assert code == 0
    # the permuted copy is written without a header, in permuted order
    permuted = read_csv(out_dir / "lf_permuted.csv")
    assert permuted.shape == (30, 3)


def test_bench_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code, out, _ = run_cli(
        capsys, "bench", "--generator", "clustered-shift", "--n", "200",
        "--d", "3", "--clusters", "4", "--m", "4", "--seed", "1",
        "--output-dir", str(out_dir),
    )
    assert code == 0
    payload = last_json(out)
    assert payload["n"] == 200
    report = json.loads((out_dir / "report.json").read_text())
    assert report["reduction_pct"] == pytest.approx(
        100.0 * (1.0 - report["mean_mf_error_pct"] / report["mean_lf_error_pct"])
    )
    assert payload["reduction_pct"] == pytest.approx(report["reduction_pct"])


def test_bench_nystrom_needs_rank_r(tmp_path, capsys):
    # the zero-diagonal kernel leaves sub-sampled landmark blocks
    # indefinite: without truncation the degree guard fires (exit 4),
    # with --rank-r the same run completes
    args = (
        "bench", "--generator", "clustered-shift", "--n", "400", "--d", "4",
        "--clusters", "4", "--m", "8", "--solver", "nystrom", "--K", "80",
        "--seed", "0",
    )
    code, _, err = run_cli(
        capsys, *args, "--output-dir", str(tmp_path / "fail")
    )
    assert code == 4
    assert last_json(err)["error"] == "NegativeApproxDegree"

    code, out, _ = run_cli(
        capsys, *args, "--rank-r", "40", "--output-dir", str(tmp_path / "ok")
    )
    assert code == 0
    assert last_json(out)["reduction_pct"] > 50.0


@pytest.mark.parametrize(
    "argv",
    [("bench", "--n", "60", "--beta", "0.5"), ("plan", "--m", "3", "--r", "1.0")],
    ids=["bench-beta", "plan-r"],
)
def test_solver_bounds_checked_before_any_graph(tmp_path, capsys, monkeypatch, argv):
    import mfgl.bench

    def no_graph(*args, **kwargs):
        raise AssertionError("the graph was built before the flags were checked")

    monkeypatch.setattr(mfgl.bench, "build_graph", no_graph)
    _, lf_path = write_problem(tmp_path)
    extra = ["--lf-path", str(lf_path)] if argv[0] == "plan" else []
    code, _, err = run_cli(
        capsys, *argv, *extra, "--output-dir", str(tmp_path / "out")
    )
    assert code == 3
    assert last_json(err)["error"] == "InvalidConfig"


def test_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "plan", "--lf-path", str(tmp_path / "nope.csv"), "--m", "3",
        "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert last_json(err)["exit_code"] == 2


def test_unknown_flag_exit_3(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "plan", "--no-such-flag", "x")
    assert code == 3


def test_duplicate_rows_exit_4(tmp_path, capsys):
    lf = np.ones((12, 2))  # every row identical: degenerate kernel scales
    lf_path = tmp_path / "dup.csv"
    write_csv(lf_path, lf)
    code, _, err = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "2",
        "--output-dir", str(tmp_path / "out"),
    )
    assert code == 4
    assert last_json(err)["error"] == "DuplicatePointScale"


def test_config_file_and_flag_precedence(tmp_path, capsys):
    _, lf_path = write_problem(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 4, "seed": 7}))
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "plan", "--config", str(cfg_path), "--lf-path", str(lf_path),
        "--m", "5", "--output-dir", str(out_dir),
    )
    assert code == 0
    assert len(last_json(out)["selected_indices"]) == 5  # flag beats file


def test_config_unknown_key_exit_3(tmp_path, capsys):
    _, lf_path = write_problem(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mm": 4}))
    code, _, err = run_cli(
        capsys, "plan", "--config", str(cfg_path), "--lf-path", str(lf_path),
        "--output-dir", str(tmp_path / "out"),
    )
    assert code == 3


@pytest.mark.parametrize(
    "key, value",
    [
        ("knn_k", "7"),
        ("knn_k", True),
        ("knn_k", [7]),
        ("solver", "qr"),
        ("normalization", 1),
        ("omega", "fast"),
        ("metric", "l2"),
    ],
    ids=["str", "bool", "list", "solver", "normalization", "omega", "metric"],
)
def test_config_wrong_type_exit_3(tmp_path, capsys, key, value):
    _, lf_path = write_problem(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    code, _, err = run_cli(
        capsys, "plan", "--config", str(cfg_path), "--lf-path", str(lf_path),
        "--output-dir", str(tmp_path / "out"),
    )
    assert code == 3
    error = last_json(err)
    assert error["error"] == "InvalidConfig"
    assert key in error["message"]


_SHARED_FLAGS = {
    "-h", "--help", "--config", "--format", "--header", "--no-header",
    "--output-dir", "--threads", "--normalization", "--p", "--q", "--knn-k",
    "--solver", "--K", "--m", "--sigma", "--beta", "--r", "--omega", "--tau",
    "--seed", "--rank-r", "--embed-dim",
}


def test_subcommand_flags_are_fixed():
    # the flags derived from PipelineConfig are exactly the hand-written
    # set they replaced: --metric is bench-only, the paths stay put
    from mfgl.cli import _build_parser

    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {s for action in p._actions for s in action.option_strings}
        for name, p in sub.choices.items()
    }
    assert flags == {
        "plan": _SHARED_FLAGS | {"--lf-path"},
        "estimate": _SHARED_FLAGS | {"--lf-path", "--hf-path", "--plan-path"},
        "bench": _SHARED_FLAGS | {
            "--generator", "--n", "--d", "--clusters", "--displacement-rel",
            "--noise-rel", "--lf-scale", "--metric",
        },
    }


def test_settings_schema_loads_without_numpy(tmp_path):
    # --threads only caps BLAS pools if it is applied before numpy loads,
    # so parsing and merging settings must not import it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"solver": "dense", "metric": "component", "omega": "auto", "threads": 2}
    ))
    script = (
        "import sys\n"
        "from mfgl.cli import _build_parser, _merge_config\n"
        "parser = _build_parser()\n"
        "for argv in (['plan'], ['estimate'], ['bench']):\n"
        "    ns = parser.parse_args(argv + ['--config', sys.argv[1]])\n"
        "    cfg, bcfg, pcfg = _merge_config(ns)\n"
        "    assert cfg.threads == 2 and pcfg.solver.value == 'dense', pcfg\n"
        "    assert pcfg.omega is None and pcfg.metric.value == 'component', pcfg\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mfgl.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cfg_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_threads_env_validation(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MFGL_THREADS", "not-a-number")
    _, lf_path = write_problem(tmp_path)
    code, _, _ = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "3",
        "--output-dir", str(tmp_path / "out"),
    )
    assert code == 3


def test_version_and_help(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("plan", "estimate", "bench"):
        assert sub in out


def test_estimate_requires_sigma(tmp_path, capsys):
    _, lf_path = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    run_cli(capsys, "plan", "--lf-path", str(lf_path), "--m", "4",
            "--output-dir", str(out_dir))
    hf_path = tmp_path / "hf.csv"
    write_csv(hf_path, np.zeros((4, 3)))
    code, _, err = run_cli(
        capsys, "estimate",
        "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(hf_path),
        "--plan-path", str(out_dir / "plan.json"),
        "--output-dir", str(out_dir),
    )
    assert code == 3


def test_cli_estimate_matches_pipeline_phi_star(tmp_path, capsys):
    # the CLI two-phase flow on files reproduces the in-process pipeline:
    # same plan, same hyperparameters, same posterior (bitwise, since
    # csv round-trips doubles via %.17g and normalization stays off)
    from mfgl.acquisition import plan_acquisition
    from mfgl.bench import PipelineConfig, run_pipeline

    prob, lf_path = write_problem(tmp_path, n=80, d=3, seed=2, clusters=4)
    cfg = PipelineConfig(m=4, seed=5)
    out = run_pipeline(prob, cfg)

    out_dir = tmp_path / "cli"
    code, _, _ = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "4", "--seed", "5",
        "--output-dir", str(out_dir),
    )
    assert code == 0
    assert list(out.plan.selected_indices) == list(
        json.loads((out_dir / "plan.json").read_text())["selected_indices"]
    )
    hf = sample_hf(prob, out.plan.selected_indices, seed=6)  # pipeline uses seed+1
    hf_path = tmp_path / "hf.csv"
    write_csv(hf_path, hf)
    sigma = prob.hf_noise_sigma
    code, _, _ = run_cli(
        capsys, "estimate",
        "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(hf_path),
        "--plan-path", str(out_dir / "plan.json"),
        "--sigma", f"{sigma:.17g}", "--seed", "5",
        "--output-dir", str(out_dir),
    )
    assert code == 0
    mf_cli = read_csv(out_dir / "mf_estimates.csv")
    assert np.array_equal(mf_cli, out.posterior.mf_estimates)


@pytest.mark.parametrize(
    "flags",
    [
        ("--normalization", "component"),
        ("--normalization", "instance"),
        ("--solver", "dense"),
    ],
    ids=["component", "instance", "dense"],
)
def test_cli_estimate_matches_pipeline_bitwise(tmp_path, capsys, flags):
    # estimate normalizes and builds the graph prior in input order, as
    # run_pipeline does, so the files agree bit for bit with it
    from mfgl.bench import PipelineConfig, run_pipeline
    from mfgl.data import Normalization
    from mfgl.posterior import SolverTag

    option = dict([flags])
    prob, lf_path = write_problem(tmp_path, n=80, d=3, seed=2, clusters=4)
    cfg = PipelineConfig(
        m=4,
        seed=5,
        solver=SolverTag(option.get("--solver", "truncated")),
        normalization=Normalization(option.get("--normalization", "none")),
    )
    out = run_pipeline(prob, cfg)

    out_dir = tmp_path / "cli"
    shared = list(flags) + ["--m", "4", "--seed", "5", "--output-dir", str(out_dir)]
    code, _, _ = run_cli(capsys, "plan", "--lf-path", str(lf_path), *shared)
    assert code == 0
    hf_path = tmp_path / "hf.csv"
    write_csv(hf_path, sample_hf(prob, out.plan.selected_indices, seed=6))
    code, _, _ = run_cli(
        capsys, "estimate",
        "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(hf_path),
        "--plan-path", str(out_dir / "plan.json"),
        "--sigma", f"{prob.hf_noise_sigma:.17g}",
        *shared,
    )
    assert code == 0
    assert np.array_equal(
        read_csv(out_dir / "mf_estimates.csv"), out.posterior.mf_estimates
    )
    stddevs = read_csv(out_dir / "stddevs.csv")[:, 0]
    assert np.array_equal(stddevs, out.posterior.stddevs)
