import argparse
import dataclasses
import json
import os
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mfgl
import mfgl.bench
import mfgl.config
import mfgl.matio
import mfgl.posterior
from conftest import cli_env, traced_peak, write_headed_csv
from mfgl.acquisition import PlanRecord, kmeans
from mfgl.bench import Generator, generate, sample_hf
from mfgl.cli import _build_parser, main
from mfgl.config import PipelineConfig, ProblemConfig, SolverTag, field_rules
from mfgl.data import HyperParameters
from mfgl.exceptions import InvalidConfig, SingularSystem
from mfgl.matio import read_binary, read_csv, write_csv
from mfgl.spectral import checked_cholesky


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
    # the planning eigenvalues, then one row per point in solve order
    assert read_binary(out_a / "spectrum_permuted.bin").shape[0] == 61
    assert (out_a / "spectrum_permuted.bin").read_bytes() == (
        out_b / "spectrum_permuted.bin"
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
    assert {"hyperparameters", "solve"} <= set(timings)


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


@pytest.mark.parametrize("command", ["plan", "estimate"])
def test_header_refused_with_binary_format(tmp_path, capsys, command):
    # a binary file has no header row, so --header would be ignored
    prob, _ = write_problem(tmp_path)
    from mfgl.matio import write_binary

    lf_bin = tmp_path / "lf.bin"
    write_binary(lf_bin, prob.lf_data)
    plan_dir = tmp_path / "plan"
    assert run_cli(capsys, "plan", "--lf-path", str(lf_bin), "--m", "4",
                   "--format", "bin", "--output-dir", str(plan_dir))[0] == 0
    write_binary(tmp_path / "hf.bin", read_binary(plan_dir / "lf_permuted.bin")[:4])
    args = {
        "plan": ["--lf-path", str(lf_bin), "--m", "4"],
        "estimate": ["--lf-path", str(plan_dir / "lf_permuted.bin"),
                     "--hf-path", str(tmp_path / "hf.bin"),
                     "--plan-path", str(plan_dir / "plan.json"), "--sigma", "0.02"],
    }[command]
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, command, *args, "--format", "bin", "--header",
                           "--output-dir", str(out_dir))
    assert code == 3
    error = last_json(err)
    assert error["error"] == "InvalidConfig"
    assert "--header" in error["message"]
    assert not out_dir.exists()


def test_header_flag(tmp_path, capsys):
    prob, _ = write_problem(tmp_path, n=30)
    lf_path = tmp_path / "lf_header.csv"
    write_headed_csv(lf_path, prob.lf_data, ["x", "y", "z"])
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "3", "--header",
        "--output-dir", str(out_dir),
    )
    assert code == 0
    # the permuted copy is written without a header, in permuted order
    permuted = read_csv(out_dir / "lf_permuted.csv")
    assert permuted.shape == (30, 3)


def test_header_two_phase_run_matches_headerless(tmp_path, capsys):
    # --header applies to the files the user supplies; plan writes
    # lf_permuted.csv without one and estimate reads it so
    prob, _ = write_problem(tmp_path)
    outputs = {}
    for header in (False, True):
        names = ["x", "y", "z"] if header else None
        flag = ["--header"] if header else []
        lf_path = tmp_path / f"lf_{header}.csv"
        write_headed_csv(lf_path, prob.lf_data, names)
        out_dir = tmp_path / f"out_{header}"
        code, _, _ = run_cli(capsys, "plan", "--lf-path", str(lf_path), "--m", "4",
                             *flag, "--output-dir", str(out_dir))
        assert code == 0
        hf_path = tmp_path / f"hf_{header}.csv"
        write_headed_csv(hf_path, read_csv(out_dir / "lf_permuted.csv")[:4] + 0.1, names)
        code, _, err = run_cli(
            capsys, "estimate", "--lf-path", str(out_dir / "lf_permuted.csv"),
            "--hf-path", str(hf_path), "--plan-path", str(out_dir / "plan.json"),
            "--sigma", "0.02", *flag, "--output-dir", str(out_dir),
        )
        assert code == 0, err
        outputs[header] = [
            (out_dir / name).read_bytes()
            for name in ("plan.json", "lf_permuted.csv", "mf_estimates.csv", "stddevs.csv")
        ]
    assert outputs[True] == outputs[False]


def test_plan_copies_each_input_line_and_estimate_reads_the_same_values(tmp_path, capsys):
    # a header, CRLF line ends, a blank and a whitespace-only line, cells
    # in several spellings and no final newline: lf_permuted.csv holds the
    # input's data lines in plan order, each ending in \n, and the run
    # writes what a run on the same values in %.17g writes
    prob = generate(Generator.CLUSTERED_SHIFT, 60, 3, seed=0, clusters=3)
    values = prob.lf_data.copy()
    values[0] = [1.5, 2e-3, -0.0]
    data = ["1.5, 2e-3,-0"] + [
        ",".join(repr(float(x)) if (i + j) % 2 else f" {x:.17e}" for j, x in enumerate(row))
        for i, row in enumerate(values[1:])
    ]
    text_path = tmp_path / "text.csv"
    text_path.write_bytes("\r\n".join(["x,y,z", *data[:10], "", "  \t", *data[10:]]).encode())
    assert read_csv(text_path, header=True).tobytes() == values.tobytes()
    g17_path = tmp_path / "g17.csv"
    write_csv(g17_path, values)
    hf_path = tmp_path / "hf.csv"
    outputs = {}
    for lf_path, flags in ((text_path, ["--header"]), (g17_path, [])):
        out_dir = tmp_path / lf_path.stem
        code, out, _ = run_cli(capsys, "plan", "--lf-path", str(lf_path), "--m", "4",
                               *flags, "--output-dir", str(out_dir))
        assert code == 0
        if not hf_path.exists():
            write_csv(hf_path, sample_hf(prob, last_json(out)["selected_indices"], seed=1))
        code, _, err = run_cli(
            capsys, "estimate", "--lf-path", str(out_dir / "lf_permuted.csv"),
            "--hf-path", str(hf_path), "--plan-path", str(out_dir / "plan.json"),
            "--sigma", "0.02", "--output-dir", str(out_dir),
        )
        assert code == 0, err
        outputs[lf_path.stem] = [(out_dir / name).read_bytes()
                                 for name in ("plan.json", "mf_estimates.csv", "stddevs.csv")]
    perm = json.loads(outputs["text"][0])["permutation"]
    copied = (tmp_path / "text" / "lf_permuted.csv").read_bytes()
    assert copied == "".join(data[i] + "\n" for i in perm).encode()
    assert outputs["text"] == outputs["g17"]


def test_plan_copies_binary_rows(tmp_path, capsys):
    prob, _ = write_problem(tmp_path)
    lf_bin = tmp_path / "lf.bin"
    mfgl.matio.write_binary(lf_bin, prob.lf_data)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "plan", "--lf-path", str(lf_bin), "--m", "4",
                         "--format", "bin", "--output-dir", str(out_dir))
    assert code == 0
    perm = json.loads((out_dir / "plan.json").read_text())["permutation"]
    mfgl.matio.write_binary(tmp_path / "expected.bin", read_binary(lf_bin)[perm])
    assert (out_dir / "lf_permuted.bin").read_bytes() == (tmp_path / "expected.bin").read_bytes()


def test_plan_refuses_a_binary_header_too_large_for_an_array(tmp_path, capsys):
    lf_bin, rows, cols = tmp_path / "lf.bin", 1 << 63, 0
    lf_bin.write_bytes(struct.pack("<4sBQQ", mfgl.matio.MAGIC, mfgl.matio.VERSION, rows, cols))
    code, out, err = run_cli(capsys, "plan", "--lf-path", str(lf_bin), "--format", "bin",
                             "--output-dir", str(tmp_path / "out"))
    assert code == 2 and out == ""
    error = last_json(err)
    assert error["error"] == "MatrixIOError"
    assert f"{lf_bin}: cannot hold a {rows}x{cols} matrix" in error["message"]


def test_estimate_uses_the_planning_eigenvectors_as_read(tmp_path, capsys, monkeypatch):
    # plan writes the eigenvectors in solve order, so estimate reorders
    # nothing: the truncated posterior's basis is the array the spectrum
    # file was read into, not a reordered copy of it
    prob, lf_path = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "plan", "--lf-path", str(lf_path), "--m", "4",
                         "--output-dir", str(out_dir))
    assert code == 0
    # row 0 the eigenvalues, rows 1.. the input-order eigenvectors through the permutation
    spectrum, _ = mfgl.bench.planning_spectrum(prob.lf_data, PipelineConfig(m=4))
    perm = json.loads((out_dir / "plan.json").read_text())["permutation"]
    table = read_binary(out_dir / "spectrum_permuted.bin")
    assert table[0].tobytes() == spectrum.eigenvalues.tobytes()
    assert table[1:].tobytes() == spectrum.eigenvectors[perm].tobytes()

    tables, real = [], mfgl.matio.read_binary
    monkeypatch.setattr(mfgl.matio, "read_binary", lambda path: tables.append(real(path)) or tables[-1])
    config = PipelineConfig(m=4, sigma=prob.hf_noise_sigma)
    lf = read_csv(out_dir / "lf_permuted.csv")
    record = PlanRecord.read(out_dir / "plan.json", config, lf)
    hf = sample_hf(prob, record.plan.selected_indices, seed=1)
    post = mfgl.bench.estimate_planned(lf, record, hf, config).artifacts.posterior
    [table] = tables
    assert post.basis is record.spectrum.eigenvectors
    assert post.basis.base is table


@pytest.mark.parametrize("m", [1, 4])
def test_plan_directory_rebuilds_the_kmeans_that_chose_the_picks(tmp_path, capsys, m):
    # plan.json keeps no k-means: the embedding is the spectrum file's first
    # M columns in input order, and the seed is the plan's
    _, lf_path = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "plan", "--lf-path", str(lf_path), "--m", str(m),
                         "--seed", "7", "--output-dir", str(out_dir))
    assert code == 0
    plan = json.loads((out_dir / "plan.json").read_text())
    table = read_binary(out_dir / "spectrum_permuted.bin")
    points = table[1:][np.argsort(plan["permutation"])][:, :m]
    centroids, labels = kmeans(points, m, plan["seed"])
    assert plan["seed"] == 7 and len(plan["selected_indices"]) == m
    for c, pick in enumerate(plan["selected_indices"]):
        members = np.flatnonzero(labels == c)
        dists = np.linalg.norm(points[members] - centroids[c], axis=1)
        assert pick == members[np.argmin(dists)]  # nearest, lowest index on ties


def test_estimate_refuses_a_plan_directory_with_input_order_eigenpairs(tmp_path, capsys):
    # a plan directory written before the eigenpairs were stored in solve
    # order holds them, in input order, as spectrum.bin: estimate reads
    # only spectrum_permuted.bin, so it refuses the directory (exit 2)
    # rather than pair the rows with another order's eigenvectors
    prob, lf_path = write_problem(tmp_path)
    out_dir = tmp_path / "plan"
    code, out, _ = run_cli(capsys, "plan", "--lf-path", str(lf_path), "--m", "4",
                           "--output-dir", str(out_dir))
    assert code == 0
    table = read_binary(out_dir / "spectrum_permuted.bin")
    perm = json.loads((out_dir / "plan.json").read_text())["permutation"]
    mfgl.matio.write_binary(out_dir / "spectrum.bin",
                            np.vstack((table[:1], table[1:][np.argsort(perm)])))
    (out_dir / "spectrum_permuted.bin").unlink()
    write_csv(out_dir / "hf.csv", sample_hf(prob, last_json(out)["selected_indices"], seed=1))
    code, out, err = run_cli(
        capsys, "estimate", "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(out_dir / "hf.csv"), "--plan-path", str(out_dir / "plan.json"),
        "--sigma", "0.01", "--output-dir", str(tmp_path / "est"),
    )
    assert code == 2 and out == ""
    error = last_json(err)
    assert error["error"] == "MatrixIOError"
    assert "spectrum_permuted.bin" in error["message"]
    assert not (tmp_path / "est").exists()


def test_plan_formats_no_row(tmp_path, capsys, monkeypatch):
    def no_writer(*args, **kwargs):
        raise AssertionError("plan formatted the rows again")

    monkeypatch.setattr(mfgl.matio, "write_csv", no_writer)
    monkeypatch.setattr(mfgl.matio, "write_matrix", no_writer)
    prob, lf_path = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "plan", "--lf-path", str(lf_path), "--m", "4",
                         "--output-dir", str(out_dir))
    assert code == 0
    assert read_csv(out_dir / "lf_permuted.csv").shape == prob.lf_data.shape


def test_estimate_refuses_the_copy_of_a_file_changed_during_plan(tmp_path, capsys, monkeypatch):
    # plan hashes the rows it parsed and copies the file's rows: a file
    # rewritten in between gives a copy that estimate refuses
    prob, lf_path = write_problem(tmp_path)
    plan_rows = mfgl.bench.plan_rows

    def rewrite_then_plan(lf, config):
        write_csv(lf_path, prob.lf_data + 1.0)
        return plan_rows(lf, config)

    monkeypatch.setattr(mfgl.bench, "plan_rows", rewrite_then_plan)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "plan", "--lf-path", str(lf_path), "--m", "4",
                           "--output-dir", str(out_dir))
    assert code == 0
    write_csv(out_dir / "hf.csv", sample_hf(prob, last_json(out)["selected_indices"], seed=1))
    code, _, err = run_cli(
        capsys, "estimate", "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(out_dir / "hf.csv"), "--plan-path", str(out_dir / "plan.json"),
        "--sigma", "0.02", "--output-dir", str(out_dir),
    )
    assert code == 3
    error = last_json(err)
    assert error["error"] == "InvalidConfig"
    assert "lf_input_sha256" in error["message"]


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


def test_bench_with_every_row_observed_exit_3(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "bench", "--n", "40", "--m", "40", "--output-dir", str(tmp_path),
    )
    assert code == 3
    assert last_json(err)["error"] == "InvalidConfig"


@pytest.mark.parametrize("flag", [["--format", "bin"], ["--header"]])
def test_bench_refuses_matrix_file_flags(tmp_path, capsys, flag):
    # bench reads and writes no matrix file, so a format would be ignored
    code, _, err = run_cli(
        capsys, "bench", "--n", "60", "--d", "3", "--clusters", "3", "--m", "4",
        *flag, "--output-dir", str(tmp_path),
    )
    assert code == 3
    error = last_json(err)
    assert error["error"] == "InvalidConfig"
    assert flag[0] in error["message"]
    assert not any(tmp_path.iterdir())


def test_bench_dense_tiny_tau_exit_4(tmp_path, capsys):
    # tau = 1e-14 leaves the dense prior numerically singular: refused
    code, _, err = run_cli(
        capsys, "bench", "--solver", "dense", "--n", "200", "--d", "3", "--m", "5",
        "--tau", "1e-14", "--output-dir", str(tmp_path),
    )
    assert code == 4
    (line,) = err.strip().splitlines()  # one JSON object, no traceback
    error = json.loads(line)
    assert error["error"] == "SingularSystem"
    assert error["exit_code"] == 4
    # refused either by its conditioning test or by a failed factorization
    assert error["message"].startswith("unobserved prior block")


@pytest.mark.parametrize("argv, error, says", [
    (["--generator", "beam-like-1d", "--n", "200", "--d", "16", "--m", "2", "--knn-k", "1"],
     "ConvergenceFailure", "the eigensolve of 8 pairs: ARPACK error -1: No convergence"),
], ids=["arpack-out-of-iterations"])
def test_bench_eigensolve_failure_exit_4(argv, error, says, tmp_path, capsys):
    # it once left scipy's traceback (ArpackNoConvergence) and exit 1
    code, _, err = run_cli(capsys, "bench", *argv, "--output-dir", str(tmp_path))
    assert code == 4
    (line,) = err.strip().splitlines()  # one JSON object, no traceback
    report = json.loads(line)
    assert (report["error"], report["exit_code"]) == (error, 4)
    assert report["message"].startswith(says)


_PAST_FLOAT64 = {  # degree powers that overflow, or underflow to a zero diagonal
    "overflow": ["--n", "200", "--p", "-400", "--q", "0"],
    "underflow-dense-eigensolve": ["--n", "20", "--p", "400", "--q", "400"],
    "underflow-shift-invert": ["--n", "200", "--p", "400", "--q", "400"],
}


@pytest.mark.parametrize("case", _PAST_FLOAT64)
def test_degree_powers_past_float64_are_refused_exit_4(case, tmp_path):
    # refused where L_sym is formed: they printed numpy's overflow warnings
    # before the error object, were refused as InvalidConfig naming the
    # internal shift_a (exit 3), and reached an exactly singular splu.  Its
    # own process, so numpy's warnings are not turned into errors
    argv = _PAST_FLOAT64[case]
    proc = subprocess.run(
        [sys.executable, "-m", "mfgl.cli", "bench", "--generator", "smooth-manifold",
         "--d", "3", "--m", "10", *argv, "--output-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=cli_env(),
    )
    assert proc.returncode == 4
    (line,) = proc.stderr.strip().splitlines()  # one JSON object, no warning
    report = json.loads(line)
    assert (report["error"], report["exit_code"]) == ("SingularSystem", 4)
    p, q = float(argv[3]), float(argv[5])
    assert report["message"] == f"L_sym at p={p}, q={q}: a degree power leaves float64's range"


def test_bench_dense_tiny_tau_refused_as_by_a_copying_factor(tmp_path, capsys, monkeypatch):
    # dense_factor factors Q_uu where it lies in the prior's buffer; on the
    # same prior, a Cholesky of a fresh copy of Q_uu is refused the same way
    priors = []
    prior_matrix = mfgl.posterior._prior_matrix

    def recording(gl, tau, beta):
        q = prior_matrix(gl, tau, beta)
        priors.append(q.copy())
        return q

    monkeypatch.setattr(mfgl.posterior, "_prior_matrix", recording)
    code, _, err = run_cli(
        capsys, "bench", "--solver", "dense", "--n", "200", "--d", "3", "--m", "5",
        "--tau", "1e-14", "--output-dir", str(tmp_path),
    )
    assert code == 4
    error = json.loads(err)
    (q,) = priors
    with pytest.raises(SingularSystem) as copying:
        checked_cholesky(np.array(q[5:, 5:]), "unobserved prior block")
    assert error["error"] == "SingularSystem"
    assert error["message"] == str(copying.value)


def test_bench_with_zero_displacement_exit_3(tmp_path, capsys):
    # the schema admits it; the report then finds no error to reduce
    code, _, err = run_cli(
        capsys, "bench", "--n", "60", "--clusters", "3", "--m", "3",
        "--displacement-rel", "0", "--sigma", "0.01", "--output-dir", str(tmp_path),
    )
    assert code == 3
    (line,) = err.strip().splitlines()  # one JSON object, no traceback
    payload = json.loads(line)
    assert payload["error"] == "InvalidConfig"
    assert "already equal the reference" in payload["message"]


_PROBLEM_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ProblemConfig)}


@pytest.mark.parametrize(
    "case",
    [
        {"n": 1},
        {"d": 0},
        {"n": 50, "clusters": 1},
        {"n": 50, "clusters": 51},
        {"generator": "smooth-manifold", "clusters": 0},
        {"generator": "beam-like-1d", "d": 2},
        {"displacement_rel": -0.5},
        {"noise_rel": -1.0},
        {"lf_scale": 0.0},
    ],
    ids=lambda case: ",".join(f"{k}={v}" for k, v in case.items()),
)
def test_problem_bounds_same_in_generate_and_bench(case, tmp_path, capsys, monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("the graph was built before the settings were checked")

    monkeypatch.setattr(mfgl.bench, "build_graph", no_graph)
    s = {**_PROBLEM_DEFAULTS, **case}
    with pytest.raises(InvalidConfig) as refused:
        generate(Generator(s["generator"]), s["n"], s["d"], 0, s["clusters"],
                 s["displacement_rel"], s["noise_rel"], s["lf_scale"])
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in case.items()]
    code, _, err = run_cli(capsys, "bench", *flags, "--output-dir", str(tmp_path))
    assert code == 3
    assert last_json(err) == {
        "error": "InvalidConfig", "exit_code": 3, "message": str(refused.value),
    }


@pytest.mark.parametrize("command", ["plan", "bench"])
def test_negative_seed_refused_before_any_graph(command, tmp_path, capsys, monkeypatch):
    _, lf_path = write_problem(tmp_path)

    def no_graph(*args, **kwargs):
        raise AssertionError("the graph was built before the settings were checked")

    monkeypatch.setattr(mfgl.bench, "build_graph", no_graph)
    with pytest.raises(InvalidConfig, match="seed must be non-negative, got -1") as refused:
        generate(Generator.CLUSTERED_SHIFT, 100, 3, seed=-1)
    with pytest.raises(InvalidConfig, match=str(refused.value)):
        PipelineConfig(m=5, seed=-1)
    files = ["--lf-path", str(lf_path)] if command == "plan" else []
    code, _, err = run_cli(capsys, command, "--seed", "-1", *files, "--output-dir", str(tmp_path))
    assert code == 3
    assert last_json(err) == {
        "error": "InvalidConfig", "exit_code": 3, "message": str(refused.value),
    }


@pytest.mark.parametrize(
    "build",
    [
        lambda: PipelineConfig(solver="dense", m=3),
        lambda: PipelineConfig(normalization="component"),
        lambda: PipelineConfig(metric="field"),
        lambda: ProblemConfig(generator="smooth-manifold"),
        lambda: PipelineConfig(knn_k="7"),
        lambda: PipelineConfig(m=True),
        lambda: PipelineConfig(K=4.0),
        lambda: HyperParameters(sigma="0.1", omega=1.0, tau=0.1),
        lambda: PipelineConfig(beta=float("nan")),
        lambda: ProblemConfig(noise_rel=float("nan")),
        lambda: HyperParameters(sigma=0.1, omega=float("nan"), tau=0.1),
        lambda: ProblemConfig(n=None),
    ],
    ids=["solver", "normalization", "metric", "generator", "knn_k-str", "m-bool",
         "K-float", "sigma-str", "beta-nan", "noise_rel-nan", "omega-nan", "n-none"],
)
def test_schema_refuses_wrong_types_and_nan(build):
    with pytest.raises(InvalidConfig):
        build()


FLOAT_SETTINGS = [
    (schema, name)
    for schema in (PipelineConfig, ProblemConfig, HyperParameters)
    for name, kinds, *_ in field_rules(schema)
    if kinds[0] is float
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=str)
@pytest.mark.parametrize(
    "schema, name", FLOAT_SETTINGS, ids=[f"{s.__name__}.{n}" for s, n in FLOAT_SETTINGS]
)
def test_every_float_setting_must_be_finite(schema, name, value):
    given = dict(sigma=0.1, omega=1.0, tau=0.1) if schema is HyperParameters else {}
    with pytest.raises(InvalidConfig, match=f"^{name} must be finite, got {value}$"):
        schema(**{**given, name: value})


@pytest.mark.parametrize("command", ["plan", "bench"])
@pytest.mark.parametrize(
    "flag, value", [("p", "nan"), ("q", "inf"), ("r", "inf"), ("omega", "inf"), ("tau", "-inf")]
)
def test_non_finite_flag_refused_before_any_graph(
    command, flag, value, tmp_path, capsys, monkeypatch
):
    _, lf_path = write_problem(tmp_path)

    def no_graph(*args, **kwargs):
        raise AssertionError("the graph was built before the settings were checked")

    monkeypatch.setattr(mfgl.bench, "build_graph", no_graph)
    files = ["--lf-path", str(lf_path)] if command == "plan" else []
    code, _, err = run_cli(capsys, command, f"--{flag}={value}", *files,
                           "--output-dir", str(tmp_path / "out"))
    assert code == 3
    assert last_json(err) == {
        "error": "InvalidConfig", "exit_code": 3,
        "message": f"{flag} must be finite, got {float(value)}",
    }


def test_schema_accepts_numpy_scalars_and_every_solver_tag():
    cfg = PipelineConfig(m=np.int64(3), knn_k=np.int32(5), beta=np.float64(2.5),
                         sigma=np.float32(0.1))
    assert cfg.m == 3 and cfg.beta == 2.5
    ProblemConfig(n=np.int64(50), clusters=np.int64(3), lf_scale=np.float64(0.5))
    HyperParameters(sigma=np.float64(0.1), omega=np.int64(2), tau=np.float64(0.3))
    # the landmark probe builds this tag; only the pipeline refuses it
    assert PipelineConfig(solver=SolverTag.NYSTROM).solver is SolverTag.NYSTROM


def test_problem_schema_is_declared_once():
    assert mfgl.bench.Generator is mfgl.config.Generator
    assert mfgl.matio.FORMATS is mfgl.config.FORMATS


def test_problem_schema_refuses_a_generator_name():
    # a name is no Generator, so it would skip beam-like-1d's own bound
    with pytest.raises(InvalidConfig, match="unknown generator 'beam-like-1d'"):
        ProblemConfig(generator="beam-like-1d", d=2)


def test_every_flag_has_help():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    silent = [
        (name, action.option_strings)
        for name, p in sub.choices.items()
        for action in p._actions
        if not action.help
    ]
    assert silent == []


def test_estimate_and_bench_write_the_same_hyperparameter_keys(tmp_path, capsys):
    _, lf_path = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    run_cli(capsys, "plan", "--lf-path", str(lf_path), "--m", "4",
            "--output-dir", str(out_dir))
    hf_path = tmp_path / "hf.csv"
    write_csv(hf_path, read_csv(out_dir / "lf_permuted.csv")[:4])
    code, _, _ = run_cli(
        capsys, "estimate",
        "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(hf_path),
        "--plan-path", str(out_dir / "plan.json"),
        "--sigma", "0.02", "--output-dir", str(out_dir),
    )
    assert code == 0
    estimated = json.loads((out_dir / "hyperparameters.json").read_text())

    bench_dir = tmp_path / "bench"
    code, _, _ = run_cli(
        capsys, "bench", "--generator", "clustered-shift", "--n", "60",
        "--d", "3", "--clusters", "3", "--m", "4", "--seed", "1",
        "--output-dir", str(bench_dir),
    )
    assert code == 0
    benched = json.loads((bench_dir / "report.json").read_text())["hyperparameters"]
    assert set(estimated) == set(benched)
    assert set(benched) == {"sigma", "omega", "tau", "beta", "r", "kappa"}


def test_bench_refuses_m_zero(tmp_path, capsys):
    # the estimator needs high-fidelity rows: the setting's bound refuses
    # M = 0 before any problem is generated or any output written
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run_cli(capsys, "bench", "--n", "60", "--m", "0", "--output-dir", str(out_dir))
    assert code == 3 and out == ""
    error = last_json(err)
    assert error["error"] == "InvalidConfig"
    assert error["message"] == "m must be at least 1, got 0"
    assert list(out_dir.iterdir()) == []


REMOVED = "the 'nystrom' landmark solver was removed; use 'dense' or 'truncated'"


@pytest.mark.parametrize(
    "entry",
    ["run_pipeline", "plan_rows", "estimate_planned",
     "estimate_attached", "cli-plan", "cli-estimate", "cli-bench"],
)
def test_nystrom_refused_before_any_graph(entry, tmp_path, capsys, monkeypatch):
    # the landmark solver was removed: every pipeline and CLI entry
    # refuses its tag before any graph
    prob, lf_path = write_problem(tmp_path)
    # exactly the config the benchmark's landmark probe builds
    config = PipelineConfig(solver=SolverTag.NYSTROM, m=10, K=200, seed=0)
    record = mfgl.bench.plan_rows(
        prob.lf_data, dataclasses.replace(config, solver=SolverTag.TRUNCATED)
    ).record
    hf = sample_hf(prob, record.plan.selected_indices, seed=1)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "10", "--output-dir", str(out_dir)
    )
    assert code == 0
    write_csv(out_dir / "hf.csv", hf)

    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built for the nystrom solver")

    monkeypatch.setattr(mfgl.bench, "build_graph", no_graph)
    if entry.startswith("cli-"):
        command = entry[len("cli-"):]
        files = {
            "plan": ["--lf-path", str(lf_path)],
            "estimate": [
                "--lf-path", str(out_dir / "lf_permuted.csv"),
                "--hf-path", str(out_dir / "hf.csv"),
                "--plan-path", str(out_dir / "plan.json"), "--sigma", "0.01",
            ],
            "bench": ["--n", "60"],
        }[command]
        code, _, err = run_cli(
            capsys, command, *files, "--solver", "nystrom", "--m", "10",
            "--output-dir", str(tmp_path / "refused"),
        )
        assert code == 3
        error = last_json(err)
        assert error["error"] == "InvalidConfig"
        assert error["message"] == REMOVED
        return
    perm = np.asarray(record.plan.permutation, dtype=np.intp)
    call = {
        "run_pipeline": lambda: mfgl.bench.run_pipeline(prob, config),
        "plan_rows": lambda: mfgl.bench.plan_rows(prob.lf_data, config),
        "estimate_planned": lambda: mfgl.bench.estimate_planned(prob.lf_data[perm], record, hf, config),
        # a hand-built prior does not route the tag to another solver
        "estimate_attached": lambda: mfgl.bench.estimate_attached(
            hf - prob.lf_data[: len(hf)], dataclasses.replace(config, sigma=0.01), record.spectrum
        ),
    }[entry]
    with pytest.raises(InvalidConfig) as refused:
        call()
    assert str(refused.value) == REMOVED


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


def test_malformed_hf_csv_exit_2(tmp_path, capsys):
    _, lf_path = write_problem(tmp_path)
    out_dir = tmp_path / "out"
    run_cli(capsys, "plan", "--lf-path", str(lf_path), "--m", "4",
            "--output-dir", str(out_dir))
    hf_path = tmp_path / "hf.csv"
    hf_path.write_text("1,2,3\n\n4,5,6\n7,oops,9\n1,2,3\n")
    code, out, err = run_cli(
        capsys, "estimate",
        "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(hf_path),
        "--plan-path", str(out_dir / "plan.json"),
        "--sigma", "0.02",
        "--output-dir", str(out_dir),
    )
    assert code == 2
    payload = last_json(err)
    assert payload["error"] == "MatrixIOError"
    assert payload["exit_code"] == 2
    assert "line 4" in payload["message"]
    assert "Traceback" not in err
    assert not (out_dir / "mf_estimates.csv").exists()


@pytest.mark.parametrize(
    "command, argv",
    [("plan", ("--no-such-flag", "2")), ("plan", ("--embed-dim", "2")), ("bench", ("--threads", "2")),
     *((command, ("--normalization", "instance")) for command in ("plan", "estimate", "bench"))],
    ids=["--no-such-flag", "--embed-dim", "--threads", "instance-plan", "instance-estimate",
         "instance-bench"],
)
def test_unknown_flag_exit_3(command, argv, tmp_path, capsys):
    # planning embeds in M dimensions: no flag sets another width; the
    # BLAS library's own variables cap its threads; and the
    # normalizations are none and component.  The files named do not
    # exist, so the refusal comes before any file is read
    missing = str(tmp_path / "missing.csv")
    files = {"plan": ["--lf-path", missing],
             "estimate": ["--lf-path", missing, "--hf-path", missing, "--plan-path", missing],
             "bench": []}[command]
    code, _, err = run_cli(capsys, command, *files, "--output-dir", str(tmp_path / "out"), *argv)
    assert code == 3
    message = last_json(err)["message"]
    assert all(word in message for word in argv)
    assert not (tmp_path / "out").exists()


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


def test_round_off_neighbors_exit_4_without_blaming_duplicates(tmp_path, capsys):
    # 30 distinct rows of norm 1e3 in three groups of ten, each row 1e-12
    # from the next in its group: each row's 7th neighbor is below
    # SCALE_TOL (1e-14) x the largest row norm, at round-off distance
    profiles = np.random.default_rng(0).normal(size=(3, 4))
    profiles *= 1e3 / np.linalg.norm(profiles, axis=1, keepdims=True)
    step = np.array([1e-12, 0.0, 0.0, 0.0])
    lf = np.concatenate([profiles + k * step for k in range(10)])
    assert len(np.unique(lf, axis=0)) == 30
    lf_path = tmp_path / "round-off.csv"
    write_csv(lf_path, lf)
    code, _, err = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "2",
        "--normalization", "none", "--output-dir", str(tmp_path / "out"),
    )
    assert code == 4
    report = last_json(err)
    assert report["error"] == "DuplicatePointScale"
    assert "round-off" in report["message"]
    assert "duplicate" not in report["message"]


@pytest.mark.parametrize("scale", [1e160, 2.0**530])
def test_rows_whose_squared_norms_overflow_exit_3(tmp_path, capsys, scale):
    # refused by name: the overflow made the floor of the self-tuning
    # scales inf, which read as a scale underflow (DuplicatePointScale, exit 4)
    lf_path = tmp_path / "lf.csv"
    write_csv(lf_path, generate(Generator.CLUSTERED_SHIFT, 60, 3, seed=0, clusters=3).lf_data * scale)
    code, _, err = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "3",
        "--normalization", "none", "--output-dir", str(tmp_path / "out"),
    )
    assert code == 3
    report = last_json(err)
    assert report["error"] == "NonFiniteInput"
    assert "squared row norms overflow" in report["message"]
    assert "--normalization component" in report["message"]


def test_memory_budget_refusal_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mfgl.config, "MEMORY_BUDGET", 1000)
    code, out, err = run_cli(
        capsys, "bench", "--n", "200", "--d", "3", "--m", "4", "--output-dir", str(tmp_path),
    )
    assert code == 3 and out == ""
    error = last_json(err)
    assert error["error"] == "MemoryBudgetExceeded"
    assert error["message"].startswith("the graph on N=200 points would hold about ")
    assert error["message"].endswith(" bytes, above the 1000-byte memory budget")


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


# the BLAS library's own variables cap its threads, not a key or a flag
@pytest.mark.parametrize("key", ["mm", "embed_dim", "threads"])
def test_config_unknown_key_exit_3(key, tmp_path, capsys):
    _, lf_path = write_problem(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: 2}))
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


# argparse limits only the --format flag, so "tsv" in a file is RunConfig's
@pytest.mark.parametrize(
    "text, message",
    [
        (b"{not json", "is not valid JSON"),
        (b'\xff\xfe{"m": 3}', "is not valid JSON"),  # not UTF-8
        (b"[1, 2]", "must hold a JSON object"),
        (b'{"format": "tsv"}', "format must be one of ('csv', 'bin'), got 'tsv'"),
    ],
    ids=["not-json", "not-utf8", "list", "format"],
)
def test_config_file_refusals_exit_3(tmp_path, capsys, text, message):
    _, lf_path = write_problem(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(text)
    code, out, err = run_cli(
        capsys, "plan", "--config", str(cfg_path), "--lf-path", str(lf_path),
        "--output-dir", str(tmp_path / "out"),
    )
    assert code == 3 and out == ""
    error = last_json(err)
    assert error["error"] == "InvalidConfig"
    assert message in error["message"]
    assert not (tmp_path / "out").exists()


def test_plan_without_lf_path_exit_3(tmp_path, capsys):
    code, out, err = run_cli(capsys, "plan", "--m", "3", "--output-dir", str(tmp_path / "out"))
    assert code == 3 and out == ""
    assert last_json(err) == {
        "error": "InvalidConfig", "message": "plan needs --lf-path", "exit_code": 3,
    }
    assert not (tmp_path / "out").exists()


_SHARED_FLAGS = {
    "-h", "--help", "--config", "--output-dir", "--normalization", "--p", "--q", "--knn-k",
    "--solver", "--K", "--m", "--sigma", "--beta", "--r", "--omega", "--tau",
    "--seed",
}
# only the commands that read or write a matrix file take these
_FILE_FLAGS = {"--format", "--header", "--no-header"}


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
        "plan": _SHARED_FLAGS | _FILE_FLAGS | {"--lf-path"},
        "estimate": _SHARED_FLAGS | _FILE_FLAGS | {"--lf-path", "--hf-path", "--plan-path"},
        "bench": _SHARED_FLAGS | {
            "--generator", "--n", "--d", "--clusters", "--displacement-rel",
            "--noise-rel", "--lf-scale", "--metric",
        },
    }


def test_settings_schema_loads_without_numpy(tmp_path):
    # --help, --version and refused settings answer without loading numpy,
    # so parsing and merging settings must not import it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": "dense", "metric": "component", "omega": "auto"}))
    script = (
        "import sys\n"
        "from mfgl.cli import _build_parser, _merge_config\n"
        "parser = _build_parser()\n"
        "for argv in (['plan'], ['estimate'], ['bench']):\n"
        "    ns = parser.parse_args(argv + ['--config', sys.argv[1]])\n"
        "    cfg, bcfg, pcfg = _merge_config(ns)\n"
        "    assert pcfg.solver.value == 'dense', pcfg\n"
        "    assert pcfg.omega is None and pcfg.metric.value == 'component', pcfg\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mfgl.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cfg_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("solver", ["truncated", "dense"])
def test_estimate_refuses_a_sigma_whose_square_underflows(tmp_path, capsys, solver):
    # rows near 1e-160 plan fine, but sigma = 2.5e-162 squares to a
    # subnormal: refused as a bad setting (exit 3), not a traceback
    lf = np.random.default_rng(0).normal(size=(60, 3)) * 1e-160
    write_csv(tmp_path / "lf.csv", lf)
    out_dir = tmp_path / "out"
    shared = ["--solver", solver, "--m", "5", "--output-dir", str(out_dir)]
    code, out, _ = run_cli(capsys, "plan", "--lf-path", str(tmp_path / "lf.csv"), *shared)
    assert code == 0
    write_csv(tmp_path / "hf.csv", lf[last_json(out)["selected_indices"]] * 1.01)
    code, _, err = run_cli(
        capsys, "estimate", "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(tmp_path / "hf.csv"), "--plan-path", str(out_dir / "plan.json"),
        "--sigma", "2.5e-162", *shared,
    )
    assert code == 3
    error = last_json(err)
    assert (error["error"], error["exit_code"]) == ("InvalidConfig", 3)
    assert "--sigma" in error["message"]
    assert not (out_dir / "mf_estimates.csv").exists()


def test_cli_estimate_matches_pipeline_phi_star(tmp_path, capsys):
    # the CLI two-phase flow on files reproduces the in-process pipeline:
    # same plan, same hyperparameters, same posterior (bitwise, since
    # csv round-trips doubles via %.17g and normalization stays off)
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


def wide_field_peaks(tmp_path, capsys, flags):
    """Traced peaks of plan and of estimate on a 1000 x 256 beam-like
    field, as multiples of the rows' bytes."""
    prob = generate(Generator.BEAM_LIKE_1D, 1000, 256, seed=0)
    lf_path = tmp_path / "lf.csv"
    write_csv(lf_path, prob.lf_data)
    out_dir = tmp_path / "out"
    shared = ["--m", "20", "--seed", "7", "--output-dir", str(out_dir), *flags]
    (code, out, _), plan_peak = traced_peak(
        lambda: run_cli(capsys, "plan", "--lf-path", str(lf_path), *shared))
    assert code == 0
    hf_path = tmp_path / "hf.csv"
    write_csv(hf_path, sample_hf(prob, last_json(out)["selected_indices"], seed=8))
    (code, _, _), estimate_peak = traced_peak(lambda: run_cli(
        capsys, "estimate",
        "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(hf_path),
        "--plan-path", str(out_dir / "plan.json"),
        "--sigma", f"{prob.hf_noise_sigma:.17g}",
        *shared,
    ))
    assert code == 0
    return plan_peak / prob.lf_data.nbytes, estimate_peak / prob.lf_data.nbytes


@pytest.mark.parametrize(
    "flags, bound",
    [((), 2.0), (("--normalization", "component"), 2.0)],
    ids=["none", "component"],
)
def test_estimate_peak_memory_on_a_wide_field(tmp_path, capsys, flags, bound):
    # the raw rows are the one N x D array: the posterior keeps the MAP as
    # its factors (the reordered eigenvectors and A*), and each block of
    # estimates normalizes its rows, adds its MAP rows and is written, so
    # neither the normalized rows nor the MAP field is ever whole, and the
    # variances form their N x K product a row block at a time; the peak
    # is the rows, the eigenvectors and one block of estimates as CSV text.
    # Measured: 1.82x the rows' bytes without normalization and 1.81x with
    # component normalization (1.86x and 1.85x while the variances' product
    # was whole, 2.56x and 2.59x while the MAP field and the normalized rows
    # were whole)
    _, estimate = wide_field_peaks(tmp_path, capsys, flags)
    assert estimate < bound


@pytest.mark.parametrize(
    "flags, bound",
    [((), 2.3), (("--normalization", "component"), 2.2)],
    ids=["none", "component"],
)
def test_plan_peak_memory_on_a_wide_field(tmp_path, capsys, flags, bound):
    # plan hands the rows as read to planning, which hashes them and drops
    # them once the graph is built, so no rows are held through the
    # eigensolve, and the self-tuning scales make no N x D temporary; the
    # graph build holds one Gram block at a time, and the finiteness check
    # no N x D bool array.  Measured: 2.02x the rows' bytes without
    # normalization (the graph build: the rows and one Gram block) and
    # 2.07x with component normalization (normalize: the raw rows and
    # their normalized copy; 2.15x while the finiteness check formed its
    # bool array there); 2.48x and 2.47x while the graph
    # build held each Gram block through its pair selection, 2.96x and
    # 3.94x while plan held the rows to hash them after planning
    plan, _ = wide_field_peaks(tmp_path, capsys, flags)
    assert plan < bound


@pytest.mark.parametrize(
    "flags",
    [
        (),
        ("--normalization", "component"),
        ("--solver", "dense"),
        ("--solver", "dense", "--p", "1.0", "--q", "0.0"),
        ("--m", "1"),
        ("--solver", "dense", "--m", "1"),
    ],
    ids=["truncated", "component", "dense", "dense-random-walk", "m1", "dense-m1"],
)
def test_cli_estimate_matches_pipeline_bitwise(tmp_path, capsys, monkeypatch, flags):
    # estimate reuses the planning spectrum, and for the dense solver
    # rebuilds L_sym from the rows in input order, so the files agree bit
    # for bit with run_pipeline.  Blocks of 7 values hold two rows of
    # three, so the estimates are formed and written in 40 blocks, each
    # mapped back with its own rows' statistics
    from mfgl.bench import PipelineConfig, run_pipeline
    from mfgl.data import Normalization

    monkeypatch.setattr(mfgl.matio, "_BLOCK_VALUES", 7)
    option = {"--m": "4", **dict(zip(flags[::2], flags[1::2]))}
    prob, lf_path = write_problem(tmp_path, n=80, d=3, seed=2, clusters=4)
    cfg = PipelineConfig(
        m=int(option["--m"]),
        seed=5,
        solver=SolverTag(option.get("--solver", "truncated")),
        normalization=Normalization(option.get("--normalization", "none")),
        p=float(option.get("--p", PipelineConfig.p)),
        q=float(option.get("--q", PipelineConfig.q)),
    )
    out = run_pipeline(prob, cfg)

    out_dir = tmp_path / "cli"
    shared = [*sum(option.items(), ()), "--seed", "5", "--output-dir", str(out_dir)]
    code, _, _ = run_cli(capsys, "plan", "--lf-path", str(lf_path), *shared)
    assert code == 0
    hf_path = tmp_path / "hf.csv"
    write_csv(hf_path, sample_hf(prob, out.plan.selected_indices, seed=6))
    calls = Counter()

    def counted(name):
        fn = getattr(mfgl.bench, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("build_graph", "low_spectrum"):
        monkeypatch.setattr(mfgl.bench, name, counted(name))
    code, _, _ = run_cli(
        capsys, "estimate",
        "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(hf_path),
        "--plan-path", str(out_dir / "plan.json"),
        "--sigma", f"{prob.hf_noise_sigma:.17g}",
        *shared,
    )
    assert code == 0
    # the plan directory holds the spectrum but no Laplacian
    assert calls["build_graph"] == (1 if cfg.solver is SolverTag.DENSE else 0)
    assert calls["low_spectrum"] == 0
    assert np.array_equal(
        read_csv(out_dir / "mf_estimates.csv"), out.posterior.mf_estimates
    )
    stddevs = read_csv(out_dir / "stddevs.csv")[:, 0]
    assert np.array_equal(stddevs, out.posterior.stddevs)


def test_dense_l_sym_is_reordered_only_where_an_estimate_follows(tmp_path, capsys, monkeypatch):
    # mfgl plan drops the dense solver's L_sym, so it never reorders it;
    # run_pipeline, which estimates, reorders it once (mfgl estimate
    # rebuilds its own, and test_cli_estimate_matches_pipeline_bitwise
    # checks the two routes agree)
    from mfgl.bench import run_pipeline
    from mfgl.graph import GraphLaplacian

    calls = Counter()
    permuted = GraphLaplacian.permuted

    def counted(self, perm):
        calls["permuted"] += 1
        return permuted(self, perm)

    monkeypatch.setattr(GraphLaplacian, "permuted", counted)
    prob, lf_path = write_problem(tmp_path, n=80, d=3, seed=2, clusters=4)
    code, _, _ = run_cli(capsys, "plan", "--lf-path", str(lf_path), "--solver", "dense",
                         "--m", "4", "--output-dir", str(tmp_path / "cli"))
    assert code == 0
    assert calls["permuted"] == 0
    run_pipeline(prob, PipelineConfig(m=4, solver=SolverTag.DENSE))
    assert calls["permuted"] == 1


@pytest.mark.parametrize("solver", ["truncated", "dense"])
def test_cli_estimate_matches_pipeline_with_a_one_row_tail_block(tmp_path, capsys, solver):
    # D = 256 makes blocks of 32 rows, so N = 97 ends in a one-row block,
    # which numpy multiplies by another kernel than the blocks before it;
    # the CLI's files still equal run_pipeline's outputs bit for bit
    from mfgl.bench import run_pipeline

    assert 97 % mfgl.matio.block_rows(256) == 1
    prob = generate(Generator.BEAM_LIKE_1D, 97, 256, seed=4)
    cfg = PipelineConfig(m=5, seed=3, solver=SolverTag(solver))
    out = run_pipeline(prob, cfg)
    lf_path, out_dir = tmp_path / "lf.csv", tmp_path / "cli"
    write_csv(lf_path, prob.lf_data)
    shared = ["--m", "5", "--seed", "3", "--solver", solver, "--output-dir", str(out_dir)]
    code, _, _ = run_cli(capsys, "plan", "--lf-path", str(lf_path), *shared)
    assert code == 0
    hf_path = tmp_path / "hf.csv"
    write_csv(hf_path, sample_hf(prob, out.plan.selected_indices, seed=4))
    code, _, _ = run_cli(
        capsys, "estimate", "--lf-path", str(out_dir / "lf_permuted.csv"),
        "--hf-path", str(hf_path), "--plan-path", str(out_dir / "plan.json"),
        "--sigma", f"{prob.hf_noise_sigma:.17g}", *shared,
    )
    assert code == 0
    assert np.array_equal(read_csv(out_dir / "mf_estimates.csv"), out.posterior.mf_estimates)
    assert np.array_equal(read_csv(out_dir / "stddevs.csv")[:, 0], out.posterior.stddevs)


@pytest.mark.parametrize("solver", ["truncated", "dense"])
def test_bench_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, solver):
    # The BLAS library reads its thread cap when numpy loads, so each run
    # is its own process.  The truncated pipeline's files are byte-identical; the
    # dense one's multithreaded LAPACK calls may sum in another order, so
    # they agree to 1e-12 of each file's largest value.  (A per-point
    # error is a difference of close numbers: measured, its entrywise
    # change reached 1.3e-12 where the file's largest moved 2.5e-13.)
    for threads in ("1", "2"):
        cap = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        proc = subprocess.run(
            [sys.executable, "-m", "mfgl.cli", "bench", "--generator", "beam-like-1d",
             "--n", "300", "--d", "24", "--m", "8", "--seed", "2", "--solver", solver,
             "--output-dir", str(tmp_path / threads)],
            capture_output=True, text=True, timeout=120, env={**cli_env(), **cap},
        )
        assert proc.returncode == 0, proc.stderr
    for name in ("stddevs.csv", "per_point_errors.csv"):
        one, two = tmp_path / "1" / name, tmp_path / "2" / name
        if solver == "truncated":
            assert one.read_bytes() == two.read_bytes()
        else:
            a, b = read_csv(one), read_csv(two)
            assert np.abs(b - a).max() <= 1e-12 * np.abs(a).max()


_PRIOR_FLAGS = {
    "knn_k": ("--knn-k", "5"),
    "p": ("--p", "1.0"),
    "q": ("--q", "0.0"),
    "K": ("--K", "30"),
    "normalization": ("--normalization", "component"),
}


# plan.json record values of the wrong type, shape or sign
_TAMPERED_RECORD = {
    "shift_a-text": ("shift_a", "abc"),
    "shift_a-null": ("shift_a", None),
    "shift_a-negative": ("shift_a", -1.0),
    "stats-unknown-key": ("normalization_stats", {"bogus": [1]}),
    "stats-list": ("normalization_stats", [1, 2]),
    # refused as the plan file's, not as the --m setting's M >= 1
    "selected_indices-empty": ("selected_indices", []),
    # once truncated to integers (a function maps the key's value), or taken as they were
    "selected_indices-float": ("selected_indices", lambda v: [v[0] + 0.9, *v[1:]]),
    "permutation-float": ("permutation", lambda v: [v[0] + 0.5, *v[1:]]),
    "seed-text": ("seed", "7"),
    "seed-float": ("seed", 2.7),
    "knn_k-float": ("knn_k", 7.0),
    "stats-under-none": ("normalization_stats", {"mean": [0.0, 0.0, 0.0, 0.0]}),
    "normalization-instance": ("normalization", "instance"),
    "unknown-key": ("note", "kept"),
}
# spectrum_permuted.bin entries overwritten with a non-finite value: (row, column, value)
_NON_FINITE = {
    "spectrum-nan-eigenvalue": (0, 1, np.nan),
    "spectrum-inf-eigenvalue": (0, 1, np.inf),
    "spectrum-nan-eigenvector": (7, 3, np.nan),
}


@pytest.mark.parametrize(
    "case, expected, says",
    [("other-rows", 3, "lf_permuted"), ("fewer-rows", 3, "lf_permuted"),
     *((name, 3, name + "=") for name in _PRIOR_FLAGS),
     ("old-plan", 3, "run plan again"), ("solve-order-digest", 3, "lacks lf_input_sha256"),
     *((case, 3, key) for case, (key, _) in _TAMPERED_RECORD.items()),
     *((case + solver, 2, "spectrum_permuted.bin")
       for case in ("spectrum-deleted", "spectrum-truncated", "spectrum-other-shape",
                    "spectrum-one-column-wider", *_NON_FINITE)
       for solver in ("", "-dense"))],
)
def test_estimate_refuses_what_the_plan_did_not_see(case, expected, says, tmp_path, capsys,
                                                    monkeypatch):
    # a 300x4 problem planned with the default graph settings
    prob, lf_path = write_problem(tmp_path, n=300, d=4, clusters=5)
    out_dir = tmp_path / "plan"
    solver = ("--solver", "dense") if case.endswith("-dense") else ()
    case = case.removesuffix("-dense")
    code, out, _ = run_cli(
        capsys, "plan", "--lf-path", str(lf_path), "--m", "5", "--output-dir", str(out_dir),
        *solver,
    )
    assert code == 0
    write_csv(out_dir / "hf.csv", sample_hf(prob, last_json(out)["selected_indices"], seed=1))
    lf_path, flags = out_dir / "lf_permuted.csv", _PRIOR_FLAGS.get(case, ())
    spectrum = out_dir / "spectrum_permuted.bin"
    if case == "other-rows":
        lf_path = tmp_path / "other.csv"
        write_csv(lf_path, generate(Generator.CLUSTERED_SHIFT, 300, 4, seed=1, clusters=5).lf_data)
    elif case == "fewer-rows":
        lf_path = tmp_path / "fewer.csv"
        write_csv(lf_path, read_csv(out_dir / "lf_permuted.csv")[:-1])
    elif case == "old-plan":
        raw = json.loads((out_dir / "plan.json").read_text())
        for key in ("lf_input_sha256", "shift_a", "normalization_stats", *_PRIOR_FLAGS):
            del raw[key]
        (out_dir / "plan.json").write_text(json.dumps(raw))
    elif case == "solve-order-digest":
        # a plan directory whose digest is of the rows in solve order
        raw = json.loads((out_dir / "plan.json").read_text())
        raw["lf_sha256"] = raw.pop("lf_input_sha256")
        (out_dir / "plan.json").write_text(json.dumps(raw))
    elif case in _TAMPERED_RECORD:
        raw = json.loads((out_dir / "plan.json").read_text())
        key, value = _TAMPERED_RECORD[case]
        raw[key] = value(raw[key]) if callable(value) else value
        (out_dir / "plan.json").write_text(json.dumps(raw))
    elif case == "spectrum-deleted":
        spectrum.unlink()
    elif case == "spectrum-truncated":
        spectrum.write_bytes(spectrum.read_bytes()[:-8])
    elif case == "spectrum-other-shape":
        mfgl.matio.write_binary(spectrum, np.ones((300, 20)))
    elif case == "spectrum-one-column-wider":
        # as a plan that embedded in more than the K eigenpairs estimate uses
        table = read_binary(spectrum)
        mfgl.matio.write_binary(spectrum, np.hstack((table, table[:, -1:])))
    elif case in _NON_FINITE:
        table = read_binary(spectrum).copy()
        row, col, value = _NON_FINITE[case]
        table[row, col] = value
        mfgl.matio.write_binary(spectrum, table)

    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built before the plan directory was checked")

    monkeypatch.setattr(mfgl.bench, "build_graph", no_graph)
    code, _, err = run_cli(
        capsys, "estimate", "--lf-path", str(lf_path),
        "--hf-path", str(out_dir / "hf.csv"), "--plan-path", str(out_dir / "plan.json"),
        "--sigma", "0.01", "--output-dir", str(tmp_path / "est"), *flags, *solver,
    )
    assert code == expected
    error = last_json(err)
    assert error["error"] == ("InvalidConfig" if expected == 3 else "MatrixIOError")
    assert says in error["message"]
    if case in _TAMPERED_RECORD:
        assert "plan.json" in error["message"]
    assert not (tmp_path / "est").exists()
