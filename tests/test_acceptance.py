"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line with the measured numbers, so a
plain pytest run doubles as the acceptance report.
"""

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import numpy.linalg as nla
import pytest

import mfgl.cli
from conftest import cli_env, random_points
from mfgl.bench import Generator, PipelineConfig, generate, run_pipeline, sample_hf
from mfgl.data import HyperParameters
from mfgl.graph import (
    build_graph,
    laplacian,
    self_adjointness_check,
)
from mfgl.matio import read_csv, write_csv
from mfgl.posterior import (
    calibrate_omega,
    dense_factor,
    dense_posterior,
    regularization_path,
)
from mfgl.spectral import low_spectrum, truncated_factor, truncated_posterior, truncated_variances


CLI_MODULE = (sys.executable, "-m", "mfgl.cli")
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_ac1_truncated_matches_dense_oracle(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_map = worst_cov = 0.0
    for i in range(20):
        n = int(rng.integers(12, 61))
        d = int(rng.integers(1, 9))
        m = max(2, n // 6)
        beta = 1.0 if i % 2 == 0 else 2.0
        gl = laplacian(
            build_graph(random_points(n, d, seed=200 + i), knn_k=min(5, n - 1)),
            0.5, 0.5,
        )
        hp = HyperParameters(
            sigma=float(rng.uniform(0.05, 0.5)),
            omega=float(rng.uniform(0.5, 5.0)),
            tau=float(rng.uniform(0.05, 0.5)),
            beta=beta,
        )
        phi_hat = rng.normal(size=(m, d))
        ref = dense_posterior(dense_factor(gl, range(m), hp.tau, hp.beta), phi_hat, hp.omega, hp.sigma,
                              want_cov=True)
        factor = truncated_factor(low_spectrum(gl, n), m, hp.tau, hp.beta)
        tp = truncated_posterior(factor, phi_hat, hp.omega, hp.sigma)
        rel_map = nla.norm(tp.spectrum.eigenvectors @ tp.coeff_mean - ref.phi_star) / nla.norm(
            ref.phi_star
        )
        dv = np.diag(ref.covariance)
        rel_cov = nla.norm(truncated_variances(tp) - dv) / nla.norm(dv)
        worst_map = max(worst_map, rel_map)
        worst_cov = max(worst_cov, rel_cov)
    elapsed = time.perf_counter() - t0
    ok = worst_map <= 1e-8 and worst_cov <= 1e-8 and elapsed < 10.0
    report(
        capsys,
        "AC1 full-spectrum truncation vs dense oracle",
        ok,
        f"20 instances, max MAP rel {worst_map:.2e}, "
        f"max diag-cov rel {worst_cov:.2e}, {elapsed:.1f}s",
    )


def test_ac3_spectral_invariants(capsys):
    rng = np.random.default_rng(103)
    worst_psd = 0.0
    worst_kernel = 0.0
    out_of_range = 0.0
    for i in range(50):
        n = int(rng.integers(10, 41))
        d = int(rng.integers(1, 6))
        pq = float(rng.uniform(0.25, 1.0))
        g = build_graph(random_points(n, d, seed=300 + i), knn_k=min(5, n - 1))
        gl = laplacian(g, pq, pq)
        lam = nla.eigvalsh(gl.matrix().toarray())
        worst_psd = min(worst_psd, float(lam.min()))
        out_of_range = max(out_of_range, float(lam.max()) - gl.shift_bound)
        kv = g.degrees**pq
        worst_kernel = max(
            worst_kernel, np.abs(gl.matrix() @ kv).max() / np.abs(kv).max()
        )
    ok = worst_psd >= -1e-10 and worst_kernel <= 1e-10 and out_of_range <= 1e-10
    report(
        capsys,
        "AC3 spectral invariants on 50 random graphs",
        ok,
        f"min eig {worst_psd:.1e}, kernel resid {worst_kernel:.1e}, "
        f"above-bound {out_of_range:.1e}",
    )


def test_ac4_regularization_path_converges(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    n, m = 30, 6
    gl = laplacian(build_graph(random_points(n, 2, seed=40), knn_k=5), 0.5, 0.5)
    tau = 0.3
    phi_obs = rng.normal(size=(m, 2))
    deltas = 2.0 ** -np.arange(1, 21)
    path = regularization_path(gl, phi_obs, deltas, tau, 2.0)

    # independent oracle: equality-constrained minimizer of theta^T B theta
    # via the full Lagrangian block system, solved generically
    b = nla.matrix_power(gl.matrix().toarray() + tau * np.eye(n), 2)
    sel = np.zeros((m, n))
    sel[np.arange(m), np.arange(m)] = 1.0
    kkt = np.block([[2.0 * b, sel.T], [sel, np.zeros((m, m))]])
    rhs = np.vstack([np.zeros((n, 2)), phi_obs])
    oracle = nla.solve(kkt, rhs)[:n]

    ref = nla.norm(oracle)
    errs = [nla.norm(it - oracle) / ref for it in path.iterates]
    tail_monotone = all(a >= b_ for a, b_ in zip(errs[4:], errs[5:]))
    elapsed = time.perf_counter() - t0
    ok = errs[-1] < 1e-4 and tail_monotone and elapsed < 5.0
    report(
        capsys,
        "AC4 vanishing-noise path converges to the constrained limit",
        ok,
        f"final rel err {errs[-1]:.2e}, tail monotone {tail_monotone}, "
        f"{elapsed:.2f}s",
    )


def test_ac5_calibration_self_consistency(capsys):
    rng = np.random.default_rng(105)
    worst = 0.0
    monotone = True
    for i in range(10):
        n = int(rng.integers(30, 51))
        m = int(rng.integers(5, 11))
        gl = laplacian(
            build_graph(random_points(n, int(rng.integers(2, 4)), seed=500 + i),
                        knn_k=5),
            0.5, 0.5,
        )
        sigma = float(rng.uniform(0.02, 0.3))
        factor = dense_factor(gl, range(m), 0.2)

        def handle(omega):
            return factor.mean_stddev(omega, sigma)

        omega = calibrate_omega(handle, sigma, r=3.0)
        target = 3.0 * sigma
        worst = max(worst, abs(handle(omega) - target) / target)
        values = [handle(om) for om in np.logspace(-3.0, 3.0, 10)]
        monotone = monotone and all(a > b for a, b in zip(values, values[1:]))
    ok = worst <= 1e-3 and monotone
    report(
        capsys,
        "AC5 spread calibration hits its target",
        ok,
        f"10 instances, max rel miss {worst:.2e}, monotone {monotone}",
    )


def test_ac6_clustered_shift_error_reduction(capsys):
    t0 = time.perf_counter()
    problem = generate(
        Generator.CLUSTERED_SHIFT, 1000, 5, seed=0, clusters=10,
        displacement_rel=0.3, noise_rel=0.01,
    )
    out = run_pipeline(problem, PipelineConfig(m=10, seed=0))
    elapsed = time.perf_counter() - t0
    red = out.report.reduction
    ok = red >= 75.0 and elapsed < 60.0
    report(
        capsys,
        "AC6 clustered-shift benchmark error reduction",
        ok,
        f"reduction {red:.1f}% (need >= 75%), "
        f"lf {out.report.mean_lf:.2f}% -> mf {out.report.mean_mf:.2f}%, "
        f"{elapsed:.1f}s",
    )


def test_ac8_general_normalization(capsys):
    rng = np.random.default_rng(108)
    worst_map = 0.0
    for seed in (0, 1, 2, 3, 4):
        n, m = 100, 10
        g = build_graph(random_points(n, 3, seed=800 + seed), knn_k=6)
        hp = HyperParameters(sigma=0.1, omega=2.0, tau=0.25, beta=2.0)
        phi_hat = rng.normal(size=(m, 2))
        gl = laplacian(g, 1.0, 0.0)
        ref = dense_posterior(dense_factor(gl, range(m), hp.tau, hp.beta), phi_hat, hp.omega, hp.sigma)
        factor = truncated_factor(low_spectrum(gl, n), m, hp.tau, hp.beta)
        tp = truncated_posterior(factor, phi_hat, hp.omega, hp.sigma)
        got = tp.spectrum.eigenvectors @ tp.coeff_mean
        worst_map = max(worst_map, nla.norm(got - ref.phi_star) / nla.norm(ref.phi_star))
    worst_adj = 0.0
    for i in range(20):
        n = int(rng.integers(12, 40))
        g = build_graph(random_points(n, int(rng.integers(1, 5)), seed=820 + i),
                        knn_k=min(5, n - 1))
        p = float(rng.uniform(0.0, 1.2))
        q = float(rng.uniform(0.0, 1.2))
        worst_adj = max(worst_adj, self_adjointness_check(laplacian(g, p, q)))
    ok = worst_map <= 1e-6 and worst_adj <= 1e-10
    report(
        capsys,
        "AC8 asymmetric normalization agrees across solvers",
        ok,
        f"random-walk MAP rel {worst_map:.2e} over 5 instances, "
        f"self-adjointness resid {worst_adj:.1e} over 20 graphs",
    )


def run_cli(command, *args):
    return subprocess.run(
        [*command, *args], capture_output=True, text=True, timeout=120,
        env=cli_env(),
    )


def ac9_plan_args(lf_path, outdir):
    return ("plan", "--lf-path", str(lf_path), "--m", "5", "--seed", "11",
            "--output-dir", str(outdir))


def ac9_problem(tmp_path):
    prob = generate(Generator.CLUSTERED_SHIFT, 100, 3, seed=2, clusters=4)
    lf_path = tmp_path / "lf.csv"
    write_csv(lf_path, prob.lf_data)
    return prob, lf_path


def test_ac9_cli_closed_loop(tmp_path, capsys):
    """`mfgl plan` then `mfgl estimate`, each in its own process.

    Each command runs as `python -m mfgl.cli` under the interpreter that runs
    the suite, with PYTHONPATH pinned to the `mfgl` package this module
    imported. Installing the package is not part of the test command, so a
    console script may be missing; and one found on PATH may belong to
    another checkout, which would compare foreign code against this tree's
    in-process `run_pipeline`. `test_ac9_installed_console_script` covers the
    installed script wherever there is one.
    """
    prob, lf_path = ac9_problem(tmp_path)
    cfg = PipelineConfig(m=5, seed=11)
    expected = run_pipeline(prob, cfg)

    def run(*args):
        return run_cli(CLI_MODULE, *args)

    def plan_and_estimate(outdir):
        outdir.mkdir()
        res = run(*ac9_plan_args(lf_path, outdir))
        assert res.returncode == 0, res.stderr
        selected = json.loads(res.stdout)["selected_indices"]
        hf = sample_hf(prob, selected, seed=12)  # the pipeline's seed + 1
        write_csv(outdir / "hf.csv", hf)
        res = run(
            "estimate",
            "--lf-path", str(outdir / "lf_permuted.csv"),
            "--hf-path", str(outdir / "hf.csv"),
            "--plan-path", str(outdir / "plan.json"),
            "--sigma", f"{prob.hf_noise_sigma:.17g}", "--seed", "11",
            "--output-dir", str(outdir),
        )
        assert res.returncode == 0, res.stderr
        return selected

    selected = plan_and_estimate(tmp_path / "run1")
    exact = list(selected) == list(expected.plan.selected_indices)
    mf_cli = read_csv(tmp_path / "run1" / "mf_estimates.csv")
    exact = exact and np.array_equal(mf_cli, expected.posterior.mf_estimates)
    stddev_cli = read_csv(tmp_path / "run1" / "stddevs.csv").ravel()
    exact = exact and np.array_equal(stddev_cli, expected.posterior.stddevs)

    plan_and_estimate(tmp_path / "run2")
    deterministic = True
    for name in ("plan.json", "lf_permuted.csv", "mf_estimates.csv", "stddevs.csv"):
        deterministic = deterministic and (
            (tmp_path / "run1" / name).read_bytes()
            == (tmp_path / "run2" / name).read_bytes()
        )

    # documented exit codes: 2 I/O, 3 validation, 4 numerical
    codes = [
        run("plan", "--lf-path", str(tmp_path / "missing.csv"), "--m", "3",
            "--output-dir", str(tmp_path / "e1")).returncode,
        run("plan", "--lf-path", str(lf_path), "--m", "5000",
            "--output-dir", str(tmp_path / "e2")).returncode,
    ]
    dup_path = tmp_path / "dup.csv"
    write_csv(dup_path, np.ones((10, 2)))
    codes.append(
        run("plan", "--lf-path", str(dup_path), "--m", "2",
            "--output-dir", str(tmp_path / "e3")).returncode
    )
    codes_ok = codes == [2, 3, 4]

    ok = exact and deterministic and codes_ok
    report(
        capsys,
        "AC9 command-line closed loop",
        ok,
        f"matches in-process pipeline {exact}, deterministic {deterministic}, "
        f"exit codes {codes} (want [2, 3, 4])",
    )


def test_ac9_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["mfgl"]
    assert target == "mfgl.cli:main"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is mfgl.cli.main


@pytest.mark.skipif(shutil.which("mfgl") is None,
                    reason="mfgl console script not installed")
def test_ac9_installed_console_script(tmp_path):
    _, lf_path = ac9_problem(tmp_path)
    plans = []
    for name, command in (("module", CLI_MODULE), ("script", (shutil.which("mfgl"),))):
        outdir = tmp_path / name
        outdir.mkdir()
        res = run_cli(command, *ac9_plan_args(lf_path, outdir))
        assert res.returncode == 0, res.stderr
        plans.append((outdir / "plan.json").read_bytes())
    assert plans[0] == plans[1]
