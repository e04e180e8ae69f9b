"""The benchmark's workloads: problem set-up, one operation, and its checks.

Every workload calls the package only through its public entry points,
``mfgl.bench.run_pipeline`` and ``mfgl.cli.main``, and looks them up on
the module at call time so that a tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mfgl import bench, cli, matio
from mfgl.bench import ErrorMetric, Generator, PipelineConfig, SyntheticProblem
from mfgl.exceptions import MatrixIOError, MfglError, NumericalError, ValidationError
from mfgl.posterior import SolverTag

# The two-phase CLI result must match run_pipeline on the same problem and
# seed.  Both take the same arithmetic path and CSV keeps %.17g digits, so
# they agree exactly today; the tolerance admits only round-off.
GATE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    generator: Generator
    n: int
    d: int
    m: int
    solver: SolverTag
    # Problems per run; operations cycle through them.
    instances: int
    # One operation is `mfgl plan`, writing the high-fidelity rows, then
    # `mfgl estimate`, on CSV files; otherwise one run_pipeline call.
    two_phase_cli: bool = False

    def config(self, seed: int) -> PipelineConfig:
        return PipelineConfig(solver=self.solver, m=self.m, seed=seed)


# Which end-to-end numbers a change to one layer should move, and where
# it should not:
# - one graph and spectrum per pipeline run (build_graph and low_spectrum
#   calls 2 -> 1): op_s_p50, points_per_s on clustered-truncated-3k; none
#   on beam-cli-2k, whose plan and estimate are separate commands.
# - cheap dense calibration (calibrate_omega.s, .handle_calls,
#   dense_posterior.s): op_s_p50 on manifold-dense-400; none on the two
#   truncated workloads, where calibration takes about 0.1 s.
# - the eigh/eigsh crossover (eigsh.calls, low_spectrum.s): op_s_p50 on
#   beam-cli-2k; none on clustered-truncated-3k, already on eigsh.
# - CSV reading and writing (matio.*): op_s_p50 on beam-cli-2k only.
# - no dense a*I - L on the eigsh branch: peak_mem_mb on
#   clustered-truncated-3k; none on manifold-dense-400.
# - any posterior or spectral change: reduction_pct and coverage_2sd_pct
#   on all three.
WORKLOADS = {
    w.name: w
    for w in (
        # Graph build and the eigsh branch dominate (N > DENSE_EIG_THRESHOLD),
        # and run_pipeline does both twice: once to plan, once to estimate.
        Workload("clustered-truncated-3k", Generator.CLUSTERED_SHIFT, 3000, 5, 10,
                 SolverTag.TRUNCATED, instances=1),
        # Dense omega calibration dominates and the graph costs little.
        # Coverage varies a lot between problems (37 to 70% at N=1000 over
        # generator seeds 0-9), and so does the number of calibration steps,
        # so a run pools 16 of them.  At N=1000 one operation takes 15 s on
        # one thread, too long to pool any.
        Workload("manifold-dense-400", Generator.SMOOTH_MANIFOLD, 400, 5, 10,
                 SolverTag.DENSE, instances=16),
        # File reads and writes, planning split from estimation, wide D, and
        # the dense eigh branch (N = DENSE_EIG_THRESHOLD).
        Workload("beam-cli-2k", Generator.BEAM_LIKE_1D, 2000, 256, 20,
                 SolverTag.TRUNCATED, instances=1, two_phase_cli=True),
    )
}


@dataclass(frozen=True)
class Instance:
    problem: SyntheticProblem
    seed: int
    workdir: Path  # holds the CSV input of a two-phase workload

    @property
    def lf_path(self) -> Path:
        return self.workdir / "lf.csv"


@dataclass(frozen=True)
class Outcome:
    """An operation's estimates in solve order, beside the truth."""

    mf: np.ndarray
    stddevs: np.ndarray
    truth: np.ndarray
    lf: np.ndarray

    @property
    def reduction_pct(self) -> float:
        return bench.build_report(self.mf, self.lf, self.truth, ErrorMetric.FIELD_REL_L2).reduction

    @property
    def coverage_2sd_pct(self) -> float:
        inside = np.abs(self.mf - self.truth) <= 2.0 * self.stddevs[:, None]
        return 100.0 * float(inside.mean())


class OperationFailed(Exception):
    """An operation ended in one of the package's typed errors."""

    def __init__(self, error: str, exit_code: int):
        super().__init__(f"{error} (exit code {exit_code})")
        self.error = error
        self.exit_code = exit_code


def exit_code(exc: MfglError) -> int:
    """The CLI's exit code for an error class (see mfgl.cli)."""
    if isinstance(exc, MatrixIOError):
        return 2
    if isinstance(exc, ValidationError):
        return 3
    if isinstance(exc, NumericalError):
        return 4
    return 1


def setup(w: Workload, seed: int, workdir: Path) -> list[Instance]:
    """Generate the run's problems and, for the CLI workload, their input files.

    Problem i is always generated from generator seed i; the run seed draws
    the planning restarts and the high-fidelity noise.  The geometry is
    fixed because the eigensolver's cost depends on it more than any bound
    could absorb: on clustered-shift at N=3000, low_spectrum took 3.4 s for
    generator seed 1 and 9.1 s for seed 2.
    """
    out = []
    for i in range(w.instances):
        problem = bench.generate(w.generator, w.n, w.d, seed=i)
        inst = Instance(problem, 1000 * seed + i, workdir / f"instance{i}")
        if w.two_phase_cli:
            inst.workdir.mkdir(parents=True, exist_ok=True)
            matio.write_csv(inst.lf_path, problem.lf_data)
        out.append(inst)
    return out


def operate(w: Workload, inst: Instance):
    """One operation.  Returns what :func:`outcome` needs to score it.

    Raises OperationFailed when the package reports one of its errors.
    """
    if w.two_phase_cli:
        return _two_phase(w, inst)
    try:
        return bench.run_pipeline(inst.problem, w.config(inst.seed))
    except MfglError as exc:
        raise OperationFailed(type(exc).__name__, exit_code(exc)) from exc


def _cli(args: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(args)
    if code != 0:
        error = json.loads(stderr.getvalue().strip().splitlines()[-1])["error"]
        raise OperationFailed(error, code)
    return json.loads(stdout.getvalue())


def _two_phase(w: Workload, inst: Instance) -> Path:
    out = inst.workdir / "out"
    shared = ["--format", "csv", "--solver", w.solver.value, "--m", str(w.m),
              "--seed", str(inst.seed), "--output-dir", str(out)]
    planned = _cli(["plan", "--lf-path", str(inst.lf_path)] + shared)
    # the user's high-fidelity runs, with the seed run_pipeline uses
    hf = bench.sample_hf(inst.problem, planned["selected_indices"], inst.seed + 1)
    matio.write_csv(out / "hf.csv", hf)
    _cli(["estimate", "--lf-path", planned["lf_permuted_path"],
          "--hf-path", str(out / "hf.csv"), "--plan-path", planned["plan_path"],
          "--sigma", repr(inst.problem.hf_noise_sigma)] + shared)
    return out


def outcome(inst: Instance, result) -> Outcome:
    """Read a result back, in solve order: the output directory of the
    two-phase CLI, or a run_pipeline output."""
    p = inst.problem
    if isinstance(result, Path):
        plan = json.loads((result / "plan.json").read_text())
        perm = np.asarray(plan["permutation"], dtype=np.intp)
        mf = np.loadtxt(result / "mf_estimates.csv", delimiter=",", ndmin=2)
        stddevs = np.loadtxt(result / "stddevs.csv", delimiter=",", ndmin=1)
    else:
        perm = np.asarray(result.plan.permutation, dtype=np.intp)
        mf, stddevs = result.posterior.mf_estimates, result.posterior.stddevs
    return Outcome(mf=mf, stddevs=stddevs, truth=p.true_data[perm], lf=p.lf_data[perm])


def check(o: Outcome) -> list[str]:
    """What is wrong with an operation's output; empty when it is sound."""
    problems = []
    if o.mf.shape != o.truth.shape or o.stddevs.shape != (o.truth.shape[0],):
        return [f"output shapes {o.mf.shape}, {o.stddevs.shape} do not fit {o.truth.shape}"]
    if not np.all(np.isfinite(o.mf)):
        problems.append("MAP estimate is not finite")
    if not np.all(np.isfinite(o.stddevs) & (o.stddevs > 0)):
        problems.append("a posterior stddev is not finite and positive")
    return problems


def gate_against_pipeline(w: Workload, inst: Instance, two_phase: Outcome) -> float:
    """Largest relative difference between the two-phase CLI result and
    run_pipeline on the same problem and seed, over MAP and stddevs."""
    ref = outcome(inst, bench.run_pipeline(inst.problem, w.config(inst.seed)))
    worst = 0.0
    for a, b in ((two_phase.mf, ref.mf), (two_phase.stddevs, ref.stddevs)):
        worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
    return worst


def nystrom_probe(seed: int) -> dict:
    """One untimed low-rank pipeline run on clustered-shift at N=3000.

    Known to fail on the repo's structured generators; recorded so the
    defect stays visible without being a workload.
    """
    problem = bench.generate(Generator.CLUSTERED_SHIFT, 3000, 5, seed=seed)
    config = PipelineConfig(solver=SolverTag.NYSTROM, m=10, K=200, seed=seed)
    t0 = time.perf_counter()
    try:
        out = bench.run_pipeline(problem, config)
    except MfglError as exc:
        result = {"ok": False, "error": type(exc).__name__, "exit_code": exit_code(exc)}
    else:
        result = {"ok": True, "reduction_pct": out.report.reduction}
    return dict(result, seconds=time.perf_counter() - t0)
