"""Benchmark for mfgl: one workload, one closed-loop client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload clustered-truncated-3k --seed 0 \
        --seconds 10 --trace 0

Each operation starts when the previous one has finished.  Set-up is
importing the package, generating the problems and writing the input
files of the CLI workload; it is timed in fresh interpreters and is not
part of an operation.  With ``--trace 0`` the run reports the end-to-end
metrics and measures peak memory in a separate, untimed tracemalloc pass.
With ``--trace 1`` it runs half its time untraced and half traced, and
reports the per-layer metrics as medians over the traced operations.
Every invocation also makes one untimed Nystrom probe and records how it
ended.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
not 0 when an output is wrong.  The full record (environment, failures,
probe, per-operation times, spans) is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

# One BLAS thread: on a shared 2-core machine two threads ran the
# clustered pipeline in 5.4-6.3 s over three repeats, one thread in
# 7.42-7.53 s.  Set before numpy is first imported.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Set-up is timed in fresh interpreters, each importing the package and
# its numerical stack (which every process and every CLI command pays)
# and then generating the run's problems.  Timed alone inside one process,
# generating manifold-dense-400's problems took from 2.1 to 3.7 ms
# depending on the process, and the medians of two sets of ten runs
# differed by 29%.
SETUP_REPEATS = 3
_SETUP_SNIPPET = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
    "import workloads; from pathlib import Path; "
    "workloads.setup(workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4]), Path(sys.argv[5])); "
    "print(time.perf_counter() - t0)"
)

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "points_per_s": "points/s",
    "peak_mem_mb": "MB",
    "reduction_pct": "%",
    "coverage_2sd_pct": "%",
}
PER_LAYER = {
    "data.normalize.s": "s",
    "graph.self_tuning_scales.s": "s",
    "graph.build_graph.s": "s",
    "graph.build_graph.calls": "count",
    "graph.laplacian.s": "s",
    "spectral.low_spectrum.s": "s",
    "spectral.low_spectrum.calls": "count",
    "spectral.eigsh.calls": "count",
    "spectral.truncated_posterior.s": "s",
    "spectral.truncated_variances.s": "s",
    "acquisition.plan_acquisition.s": "s",
    "acquisition.kmeans.s": "s",
    "posterior.choose_tau.s": "s",
    "posterior.calibrate_omega.s": "s",
    "posterior.calibrate_omega.handle_calls": "count",
    "posterior.dense_posterior.s": "s",
    "posterior.dense_posterior.calls": "count",
    "matio.read_csv.s": "s",
    "matio.write_csv.s": "s",
    "matio.bytes": "bytes",
    "cli.cmd_plan.s": "s",
    "cli.cmd_estimate.s": "s",
    "bench.planning_spectrum.s": "s",
    "bench.estimate_attached.s": "s",
    "bench.run_pipeline.self_s": "s",
    "trace.overhead_s": "s",
}


def closed_loop(w, instances, seconds, tracer=None) -> dict:
    """Run operations back to back, in whole passes over the instances,
    until ``seconds`` of operation time have passed.  Each output is
    checked."""
    import workloads

    times, failures, problems, outcomes = [], [], [], {}
    for k in itertools.count():
        if k and k % len(instances) == 0 and sum(times) >= seconds:
            break
        inst = instances[k % len(instances)]
        scope = tracer.operation(k) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                result = workloads.operate(w, inst)
        except workloads.OperationFailed as exc:
            result = None
            failures.append({"op": k, "error": exc.error, "exit_code": exc.exit_code})
        times.append(time.perf_counter() - t0)
        if result is not None:
            o = workloads.outcome(inst, result)
            problems += [f"op {k}: {p}" for p in workloads.check(o)]
            outcomes.setdefault(inst.seed, o)
    failed = {f["op"] for f in failures}
    ok_times = [t for i, t in enumerate(times) if i not in failed]
    return {"times": times, "ok_times": ok_times, "failures": failures,
            "problems": problems, "outcomes": outcomes}


def peak_memory_mb(w, inst) -> float:
    """tracemalloc peak of one operation, in its own untimed pass."""
    import workloads

    tracemalloc.start()
    try:
        workloads.operate(w, inst)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def timed_setup(w, seed: int, workdir: Path) -> float:
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_SNIPPET, str(ROOT / "src"), str(Path(__file__).parent),
         w.name, str(seed), str(workdir)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def measure(w, seed: int, seconds: float, trace: bool, workdir: Path):
    """One benchmark run.  Returns its record (metrics included) and, for a
    traced run, the tracer holding the spans."""
    import tracing
    import workloads

    setups = [] if trace else [timed_setup(w, seed, workdir) for _ in range(SETUP_REPEATS)]
    instances = workloads.setup(w, seed, workdir)
    record = {"workload": w.name, "trace": trace, "env": environment(seed), "setup_s": setups}
    loop_seconds = seconds / 2 if trace else seconds
    untraced = closed_loop(w, instances, loop_seconds)
    loops = [untraced]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = closed_loop(w, instances, loop_seconds, tracer)
        loops.append(traced)
    if not all(loop["ok_times"] for loop in loops):
        raise SystemExit(f"{w.name}: no operation succeeded: {loops[-1]['failures']}")
    if trace:
        per_op = tracer.op_metrics()
        metrics = {name: statistics.median(ops.get(name, 0.0) for ops in per_op.values())
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(traced["ok_times"])
                                       - statistics.median(untraced["ok_times"]))
    else:
        outcomes = list(untraced["outcomes"].values())
        metrics = {
            "setup_s": statistics.median(setups),
            "op_s_p50": statistics.median(untraced["ok_times"]),
            "points_per_s": w.n * len(untraced["ok_times"]) / sum(untraced["times"]),
            "peak_mem_mb": peak_memory_mb(w, instances[0]),
            "reduction_pct": statistics.fmean(o.reduction_pct for o in outcomes),
            "coverage_2sd_pct": statistics.fmean(o.coverage_2sd_pct for o in outcomes),
        }

    problems = [p for loop in loops for p in loop["problems"]]
    if w.two_phase_cli:
        diff = workloads.gate_against_pipeline(w, instances[0],
                                               untraced["outcomes"][instances[0].seed])
        record["two_phase_vs_pipeline_max_rel_diff"] = diff
        if not diff <= workloads.GATE_RTOL:
            problems.append(f"two-phase CLI differs from run_pipeline by {diff:.3e}")
    record["nystrom_probe"] = workloads.nystrom_probe(seed)
    record.update(
        op_times=[loop["times"] for loop in loops],
        failures=[f for loop in loops for f in loop["failures"]],
        problems=problems,
        attempted=sum(len(loop["times"]) for loop in loops),
        op_s_samples=len(loops[-1]["ok_times"]),
        metrics=metrics,
    )
    return record, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mfgl").is_dir():
        print(f"mfgl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        record, tracer = measure(w, args.seed, args.seconds, bool(args.trace), Path(tmp))
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.json")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    failed = len(record["failures"])
    units = PER_LAYER if args.trace else END_TO_END
    print(f"# {stem}  env {json.dumps(record['env'])}")
    for name, value in record["metrics"].items():
        note = f"  (median of {record['op_s_samples']})" if name == "op_s_p50" else ""
        print(f"{name:42s} {value:14.6g} {units[name]}{note}")
    print(f"{'failed_share':42s} {failed / record['attempted']:14.6g} fraction"
          f"  ({failed} of {record['attempted']} operations)")
    for f in record["failures"]:
        print(f"failure: op {f['op']} {f['error']} exit code {f['exit_code']}")
    print(f"nystrom probe: {json.dumps(record['nystrom_probe'])}")
    for p in record["problems"]:
        print(f"WRONG OUTPUT: {p}")
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in record["metrics"].items()},
    }))
    return 1 if record["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
