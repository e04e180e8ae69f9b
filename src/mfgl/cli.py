"""Command-line front end: plan, estimate, bench.

The workflow is two-phase because the high-fidelity model belongs to the
user, not to us.  ``plan`` picks which parameter points deserve expensive
evaluations and writes the reordered low-fidelity matrix; the user runs
their own solver on the selected points; ``estimate`` ingests those
results and produces the updated estimates with uncertainties.  ``bench``
short-circuits the loop on synthetic problems where the truth is known.

Exit codes: 0 ok, 2 I/O error, 3 validation error, 4 numerical failure.
Errors are reported as one JSON object on stderr.

Only the standard library is imported at module level: ``--threads`` (or
``MFGL_THREADS``) caps BLAS pools through environment variables, which
must be set before the numerical stack is first imported.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, get_args, get_type_hints

from . import __version__
from .exceptions import (
    InvalidConfig,
    MatrixIOError,
    NumericalError,
    RowCountMismatch,
    ValidationError,
)

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_FORMATS = ("csv", "bin")
_SOLVERS = ("dense", "truncated", "nystrom")
_NORMALIZATIONS = ("none", "component", "instance")
_GENERATORS = ("clustered-shift", "smooth-manifold", "beam-like-1d")
_METRICS = ("component", "field")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _auto_or_number(value, name: str) -> Optional[float]:
    # "auto" (or None) means: resolve from the data at run time.
    if value is None or value == "auto":
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidConfig(f"{name} must be 'auto' or a number, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by all subcommands; ``PipelineConfig`` checks the
    pipeline's fields, :meth:`validate` only the CLI's own.

    ``omega`` and ``tau`` accept the string ``"auto"`` (resolve from the
    data) or a fixed positive value, matching the flags.
    """

    lf_path: Optional[str] = None
    hf_path: Optional[str] = None
    plan_path: Optional[str] = None
    format: str = "csv"
    header: bool = False
    normalization: str = "none"
    p: float = 0.5
    q: float = 0.5
    knn_k: int = 7
    solver: str = "truncated"
    K: Optional[int] = None
    m: int = 10
    sigma: Optional[float] = None
    beta: float = 2.0
    r: float = 3.0
    omega: object = "auto"
    tau: object = "auto"
    seed: int = 0
    output_dir: str = "."
    threads: Optional[int] = None
    rank_r: Optional[int] = None
    embed_dim: Optional[int] = None

    def validate(self) -> None:
        if self.format not in _FORMATS:
            raise InvalidConfig(f"format must be one of {_FORMATS}, got {self.format!r}")
        if self.solver not in _SOLVERS:
            raise InvalidConfig(f"solver must be one of {_SOLVERS}, got {self.solver!r}")
        if self.normalization not in _NORMALIZATIONS:
            raise InvalidConfig(
                f"normalization must be one of {_NORMALIZATIONS}, got {self.normalization!r}"
            )
        if self.threads is not None and self.threads < 1:
            raise InvalidConfig(f"threads must be at least 1, got {self.threads}")


@dataclass(frozen=True)
class BenchConfig:
    """Synthetic-problem knobs, only consumed by the bench subcommand."""

    generator: str = "clustered-shift"
    n: int = 1000
    d: int = 5
    clusters: int = 10
    displacement_rel: float = 0.3
    noise_rel: float = 0.01
    lf_scale: float = 0.8
    metric: str = "field"

    def validate(self) -> None:
        if self.generator not in _GENERATORS:
            raise InvalidConfig(
                f"generator must be one of {_GENERATORS}, got {self.generator!r}"
            )
        if self.metric not in _METRICS:
            raise InvalidConfig(f"metric must be one of {_METRICS}, got {self.metric!r}")
        if self.n < 2:
            raise InvalidConfig(f"n must be at least 2, got {self.n}")
        if self.d < 1:
            raise InvalidConfig(f"d must be at least 1, got {self.d}")
        if self.clusters < 1:
            raise InvalidConfig(f"clusters must be at least 1, got {self.clusters}")
        if not self.displacement_rel > 0:
            raise InvalidConfig(
                f"displacement-rel must be positive, got {self.displacement_rel}"
            )
        if self.noise_rel < 0:
            raise InvalidConfig(f"noise-rel must be non-negative, got {self.noise_rel}")
        if not self.lf_scale > 0:
            raise InvalidConfig(f"lf-scale must be positive, got {self.lf_scale}")


_FIELD_TYPES = {**get_type_hints(RunConfig), **get_type_hints(BenchConfig)}
_AUTO_KEYS = ("omega", "tau")  # a number, or "auto" to resolve from the data


def _is_of(value, kind) -> bool:
    # JSON booleans are Python ints; accept them only where bool is meant.
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _check_config_type(key: str, value, config_path) -> None:
    """Reject a config-file value whose JSON type does not fit its field."""
    if key in _AUTO_KEYS:
        if value == "auto":
            return
        kinds = (float, type(None))
    else:
        hint = _FIELD_TYPES[key]
        kinds = get_args(hint) or (hint,)  # Optional[X] -> (X, NoneType)
    if not any(_is_of(value, k) for k in kinds):
        names = ["null" if k is type(None) else k.__name__ for k in kinds]
        if key in _AUTO_KEYS:
            names.insert(0, "'auto'")
        expected = " or ".join(names)
        raise InvalidConfig(
            f"config key {key!r} in {config_path} must be {expected}, got {value!r}"
        )


def _merge_config(ns: argparse.Namespace) -> tuple[RunConfig, BenchConfig]:
    """Defaults, then the JSON config file, then explicit flags."""
    run_kw = {f.name: f.default for f in fields(RunConfig)}
    bench_kw = {f.name: f.default for f in fields(BenchConfig)}
    config_path = getattr(ns, "config", None)
    if config_path:
        text = Path(config_path).read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config file {config_path} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise InvalidConfig(f"config file {config_path} must hold a JSON object")
        for key, value in raw.items():
            if key in run_kw:
                target = run_kw
            elif key in bench_kw:
                target = bench_kw
            else:
                raise InvalidConfig(f"unknown config key {key!r} in {config_path}")
            _check_config_type(key, value, config_path)
            target[key] = value
    for key in run_kw:
        flag = getattr(ns, key, None)
        if flag is not None:
            run_kw[key] = flag
    for key in bench_kw:
        flag = getattr(ns, key, None)
        if flag is not None:
            bench_kw[key] = flag
    cfg = RunConfig(**run_kw)
    cfg.validate()
    bcfg = BenchConfig(**bench_kw)
    bcfg.validate()
    return cfg, bcfg


def _apply_thread_cap(threads: Optional[int]) -> None:
    # Effective only if set before numpy/scipy first load their BLAS; the
    # lazy imports below guarantee that for this process.
    if threads is None:
        return
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(threads)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _pipeline_config(cfg: RunConfig, bcfg: BenchConfig):
    from .bench import ErrorMetric, PipelineConfig
    from .data import Normalization
    from .posterior import SolverTag

    return PipelineConfig(
        solver=SolverTag(cfg.solver),
        m=cfg.m,
        knn_k=cfg.knn_k,
        p=cfg.p,
        q=cfg.q,
        normalization=Normalization(cfg.normalization),
        sigma=cfg.sigma,
        K=cfg.K,
        beta=cfg.beta,
        r=cfg.r,
        omega=_auto_or_number(cfg.omega, "omega"),
        tau=_auto_or_number(cfg.tau, "tau"),
        seed=cfg.seed,
        rank_r=cfg.rank_r,
        embed_dim=cfg.embed_dim,
        metric=ErrorMetric(bcfg.metric),
    )


def cmd_plan(cfg: RunConfig, pcfg) -> int:
    import numpy as np

    from . import matio
    from .acquisition import plan_acquisition, save_plan
    from .bench import planning_spectrum
    from .data import Dataset, normalize

    if cfg.lf_path is None:
        raise InvalidConfig("plan needs --lf-path")
    if pcfg.m < 1:
        raise InvalidConfig("plan needs m >= 1")
    lf = matio.read_matrix(cfg.lf_path, cfg.format, cfg.header)
    ds = Dataset(lf=lf)
    if pcfg.m > ds.n:
        raise InvalidConfig(f"m={pcfg.m} exceeds the number of rows {ds.n}")

    ds_norm, _ = normalize(ds, pcfg.normalization)
    spectrum = planning_spectrum(ds_norm.lf, pcfg).spectrum
    plan = plan_acquisition(spectrum, pcfg.m, pcfg.seed, embed_dim=pcfg.embed_dim)

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    plan_file = outdir / "plan.json"
    save_plan(plan_file, plan)
    perm = np.asarray(plan.permutation, dtype=np.intp)
    lf_file = outdir / f"lf_permuted.{cfg.format}"
    matio.write_matrix(lf_file, lf[perm], cfg.format)

    # The ids the user must now evaluate with their high-fidelity model,
    # in the exact row order the estimate step expects the results in.
    ids = (
        [ds.param_ids[i] for i in plan.selected_indices]
        if ds.param_ids is not None
        else list(plan.selected_indices)
    )
    print(
        json.dumps(
            {
                "parameter_ids": ids,
                "selected_indices": list(plan.selected_indices),
                "plan_path": str(plan_file),
                "lf_permuted_path": str(lf_file),
            }
        )
    )
    return 0


def cmd_estimate(cfg: RunConfig, pcfg) -> int:
    import numpy as np

    from . import matio
    from .acquisition import load_plan
    from .bench import estimate_planned
    from .data import Dataset, normalize

    if cfg.lf_path is None:
        raise InvalidConfig("estimate needs --lf-path (the reordered matrix from plan)")
    if cfg.hf_path is None:
        raise InvalidConfig("estimate needs --hf-path")
    if cfg.plan_path is None:
        raise InvalidConfig("estimate needs --plan-path")
    if pcfg.sigma is None:
        raise InvalidConfig("estimate needs --sigma (observation noise level)")

    plan = load_plan(cfg.plan_path)
    lf = matio.read_matrix(cfg.lf_path, cfg.format, cfg.header)
    hf = matio.read_matrix(cfg.hf_path, cfg.format, cfg.header)
    if lf.shape[0] != len(plan.permutation):
        raise RowCountMismatch(
            f"low-fidelity matrix has {lf.shape[0]} rows but the plan "
            f"covers {len(plan.permutation)}"
        )

    # Undo the plan's reordering, then normalize in input order exactly as
    # plan and run_pipeline do, so the estimate matches run_pipeline bit
    # for bit.
    perm = np.asarray(plan.permutation, dtype=np.intp)
    lf_input = np.empty_like(lf)
    lf_input[perm] = lf
    ds_norm, nspec = normalize(Dataset(lf=lf_input), pcfg.normalization)
    art = estimate_planned(ds_norm, nspec, plan, hf, pcfg)

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    mf_file = outdir / f"mf_estimates.{cfg.format}"
    matio.write_matrix(mf_file, art.posterior.mf_estimates, cfg.format)
    matio.write_csv(outdir / "stddevs.csv", art.posterior.stddevs[:, None])
    hp = art.hyper
    resolved = {
        "sigma": hp.sigma,
        "omega": hp.omega,
        "tau": hp.tau,
        "beta": hp.beta,
        "r": hp.r,
        "kappa": hp.kappa,
    }
    (outdir / "hyperparameters.json").write_text(json.dumps(resolved, indent=2) + "\n")
    (outdir / "timings.json").write_text(json.dumps(art.timings, indent=2) + "\n")
    print(
        json.dumps(
            {
                "mf_estimates_path": str(mf_file),
                "stddevs_path": str(outdir / "stddevs.csv"),
                "hyperparameters": resolved,
            }
        )
    )
    return 0


def cmd_bench(cfg: RunConfig, bcfg: BenchConfig, pcfg) -> int:
    from .bench import Generator, generate, run_pipeline, write_report

    problem = generate(
        Generator(bcfg.generator),
        bcfg.n,
        bcfg.d,
        seed=cfg.seed,
        clusters=bcfg.clusters,
        displacement_rel=bcfg.displacement_rel,
        noise_rel=bcfg.noise_rel,
        lf_scale=bcfg.lf_scale,
    )
    output = run_pipeline(problem, pcfg)
    write_report(cfg.output_dir, output)
    print(
        json.dumps(
            {
                "generator": bcfg.generator,
                "n": bcfg.n,
                "d": bcfg.d,
                "m": cfg.m,
                "mean_lf_error_pct": output.report.mean_lf,
                "mean_mf_error_pct": output.report.mean_mf,
                "reduction_pct": output.report.reduction,
                "report_path": str(Path(cfg.output_dir) / "report.json"),
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code 2 on bad flags; route through the
    # shared taxonomy instead (bad usage is a validation error, exit 3).
    def error(self, message):
        raise InvalidConfig(message)


def _add_shared(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("shared options")
    g.add_argument("--config", metavar="FILE", help="JSON file with config fields; explicit flags override it")
    g.add_argument("--format", choices=_FORMATS, help="matrix file format (default csv)")
    g.add_argument("--header", action=argparse.BooleanOptionalAction, default=None,
                   help="first row of CSV inputs is a header")
    g.add_argument("--normalization", choices=_NORMALIZATIONS)
    g.add_argument("--p", type=float, help="left degree exponent")
    g.add_argument("--q", type=float, help="right degree exponent")
    g.add_argument("--knn-k", type=int, dest="knn_k", help="neighbor rank for the local kernel scale")
    g.add_argument("--solver", choices=_SOLVERS)
    g.add_argument("--K", type=int, dest="K", help="spectrum size (truncated) or landmark count (nystrom)")
    g.add_argument("--m", type=int, help="high-fidelity budget")
    g.add_argument("--sigma", type=float, help="observation noise level, in input units")
    g.add_argument("--beta", type=float, help="prior smoothness exponent")
    g.add_argument("--r", type=float, help="spread-calibration multiple")
    g.add_argument("--omega", help="'auto' or a fixed prior strength")
    g.add_argument("--tau", help="'auto' or a fixed spectral shift")
    g.add_argument("--seed", type=int)
    g.add_argument("--output-dir", dest="output_dir", metavar="DIR")
    g.add_argument("--threads", type=int, help="cap for BLAS worker pools (MFGL_THREADS equivalent)")
    g.add_argument("--rank-r", type=int, dest="rank_r", help="extra rank cut for the landmark factor")
    g.add_argument("--embed-dim", type=int, dest="embed_dim", help="spectral embedding width for planning")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mfgl",
        description="Multi-fidelity estimation on graph-Laplacian priors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="{plan,estimate,bench}")

    p_plan = sub.add_parser("plan", help="select the rows worth a high-fidelity evaluation")
    p_plan.add_argument("--lf-path", dest="lf_path", metavar="FILE", help="low-fidelity matrix")
    _add_shared(p_plan)

    p_est = sub.add_parser("estimate", help="fuse high-fidelity results into updated estimates")
    p_est.add_argument("--lf-path", dest="lf_path", metavar="FILE", help="reordered low-fidelity matrix from plan")
    p_est.add_argument("--hf-path", dest="hf_path", metavar="FILE", help="high-fidelity rows, in plan order")
    p_est.add_argument("--plan-path", dest="plan_path", metavar="FILE", help="plan.json from the plan step")
    _add_shared(p_est)

    p_bench = sub.add_parser("bench", help="run the pipeline on a synthetic problem")
    p_bench.add_argument("--generator", choices=_GENERATORS)
    p_bench.add_argument("--n", type=int, help="number of parameter points")
    p_bench.add_argument("--d", type=int, help="state dimension")
    p_bench.add_argument("--clusters", type=int)
    p_bench.add_argument("--displacement-rel", type=float, dest="displacement_rel")
    p_bench.add_argument("--noise-rel", type=float, dest="noise_rel")
    p_bench.add_argument("--lf-scale", type=float, dest="lf_scale")
    p_bench.add_argument("--metric", choices=_METRICS)
    _add_shared(p_bench)

    return parser


def _emit_error(exc: BaseException, code: int) -> None:
    payload = {"error": type(exc).__name__, "exit_code": code, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = _build_parser()
        ns = parser.parse_args(argv)
        env_threads = os.environ.get("MFGL_THREADS")
        if ns.threads is None and env_threads is not None:
            try:
                ns.threads = int(env_threads)
            except ValueError:
                raise InvalidConfig(f"MFGL_THREADS must be an integer, got {env_threads!r}")
        cfg, bcfg = _merge_config(ns)
        _apply_thread_cap(cfg.threads)
        pcfg = _pipeline_config(cfg, bcfg)
        if ns.command == "plan":
            return cmd_plan(cfg, pcfg)
        if ns.command == "estimate":
            return cmd_estimate(cfg, pcfg)
        return cmd_bench(cfg, bcfg, pcfg)
    except SystemExit as exc:  # argparse --help/--version
        return exc.code if isinstance(exc.code, int) else 0
    except (MatrixIOError, OSError) as exc:
        _emit_error(exc, 2)
        return 2
    except ValidationError as exc:
        _emit_error(exc, 3)
        return 3
    except NumericalError as exc:
        _emit_error(exc, 4)
        return 4


if __name__ == "__main__":
    sys.exit(main())
