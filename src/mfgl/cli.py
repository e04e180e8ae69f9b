"""Command-line front end: plan, estimate, bench.

The workflow is two-phase because the high-fidelity model belongs to the
user, not to us.  ``plan`` picks which parameter points deserve expensive
evaluations and writes the reordered low-fidelity matrix; the user runs
their own solver on the selected points; ``estimate`` ingests those
results and produces the updated estimates with uncertainties.  ``bench``
short-circuits the loop on synthetic problems where the truth is known.

Exit codes: 0 ok, 2 I/O error, 3 validation error, 4 numerical failure.
Errors are reported as one JSON object on stderr.

The shared pipeline flags and the config-file keys are derived from the
fields of :class:`mfgl.config.PipelineConfig` (``--knn-k`` for ``knn_k``).
Only the standard library and that module are imported at module level:
``--threads`` (or ``MFGL_THREADS``) caps BLAS pools through environment
variables, which must be set before the numerical stack is first imported.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, get_args, get_type_hints

from . import __version__
from .config import PipelineConfig
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
_GENERATORS = ("clustered-shift", "smooth-manifold", "beam-like-1d")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """The CLI's own settings: files, format, output and thread cap.  The
    pipeline's settings are :class:`~mfgl.config.PipelineConfig`'s."""

    lf_path: Optional[str] = None
    hf_path: Optional[str] = None
    plan_path: Optional[str] = None
    format: str = "csv"
    header: bool = False
    output_dir: str = "."
    threads: Optional[int] = None

    def validate(self) -> None:
        if self.format not in _FORMATS:
            raise InvalidConfig(f"format must be one of {_FORMATS}, got {self.format!r}")
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

    def validate(self) -> None:
        if self.generator not in _GENERATORS:
            raise InvalidConfig(
                f"generator must be one of {_GENERATORS}, got {self.generator!r}"
            )
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


# Config-file keys: the fields of all three schemas, in every subcommand.
_FIELD_TYPES = {
    name: hint
    for schema in (RunConfig, BenchConfig, PipelineConfig)
    for name, hint in get_type_hints(schema).items()
}
_AUTO_KEYS = {f.name for f in fields(PipelineConfig) if f.metadata.get("auto")}


def _kinds(hint) -> tuple:
    # Optional[X] -> (X, NoneType)
    return get_args(hint) or (hint,)


def _is_enum(kind) -> bool:
    return isinstance(kind, type) and issubclass(kind, Enum)


def _is_of(value, kind) -> bool:
    # JSON booleans are Python ints; accept them only where bool is meant.
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, str if _is_enum(kind) else kind)


def _check_config_type(key: str, value, config_path) -> None:
    """Reject a config-file value whose JSON type does not fit its field;
    an enum field takes its value's string."""
    if key in _AUTO_KEYS and value == "auto":
        return
    kinds = _kinds(_FIELD_TYPES[key])
    if not any(_is_of(value, k) for k in kinds):
        names = [
            "null" if k is type(None) else "str" if _is_enum(k) else k.__name__
            for k in kinds
        ]
        if key in _AUTO_KEYS:
            names.insert(0, "'auto'")
        expected = " or ".join(names)
        raise InvalidConfig(
            f"config key {key!r} in {config_path} must be {expected}, got {value!r}"
        )


def _pipeline_value(name: str, value):
    """A flag or config-file value as its ``PipelineConfig`` field holds it."""
    if name in _AUTO_KEYS:  # "auto" (or None): resolve from the data at run time
        if value is None or value == "auto":
            return None
        try:
            return float(value)
        except (TypeError, ValueError):
            raise InvalidConfig(f"{name} must be 'auto' or a number, got {value!r}")
    kind = _kinds(_FIELD_TYPES[name])[0]
    if not _is_enum(kind):
        return value
    try:
        return kind(value)
    except ValueError:
        choices = tuple(e.value for e in kind)
        raise InvalidConfig(f"{name} must be one of {choices}, got {value!r}")


def _merge_config(
    ns: argparse.Namespace,
) -> tuple[RunConfig, BenchConfig, PipelineConfig]:
    """Defaults, then the JSON config file, then explicit flags."""
    given = {}
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
            if key not in _FIELD_TYPES:
                raise InvalidConfig(f"unknown config key {key!r} in {config_path}")
            _check_config_type(key, value, config_path)
            given[key] = value
    for key in _FIELD_TYPES:
        flag = getattr(ns, key, None)
        if flag is not None:
            given[key] = flag

    def pick(schema) -> dict:
        return {f.name: given[f.name] for f in fields(schema) if f.name in given}

    cfg, bcfg = RunConfig(**pick(RunConfig)), BenchConfig(**pick(BenchConfig))
    cfg.validate()
    bcfg.validate()
    pipeline = {k: _pipeline_value(k, v) for k, v in pick(PipelineConfig).items()}
    return cfg, bcfg, PipelineConfig(**pipeline)


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

def cmd_plan(cfg: RunConfig, pcfg: PipelineConfig) -> int:
    import numpy as np

    from . import matio
    from .acquisition import save_plan
    from .bench import plan_rows

    if cfg.lf_path is None:
        raise InvalidConfig("plan needs --lf-path")
    lf = matio.read_matrix(cfg.lf_path, cfg.format, cfg.header)
    plan = plan_rows(lf, pcfg).plan

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    plan_file = outdir / "plan.json"
    save_plan(plan_file, plan)
    perm = np.asarray(plan.permutation, dtype=np.intp)
    lf_file = outdir / f"lf_permuted.{cfg.format}"
    matio.write_matrix(lf_file, lf[perm], cfg.format)

    # The rows the user must now evaluate with their high-fidelity model,
    # in the exact order the estimate step expects the results in; a
    # matrix file carries no ids, so the ids are the row indices.
    selected = list(plan.selected_indices)
    print(
        json.dumps(
            {
                "parameter_ids": selected,
                "selected_indices": selected,
                "plan_path": str(plan_file),
                "lf_permuted_path": str(lf_file),
            }
        )
    )
    return 0


def cmd_estimate(cfg: RunConfig, pcfg: PipelineConfig) -> int:
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


def cmd_bench(cfg: RunConfig, bcfg: BenchConfig, pcfg: PipelineConfig) -> int:
    from .bench import Generator, generate, run_pipeline, write_report

    problem = generate(
        Generator(bcfg.generator),
        bcfg.n,
        bcfg.d,
        seed=pcfg.seed,
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
                "m": pcfg.m,
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


def _add_shared(parser: argparse.ArgumentParser, command: str) -> None:
    g = parser.add_argument_group("shared options")
    g.add_argument("--config", metavar="FILE", help="JSON file with config fields; explicit flags override it")
    g.add_argument("--format", choices=_FORMATS, help="matrix file format (default csv)")
    g.add_argument("--header", action=argparse.BooleanOptionalAction, default=None,
                   help="first row of CSV inputs is a header")
    g.add_argument("--output-dir", dest="output_dir", metavar="DIR")
    g.add_argument("--threads", type=int, help="cap for BLAS worker pools (MFGL_THREADS equivalent)")
    # One flag per PipelineConfig field of this subcommand: --knn-k for knn_k.
    for f in fields(PipelineConfig):
        if f.metadata.get("command", command) != command:
            continue
        kind = _kinds(_FIELD_TYPES[f.name])[0]
        if _is_enum(kind):
            kw = {"choices": [e.value for e in kind]}
        else:  # omega and tau take 'auto' too: strings until _pipeline_value
            kw = {} if f.name in _AUTO_KEYS else {"type": kind}
        group = parser if "command" in f.metadata else g  # one command's own flag
        group.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           help=f.metadata["help"], **kw)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mfgl",
        description="Multi-fidelity estimation on graph-Laplacian priors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="{plan,estimate,bench}")

    p_plan = sub.add_parser("plan", help="select the rows worth a high-fidelity evaluation")
    p_plan.add_argument("--lf-path", dest="lf_path", metavar="FILE", help="low-fidelity matrix")
    _add_shared(p_plan, "plan")

    p_est = sub.add_parser("estimate", help="fuse high-fidelity results into updated estimates")
    p_est.add_argument("--lf-path", dest="lf_path", metavar="FILE", help="reordered low-fidelity matrix from plan")
    p_est.add_argument("--hf-path", dest="hf_path", metavar="FILE", help="high-fidelity rows, in plan order")
    p_est.add_argument("--plan-path", dest="plan_path", metavar="FILE", help="plan.json from the plan step")
    _add_shared(p_est, "estimate")

    p_bench = sub.add_parser("bench", help="run the pipeline on a synthetic problem")
    p_bench.add_argument("--generator", choices=_GENERATORS)
    p_bench.add_argument("--n", type=int, help="number of parameter points")
    p_bench.add_argument("--d", type=int, help="state dimension")
    p_bench.add_argument("--clusters", type=int)
    p_bench.add_argument("--displacement-rel", type=float, dest="displacement_rel")
    p_bench.add_argument("--noise-rel", type=float, dest="noise_rel")
    p_bench.add_argument("--lf-scale", type=float, dest="lf_scale")
    _add_shared(p_bench, "bench")

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
        cfg, bcfg, pcfg = _merge_config(ns)
        _apply_thread_cap(cfg.threads)
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
