"""Command-line front end: plan, estimate, bench.

The workflow is two-phase because the high-fidelity model belongs to the
user, not to us.  ``plan`` picks which parameter points deserve expensive
evaluations and writes the reordered low-fidelity matrix; the user runs
their own solver on the selected points; ``estimate`` ingests those
results and produces the updated estimates with uncertainties.  ``bench``
short-circuits the loop on synthetic problems where the truth is known.

Exit codes: 0 ok, 2 I/O error, 3 validation error, 4 numerical failure.
Errors are reported as one JSON object on stderr.

The pipeline flags, the bench problem flags and the config-file keys are
derived from the fields of :class:`mfgl.config.PipelineConfig` and
:class:`mfgl.config.ProblemConfig` (``--knn-k`` for ``knn_k``).  The CLI
only converts strings; the schemas decide what is valid.  Only the
standard library and :mod:`mfgl.config` are imported at module level:
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
from typing import Optional, Sequence

from . import __version__
from .config import FORMATS, PipelineConfig, ProblemConfig, check_fields, field_rules, setting
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
    threads: Optional[int] = setting(None, "cap for BLAS worker pools (MFGL_THREADS equivalent)",
                                     low=1)

    def __post_init__(self):
        check_fields(self)
        if self.format not in FORMATS:
            raise InvalidConfig(f"format must be one of {FORMATS}, got {self.format!r}")


# Config-file keys: the fields of all three schemas, in every subcommand.
_SCHEMAS = (RunConfig, ProblemConfig, PipelineConfig)
_KINDS = {name: kinds[0] for schema in _SCHEMAS for name, kinds, *_ in field_rules(schema)}
_AUTO_KEYS = {f.name for f in fields(PipelineConfig) if f.metadata.get("auto")}


def _auto_or_float(text: str):
    return text if text == "auto" else float(text)


def _field_value(name: str, value):
    """A flag or config-file value as its schema's field holds it: "auto"
    is None, and an enum value its member; the schema checks the rest."""
    if name in _AUTO_KEYS and value == "auto":
        return None
    if issubclass(_KINDS[name], Enum):
        try:
            return _KINDS[name](value)
        except ValueError:
            pass  # the schema refuses it by name
    return value


def _merge_config(
    ns: argparse.Namespace,
) -> tuple[RunConfig, ProblemConfig, PipelineConfig]:
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
            if key not in _KINDS:
                raise InvalidConfig(f"unknown config key {key!r} in {config_path}")
            given[key] = value
    for key in _KINDS:
        flag = getattr(ns, key, None)
        if flag is not None:
            given[key] = flag

    def build(schema):
        return schema(**{
            f.name: _field_value(f.name, given[f.name]) for f in fields(schema) if f.name in given
        })

    return tuple(build(schema) for schema in _SCHEMAS)


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
    from .acquisition import plan_to_json
    from .bench import plan_rows

    if cfg.lf_path is None:
        raise InvalidConfig("plan needs --lf-path")
    lf = matio.read_matrix(cfg.lf_path, cfg.format, cfg.header)
    plan = plan_rows(lf, pcfg).plan

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    plan_file = outdir / "plan.json"
    plan_file.write_text(plan_to_json(plan) + "\n")
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
    from .acquisition import plan_from_json
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

    plan = plan_from_json(Path(cfg.plan_path).read_text())
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
    del lf  # only the input-order rows are needed from here on
    lf_input.setflags(write=False)
    ds_norm, nspec = normalize(Dataset(lf=lf_input), pcfg.normalization)
    art = estimate_planned(ds_norm, nspec, plan, hf, pcfg)

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    mf_file = outdir / f"mf_estimates.{cfg.format}"
    matio.write_matrix(mf_file, art.posterior.mf_estimates, cfg.format)
    matio.write_csv(outdir / "stddevs.csv", art.posterior.stddevs[:, None])
    resolved = art.hyper.as_dict()
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


def cmd_bench(cfg: RunConfig, prob: ProblemConfig, pcfg: PipelineConfig) -> int:
    from .bench import generate, run_pipeline, write_report

    problem = generate(
        prob.generator, prob.n, prob.d, seed=pcfg.seed, clusters=prob.clusters,
        displacement_rel=prob.displacement_rel, noise_rel=prob.noise_rel, lf_scale=prob.lf_scale,
    )
    output = run_pipeline(problem, pcfg)
    write_report(cfg.output_dir, output)
    print(
        json.dumps(
            {
                "generator": prob.generator.value,
                "n": prob.n,
                "d": prob.d,
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
    g.add_argument("--format", choices=FORMATS, help="matrix file format (default csv)")
    g.add_argument("--header", action=argparse.BooleanOptionalAction, default=None,
                   help="first row of CSV inputs is a header")
    g.add_argument("--output-dir", dest="output_dir", metavar="DIR", help="where outputs are written (default .)")
    g.add_argument("--threads", type=int, help="cap for BLAS worker pools (MFGL_THREADS equivalent)")
    # One flag per settings field of this subcommand: --knn-k for knn_k.
    for f in (*fields(ProblemConfig), *fields(PipelineConfig)):
        if f.metadata.get("command", command) != command:
            continue
        kind = _KINDS[f.name]
        if issubclass(kind, Enum):
            kw = {"choices": [e.value for e in kind]}
        else:
            kw = {"type": _auto_or_float if f.name in _AUTO_KEYS else kind}
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
        cfg, prob, pcfg = _merge_config(ns)
        _apply_thread_cap(cfg.threads)
        if ns.command == "plan":
            return cmd_plan(cfg, pcfg)
        if ns.command == "estimate":
            return cmd_estimate(cfg, pcfg)
        return cmd_bench(cfg, prob, pcfg)
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
