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
standard library and :mod:`mfgl.config` are imported at module level, so
``--help``, ``--version`` and refused settings answer without loading
numpy; each command imports the pipeline when it runs.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .config import FORMATS, PipelineConfig, ProblemConfig, SolverTag, check_fields, field_rules
from .exceptions import InvalidConfig, MatrixIOError, NumericalError, ValidationError


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """The CLI's own settings: files, format and output.  The
    pipeline's settings are :class:`~mfgl.config.PipelineConfig`'s."""

    lf_path: Optional[str] = None
    hf_path: Optional[str] = None
    plan_path: Optional[str] = None
    format: str = "csv"
    header: bool = False
    output_dir: str = "."

    def __post_init__(self):
        check_fields(self)
        if self.format not in FORMATS:
            raise InvalidConfig(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.header and self.format == "bin":
            raise InvalidConfig("--header applies to csv files only; a bin file has no header")


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


def _merge_config(ns: argparse.Namespace) -> tuple[RunConfig, ProblemConfig, PipelineConfig]:
    """Defaults, then the JSON config file, then explicit flags."""
    given = {}
    config_path = getattr(ns, "config", None)
    if config_path:
        try:
            raw = json.loads(Path(config_path).read_text())
        except ValueError as exc:  # not JSON, or not UTF-8
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

    return tuple(schema(**{f.name: _field_value(f.name, given[f.name])
                           for f in fields(schema) if f.name in given}) for schema in _SCHEMAS)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_plan(cfg: RunConfig, pcfg: PipelineConfig) -> int:
    """Write the plan directory (the :class:`~mfgl.acquisition.PlanRecord`
    of :func:`~mfgl.bench.plan_rows`) and the rows in solve order
    (``lf_permuted``: the input's rows copied unchanged, never formatted
    again).

    The rows as parsed are handed to ``plan_rows`` as its only reference,
    so they die once the graph is built and no rows are held through the
    eigensolve or the writes.  It hashes them, so ``estimate`` refuses a
    copy of a file that changed after the read.
    """
    import numpy as np

    from . import matio
    from .bench import plan_rows

    if cfg.lf_path is None:
        raise InvalidConfig("plan needs --lf-path")
    record = plan_rows(matio.read_matrix(cfg.lf_path, cfg.format, cfg.header), pcfg).record
    plan = record.plan

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    plan_file = record.write(outdir)
    lf_file = outdir / f"lf_permuted.{cfg.format}"
    matio.copy_rows(cfg.lf_path, lf_file, np.asarray(plan.permutation, dtype=np.intp), cfg.format,
                    cfg.header)
    # The rows the user must now evaluate with their high-fidelity model,
    # in the exact order the estimate step expects the results in.
    print(json.dumps({"selected_indices": list(plan.selected_indices), "plan_path": str(plan_file),
                      "lf_permuted_path": str(lf_file)}))
    return 0


def cmd_estimate(cfg: RunConfig, pcfg: PipelineConfig) -> int:
    """Estimate from a plan directory and the user's high-fidelity rows.

    Reads the rows (``--lf-path``, solve order), then the plan directory
    (:meth:`~mfgl.acquisition.PlanRecord.read`, which refuses a record
    that does not fit them or the settings), then the high-fidelity rows.
    The planning eigenpairs are read in solve order and used as read; no
    eigensolve runs.  The dense solver also rebuilds L_sym from the rows
    in input order and reorders it.  The record and L_sym are handed on,
    so on the dense solver the eigenpairs die before the prior is written
    and L_sym once it is.  The result equals ``run_pipeline``'s
    bit for bit.  The rows are the one N x D array held:
    :func:`~mfgl.bench.estimate_planned` forms the estimates a row block
    at a time, straight into the writer.
    """
    import numpy as np

    from . import matio
    from .acquisition import PlanRecord
    from .bench import build_graph, estimate_planned, laplacian

    for flag, value in (("--lf-path (the reordered matrix from plan)", cfg.lf_path),
                        ("--hf-path", cfg.hf_path), ("--plan-path", cfg.plan_path),
                        ("--sigma (observation noise level)", pcfg.sigma)):
        if value is None:
            raise InvalidConfig(f"estimate needs {flag}")
    # plan wrote lf_permuted without a header; --header is for the user's hf file
    lf = matio.read_matrix(cfg.lf_path, cfg.format)
    record = PlanRecord.read(cfg.plan_path, pcfg, lf)
    hf = matio.read_matrix(cfg.hf_path, cfg.format, cfg.header)

    gls = [None]  # the one reference to L_sym, handed on to the dense factor
    if pcfg.solver is SolverTag.DENSE:  # L_sym, built from the rows in input order
        perm = np.asarray(record.plan.permutation, dtype=np.intp)
        gls = [laplacian(build_graph(record.nspec.apply(lf[np.argsort(perm)]), pcfg.knn_k),
                         pcfg.p, pcfg.q).permuted(perm)]
    records = [record]
    del record  # the one reference to the eigenpairs, handed on
    art, estimates = estimate_planned(lf, records.pop(), hf, pcfg, gls.pop())
    stddevs, resolved, timings = art.posterior.stddevs, art.hyper.as_dict(), art.timings

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    mf_file, sd_file = outdir / f"mf_estimates.{cfg.format}", outdir / "stddevs.csv"
    matio.write_matrix(mf_file, estimates, cfg.format)
    matio.write_csv(sd_file, stddevs[:, None])
    (outdir / "hyperparameters.json").write_text(json.dumps(resolved, indent=2) + "\n")
    (outdir / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    print(json.dumps({"mf_estimates_path": str(mf_file), "stddevs_path": str(sd_file),
                      "hyperparameters": resolved}))
    return 0


def cmd_bench(cfg: RunConfig, prob: ProblemConfig, pcfg: PipelineConfig) -> int:
    from .bench import generate, run_pipeline, write_report

    problem = generate(
        prob.generator, prob.n, prob.d, seed=pcfg.seed, clusters=prob.clusters,
        displacement_rel=prob.displacement_rel, noise_rel=prob.noise_rel, lf_scale=prob.lf_scale,
    )
    output = run_pipeline(problem, pcfg)
    write_report(cfg.output_dir, output)
    report = output.report
    print(json.dumps({
        "generator": prob.generator.value, "n": prob.n, "d": prob.d, "m": pcfg.m,
        "mean_lf_error_pct": report.mean_lf, "mean_mf_error_pct": report.mean_mf,
        "reduction_pct": report.reduction, "report_path": str(Path(cfg.output_dir) / "report.json"),
    }))
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
    if command in ("plan", "estimate"):  # the commands that read or write a matrix file
        g.add_argument("--format", choices=FORMATS, help="matrix file format (default csv)")
        g.add_argument("--header", action=argparse.BooleanOptionalAction, default=None,
                       help="the user's CSV (plan --lf-path, estimate --hf-path) has a header row")
    g.add_argument("--output-dir", dest="output_dir", metavar="DIR", help="where outputs are written (default .)")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        cfg, prob, pcfg = _merge_config(ns)
        if ns.command == "plan":
            return cmd_plan(cfg, pcfg)
        if ns.command == "estimate":
            return cmd_estimate(cfg, pcfg)
        return cmd_bench(cfg, prob, pcfg)
    except SystemExit as exc:  # argparse --help/--version
        return exc.code if isinstance(exc.code, int) else 0
    except (MatrixIOError, OSError, ValidationError, NumericalError) as exc:
        code = 3 if isinstance(exc, ValidationError) else 4 if isinstance(exc, NumericalError) else 2
        payload = {"error": type(exc).__name__, "exit_code": code, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
