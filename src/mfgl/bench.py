"""Synthetic bi-fidelity problems, relative error metrics, and the
end-to-end pipeline driver.

The generators stand in for expensive simulation datasets: each produces
a ground truth, a structurally biased low-fidelity copy, and a noise
level for sampling high-fidelity observations on demand.  Error metrics
are percentages relative to the reference set's own scale, so reductions
are comparable across problems.

The pipeline plans on the rows in input order and estimates in solve
order (observed rows first): :func:`plan_rows` reorders the planning
spectrum once, into the plan record ``mfgl plan`` writes and ``mfgl
estimate`` reads, and nothing downstream reorders it again.  The dense
solver's L_sym stays in input order: its factor reads the observed rows
by index.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .acquisition import AcquisitionPlan, PlanRecord, plan_acquisition
from .config import (
    ErrorMetric, Generator, Normalization, PipelineConfig, ProblemConfig, SolverTag, check_values,
)
from .data import HyperParameters, NormalizationSpec, frozen, normalize, observations
from .exceptions import (
    InvalidConfig,
    MissingHighFidelity,
    RowCountMismatch,
    ZeroReferenceColumn,
    ZeroReferenceSet,
)
from .graph import GraphLaplacian, build_graph, laplacian
from .matio import write_csv
from .posterior import (
    PosteriorResult,
    calibrate_omega,
    choose_tau,
    dense_factor,
    dense_posterior,
)
from .spectral import (
    Spectrum,
    embed,
    low_spectrum,
    truncated_factor,
    truncated_posterior,
    truncated_variances,
)


@dataclass(frozen=True, eq=False)
class SyntheticProblem:
    """Ground truth, biased low-fidelity copy, and noise level.

    High-fidelity observations are sampled lazily via :func:`sample_hf`,
    keeping the M-much-smaller-than-N workflow honest.
    """

    generator: Generator
    true_data: np.ndarray
    lf_data: np.ndarray
    hf_noise_sigma: float
    cluster_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "true_data", frozen(self.true_data))
        object.__setattr__(self, "lf_data", frozen(self.lf_data))
        if self.cluster_labels is not None:
            object.__setattr__(self, "cluster_labels", frozen(self.cluster_labels, np.intp))
        if self.true_data.shape != self.lf_data.shape:
            raise InvalidConfig("true and low-fidelity arrays must share a shape")

    @property
    def d(self) -> int:
        return self.lf_data.shape[1]


def sample_hf(problem: SyntheticProblem, indices, seed: int) -> np.ndarray:
    """Noisy high-fidelity observations at the given original-order rows."""
    idx = np.asarray(indices, dtype=np.intp)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, problem.hf_noise_sigma, size=(idx.size, problem.d))
    return problem.true_data[idx] + noise


def _separated_centers(rng, clusters: int, d: int, gap: float) -> np.ndarray:
    centers = rng.standard_normal((clusters, d))
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    dist[np.arange(clusters), np.arange(clusters)] = np.inf
    dmin = float(dist.min())
    if dmin <= 0:
        # resample degenerate duplicates, vanishingly rare
        return _separated_centers(rng, clusters, d, gap)
    return centers * (gap / dmin)


def _gen_clustered_shift(
    n, d, seed, clusters, displacement_rel, noise_rel
) -> SyntheticProblem:
    rng = np.random.default_rng(seed)
    within = 0.1
    # Centers 8 within-spreads apart: distinct clusters whose kernel
    # cross-weights stay above double-precision underflow.  Push them
    # much farther and the graph falls apart numerically, the smallest
    # retained eigenvalue jumps to the within-cluster scale, and the
    # prior stops carrying an observation across its own cluster.
    centers = _separated_centers(rng, clusters, d, gap=8.0 * within)
    labels = rng.permutation(np.arange(n) % clusters)
    lf = centers[labels] + within * rng.standard_normal((n, d))
    scale = float(np.mean(np.linalg.norm(lf, axis=1)))
    dirs = rng.standard_normal((clusters, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    shift = displacement_rel * scale * dirs
    true = lf + shift[labels]
    return SyntheticProblem(
        generator=Generator.CLUSTERED_SHIFT,
        true_data=true,
        lf_data=lf,
        hf_noise_sigma=noise_rel * displacement_rel * scale,
        cluster_labels=labels,
    )


def _gen_smooth_manifold(n, d, seed, displacement_rel, noise_rel) -> SyntheticProblem:
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    curve = np.stack([np.cos(t), np.sin(t), 0.5 * t], axis=1)
    lf = curve @ rng.standard_normal((3, d))
    scale = float(np.mean(np.linalg.norm(lf, axis=1)))
    raw = np.stack([np.sin(2.0 * t), np.cos(3.0 * t)], axis=1) @ rng.standard_normal(
        (2, d)
    )
    raw_scale = float(np.mean(np.linalg.norm(raw, axis=1)))
    true = lf + raw * (displacement_rel * scale / raw_scale)
    return SyntheticProblem(
        generator=Generator.SMOOTH_MANIFOLD,
        true_data=true,
        lf_data=lf,
        hf_noise_sigma=noise_rel * displacement_rel * scale,
    )


def _gen_beam_like(n, d, seed, lf_scale, noise_rel) -> SyntheticProblem:
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, d)
    amp = rng.uniform(0.5, 1.5, n)
    true = amp[:, None] * (0.5 * x**2 * (3.0 - x))[None, :]
    # underpredicting low-fidelity analogue: scaled and slightly smeared
    padded = np.pad(true, ((0, 0), (1, 1)), mode="edge")
    smoothed = 0.25 * padded[:, :-2] + 0.5 * padded[:, 1:-1] + 0.25 * padded[:, 2:]
    lf = lf_scale * smoothed
    disp_scale = float(np.mean(np.linalg.norm(true - lf, axis=1)))
    return SyntheticProblem(
        generator=Generator.BEAM_LIKE_1D,
        true_data=true,
        lf_data=lf,
        hf_noise_sigma=noise_rel * disp_scale,
    )


def generate(
    kind: Generator,
    n: int,
    d: int,
    seed: int,
    clusters: int = ProblemConfig.clusters,
    displacement_rel: float = ProblemConfig.displacement_rel,
    noise_rel: float = ProblemConfig.noise_rel,
    lf_scale: float = ProblemConfig.lf_scale,
) -> SyntheticProblem:
    """Build one synthetic bi-fidelity problem.

    ClusteredShift moves each of ``clusters`` well-separated point groups
    by its own constant vector (magnitude ``displacement_rel`` of the data
    scale).  SmoothManifold places points on a curve and displaces them by
    a smooth function of the curve parameter.  BeamLike1D makes each row a
    discretized 1-D field whose low-fidelity version underpredicts
    (``lf_scale``) and smears the truth.

    The stored noise level is ``noise_rel`` times the displacement scale.
    The arguments are checked, and their defaults taken, by
    :class:`~mfgl.config.ProblemConfig` (the seed as its
    :class:`~mfgl.config.PipelineConfig` field), as ``mfgl bench`` checks its own.
    """
    ProblemConfig(kind, n, d, clusters, displacement_rel, noise_rel, lf_scale)
    check_values(PipelineConfig, seed=seed)
    if kind is Generator.CLUSTERED_SHIFT:
        return _gen_clustered_shift(n, d, seed, clusters, displacement_rel, noise_rel)
    if kind is Generator.SMOOTH_MANIFOLD:
        return _gen_smooth_manifold(n, d, seed, displacement_rel, noise_rel)
    return _gen_beam_like(n, d, seed, lf_scale, noise_rel)


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------

def _same_shape(est, ref) -> tuple:
    """``est`` and ``ref`` as float arrays, refused unless their shapes agree."""
    est, ref = np.asarray(est, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if est.shape != ref.shape:
        raise InvalidConfig(f"shape mismatch: {est.shape} vs {ref.shape}")
    return est, ref


def error_component(est: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-entry percentage error, each column scaled by the reference
    column's mean absolute value."""
    est, ref = _same_shape(est, ref)
    denom = np.mean(np.abs(ref), axis=0)
    bad = np.flatnonzero(denom == 0.0)
    if bad.size:
        raise ZeroReferenceColumn(int(bad[0]))
    return 100.0 * np.abs(est - ref) / denom[None, :]


def error_field(est: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-row percentage error, scaled by the reference's mean row norm.

    ``ref`` and ``est - ref`` are taken times 2^-e, e the exponent of
    their largest |entry| (``np.frexp``), before the norms square them:
    the scaling is exact and cancels in the ratio, and no scale of the
    rows makes a square overflow or underflow."""
    est, ref = _same_shape(est, ref)
    diff = est - ref
    e = np.frexp(max(np.abs(ref).max(initial=0.0), np.abs(diff).max(initial=0.0)))[1]
    err = np.linalg.norm(np.ldexp(diff, -e, out=diff), axis=1)
    del diff
    denom = float(np.mean(np.linalg.norm(np.ldexp(ref, -e), axis=1)))
    if denom == 0.0:
        raise ZeroReferenceSet("reference rows are identically zero")
    return 100.0 * err / denom


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Per-point percentage errors of the estimate and the low-fidelity
    baseline's mean; the estimate's mean and the reduction 100 (1 - mf/lf)
    are computed from them."""

    per_point: np.ndarray
    mean_lf: float
    metric: ErrorMetric

    def __post_init__(self):
        object.__setattr__(self, "per_point", frozen(self.per_point))

    @property
    def mean_mf(self) -> float:
        return float(self.per_point.mean())

    @property
    def reduction(self) -> float:
        return 100.0 * (1.0 - self.mean_mf / self.mean_lf)


def build_report(
    est: np.ndarray, lf: np.ndarray, ref: np.ndarray, metric: ErrorMetric
) -> ErrorReport:
    """Score an estimate against the reference, with the raw low-fidelity
    error as the baseline."""
    if not isinstance(metric, ErrorMetric):
        raise InvalidConfig(f"unknown metric {metric!r}: expected an ErrorMetric member")
    fn = error_component if metric is ErrorMetric.COMPONENT_REL_ABS else error_field
    mf_err = fn(est, ref)
    mean_lf = float(fn(lf, ref).mean())
    if mean_lf == 0.0:
        raise InvalidConfig(
            "the low-fidelity rows already equal the reference: there is no error to reduce"
        )
    return ErrorReport(per_point=mf_err, mean_lf=mean_lf, metric=metric)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EstimateArtifacts:
    """Solver outputs for a dataset whose first M rows are observed."""

    posterior: PosteriorResult
    hyper: HyperParameters
    timings: dict


@dataclass(frozen=True, eq=False)
class PipelineOutput:
    """Report plus the artifacts a caller may want to inspect or emit:
    the plan, the posterior with its estimates, the resolved
    hyperparameters and the planning embedding.

    Solver outputs are in solve order (selected rows first, per the
    plan's permutation); the report's means are order-free.
    """

    report: ErrorReport
    posterior: PosteriorResult
    plan: AcquisitionPlan
    hyper: HyperParameters
    timings: dict
    embedding: np.ndarray


def sigma_in_solve_coords(sigma_raw: float, nspec: NormalizationSpec) -> float:
    """The noise level ``sigma_raw``, in input units, in the solve
    coordinates, refused with ``InvalidConfig`` unless its square there
    is a positive normal float: every solver divides by sigma^2."""
    sigma = sigma_raw
    if nspec.mode is Normalization.COMPONENT:
        sigma = sigma_raw / float(nspec.std.mean())
    if not np.finfo(float).tiny <= sigma * sigma < np.inf:
        raise InvalidConfig(
            f"sigma (--sigma) {sigma_raw:.3g} is {sigma:.3g} in the solve coordinates, "
            f"whose square {sigma * sigma:.3g} is not a positive normal float"
        )
    return sigma


def _refuse_landmark_solver(config: PipelineConfig) -> None:
    """The pipeline solves with the dense or the truncated prior only."""
    if config.solver not in (SolverTag.DENSE, SolverTag.TRUNCATED):
        raise InvalidConfig(
            f"the {config.solver.value!r} landmark solver was removed; "
            "use 'dense' or 'truncated'"
        )


def estimate_attached(
    phi_hat: np.ndarray, config: PipelineConfig, spectrum: Spectrum,
    laplacian: Optional[GraphLaplacian] = None, selected: Optional[Sequence[int]] = None,
) -> EstimateArtifacts:
    """Resolve tau, then omega on the one factor tau fixes, and solve for
    the observed displacement rows; the resolved hyperparameters are one record.

    ``phi_hat`` holds hf - lf, the displacement of each of the first M rows of
    ``spectrum``'s row order, and ``config.sigma`` must be set, both in
    the solve coordinates: unlike :func:`estimate_planned`, this entry
    point maps nothing.  The dense solver also needs ``laplacian`` in
    input order and ``selected``, the index in it of each row of
    ``phi_hat`` (the plan's ``selected_indices``), and hands its
    reference to ``laplacian`` on to
    :func:`~mfgl.posterior.dense_factor`: a caller that passes its only
    reference (:func:`estimate_planned`) frees L_sym once the prior Q is
    written, before the Cholesky and the calibration.  The dense solver
    reads the spectrum only for tau and drops it before the prior is
    built, so a caller that passes its only reference to the spectrum
    frees the eigenvectors before Q is written.

    Calibrating omega (``config.omega`` unset) targets the spread of the
    unobserved rows, so with M = N it raises ``InvalidConfig`` before
    any solve; a fixed omega still solves.  No observed row raises
    ``MissingHighFidelity``.  The posterior keeps the MAP as its factors,
    the truncated one the prior's eigenvectors, so no N x D array is
    formed here.
    """
    _refuse_landmark_solver(config)
    if config.sigma is None:
        raise InvalidConfig("sigma is required when estimating from files")
    phi_hat = observations(phi_hat)
    m = phi_hat.shape[0]
    if m == 0:
        raise MissingHighFidelity("no high-fidelity rows to estimate from")
    if config.omega is None and m == spectrum.n:
        raise InvalidConfig("calibration needs at least one unobserved row")
    dense = config.solver is SolverTag.DENSE
    if dense and (laplacian is None or selected is None or len(selected) != m):
        raise InvalidConfig("the dense solver needs the graph's Laplacian and the index of "
                            "each observed row in it")
    laplacians = [laplacian]
    del laplacian  # so that dense_factor holds the one reference to L_sym
    timings: dict = {}

    t0 = time.perf_counter()
    sigma, tau = config.sigma, (choose_tau(spectrum) if config.tau is None else config.tau)
    if dense:
        del spectrum  # the eigenvectors, before Q is written
    # one factor serves the calibration handle and the final solve
    factor = (dense_factor(laplacians.pop(), selected, tau, config.beta) if dense
              else truncated_factor(spectrum, m, tau, config.beta))
    omega = config.omega
    if omega is None:
        omega = calibrate_omega(lambda w: factor.mean_stddev(w, sigma), sigma, config.r)
    hp = HyperParameters(sigma=sigma, omega=omega, tau=tau, beta=config.beta, r=config.r)
    timings["hyperparameters"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if dense:
        posterior = dense_posterior(factor, phi_hat, omega, sigma)
    else:
        tp = truncated_posterior(factor, phi_hat, omega, sigma)
        posterior = PosteriorResult(
            stddevs=np.sqrt(truncated_variances(tp)), head=np.empty((0, phi_hat.shape[1])),
            basis=spectrum.eigenvectors, coeffs=tp.coeff_mean,
        )
    timings["solve"] = time.perf_counter() - t0
    return EstimateArtifacts(posterior=posterior, hyper=hp, timings=timings)


def planning_spectrum(
    lf_norm: np.ndarray, config: PipelineConfig
) -> tuple[Spectrum, Optional[GraphLaplacian]]:
    """The graph prior of the normalized low-fidelity rows, in their
    order: the spectrum, and for the dense solver only the Laplacian.

    Holds ``config.spectrum_size`` eigenpairs, more than M, so planning
    embeds in the first M of the eigenpairs estimation uses.  The
    pipeline builds its graph and spectrum here and nowhere else.  The
    references are handed on: ``lf_norm`` to :func:`~mfgl.graph.build_graph`,
    so the rows of a caller that passed its only reference
    (:func:`plan_rows` in ``mfgl plan``) die before the Laplacian is
    written, and the graph to :func:`~mfgl.graph.laplacian`, which frees
    the kept triangle in stages as it writes L_sym, before the eigensolve.
    """
    _refuse_landmark_solver(config)
    k = config.spectrum_size(lf_norm.shape[0])
    rows = [lf_norm]
    del lf_norm
    gl = laplacian(build_graph(rows.pop(), config.knn_k), config.p, config.q)
    spectrum = low_spectrum(gl, k)
    return spectrum, (gl if config.solver is SolverTag.DENSE else None)


class PlannedRows(NamedTuple):
    """The planning step's results: the plan record, in solve order, and
    the dense solver's Laplacian, in input order."""

    record: PlanRecord
    laplacian: Optional[GraphLaplacian]
    timings: dict


def plan_rows(lf_raw: np.ndarray, config: PipelineConfig) -> PlannedRows:
    """The planning step shared by :func:`run_pipeline` and ``mfgl plan``:
    check and freeze the rows (:func:`~mfgl.data.observations`), refuse
    fewer than 2 of them, the fewest a graph is built on, and M > N
    (``config`` holds M >= 1), hash and normalize the rows, build the
    graph prior (:func:`planning_spectrum`), plan the acquisition in
    input order, then reorder the eigenvectors into solve order, here and
    nowhere else.  The dense solver's L_sym is returned in input order,
    the order its factor reads (``mfgl plan`` drops it).

    The rows are checked before any graph is built.  ``timings`` holds
    ``normalize`` and ``plan`` (graph, eigensolve, k-means, reordering).

    The reference to ``lf_raw`` is handed on: the raw rows die once
    normalized (with normalization none they are the normalized rows),
    and the normalized rows once :func:`planning_spectrum` has built the
    graph.  So a caller that passes its only reference (``mfgl plan``)
    holds no rows through the eigensolve; :func:`run_pipeline` keeps its
    own.
    """
    t0 = time.perf_counter()
    lf = observations(frozen(lf_raw), name="lf")
    del lf_raw
    n = lf.shape[0]
    if n < 2:
        raise RowCountMismatch(f"need at least 2 low-fidelity points, got {n}")
    if config.m > n:
        raise InvalidConfig(f"m={config.m} exceeds the number of rows {n}")
    digest = hashlib.sha256(lf).hexdigest()
    lf, nspec = normalize(lf, config.normalization)
    timings = {"normalize": time.perf_counter() - t0}

    t0 = time.perf_counter()
    rows = [lf]
    del lf  # planning_spectrum holds the normalized rows alone
    spectrum, gl = planning_spectrum(rows.pop(), config)
    plan = plan_acquisition(spectrum, config.m, config.seed)
    perm = np.asarray(plan.permutation, dtype=np.intp)
    vectors = spectrum.eigenvectors[perm]
    vectors.setflags(write=False)  # so that Spectrum takes it without a copy
    spectrum = dataclasses.replace(spectrum, eigenvectors=vectors)
    timings["plan"] = time.perf_counter() - t0
    return PlannedRows(PlanRecord.of(config, plan, nspec, spectrum, digest), gl, timings)


class PlannedEstimate(NamedTuple):
    """The estimate step's results, in solve order: the solver outputs
    (their posterior without ``mf_estimates``), and the multi-fidelity
    estimates lf + phi_star in input units, one row block at a time."""

    artifacts: EstimateArtifacts
    estimates: Iterator[np.ndarray]


def _estimate_blocks(
    lf_raw: np.ndarray, posterior: PosteriorResult, spec: NormalizationSpec
) -> Iterator[np.ndarray]:
    """The estimates lf + phi_star in input units, in the blocks of
    :meth:`~mfgl.posterior.PosteriorResult.map_blocks`: each block's raw
    rows are normalized, moved by their MAP rows and mapped back.  The
    one formula for the estimates; each entry is formed alone, so the
    blocks stack to the whole-array result bit for bit."""
    for rows, phi in posterior.map_blocks():
        yield spec.invert(spec.apply(lf_raw[rows]) + phi)


def estimate_planned(
    lf_raw: np.ndarray, record: PlanRecord, hf_raw: np.ndarray, config: PipelineConfig,
    laplacian: Optional[GraphLaplacian] = None,
) -> PlannedEstimate:
    """Estimate from the rows a plan selected: the step shared by
    :func:`run_pipeline` and ``mfgl estimate``.

    ``lf_raw`` holds the low-fidelity rows in solve order, the order of
    ``record``'s spectrum; ``laplacian`` (dense solver only) is in input order.
    ``hf_raw`` holds the high-fidelity rows of the plan's
    ``selected_indices``, in that order and in input units, and so does
    ``config.sigma``.  Both are checked (:func:`~mfgl.data.observations`):
    ``lf_raw`` for the spectrum's N rows and ``hf_raw`` for the plan's M
    rows (``RowCountMismatch``), and ``hf_raw`` for ``lf_raw``'s width.

    Outputs are in solve order, and the estimates in input units.  Only
    the raw rows are kept (shared when read-only): phi_hat is normalized
    from the M observed rows, ``timings["assemble"]`` covers that, and
    the estimates are formed a block at a time as ``estimates`` is read
    (:func:`_estimate_blocks`), so neither the normalized rows nor
    phi_star is ever whole.  The references to ``record``'s spectrum and
    to ``laplacian`` are handed on to :func:`estimate_attached`, so a
    caller that passes its only ones (:func:`run_pipeline`, ``mfgl
    estimate``) frees, on the dense solver, the eigenvectors before the
    prior is written and L_sym once it is.
    """
    t0 = time.perf_counter()
    plan, nspec, spectrum = record.plan, record.nspec, record.spectrum
    del record  # so that the spectrum is handed on below
    if len(hf_raw) != plan.m:
        raise RowCountMismatch(f"{len(hf_raw)} high-fidelity rows, but the plan selected {plan.m}")
    lf = observations(frozen(lf_raw), name="lf")  # frozen: the estimate blocks read it again
    if lf.shape[0] != spectrum.n:
        raise RowCountMismatch(f"the plan's spectrum has {spectrum.n} rows, lf {lf.shape[0]}")
    hf = observations(hf_raw, name="hf", d=lf.shape[1])
    sigma = None if config.sigma is None else sigma_in_solve_coords(config.sigma, nspec)
    config = dataclasses.replace(config, sigma=sigma)
    phi_hat = nspec.apply(hf) - nspec.apply(lf[:plan.m])
    assemble_s = time.perf_counter() - t0

    spectra, laplacians = [spectrum], [laplacian]
    del spectrum, laplacian
    art = estimate_attached(phi_hat, config, spectra.pop(), laplacians.pop(), plan.selected_indices)
    art = dataclasses.replace(art, timings={"assemble": assemble_s, **art.timings})
    return PlannedEstimate(art, _estimate_blocks(lf, art.posterior, nspec))


def run_pipeline(problem: SyntheticProblem, config: PipelineConfig) -> PipelineOutput:
    """Full workflow: plan (:func:`plan_rows`), attach noisy
    high-fidelity samples, estimate (:func:`estimate_planned`), and score
    against the ground truth.

    The graph and its spectrum are built once, by the planning step,
    which hands the spectrum on in solve order, so ``timings["plan"]``
    holds the graph build, the eigensolve, the k-means and the
    reordering.  The dense solver's L_sym, in input order, and the plan
    record, once the embedding is taken from it, are handed on, so
    on the dense solver the eigenvectors die before the prior is written
    and L_sym once it is.  ``sigma``
    is in input units and defaults to the problem's noise level.  A
    solver other than dense or truncated is refused by the planning step
    before any graph is built.
    """
    if config.sigma is None:
        config = dataclasses.replace(config, sigma=problem.hf_noise_sigma)

    record, *gls, timings = plan_rows(problem.lf_data, config)  # gls = [L_sym], handed on below
    plan = record.plan
    perm = np.asarray(plan.permutation, dtype=np.intp)
    lf_raw = problem.lf_data[perm]
    lf_raw.setflags(write=False)  # so that the estimate step shares it
    embedding = embed(record.spectrum, plan.m)
    records = [record]
    del record  # and the one reference to the eigenvectors

    hf_raw = sample_hf(problem, plan.selected_indices, config.seed + 1)
    art, estimates = estimate_planned(lf_raw, records.pop(), hf_raw, config, gls.pop())
    timings.update(art.timings)
    mf = np.concatenate(list(estimates))
    mf.setflags(write=False)
    posterior = dataclasses.replace(art.posterior, mf_estimates=mf)

    report = build_report(mf, lf_raw, problem.true_data[perm], config.metric)
    return PipelineOutput(
        report=report, posterior=posterior, plan=plan, hyper=art.hyper,
        timings=timings, embedding=embedding,
    )


def write_report(outdir: Union[str, Path], output: PipelineOutput) -> None:
    """Emit the report as JSON plus CSV side files (per-point errors,
    stddevs, spectral-embedding coordinates for external plotting)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "metric": output.report.metric.value,
        "mean_lf_error_pct": output.report.mean_lf,
        "mean_mf_error_pct": output.report.mean_mf,
        "reduction_pct": output.report.reduction,
        "timings_sec": output.timings,
        "hyperparameters": output.hyper.as_dict(),
        "selected_indices": list(output.plan.selected_indices),
    }
    (outdir / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    per_point = output.report.per_point
    if per_point.ndim == 1:
        per_point = per_point[:, None]
    write_csv(outdir / "per_point_errors.csv", per_point)
    write_csv(outdir / "stddevs.csv", output.posterior.stddevs[:, None])
    write_csv(outdir / "embedding.csv", output.embedding)
