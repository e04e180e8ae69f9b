"""Synthetic bi-fidelity problems, relative error metrics, and the
end-to-end pipeline driver.

The generators stand in for expensive simulation datasets: each produces
a ground truth, a structurally biased low-fidelity copy, and a noise
level for sampling high-fidelity observations on demand.  Error metrics
are percentages relative to the reference set's own scale, so reductions
are comparable across problems.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .acquisition import AcquisitionPlan, apply_permutation, plan_acquisition
from .config import ErrorMetric, Generator, Normalization, PipelineConfig, ProblemConfig, SolverTag
from .data import Dataset, HyperParameters, NormalizationSpec, displacements, frozen, normalize
from .exceptions import (
    InvalidConfig,
    MissingHighFidelity,
    RowCountMismatch,
    SingularSystem,
    ZeroReferenceColumn,
    ZeroReferenceSet,
)
from .graph import AffinityGraph, GraphLaplacian, build_graph, laplacian
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
    truncated_posterior,
    truncated_variances,
)


@dataclass(frozen=True)
class SyntheticProblem:
    """Ground truth, biased low-fidelity copy, and noise level.

    High-fidelity observations are sampled lazily via :func:`sample_hf`,
    keeping the M-much-smaller-than-N workflow honest.
    """

    generator: Generator
    true_data: np.ndarray
    lf_data: np.ndarray
    hf_noise_sigma: float
    seed: int
    cluster_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "true_data", frozen(self.true_data))
        object.__setattr__(self, "lf_data", frozen(self.lf_data))
        if self.cluster_labels is not None:
            object.__setattr__(self, "cluster_labels", frozen(self.cluster_labels, np.intp))
        if self.true_data.shape != self.lf_data.shape:
            raise InvalidConfig("true and low-fidelity arrays must share a shape")

    @property
    def n(self) -> int:
        return self.lf_data.shape[0]

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
        seed=seed,
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
        seed=seed,
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
        seed=seed,
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
    :class:`~mfgl.config.ProblemConfig` (the seed by
    :class:`~mfgl.config.PipelineConfig`), as ``mfgl bench`` checks its own.
    """
    ProblemConfig(kind, n, d, clusters, displacement_rel, noise_rel, lf_scale)
    PipelineConfig(seed=seed)
    if kind is Generator.CLUSTERED_SHIFT:
        return _gen_clustered_shift(n, d, seed, clusters, displacement_rel, noise_rel)
    if kind is Generator.SMOOTH_MANIFOLD:
        return _gen_smooth_manifold(n, d, seed, displacement_rel, noise_rel)
    return _gen_beam_like(n, d, seed, lf_scale, noise_rel)


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------

def error_component(est: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-entry percentage error, each column scaled by the reference
    column's mean absolute value."""
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if est.shape != ref.shape:
        raise InvalidConfig(f"shape mismatch: {est.shape} vs {ref.shape}")
    denom = np.mean(np.abs(ref), axis=0)
    bad = np.flatnonzero(denom == 0.0)
    if bad.size:
        raise ZeroReferenceColumn(int(bad[0]))
    return 100.0 * np.abs(est - ref) / denom[None, :]


def error_field(est: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-row percentage error, scaled by the reference's mean row norm."""
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if est.shape != ref.shape:
        raise InvalidConfig(f"shape mismatch: {est.shape} vs {ref.shape}")
    denom = float(np.mean(np.linalg.norm(ref, axis=1)))
    if denom == 0.0:
        raise ZeroReferenceSet("reference rows are identically zero")
    return 100.0 * np.linalg.norm(est - ref, axis=1) / denom


@dataclass(frozen=True)
class ErrorReport:
    """Mean percentage errors before/after the update, plus the reduction
    100 (1 - mf/lf)."""

    per_point: np.ndarray
    mean_lf: float
    mean_mf: float
    reduction: float
    metric: ErrorMetric

    def __post_init__(self):
        object.__setattr__(self, "per_point", frozen(self.per_point))
        expected = 100.0 * (1.0 - self.mean_mf / self.mean_lf)
        if abs(self.reduction - expected) > 1e-10 * max(1.0, abs(expected)):
            raise InvalidConfig("reduction is inconsistent with the means")


def build_report(
    est: np.ndarray, lf: np.ndarray, ref: np.ndarray, metric: ErrorMetric
) -> ErrorReport:
    """Score an estimate against the reference, with the raw low-fidelity
    error as the baseline."""
    if not isinstance(metric, ErrorMetric):
        raise InvalidConfig(f"unknown metric {metric!r}: expected an ErrorMetric member")
    fn = error_component if metric is ErrorMetric.COMPONENT_REL_ABS else error_field
    mf_err = fn(est, ref)
    lf_err = fn(lf, ref)
    mean_mf = float(mf_err.mean())
    mean_lf = float(lf_err.mean())
    if mean_lf == 0.0:
        raise InvalidConfig(
            "the low-fidelity rows already equal the reference: there is no error to reduce"
        )
    return ErrorReport(
        per_point=mf_err,
        mean_lf=mean_lf,
        mean_mf=mean_mf,
        reduction=100.0 * (1.0 - mean_mf / mean_lf),
        metric=metric,
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateArtifacts:
    """Solver outputs for a dataset whose first M rows are observed."""

    posterior: PosteriorResult
    hyper: HyperParameters
    spectrum: Spectrum
    timings: dict


@dataclass(frozen=True)
class GraphPrior:
    """The similarity graph's low spectrum, plus its Laplacian for the
    dense solver, with rows in one fixed order of the points."""

    spectrum: Spectrum
    laplacian: Optional[GraphLaplacian] = None

    def permuted(self, perm: np.ndarray, K: int) -> "GraphPrior":
        """The same prior with row i holding point ``perm[i]``, keeping
        the first K eigenpairs.

        Reordering the points of a graph reorders the rows of its
        eigenvectors and leaves the eigenvalues alone, so this stands in
        for a second build on the reordered rows.
        """
        s = self.spectrum
        vectors = s.eigenvectors[perm, :K]
        vectors.setflags(write=False)
        spectrum = Spectrum(
            K=K,
            eigenvalues=s.eigenvalues[:K],
            eigenvectors=vectors,
            shift_a=s.shift_a,
            pq=s.pq,
        )
        gl = self.laplacian
        if gl is None:
            return GraphPrior(spectrum)
        g = gl.graph
        graph = AffinityGraph(
            weights=_permute_csr(g.weights, perm),
            degrees=g.degrees[perm],
            scales=g.scales[perm],
            knn_k=g.knn_k,
        )
        lmat = _permute_csr(gl.matrix, perm)
        return GraphPrior(spectrum, GraphLaplacian(graph=graph, p=gl.p, q=gl.q, matrix=lmat))


def _permute_csr(mat, perm: np.ndarray):
    """P mat P^T for the permutation ``perm``, with sorted column indices."""
    out = mat[perm][:, perm]
    out.sort_indices()
    return out


@dataclass(frozen=True)
class PipelineOutput:
    """Report plus the artifacts a caller may want to inspect or emit.

    Solver outputs are in solve order (selected rows first, per the
    plan's permutation); the report's means are order-free.
    """

    report: ErrorReport
    posterior: Optional[PosteriorResult]
    plan: Optional[AcquisitionPlan]
    hyper: Optional[HyperParameters]
    timings: dict
    embedding: Optional[np.ndarray]


def sigma_in_solve_coords(sigma_raw: float, nspec: NormalizationSpec) -> float:
    if nspec.mode is Normalization.COMPONENT:
        return sigma_raw / float(nspec.std.mean())
    if nspec.mode is Normalization.INSTANCE:
        return sigma_raw / float(nspec.scales.mean())
    return sigma_raw


def _make_hp(sigma, omega, tau, config) -> HyperParameters:
    return HyperParameters(
        sigma=sigma, omega=omega, tau=tau, beta=config.beta, r=config.r
    )


def _refuse_landmark_solver(config: PipelineConfig) -> None:
    """The pipeline solves with the dense or the truncated prior only."""
    if config.solver not in (SolverTag.DENSE, SolverTag.TRUNCATED):
        raise InvalidConfig(
            f"the pipeline has no {config.solver.value!r} solver; use 'dense' or "
            "'truncated', or the landmark factor in mfgl.nystrom as a library tool"
        )


def truncated_mean_stddev(
    spectrum: Spectrum, phi_hat: np.ndarray, hp_template: HyperParameters
) -> Callable[[float], float]:
    """Calibration handle of the truncated solver: omega -> mean stddev
    over the rows after the first ``len(phi_hat)``.

    An omega whose coefficient system ``truncated_posterior`` refuses as
    numerically singular reads as +inf.  The refusal tests the
    equilibrated factor, which is well conditioned once omega is large,
    so it marks a prior too weak to pin some direction, whose spread
    exceeds any target.  Should that misread a step, the bisection cannot
    meet its tolerance and ``calibrate_omega`` raises ``NoBracket``.
    With no row after the first ``len(phi_hat)`` it raises
    ``InvalidConfig`` before any solve.
    """
    m = phi_hat.shape[0]
    if m >= spectrum.n:
        raise InvalidConfig("calibration needs at least one unobserved row")

    def handle(omega: float) -> float:
        hp = dataclasses.replace(hp_template, omega=omega)
        try:
            tp = truncated_posterior(spectrum, phi_hat, hp)
        except SingularSystem:
            return np.inf
        return float(np.sqrt(truncated_variances(tp)[m:]).mean())

    return handle


def estimate_attached(
    ds: Dataset, config: PipelineConfig, prior: GraphPrior
) -> EstimateArtifacts:
    """Resolve hyperparameters and solve for an observation-ready dataset.

    The dataset must carry its high-fidelity rows (first-M convention)
    and ``config.sigma`` must be set, in the dataset's coordinates: unlike
    :func:`estimate_planned`, this entry point maps nothing.

    ``prior`` is the graph prior of ``ds.lf`` in the dataset's row order,
    usually the planning prior after :meth:`GraphPrior.permuted`, with
    one row per row of ``ds``; the dense solver needs its Laplacian.

    Calibrating omega (``config.omega`` unset) targets the spread of the
    unobserved rows, so with M = N it raises ``InvalidConfig`` before
    any solve; a fixed omega still solves.
    """
    _refuse_landmark_solver(config)
    if ds.m == 0:
        raise MissingHighFidelity("estimation needs attached high-fidelity rows")
    if config.sigma is None:
        raise InvalidConfig("sigma is required when estimating from files")
    if config.omega is None and ds.m == ds.n:
        raise InvalidConfig("calibration needs at least one unobserved row")
    spectrum, gl = prior.spectrum, prior.laplacian
    if config.solver is SolverTag.DENSE and gl is None:
        raise InvalidConfig("the dense solver needs a graph prior with its Laplacian")
    if spectrum.n != ds.n:
        raise RowCountMismatch(f"the graph prior has {spectrum.n} rows, the dataset {ds.n}")
    m = ds.m
    sigma = config.sigma
    phi_hat = displacements(ds)
    timings: dict = {}

    t0 = time.perf_counter()
    tau = choose_tau(spectrum) if config.tau is None else config.tau
    template = _make_hp(sigma, 1.0, tau, config)
    if config.solver is SolverTag.DENSE:
        # one factor serves the calibration handle and the final solve
        factor = dense_factor(gl, template, m)

    if config.omega is not None:
        omega = config.omega
    else:
        if config.solver is SolverTag.TRUNCATED:
            mean_stddev = truncated_mean_stddev(spectrum, phi_hat, template)
        else:
            def mean_stddev(omega: float) -> float:
                return factor.mean_stddev(omega, sigma)
        omega = calibrate_omega(mean_stddev, sigma, config.r)
    hp = _make_hp(sigma, omega, tau, config)
    timings["hyperparameters"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if config.solver is SolverTag.TRUNCATED:
        tp = truncated_posterior(spectrum, phi_hat, hp)
        phi_star = tp.map_displacements()
        phi_star.setflags(write=False)
        posterior = PosteriorResult(
            phi_star=phi_star,
            stddevs=np.sqrt(truncated_variances(tp)),
            solver_tag=SolverTag.TRUNCATED,
        )
    else:
        posterior = dense_posterior(factor, phi_hat, hp)
    timings["solve"] = time.perf_counter() - t0
    return EstimateArtifacts(
        posterior=posterior, hyper=hp, spectrum=spectrum, timings=timings
    )


def planning_spectrum(lf_norm: np.ndarray, config: PipelineConfig) -> GraphPrior:
    """The graph prior of the normalized low-fidelity rows, in their order.

    Holds enough eigenpairs both to plan (``config.embed_dim``, else M)
    and to estimate (``config.spectrum_size``), and keeps the Laplacian
    only for the dense solver.  The pipeline builds its graph and
    spectrum here and nowhere else.
    """
    _refuse_landmark_solver(config)
    n = lf_norm.shape[0]
    k_plan = min(n, max(config.spectrum_size(n), config.embed_dim or config.m))
    gl = laplacian(build_graph(lf_norm, config.knn_k), config.p, config.q)
    spectrum = low_spectrum(gl, k_plan)
    return GraphPrior(spectrum, gl if config.solver is SolverTag.DENSE else None)


class PlannedRows(NamedTuple):
    """The planning step's results, all in input order."""

    ds_norm: Dataset
    nspec: NormalizationSpec
    prior: GraphPrior
    plan: AcquisitionPlan
    timings: dict


def plan_rows(lf_raw: np.ndarray, config: PipelineConfig) -> PlannedRows:
    """The planning step shared by :func:`run_pipeline` and ``mfgl plan``:
    check that 1 <= M <= N, normalize, build the graph prior
    (:func:`planning_spectrum`) and plan the acquisition.

    M is checked before any graph is built.  ``timings`` holds
    ``normalize`` and ``plan`` (graph, eigensolve and k-means).
    """
    t0 = time.perf_counter()
    ds_raw = Dataset(lf=lf_raw)
    if config.m < 1:
        raise InvalidConfig("plan needs m >= 1")
    if config.m > ds_raw.n:
        raise InvalidConfig(f"m={config.m} exceeds the number of rows {ds_raw.n}")
    ds_norm, nspec = normalize(ds_raw, config.normalization)
    timings = {"normalize": time.perf_counter() - t0}

    t0 = time.perf_counter()
    prior = planning_spectrum(ds_norm.lf, config)
    plan = plan_acquisition(prior.spectrum, config.m, config.seed, embed_dim=config.embed_dim)
    timings["plan"] = time.perf_counter() - t0
    return PlannedRows(ds_norm, nspec, prior, plan, timings)


def _solve_order_prior(
    ds_norm: Dataset,
    plan: AcquisitionPlan,
    config: PipelineConfig,
    prior: Optional[GraphPrior] = None,
) -> GraphPrior:
    """The planning prior of ``ds_norm`` (built here exactly as planning
    built it when not given) in the plan's row order."""
    if prior is None:
        prior = planning_spectrum(ds_norm.lf, config)
    perm = np.asarray(plan.permutation, dtype=np.intp)
    return prior.permuted(perm, config.spectrum_size(ds_norm.n))


def estimate_planned(
    ds_norm: Dataset,
    nspec: NormalizationSpec,
    plan: AcquisitionPlan,
    hf_raw: np.ndarray,
    config: PipelineConfig,
    prior: Optional[GraphPrior] = None,
) -> EstimateArtifacts:
    """Estimate from the rows a plan selected: the step shared by
    :func:`run_pipeline` and ``mfgl estimate``.

    ``ds_norm`` holds the normalized low-fidelity rows in input order and
    ``nspec`` their normalization; ``hf_raw`` holds the high-fidelity rows
    of ``plan.selected_indices``, in that order and in input units, and so
    does ``config.sigma``.  M and the embedding width are the plan's.
    ``prior`` is the graph prior in solve order (see
    :func:`_solve_order_prior`), built here when not given.

    Outputs are in solve order; the posterior's ``mf_estimates`` are in
    input units.  ``timings["assemble"]`` covers the reordering, and the
    graph prior when none was passed.
    """
    t0 = time.perf_counter()
    if len(hf_raw) != plan.m:
        raise RowCountMismatch(
            f"{len(hf_raw)} high-fidelity rows, but the plan selected {plan.m}"
        )
    sigma = None if config.sigma is None else sigma_in_solve_coords(config.sigma, nspec)
    config = dataclasses.replace(
        config, m=plan.m, embed_dim=plan.embed_dim, sigma=sigma
    )
    if prior is None:
        prior = _solve_order_prior(ds_norm, plan, config)
    ds_perm = apply_permutation(ds_norm, plan)
    spec_perm = nspec.permuted(np.asarray(plan.permutation, dtype=np.intp))
    ds_solve = Dataset(lf=ds_perm.lf, hf=spec_perm.apply(hf_raw))
    assemble_s = time.perf_counter() - t0

    art = estimate_attached(ds_solve, config, prior)
    mf = spec_perm.invert(ds_solve.lf + art.posterior.phi_star)
    mf.setflags(write=False)
    return dataclasses.replace(
        art,
        posterior=dataclasses.replace(art.posterior, mf_estimates=mf),
        timings={"assemble": assemble_s, **art.timings},
    )


def run_pipeline(problem: SyntheticProblem, config: PipelineConfig) -> PipelineOutput:
    """Full workflow: plan (:func:`plan_rows`), attach noisy
    high-fidelity samples, estimate (:func:`estimate_planned`), and score
    against the ground truth.

    The graph and its spectrum are built once, in input order, by the
    planning step; :func:`estimate_planned` reuses them in solve order.
    ``timings["plan"]`` therefore holds the graph build, the eigensolve,
    the k-means and the prior's reordering.  ``sigma`` is in input units
    and defaults to the problem's noise level.

    With M = 0 nothing is normalized, planned or estimated: the report
    scores the raw low-fidelity data (zero reduction by construction).
    """
    _refuse_landmark_solver(config)
    if config.m == 0:
        report = build_report(
            problem.lf_data, problem.lf_data, problem.true_data, config.metric
        )
        return PipelineOutput(
            report=report, posterior=None, plan=None, hyper=None,
            timings={}, embedding=None,
        )
    if config.sigma is None:
        config = dataclasses.replace(config, sigma=problem.hf_noise_sigma)

    ds_norm, nspec, prior, plan, timings = plan_rows(problem.lf_data, config)
    t0 = time.perf_counter()
    # Reorder here, not inside estimate_planned: rebinding drops the only
    # reference to the plan-order graph, which the dense solver would
    # otherwise hold through omega calibration (tracemalloc peak 6.7 ->
    # 9.4 MB at N=400).
    prior = _solve_order_prior(ds_norm, plan, config, prior)
    timings["plan"] += time.perf_counter() - t0

    hf_raw = sample_hf(problem, plan.selected_indices, config.seed + 1)
    art = estimate_planned(ds_norm, nspec, plan, hf_raw, config, prior)
    timings.update(art.timings)

    perm = np.asarray(plan.permutation, dtype=np.intp)
    report = build_report(
        art.posterior.mf_estimates, problem.lf_data[perm], problem.true_data[perm],
        config.metric,
    )
    embedding = embed(art.spectrum, min(plan.embed_dim, art.spectrum.K))
    return PipelineOutput(
        report=report, posterior=art.posterior, plan=plan, hyper=art.hyper,
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
    }
    if output.hyper is not None:
        payload["hyperparameters"] = output.hyper.as_dict()
    if output.plan is not None:
        payload["selected_indices"] = list(output.plan.selected_indices)
    (outdir / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    per_point = output.report.per_point
    if per_point.ndim == 1:
        per_point = per_point[:, None]
    write_csv(outdir / "per_point_errors.csv", per_point)
    if output.posterior is not None:
        write_csv(outdir / "stddevs.csv", output.posterior.stddevs[:, None])
    if output.embedding is not None:
        write_csv(outdir / "embedding.csv", output.embedding)
