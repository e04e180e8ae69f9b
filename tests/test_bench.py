import dataclasses
import json
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import mfgl.bench
import mfgl.graph
import mfgl.matio
import mfgl.posterior
from conftest import hand_graph, traced_peak
from mfgl.cli import main as cli_main
from mfgl.bench import (
    ErrorMetric,
    ErrorReport,
    Generator,
    PipelineConfig,
    SyntheticProblem,
    build_report,
    error_component,
    error_field,
    estimate_attached,
    estimate_planned,
    generate,
    plan_rows,
    planning_spectrum,
    run_pipeline,
    sample_hf,
    sigma_in_solve_coords,
    write_report,
)
from mfgl.data import Normalization, normalize
from mfgl.matio import write_csv
from mfgl.graph import build_graph, laplacian
from mfgl.exceptions import (
    DimensionMismatch,
    InvalidConfig,
    MfglError,
    MissingHighFidelity,
    RowCountMismatch,
    SingularSystem,
    ZeroReferenceColumn,
    ZeroReferenceSet,
)
from mfgl.acquisition import PlanRecord
from mfgl.config import SolverTag
from mfgl.posterior import calibrate_omega, choose_tau, dense_factor, dense_posterior
from mfgl.spectral import Spectrum, TruncatedFactor, low_spectrum


def test_error_component_values(rng):
    ref = rng.normal(size=(8, 3))
    assert np.all(error_component(ref, ref) == 0.0)
    assert error_component(np.array([[2.0]]), np.array([[1.0]]))[0, 0] == 100.0
    est = rng.normal(size=(8, 3))
    got = error_component(est, ref)
    expect = 100.0 * np.abs(est - ref) / np.mean(np.abs(ref), axis=0)[None, :]
    assert np.abs(got - expect).max() < 1e-12
    with pytest.raises(InvalidConfig):
        error_component(est, ref[:4])
    bad = ref.copy()
    bad[:, 1] = 0.0
    with pytest.raises(ZeroReferenceColumn):
        error_component(est, bad)


def test_error_field_values(rng):
    ref = rng.normal(size=(6, 4))
    assert np.all(error_field(ref, ref) == 0.0)
    # 3-4-5: offset with norm 5 against a single row of norm 5
    assert error_field(np.array([[6.0, 8.0]]), np.array([[3.0, 4.0]]))[0] == 100.0
    est = rng.normal(size=(6, 4))
    got = error_field(est, ref)
    expect = (
        100.0
        * np.linalg.norm(est - ref, axis=1)
        / np.mean(np.linalg.norm(ref, axis=1))
    )
    assert np.abs(got - expect).max() < 1e-12
    with pytest.raises(ZeroReferenceSet):
        error_field(est, np.zeros_like(ref))


def test_build_report_consistency(rng):
    ref = rng.normal(size=(10, 2))
    lf = ref + 0.3 * rng.normal(size=(10, 2))
    est = ref + 0.03 * rng.normal(size=(10, 2))
    rep = build_report(est, lf, ref, ErrorMetric.FIELD_REL_L2)
    # the estimate's mean and the reduction are computed, never stored
    assert rep.mean_mf == float(rep.per_point.mean())
    assert rep.reduction == 100.0 * (1.0 - rep.mean_mf / rep.mean_lf)
    assert [f.name for f in dataclasses.fields(ErrorReport)] == ["per_point", "mean_lf", "metric"]
    assert rep.per_point.shape == (10,)
    comp = build_report(est, lf, ref, ErrorMetric.COMPONENT_REL_ABS)
    assert comp.per_point.shape == (10, 2)


def test_clustered_shift_structure():
    prob = generate(Generator.CLUSTERED_SHIFT, 200, 4, seed=11, clusters=5)
    labels = prob.cluster_labels
    assert sorted(set(labels.tolist())) == [0, 1, 2, 3, 4]
    assert labels.shape == (200,)
    # every point in a cluster shares one displacement vector
    disp = prob.true_data - prob.lf_data
    for c in range(5):
        rows = disp[labels == c]
        assert np.abs(rows - rows[0]).max() < 1e-12
    again = generate(Generator.CLUSTERED_SHIFT, 200, 4, seed=11, clusters=5)
    assert np.array_equal(prob.lf_data, again.lf_data)
    assert np.array_equal(prob.true_data, again.true_data)


def test_generate_zero_displacement_is_exact():
    prob = generate(Generator.CLUSTERED_SHIFT, 60, 3, seed=0, clusters=3,
                    displacement_rel=0.0)
    assert np.array_equal(prob.true_data, prob.lf_data)
    assert prob.hf_noise_sigma == 0.0


def test_zero_displacement_has_no_error_to_reduce():
    # the low-fidelity baseline error is zero, so no reduction exists
    prob = generate(Generator.CLUSTERED_SHIFT, 60, 3, seed=0, clusters=3,
                    displacement_rel=0.0)
    with pytest.raises(InvalidConfig, match="already equal the reference"):
        run_pipeline(prob, PipelineConfig(m=3, sigma=0.01))


def test_build_report_refuses_an_unknown_metric(rng):
    ref = rng.normal(size=(20, 3))
    lf = ref + 0.5
    with pytest.raises(InvalidConfig, match="unknown metric 'component'"):
        build_report(ref, lf, ref, "component")


def test_generator_validation():
    with pytest.raises(InvalidConfig):
        generate(Generator.CLUSTERED_SHIFT, 50, 3, seed=0, clusters=1)
    with pytest.raises(InvalidConfig):
        generate(Generator.BEAM_LIKE_1D, 50, 2, seed=0)
    with pytest.raises(InvalidConfig):
        generate(Generator.SMOOTH_MANIFOLD, 1, 3, seed=0)


def test_other_generators_shapes():
    for kind in (Generator.SMOOTH_MANIFOLD, Generator.BEAM_LIKE_1D):
        prob = generate(kind, 80, 4, seed=2)
        assert prob.lf_data.shape == (80, 4)
        assert prob.true_data.shape == (80, 4)
        assert prob.hf_noise_sigma > 0.0
        assert prob.cluster_labels is None


def test_sample_hf_deterministic():
    prob = generate(Generator.SMOOTH_MANIFOLD, 50, 3, seed=4)
    a = sample_hf(prob, [3, 17, 40], seed=9)
    b = sample_hf(prob, [3, 17, 40], seed=9)
    assert np.array_equal(a, b)
    c = sample_hf(prob, [3, 17, 40], seed=10)
    assert not np.array_equal(a, c)
    exact = SyntheticProblem(
        generator=prob.generator, true_data=prob.true_data,
        lf_data=prob.lf_data, hf_noise_sigma=0.0,
    )
    assert np.array_equal(sample_hf(exact, [5, 6], seed=0), prob.true_data[[5, 6]])


def test_sigma_in_solve_coords(rng):
    lf = rng.normal(size=(30, 3)) * np.array([1.0, 5.0, 0.2])
    for mode, expect in (
        (Normalization.NONE, lambda ns: 0.7),
        (Normalization.COMPONENT, lambda ns: 0.7 / float(ns.std.mean())),
    ):
        _, nspec = normalize(lf, mode)
        assert sigma_in_solve_coords(0.7, nspec) == pytest.approx(expect(nspec))


def test_sigma_whose_square_is_not_a_positive_normal_float_is_refused():
    # every solver divides by sigma^2: a sigma whose square, in the solve
    # coordinates, is subnormal, zero or infinite is refused there
    lf = np.random.default_rng(0).normal(size=(60, 3))
    _, none = normalize(lf, Normalization.NONE)
    _, component = normalize(lf * 1e150, Normalization.COMPONENT)
    assert sigma_in_solve_coords(1.5e-154, none) == 1.5e-154  # its square is normal
    for sigma, nspec in ((2.5e-162, none), (1e200, none), (1e-13, component)):
        with pytest.raises(InvalidConfig, match="--sigma"):
            sigma_in_solve_coords(sigma, nspec)


@pytest.mark.parametrize("solver", [SolverTag.TRUNCATED, SolverTag.DENSE])
def test_estimate_planned_refuses_a_sigma_whose_square_underflows(solver):
    lf = np.random.default_rng(0).normal(size=(60, 3)) * 1e-160
    config = PipelineConfig(solver=solver, m=5, sigma=2.5e-162)
    record, gl, _ = plan_rows(lf, config)
    perm = np.asarray(record.plan.permutation, dtype=np.intp)
    hf = lf[list(record.plan.selected_indices)] * 1.01
    with pytest.raises(InvalidConfig, match="--sigma"):
        estimate_planned(lf[perm], record, hf, config, gl)


def test_pipeline_config_rules():
    cfg = PipelineConfig(m=10)
    assert cfg.spectrum_size(1000) == 40
    assert cfg.spectrum_size(25) == 25
    assert PipelineConfig(m=10, K=17).spectrum_size(1000) == 17
    assert PipelineConfig(m=1, K=1).spectrum_size(100) == 2
    assert PipelineConfig(m=10, K=1).spectrum_size(1000) == 11
    # one value just past each bound the solvers enforce
    for bad in (
        dict(m=0), dict(m=-1), dict(beta=0.5), dict(r=1.0), dict(K=0), dict(knn_k=0),
        dict(sigma=0.0), dict(omega=0.0), dict(tau=-1.0), dict(sigma=float("nan")),
    ):
        with pytest.raises(InvalidConfig):
            PipelineConfig(**bad)
    PipelineConfig(beta=1.0, r=1.5, K=1, knn_k=1, sigma=1e-9, omega=1e-9, tau=1e-9)


def test_explicit_sigma_is_in_input_units():
    # an explicit sigma means what the default means: the noise level of
    # the high-fidelity rows as given, before normalization
    prob = generate(Generator.CLUSTERED_SHIFT, 120, 3, seed=4, clusters=4)
    base = dict(m=4, seed=1, normalization=Normalization.COMPONENT)
    auto = run_pipeline(prob, PipelineConfig(**base)).posterior
    given = run_pipeline(prob, PipelineConfig(sigma=prob.hf_noise_sigma, **base)).posterior
    assert np.array_equal(given.phi_star, auto.phi_star)
    assert np.array_equal(given.stddevs, auto.stddevs)


def test_estimate_attached_guards(rng):
    lf = rng.normal(size=(20, 2))
    record = plan_rows(lf, PipelineConfig(m=3)).record
    spectrum = record.spectrum
    with pytest.raises(MissingHighFidelity):
        estimate_attached(np.empty((0, 2)), PipelineConfig(m=3, sigma=0.1), spectrum)
    phi_hat = rng.normal(size=(3, 2))
    # the observed displacements are one 2-D block
    with pytest.raises(DimensionMismatch):
        estimate_attached(phi_hat[0], PipelineConfig(m=3, sigma=0.1), spectrum)
    with pytest.raises(InvalidConfig):
        estimate_attached(phi_hat, PipelineConfig(m=3), spectrum)
    # the dense solver needs the Laplacian, which a spectrum alone lacks,
    # and the index of each observed row in it, refused before any prior
    dense = PipelineConfig(m=3, sigma=0.1, solver=SolverTag.DENSE)
    gl = laplacian(build_graph(lf, dense.knn_k), dense.p, dense.q)
    for args in ((), (gl,), (gl, record.plan.selected_indices[:2])):
        with pytest.raises(InvalidConfig, match="index of each observed row"):
            estimate_attached(phi_hat, dense, spectrum, *args)
    with pytest.raises(DimensionMismatch):  # more observed rows than the prior has
        estimate_attached(rng.normal(size=(30, 2)), PipelineConfig(m=3, sigma=0.1), spectrum)
    # the rows the estimates are formed from must be the plan's
    with pytest.raises(RowCountMismatch):
        estimate_planned(rng.normal(size=(30, 2)), record, phi_hat, PipelineConfig(m=3, sigma=0.1))


def test_m_zero_refused_by_the_schema():
    # the estimator needs high-fidelity rows: M >= 1 is declared once, on
    # the setting, so no run without them gets as far as run_pipeline
    with pytest.raises(InvalidConfig, match="m must be at least 1, got 0"):
        PipelineConfig(m=0)


BOUNDS = {"m": 1, "knn_k": 1, "K": 1, "beta": 1.0}


@pytest.mark.parametrize("bound", [*BOUNDS, "all"])
@pytest.mark.parametrize("solver", [SolverTag.TRUNCATED, SolverTag.DENSE])
@pytest.mark.parametrize("kind, d", [(Generator.CLUSTERED_SHIFT, 3), (Generator.SMOOTH_MANIFOLD, 3),
                                     (Generator.BEAM_LIKE_1D, 16)])
def test_every_setting_at_its_declared_bound_estimates_or_is_refused(kind, d, solver, bound):
    # each setting at the least value its schema admits, alone and all
    # together, estimates (a finite MAP, positive finite stddevs) or is
    # refused with a typed error: M = 1 was refused by a two-row rule
    # meant for the graph's rows, and knn_k = 1 left ARPACK's traceback
    prob = generate(kind, 120, d, seed=0, clusters=4)
    settings = BOUNDS if bound == "all" else {bound: BOUNDS[bound]}
    try:
        out = run_pipeline(prob, PipelineConfig(solver=solver, seed=0, **settings))
    except MfglError:
        return
    assert np.all(np.isfinite(out.posterior.phi_star))
    assert np.all(np.isfinite(out.posterior.stddevs)) and np.all(out.posterior.stddevs > 0)


@pytest.mark.parametrize("solver", [SolverTag.TRUNCATED, SolverTag.DENSE])
def test_one_observed_row_repairs_many(solver):
    prob = generate(Generator.BEAM_LIKE_1D, 300, 16, seed=0)
    out = run_pipeline(prob, PipelineConfig(solver=solver, m=1, seed=7))
    assert out.plan.m == 1
    assert out.report.reduction > 50.0


@pytest.mark.parametrize("solver", [SolverTag.DENSE, SolverTag.TRUNCATED])
def test_m_equal_n_refuses_calibration_only(solver):
    # omega is calibrated on the unobserved rows' spread: with none left
    # both solvers refuse it up front, and a fixed omega still solves
    prob = generate(Generator.CLUSTERED_SHIFT, 40, 3, seed=0, clusters=4)
    with pytest.raises(InvalidConfig, match="unobserved row"):
        run_pipeline(prob, PipelineConfig(m=40, solver=solver))
    out = run_pipeline(prob, PipelineConfig(m=40, solver=solver, omega=2.0))
    assert out.posterior.phi_star.shape == (40, 3)
    assert np.all(out.posterior.stddevs > 0)


def test_solvers_agree_at_full_rank():
    prob = generate(Generator.CLUSTERED_SHIFT, 240, 3, seed=6, clusters=6)
    base = dict(m=8, K=240, omega=2.0, tau=0.01, seed=3)
    ref = run_pipeline(prob, PipelineConfig(solver=SolverTag.DENSE, **base))
    got = run_pipeline(prob, PipelineConfig(solver=SolverTag.TRUNCATED, **base))
    assert got.report.mean_mf == pytest.approx(ref.report.mean_mf, rel=1e-6)
    assert np.abs(
        got.posterior.phi_star - ref.posterior.phi_star
    ).max() <= 1e-6 * np.abs(ref.posterior.phi_star).max()
    # same plan regardless of solver family at full spectrum
    assert ref.plan.selected_indices == got.plan.selected_indices


def test_calibrated_pipeline_reduces_error():
    prob = generate(Generator.CLUSTERED_SHIFT, 300, 3, seed=0, clusters=6)
    out = run_pipeline(prob, PipelineConfig(m=6, seed=0))
    assert out.report.reduction > 50.0
    assert set(out.timings) >= {"normalize", "plan", "hyperparameters", "solve"}
    assert out.hyper.omega > 0 and out.hyper.tau > 0


def test_run_pipeline_deterministic():
    prob = generate(Generator.CLUSTERED_SHIFT, 150, 3, seed=8, clusters=5)
    cfg = PipelineConfig(m=5, seed=2)
    a = run_pipeline(prob, cfg)
    b = run_pipeline(prob, cfg)
    assert np.array_equal(a.posterior.phi_star, b.posterior.phi_star)
    assert a.report.mean_mf == b.report.mean_mf
    assert a.plan.selected_indices == b.plan.selected_indices


@pytest.mark.parametrize("generator, d, reduction", [
    (Generator.CLUSTERED_SHIFT, 5, 93.87),
    (Generator.SMOOTH_MANIFOLD, 5, 79.47),
    (Generator.BEAM_LIKE_1D, 16, 93.00),
], ids=["clustered-shift", "smooth-manifold", "beam-like-1d"])
def test_truncated_pipeline_runs_at_the_smallest_k(generator, d, reduction):
    # K = 1 is raised to M + 1: at K = M the spread rule had no unobserved
    # direction and the calibration ended in NoBracket
    prob = generate(generator, 120, d, seed=0)
    out = run_pipeline(prob, PipelineConfig(m=10, K=1, seed=0))
    assert out.report.reduction == pytest.approx(reduction, abs=0.005)


def test_degree_powers_past_float64_are_refused_in_process():
    # numpy's overflow warnings, errors under this suite's filter, once
    # ended the run before any typed refusal
    prob = generate(Generator.SMOOTH_MANIFOLD, 200, 3, seed=0)
    with pytest.raises(SingularSystem, match=r"^L_sym at p=-400.0, q=0.0: "):
        run_pipeline(prob, PipelineConfig(m=10, p=-400.0, q=0.0))


def test_pipeline_solver_outputs_are_in_solve_order():
    prob = generate(Generator.CLUSTERED_SHIFT, 120, 3, seed=9, clusters=4)
    out = run_pipeline(prob, PipelineConfig(m=4, seed=1))
    perm = np.asarray(out.plan.permutation)
    # mf estimates are permuted lf plus the displacement, original coords
    lf_perm = prob.lf_data[perm]
    moved = out.posterior.mf_estimates - lf_perm
    # add-then-subtract round-off only
    tol = 1e-12 * np.abs(lf_perm).max()
    assert np.abs(moved - out.posterior.phi_star).max() < tol


@pytest.mark.parametrize("mode", list(Normalization))
def test_estimate_blocks_stack_to_the_whole_array_formula(mode, monkeypatch):
    # at 7 values a block the estimates come in blocks of two rows, each
    # mapped back on its own; stacked, they equal the inverse transform of
    # the whole sum, bit for bit
    monkeypatch.setattr(mfgl.matio, "_BLOCK_VALUES", 7)
    prob = generate(Generator.CLUSTERED_SHIFT, 120, 3, seed=9, clusters=4)
    out = run_pipeline(prob, PipelineConfig(m=4, seed=1, normalization=mode))
    perm = np.asarray(out.plan.permutation)
    spec = normalize(prob.lf_data, mode)[1]
    expected = spec.invert(spec.apply(prob.lf_data[perm]) + out.posterior.phi_star)
    assert np.array_equal(out.posterior.mf_estimates, expected)


@pytest.mark.parametrize("solver", [SolverTag.DENSE, SolverTag.TRUNCATED])
def test_map_blocks_stack_to_phi_star(solver):
    # D = 256 makes blocks of 32 rows, so N = 97 ends in a one-row block,
    # which numpy multiplies by another kernel (gemv) than the rest:
    # phi_star is the stack of the blocks, equal to one product of the
    # factors to round-off, and the estimates are formed from the blocks
    prob = generate(Generator.BEAM_LIKE_1D, 97, 256, seed=4)
    out = run_pipeline(prob, PipelineConfig(m=5, seed=3, solver=solver))
    post = out.posterior
    blocks = list(post.map_blocks())
    assert [rows.start for rows, _ in blocks] == [0, 32, 64, 96]
    assert blocks[-1][1].shape == (1, 256)
    assert np.array_equal(np.concatenate([block for _, block in blocks]), post.phi_star)
    whole = np.vstack([post.head, post.basis @ post.coeffs])
    assert np.abs(post.phi_star - whole).max() <= 1e-12 * np.abs(whole).max()
    lf = prob.lf_data[np.asarray(out.plan.permutation)]
    assert np.array_equal(post.mf_estimates, lf + post.phi_star)  # normalization none


@pytest.mark.parametrize("solver", [SolverTag.DENSE, SolverTag.TRUNCATED])
def test_posterior_keeps_the_map_as_its_factors(solver):
    # the estimate step's posterior holds no N x D array, nor the dense
    # factor's N x N buffer: each array it holds, followed to the memory
    # it views, is smaller than N x D when D exceeds K and M
    prob = generate(Generator.BEAM_LIKE_1D, 150, 40, seed=3)
    config = PipelineConfig(m=6, seed=2, solver=solver, sigma=prob.hf_noise_sigma)
    spectrum, gl, perm, lf, phi_hat = _planned_solve_inputs(prob, config)
    post = estimate_attached(phi_hat, config, spectrum, gl, perm[:config.m]).posterior
    if solver is SolverTag.TRUNCATED:
        assert post.basis is spectrum.eigenvectors  # shared, not copied
    for field in dataclasses.fields(post):
        a = getattr(post, field.name)
        while isinstance(a, np.ndarray) and isinstance(a.base, np.ndarray):
            a = a.base
        assert a is None or a.size < lf.size, field.name


def test_embedding_shape():
    prob = generate(Generator.CLUSTERED_SHIFT, 90, 3, seed=3, clusters=3)
    # planning embeds in the first M eigenvectors of its spectrum
    out = run_pipeline(prob, PipelineConfig(m=3, seed=0))
    assert out.embedding.shape == (90, 3)


def test_write_report_files(tmp_path):
    prob = generate(Generator.CLUSTERED_SHIFT, 100, 3, seed=5, clusters=4)
    out = run_pipeline(prob, PipelineConfig(m=4, seed=0))
    write_report(tmp_path, out)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["reduction_pct"] == pytest.approx(
        100.0 * (1.0 - payload["mean_mf_error_pct"] / payload["mean_lf_error_pct"])
    )
    assert len(payload["selected_indices"]) == 4
    assert set(payload["hyperparameters"]) == {
        "sigma", "omega", "tau", "beta", "r", "kappa"
    }
    for name in ("per_point_errors.csv", "stddevs.csv", "embedding.csv"):
        assert (tmp_path / name).exists()
    stddevs = np.loadtxt(tmp_path / "stddevs.csv", delimiter=",").reshape(-1)
    assert stddevs.shape == (100,)
    assert np.array_equal(stddevs, out.posterior.stddevs)


@pytest.mark.parametrize("solver", [SolverTag.DENSE, SolverTag.TRUNCATED])
def test_pipeline_builds_graph_and_spectrum_once(solver, monkeypatch):
    calls = Counter()

    def counted(name):
        fn = getattr(mfgl.bench, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("build_graph", "low_spectrum"):
        monkeypatch.setattr(mfgl.bench, name, counted(name))
    prob = generate(Generator.CLUSTERED_SHIFT, 150, 3, seed=8, clusters=5)
    run_pipeline(prob, PipelineConfig(solver=solver, m=5, seed=2))
    assert calls == {"build_graph": 1, "low_spectrum": 1}


def test_m_above_n_fails_before_any_graph(monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("the graph was built before M was checked")

    monkeypatch.setattr(mfgl.bench, "build_graph", no_graph)
    prob = generate(Generator.CLUSTERED_SHIFT, 50, 3, seed=0, clusters=4)
    with pytest.raises(InvalidConfig):
        run_pipeline(prob, PipelineConfig(m=60))


def _planned_solve_inputs(prob, config):
    """The planning spectrum, in solve order, and, for the dense solver,
    Laplacian, in input order, the plan's permutation, the rows in solve
    order and the displacements hf - lf of the observed ones."""
    record, gl, _ = plan_rows(prob.lf_data, config)
    plan = record.plan
    perm = np.asarray(plan.permutation, dtype=np.intp)
    hf = sample_hf(prob, plan.selected_indices, seed=config.seed + 1)
    lf = prob.lf_data[perm]
    return record.spectrum, gl, perm, lf, hf - lf[:plan.m]


def dense_oracle_spectrum(gl, K):
    """The K lowest pairs from a dense eigensolve of L_sym (p == q)."""
    vals, vecs = sla.eigh(gl.sym_matrix.toarray(), subset_by_index=[0, K - 1])
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, shift_a=gl.shift_bound)


@pytest.mark.parametrize("route", [low_spectrum, dense_oracle_spectrum],
                         ids=["krylov", "dense_oracle"])
@pytest.mark.parametrize("kind", [Generator.CLUSTERED_SHIFT, Generator.BEAM_LIKE_1D])
def test_permuted_prior_matches_fresh_build(kind, route, monkeypatch):
    monkeypatch.setattr(mfgl.bench, "low_spectrum", route)
    prob = generate(kind, 300, 5, seed=0)
    config = PipelineConfig(
        m=10, seed=0, sigma=prob.hf_noise_sigma, omega=1.0, tau=1e-3
    )
    spectrum, _, _, lf, phi_hat = _planned_solve_inputs(prob, config)
    reused = estimate_attached(phi_hat, config, spectrum).posterior
    fresh_spectrum, _ = planning_spectrum(lf, config)
    fresh = estimate_attached(phi_hat, config, fresh_spectrum).posterior  # built on the permuted rows
    scale = np.abs(fresh.phi_star).max()
    assert np.abs(reused.phi_star - fresh.phi_star).max() <= 1e-8 * scale
    np.testing.assert_allclose(reused.stddevs, fresh.stddevs, rtol=1e-8)


@pytest.mark.parametrize("p, q", [(0.5, 0.5), (1.0, 0.0)])
@pytest.mark.parametrize("kind, rtol", [
    (Generator.SMOOTH_MANIFOLD, 1e-12), (Generator.BEAM_LIKE_1D, 1e-12),
    # four clusters all but disconnected: tau = 3.8e-8 makes Q_uu's
    # condition number ~1e15, and the MAP moves by up to 7.9e-11 (measured),
    # as any other order of Q's sums would move it
    (Generator.CLUSTERED_SHIFT, 1e-9),
])
def test_dense_factor_reads_the_picks_of_the_input_order_graph(kind, rtol, p, q):
    # the plan's L_sym stays in input order and the factor reads the picks
    # by index; relabeling the graph into solve order, W's rows and columns
    # reordered before the Laplacian is written, and observing its leading
    # rows gives the same posterior to round-off: Q's sparse sums only run
    # in another order (measured at most 3.6e-13 on the first two)
    prob = generate(kind, 150, 4, seed=9)
    config = PipelineConfig(solver=SolverTag.DENSE, m=6, p=p, q=q, seed=1,
                            sigma=prob.hf_noise_sigma)
    spectrum, gl, perm, _, phi_hat = _planned_solve_inputs(prob, config)
    w = build_graph(prob.lf_data, config.knn_k).weights
    relabeled = laplacian(hand_graph(w[perm][:, perm]), p, q)
    tau, sigma = choose_tau(spectrum), config.sigma
    ours = dense_factor(gl, perm[:6], tau, config.beta)
    theirs = dense_factor(relabeled, range(6), tau, config.beta)
    omega = calibrate_omega(lambda w: theirs.mean_stddev(w, sigma), sigma)
    for scale in (1e-2, 1.0, 1e2):
        got = dense_posterior(ours, phi_hat, scale * omega, sigma)
        want = dense_posterior(theirs, phi_hat, scale * omega, sigma)
        assert np.abs(got.phi_star - want.phi_star).max() <= rtol * np.abs(want.phi_star).max()
        np.testing.assert_allclose(got.stddevs, want.stddevs, rtol=rtol, atol=0)


@pytest.mark.parametrize("solver", [SolverTag.TRUNCATED, SolverTag.DENSE])
@pytest.mark.parametrize("p, q", [(0.5, 0.5), (1.0, 0.0)])
def test_graph_freed_before_eigensolve(solver, p, q, monkeypatch):
    # the Laplacian holds L, L_sym and the degrees, so W dies with the graph
    refs, alive = [], []

    def traced_build(*args):
        g = build_graph(*args)
        refs.extend([weakref.ref(g), weakref.ref(g.weights)])
        return g

    def traced_spectrum(gl, K):
        alive.append([ref() is not None for ref in refs])
        return low_spectrum(gl, K)

    monkeypatch.setattr(mfgl.bench, "build_graph", traced_build)
    monkeypatch.setattr(mfgl.bench, "low_spectrum", traced_spectrum)
    prob = generate(Generator.CLUSTERED_SHIFT, 200, 3, seed=0, clusters=4)
    run_pipeline(prob, PipelineConfig(solver=solver, m=5, p=p, q=q, seed=7))
    assert alive == [[False, False]]


def test_dense_run_builds_each_laplacian_member_once(monkeypatch):
    # one laplacian call fills L_sym from W, and only L_sym is stored;
    # run_pipeline reorders it
    members = []
    real = mfgl.graph.laplacian

    def counted(graph, p, q):
        members.append(real(graph, p, q))
        return members[-1]

    monkeypatch.setattr(mfgl.graph, "laplacian", counted)
    monkeypatch.setattr(mfgl.bench, "laplacian", counted)
    prob = generate(Generator.SMOOTH_MANIFOLD, 200, 3, seed=0)
    run_pipeline(prob, PipelineConfig(solver=SolverTag.DENSE, m=5, p=1.0, q=0.0, seed=7))
    [gl] = members
    assert (gl.p, gl.q) == (1.0, 0.0)
    assert [v for v in vars(gl).values() if sp.issparse(v)] == [gl.sym_matrix]
    assert not any(getattr(gl.sym_matrix, part).flags.writeable
                   for part in ("data", "indices", "indptr"))
    # L, formed on request, takes new values on L_sym's pattern
    mat = gl.matrix()
    assert not np.shares_memory(mat.data, gl.sym_matrix.data)
    assert np.shares_memory(mat.indices, gl.sym_matrix.indices)
    assert np.shares_memory(mat.indptr, gl.sym_matrix.indptr)


class DenseWork:
    """Records the dense solver's O(N^3) steps (prior builds, Cholesky
    factors, triangular inverses, eigendecompositions) and which of them
    ran inside a calibration handle call."""

    def __init__(self, monkeypatch):
        self.steps = []  # (name, shape of the first argument or its L_sym, in a handle call)
        self.handle_calls = 0
        self._in_handle = False
        for module, name in ((mfgl.posterior, "shifted_power"),
                             (mfgl.posterior, "dtrtri"), (sla, "cholesky"), (sla, "eigh")):
            monkeypatch.setattr(module, name, self._recording(name, getattr(module, name)))
        calibrate = mfgl.bench.calibrate_omega

        def counting_calibrate(handle, *args, **kwargs):
            def counted(omega):
                self.handle_calls += 1
                self._in_handle = True
                try:
                    return handle(omega)
                finally:
                    self._in_handle = False

            return calibrate(counted, *args, **kwargs)

        monkeypatch.setattr(mfgl.bench, "calibrate_omega", counting_calibrate)

    def _recording(self, name, fn):
        def recorded(*args, **kwargs):
            self.steps.append((name, np.shape(getattr(args[0], "sym_matrix", args[0])),
                               self._in_handle))
            return fn(*args, **kwargs)

        return recorded

    def shapes(self, name):
        return [shape for step, shape, _ in self.steps if step == name]


def _dense_estimate(entry, prob, m, tmp_path, capsys):
    """Estimate ``prob`` with the dense solver and M = ``m``: by
    run_pipeline, or by mfgl plan and mfgl estimate on CSV files."""
    if entry == "run_pipeline":
        run_pipeline(prob, PipelineConfig(solver=SolverTag.DENSE, m=m, seed=0))
        return
    out = tmp_path / "out"
    write_csv(tmp_path / "lf.csv", prob.lf_data)
    shared = ["--solver", "dense", "--m", str(m), "--seed", "0", "--output-dir", str(out)]
    assert cli_main(["plan", "--lf-path", str(tmp_path / "lf.csv"), *shared]) == 0
    selected = json.loads((out / "plan.json").read_text())["selected_indices"]
    write_csv(tmp_path / "hf.csv", sample_hf(prob, selected, seed=1))
    assert cli_main([
        "estimate", "--lf-path", str(out / "lf_permuted.csv"),
        "--hf-path", str(tmp_path / "hf.csv"), "--plan-path", str(out / "plan.json"),
        "--sigma", f"{prob.hf_noise_sigma:.17g}", *shared,
    ]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("entry", ["run_pipeline", "cli-estimate"])
def test_dense_estimate_builds_and_factors_the_prior_once(entry, tmp_path, monkeypatch, capsys):
    n, m = 80, 6
    prob = generate(Generator.SMOOTH_MANIFOLD, n, 3, seed=0)
    work = DenseWork(monkeypatch)
    _dense_estimate(entry, prob, m, tmp_path, capsys)
    assert work.handle_calls > 0
    assert work.shapes("shifted_power") == [(n, n)]
    assert work.shapes("cholesky") == [(n - m, n - m)]
    assert work.shapes("dtrtri") == [(n - m, n - m)]
    assert not [step for step in work.steps if step[2]], "a handle call did N^3 work"


def _memory(a):
    """The array that owns the memory ``a`` views."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("entry", ["run_pipeline", "cli-estimate"])
def test_dense_l_sym_handed_on_is_freed_before_the_cholesky(entry, tmp_path, monkeypatch, capsys):
    # the one reference to L_sym, as laplacian writes it, goes down to
    # dense_factor, which drops it once Q is written, and the one reference
    # to the plan record's spectrum goes down to estimate_attached, which
    # drops it once tau is read: every Laplacian, the memory of its values
    # and the memory of every plan record's eigenvectors are dead before
    # Q_uu is factored
    laplacian_refs, vector_refs, alive = [], [], []
    post_init = PlanRecord.__post_init__
    cholesky = mfgl.posterior.checked_cholesky

    def traced_laplacian(*args):
        gl = laplacian(*args)
        laplacian_refs.extend([weakref.ref(gl), weakref.ref(_memory(gl.sym_matrix.data))])
        return gl

    def traced_post_init(self):
        post_init(self)
        vector_refs.append(weakref.ref(_memory(self.spectrum.eigenvectors)))

    def traced_cholesky(a, what):
        alive.append([ref() is not None for ref in laplacian_refs + vector_refs])
        return cholesky(a, what)

    monkeypatch.setattr(mfgl.bench, "laplacian", traced_laplacian)
    monkeypatch.setattr(PlanRecord, "__post_init__", traced_post_init)
    monkeypatch.setattr(mfgl.posterior, "checked_cholesky", traced_cholesky)
    _dense_estimate(entry, generate(Generator.SMOOTH_MANIFOLD, 80, 3, seed=0), 6,
                    tmp_path, capsys)
    # run_pipeline writes one L_sym and makes one record; mfgl plan writes
    # one and makes one, and mfgl estimate the same
    n = 1 if entry == "run_pipeline" else 2
    assert (len(laplacian_refs), len(vector_refs)) == (2 * n, n)
    assert alive == [[False] * (3 * n)]


@pytest.mark.parametrize("n, slack", [(400, 0.13), (1000, 0.05)])
def test_dense_pipeline_peak_is_q_and_l_sym(n, slack):
    # manifold-dense-400's shape.  The peak comes while Q, 8 N^2 bytes, is
    # written next to L_sym, with the planning eigenvectors dead; the slack
    # covers the rows, the plan, the embedding, L_sym's diagonal slots and
    # the sparse row blocks, measured at 0.098-0.112 x 8 N^2 over generator
    # seeds 0-5 at N=400, and 0.037-0.038 at N=1000.  The eigenvectors in
    # solve order (0.1 x 8 N^2 at N=400, 0.04 at N=1000; 0.174-0.189 and
    # 0.067-0.068 while they lived), a copy of L_sym shifted by tau, a K^2
    # finiteness mask, or L_sym held through the Cholesky would each take
    # a share of it.  The dense factor's charge against the memory budget
    # is within 10% of the peak.
    prob = generate(Generator.SMOOTH_MANIFOLD, n, 5, seed=0)
    config = PipelineConfig(solver=SolverTag.DENSE, m=10, seed=7)
    gl = laplacian(build_graph(prob.lf_data, config.knn_k), config.p, config.q)
    csr, predicted = gl.nbytes, mfgl.posterior._prior_bytes(gl, config.beta)
    del gl
    _, peak = traced_peak(lambda: run_pipeline(prob, config))
    assert peak <= 8 * n * n + csr + slack * 8 * n * n
    assert abs(predicted - peak) <= 0.1 * peak


def test_refused_calibration_step_leaves_the_estimate_unchanged(monkeypatch):
    # with 5 observed rows of smooth-manifold N=2000, the truncated system
    # at the bracket's lower end (omega = 1e-4) is numerically singular;
    # the factor reads it as +inf, which moves the bisection the same way
    # the unguarded system's large finite spread did
    prob = generate(Generator.SMOOTH_MANIFOLD, 2000, 5, seed=0)
    config = PipelineConfig(solver=SolverTag.TRUNCATED, m=5, seed=7)
    refused = []
    mean_stddev = TruncatedFactor.mean_stddev

    def recording(factor, omega, sigma):
        value = mean_stddev(factor, omega, sigma)
        if value == np.inf:
            refused.append(omega)
        return value

    monkeypatch.setattr(TruncatedFactor, "mean_stddev", recording)
    guarded = run_pipeline(prob, config).posterior
    assert refused == [1e-4]
    monkeypatch.setattr("mfgl.spectral.CONDITION_LIMIT", np.inf)
    unguarded = run_pipeline(prob, config).posterior
    assert refused == [1e-4]
    np.testing.assert_array_equal(guarded.mf_estimates, unguarded.mf_estimates)
    np.testing.assert_array_equal(guarded.stddevs, unguarded.stddevs)


def test_truncated_estimate_solves_the_map_once(monkeypatch):
    # calibration reads variances off the factor; the MAP mean and the
    # final variances are solved once, after omega is resolved
    calls = Counter()
    handle_calls = []

    def counted(name):
        fn = getattr(mfgl.bench, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("truncated_posterior", "truncated_variances"):
        monkeypatch.setattr(mfgl.bench, name, counted(name))
    calibrate = mfgl.bench.calibrate_omega

    def counting_calibrate(handle, *args, **kwargs):
        def counted_handle(omega):
            handle_calls.append(omega)
            return handle(omega)

        return calibrate(counted_handle, *args, **kwargs)

    monkeypatch.setattr(mfgl.bench, "calibrate_omega", counting_calibrate)
    prob = generate(Generator.CLUSTERED_SHIFT, 300, 3, seed=0)
    run_pipeline(prob, PipelineConfig(solver=SolverTag.TRUNCATED, m=5, seed=7))
    assert len(handle_calls) > 0
    assert calls == {"truncated_posterior": 1, "truncated_variances": 1}


@pytest.mark.parametrize("solver", [SolverTag.DENSE, SolverTag.TRUNCATED])
@pytest.mark.parametrize("kind", list(Generator))
def test_component_normalized_run_does_not_depend_on_the_rows_scale(kind, solver):
    # rows and sigma scaled by 2^k, exactly in floating point: the same
    # plan, the same stddevs and hyperparameters in solve coordinates, and
    # estimates exactly 2^k times the unscaled ones; a constant-column test
    # with an absolute floor refused the rows at 2^-100 and 2^-300, and
    # the field error, squaring the raw rows, read NaN at 2^520 and refused
    # the reference rows as zero at 2^-600
    prob = generate(kind, 300, 5, seed=0)
    config = PipelineConfig(solver=solver, m=8, seed=3, normalization=Normalization.COMPONENT)
    base = run_pipeline(prob, config)
    for k in (-600, -300, -100, 100, 520, 1000):
        s = 2.0**k
        scaled = dataclasses.replace(prob, true_data=prob.true_data * s, lf_data=prob.lf_data * s,
                                     hf_noise_sigma=prob.hf_noise_sigma * s)
        out = run_pipeline(scaled, config)
        assert out.plan.selected_indices == base.plan.selected_indices
        assert np.array_equal(out.posterior.mf_estimates, base.posterior.mf_estimates * s)
        assert np.array_equal(out.posterior.stddevs, base.posterior.stddevs)
        assert out.hyper == base.hyper
        assert out.report.reduction == base.report.reduction


def test_synthetic_problem_refuses_truth_and_lf_of_different_shapes():
    with pytest.raises(InvalidConfig, match="true and low-fidelity arrays must share a shape"):
        SyntheticProblem(Generator.CLUSTERED_SHIFT, np.zeros((4, 2)), np.zeros((4, 3)), 0.1)
