import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla

import mfgl.bench
import mfgl.posterior
from mfgl.acquisition import plan_acquisition
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
    generate,
    planning_spectrum,
    run_pipeline,
    sample_hf,
    sigma_in_solve_coords,
    write_report,
)
from mfgl.data import Dataset, Normalization, normalize
from mfgl.matio import write_csv
from mfgl.graph import build_graph, laplacian
from mfgl.exceptions import (
    InvalidConfig,
    MissingHighFidelity,
    RowCountMismatch,
    SingularSystem,
    ZeroReferenceColumn,
    ZeroReferenceSet,
)
from mfgl.posterior import SolverTag
from mfgl.spectral import Spectrum, low_spectrum


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
    assert rep.reduction == pytest.approx(
        100.0 * (1.0 - rep.mean_mf / rep.mean_lf), abs=1e-12
    )
    assert rep.per_point.shape == (10,)
    comp = build_report(est, lf, ref, ErrorMetric.COMPONENT_REL_ABS)
    assert comp.per_point.shape == (10, 2)
    with pytest.raises(InvalidConfig):
        ErrorReport(
            per_point=np.zeros(3), mean_lf=10.0, mean_mf=5.0,
            reduction=80.0, metric=ErrorMetric.FIELD_REL_L2,
        )


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
        lf_data=prob.lf_data, hf_noise_sigma=0.0, seed=0,
    )
    assert np.array_equal(sample_hf(exact, [5, 6], seed=0), prob.true_data[[5, 6]])


def test_sigma_in_solve_coords(rng):
    lf = rng.normal(size=(30, 3)) * np.array([1.0, 5.0, 0.2])
    for mode, expect in (
        (Normalization.NONE, lambda ns: 0.7),
        (Normalization.COMPONENT, lambda ns: 0.7 / float(ns.std.mean())),
        (Normalization.INSTANCE, lambda ns: 0.7 / float(ns.scales.mean())),
    ):
        _, nspec = normalize(Dataset(lf=lf), mode)
        assert sigma_in_solve_coords(0.7, nspec) == pytest.approx(expect(nspec))


def test_pipeline_config_rules():
    cfg = PipelineConfig(m=10)
    assert cfg.spectrum_size(1000) == 40
    assert cfg.spectrum_size(25) == 25
    assert PipelineConfig(m=10, K=17).spectrum_size(1000) == 17
    assert PipelineConfig(m=0).spectrum_size(100) == 2
    with pytest.raises(InvalidConfig):
        PipelineConfig(m=-1)
    # one value just past each bound the solvers enforce
    for bad in (
        dict(beta=0.5), dict(r=1.0), dict(K=0), dict(knn_k=0), dict(sigma=0.0),
        dict(omega=0.0), dict(tau=-1.0), dict(embed_dim=0),
        dict(sigma=float("nan")),
    ):
        with pytest.raises(InvalidConfig):
            PipelineConfig(**bad)
    PipelineConfig(beta=1.0, r=1.5, K=1, knn_k=1, sigma=1e-9, omega=1e-9,
                   tau=1e-9, embed_dim=1)


@pytest.mark.parametrize("mode", [Normalization.COMPONENT, Normalization.INSTANCE])
def test_explicit_sigma_is_in_input_units(mode):
    # an explicit sigma means what the default means: the noise level of
    # the high-fidelity rows as given, before normalization
    prob = generate(Generator.CLUSTERED_SHIFT, 120, 3, seed=4, clusters=4)
    base = dict(m=4, seed=1, normalization=mode)
    auto = run_pipeline(prob, PipelineConfig(**base)).posterior
    given = run_pipeline(prob, PipelineConfig(sigma=prob.hf_noise_sigma, **base)).posterior
    assert np.array_equal(given.phi_star, auto.phi_star)
    assert np.array_equal(given.stddevs, auto.stddevs)


def test_estimate_attached_guards(rng):
    lf = rng.normal(size=(20, 2))
    prior = planning_spectrum(lf, PipelineConfig(m=3))
    with pytest.raises(MissingHighFidelity):
        estimate_attached(Dataset(lf=lf), PipelineConfig(m=0, sigma=0.1), prior)
    ds_hf = Dataset(lf=lf, hf=rng.normal(size=(3, 2)))
    with pytest.raises(InvalidConfig):
        estimate_attached(ds_hf, PipelineConfig(m=3), prior)
    # the truncated prior carries no Laplacian for the dense solver
    with pytest.raises(InvalidConfig):
        estimate_attached(
            ds_hf, PipelineConfig(m=3, sigma=0.1, solver=SolverTag.DENSE), prior
        )
    ds_longer = Dataset(lf=rng.normal(size=(30, 2)), hf=rng.normal(size=(3, 2)))
    with pytest.raises(RowCountMismatch):
        estimate_attached(ds_longer, PipelineConfig(m=3, sigma=0.1), prior)


def test_m_zero_skips_update():
    prob = generate(Generator.CLUSTERED_SHIFT, 100, 3, seed=1, clusters=4)
    out = run_pipeline(prob, PipelineConfig(m=0))
    assert out.report.reduction == 0.0
    assert out.posterior is None and out.plan is None and out.hyper is None
    assert out.embedding is None


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


def test_embedding_shape():
    prob = generate(Generator.CLUSTERED_SHIFT, 90, 3, seed=3, clusters=3)
    out = run_pipeline(prob, PipelineConfig(m=3, seed=0, embed_dim=2))
    assert out.embedding.shape == (90, 2)


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
    """Plan-order prior, the plan's permutation, and the solve-order dataset."""
    prior = planning_spectrum(prob.lf_data, config)
    plan = plan_acquisition(prior.spectrum, config.m, config.seed)
    perm = np.asarray(plan.permutation, dtype=np.intp)
    hf = sample_hf(prob, plan.selected_indices, seed=config.seed + 1)
    return prior, perm, Dataset(lf=prob.lf_data[perm], hf=hf)


def dense_oracle_spectrum(gl, K):
    """The K lowest pairs from a dense eigensolve of L_sym (p == q)."""
    vals, vecs = sla.eigh(gl.sym_matrix.toarray(), subset_by_index=[0, K - 1])
    return Spectrum(K=K, eigenvalues=vals, eigenvectors=vecs,
                    shift_a=gl.shift_bound, pq=(gl.p, gl.q))


@pytest.mark.parametrize("route", [low_spectrum, dense_oracle_spectrum],
                         ids=["krylov", "dense_oracle"])
@pytest.mark.parametrize("kind", [Generator.CLUSTERED_SHIFT, Generator.BEAM_LIKE_1D])
def test_permuted_prior_matches_fresh_build(kind, route, monkeypatch):
    monkeypatch.setattr(mfgl.bench, "low_spectrum", route)
    prob = generate(kind, 300, 5, seed=0)
    config = PipelineConfig(
        m=10, seed=0, sigma=prob.hf_noise_sigma, omega=1.0, tau=1e-3
    )
    prior, perm, ds = _planned_solve_inputs(prob, config)
    reused = estimate_attached(
        ds, config, prior.permuted(perm, config.spectrum_size(ds.n))
    ).posterior
    fresh_prior = planning_spectrum(ds.lf, dataclasses.replace(config, embed_dim=None))
    fresh = estimate_attached(ds, config, fresh_prior).posterior  # built on the permuted rows
    scale = np.abs(fresh.phi_star).max()
    assert np.abs(reused.phi_star - fresh.phi_star).max() <= 1e-8 * scale
    np.testing.assert_allclose(reused.stddevs, fresh.stddevs, rtol=1e-8)


@pytest.mark.parametrize("p, q", [(0.5, 0.5), (1.0, 0.0)])
def test_permuted_dense_prior_matches_permuted_graph(p, q):
    prob = generate(Generator.CLUSTERED_SHIFT, 120, 3, seed=9, clusters=4)
    config = PipelineConfig(
        solver=SolverTag.DENSE, m=4, p=p, q=q, seed=1, sigma=prob.hf_noise_sigma
    )
    prior, perm, ds = _planned_solve_inputs(prob, config)
    gl = prior.permuted(perm, config.spectrum_size(ds.n)).laplacian
    rebuilt = laplacian(gl.graph, p, q).matrix
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(gl.matrix, name), getattr(rebuilt, name))
    fresh = build_graph(ds.lf, config.knn_k)
    np.testing.assert_array_equal(gl.graph.scales, fresh.scales)
    np.testing.assert_allclose(
        gl.graph.weights.toarray(), fresh.weights.toarray(), rtol=1e-12, atol=0
    )
    np.testing.assert_allclose(gl.graph.degrees, fresh.degrees, rtol=1e-12)


class DenseWork:
    """Records the dense solver's O(N^3) steps (prior builds, Cholesky
    factors, triangular inverses, eigendecompositions) and which of them
    ran inside a calibration handle call."""

    def __init__(self, monkeypatch):
        self.steps = []  # (name, shape of the first argument, in a handle call)
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
            self.steps.append((name, np.shape(args[0]), self._in_handle))
            return fn(*args, **kwargs)

        return recorded

    def shapes(self, name):
        return [shape for step, shape, _ in self.steps if step == name]


@pytest.mark.parametrize("entry", ["run_pipeline", "cli-estimate"])
def test_dense_estimate_builds_and_factors_the_prior_once(entry, tmp_path, monkeypatch, capsys):
    n, m = 80, 6
    prob = generate(Generator.SMOOTH_MANIFOLD, n, 3, seed=0)
    config = PipelineConfig(solver=SolverTag.DENSE, m=m, seed=0)
    work = DenseWork(monkeypatch)
    if entry == "run_pipeline":
        run_pipeline(prob, config)
    else:
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
    assert work.handle_calls > 0
    assert work.shapes("shifted_power") == [(n, n)]
    assert work.shapes("cholesky") == [(n - m, n - m)]
    assert work.shapes("dtrtri") == [(n - m, n - m)]
    assert not [step for step in work.steps if step[2]], "a handle call did N^3 work"


def test_refused_calibration_step_leaves_the_estimate_unchanged(monkeypatch):
    # with 5 observed rows of smooth-manifold N=2000, the truncated system
    # at the bracket's lower end (omega = 1e-4) is numerically singular;
    # the handle reads it as +inf, which moves the bisection the same way
    # the unguarded handle's large finite spread did
    prob = generate(Generator.SMOOTH_MANIFOLD, 2000, 5, seed=0)
    config = PipelineConfig(solver=SolverTag.TRUNCATED, m=5, seed=7)
    refused = []
    solve = mfgl.bench.truncated_posterior

    def recording(spectrum, phi_hat, hp):
        try:
            return solve(spectrum, phi_hat, hp)
        except SingularSystem:
            refused.append(hp.omega)
            raise

    monkeypatch.setattr(mfgl.bench, "truncated_posterior", recording)
    guarded = run_pipeline(prob, config).posterior
    assert refused == [1e-4]
    monkeypatch.setattr("mfgl.spectral.CONDITION_LIMIT", np.inf)
    unguarded = run_pipeline(prob, config).posterior
    assert refused == [1e-4]
    np.testing.assert_array_equal(guarded.mf_estimates, unguarded.mf_estimates)
    np.testing.assert_array_equal(guarded.stddevs, unguarded.stddevs)
