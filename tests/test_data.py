import dataclasses

import numpy as np
import pytest

from mfgl.bench import (
    Generator,
    PipelineConfig,
    estimate_attached,
    estimate_planned,
    generate,
    plan_rows,
    sigma_in_solve_coords,
)
from mfgl.data import (
    HyperParameters,
    Normalization,
    NormalizationSpec,
    component_stats,
    frozen,
    normalize,
)
from mfgl.exceptions import (
    DimensionMismatch,
    InvalidConfig,
    NonFiniteInput,
    RowCountMismatch,
    ZeroVariance,
)


def test_standardize_two_point_column():
    out, spec = normalize(np.array([[1.0], [3.0]]), Normalization.COMPONENT)
    assert np.allclose(out, [[-1.0], [1.0]])
    assert spec.mean[0] == 2.0
    assert spec.std[0] == 1.0  # population std, not sample


def test_normalize_round_trip(rng):
    lf = rng.normal(size=(4, 3)) + 2.0
    for mode in Normalization:
        out, spec = normalize(lf, mode)
        assert np.abs(spec.invert(out.copy()) - lf).max() < 1e-12


def test_normalization_spec_refuses_nan_statistics():
    # NaN <= 0 is False: the guard must ask for positive, not for non-positive
    with pytest.raises(InvalidConfig, match="stored stds must be positive"):
        NormalizationSpec(Normalization.COMPONENT, mean=[0.0, 0.0], std=[1.0, np.nan])


@pytest.mark.parametrize("mean, std", [
    (np.zeros((1, 3)), np.ones(3)),  # not a vector
    (np.zeros(3), np.ones(2)),  # of another length than the stds
    (np.zeros(()), np.ones(1)),  # a scalar
], ids=["2-D", "lengths", "0-D"])
def test_normalization_spec_refuses_statistics_of_mismatched_shapes(mean, std):
    # apply then failed with a bare ValueError, or IndexError for a 0-D mean
    with pytest.raises(InvalidConfig, match="1-D arrays of one length"):
        NormalizationSpec(Normalization.COMPONENT, mean=mean, std=std)


def test_normalize_none_is_identity(rng):
    lf = rng.normal(size=(5, 2))
    out, spec = normalize(lf, Normalization.NONE)
    assert out is lf
    assert np.array_equal(spec.apply(lf), lf)
    assert np.array_equal(spec.invert(lf), lf)


def test_normalization_maps_hf_rows_by_the_lf_statistics(rng):
    lf = rng.normal(size=(6, 3)) * 3.0 + 1.0
    hf = lf[:2] + 0.5
    _, spec = normalize(lf, Normalization.COMPONENT)
    assert np.allclose(spec.apply(hf), (hf - spec.mean) / spec.std)
    assert np.abs(spec.invert(spec.apply(hf).copy()) - hf).max() < 1e-12


def test_component_stats_rejects_constant_column():
    lf = np.array([[1.0, 2.0], [1.0, 5.0], [1.0, 9.0]])
    with pytest.raises(ZeroVariance) as info:
        component_stats(lf)
    assert info.value.component == 0


def _planned(mode=Normalization.NONE, m=5):
    """A plan on a small clustered problem, its rows in solve order and
    its settings, with sigma set."""
    prob = generate(Generator.CLUSTERED_SHIFT, 80, 3, seed=2, clusters=4)
    config = PipelineConfig(m=m, seed=1, sigma=0.05, normalization=mode)
    record = plan_rows(prob.lf_data, config).record
    return record, prob.lf_data[np.asarray(record.plan.permutation)], config


@pytest.mark.parametrize("mode", list(Normalization))
def test_estimate_planned_observes_hf_minus_the_leading_lf_rows(mode, rng):
    # the displacements are hf - lf[:M], each normalized by the plan's
    # statistics: the estimate is estimate_attached's on that block
    record, lf, config = _planned(mode)
    hf = lf[:5] + rng.normal(size=(5, 3))
    art, _ = estimate_planned(lf, record, hf, config)
    nspec = record.nspec
    solve = dataclasses.replace(config, sigma=sigma_in_solve_coords(config.sigma, nspec))
    want = estimate_attached(nspec.apply(hf) - nspec.apply(lf)[:5], solve, record.spectrum)
    assert np.array_equal(art.posterior.phi_star, want.posterior.phi_star)
    assert np.array_equal(art.posterior.stddevs, want.posterior.stddevs)
    assert art.hyper == want.hyper


def test_hf_equal_to_the_observed_lf_rows_moves_no_row():
    record, lf, config = _planned()
    _, estimates = estimate_planned(lf, record, lf[:5].copy(), config)
    assert np.array_equal(np.concatenate(list(estimates)), lf)


def test_plan_rows_refuses_rows_no_graph_is_built_on(rng):
    lf = rng.normal(size=(4, 2))
    config = PipelineConfig(m=1)
    bad = lf.copy()
    bad[1, 1] = np.nan
    with pytest.raises(NonFiniteInput, match="^lf contains NaN or Inf$"):
        plan_rows(bad, config)
    with pytest.raises(RowCountMismatch, match="need at least 2 low-fidelity points, got 1"):
        plan_rows(lf[:1], config)  # a single point has no graph
    with pytest.raises(DimensionMismatch, match="^lf has 0 columns, need at least one$"):
        plan_rows(np.empty((4, 0)), config)
    with pytest.raises(DimensionMismatch, match="^lf must be 2-D$"):
        plan_rows(lf[0], config)


def test_estimate_planned_refuses_hf_rows_the_plan_did_not_select(rng):
    record, lf, config = _planned()
    hf = lf[:5] + 0.1
    with pytest.raises(RowCountMismatch, match="6 high-fidelity rows, but the plan selected 5"):
        estimate_planned(lf, record, np.vstack([hf, hf[:1]]), config)
    with pytest.raises(DimensionMismatch, match="^hf has 2 columns, need 3$"):
        estimate_planned(lf, record, hf[:, :2], config)
    hf[2, 1] = np.inf
    with pytest.raises(NonFiniteInput, match="^hf contains NaN or Inf$"):
        estimate_planned(lf, record, hf, config)
    with pytest.raises(RowCountMismatch, match="the plan's spectrum has 80 rows, lf 79"):
        estimate_planned(lf[:79], record, hf, config)


def test_estimates_read_a_frozen_copy_of_writeable_rows(rng):
    # the estimate blocks read lf again as they are taken: a caller that
    # writes its rows after the call does not move the estimates
    record, lf, config = _planned()
    hf = lf[:5] + rng.normal(size=(5, 3))
    want = np.concatenate(list(estimate_planned(lf, record, hf, config).estimates))
    rows = lf.copy()
    estimates = estimate_planned(rows, record, hf, config).estimates
    rows[:] = 99.0
    assert np.array_equal(np.concatenate(list(estimates)), want)


def test_frozen_arrays_are_shared_and_writeable_ones_copied(rng):
    held = frozen(rng.normal(size=(4, 2)))
    assert not held.flags.writeable
    assert frozen(held) is held
    # a caller's writeable array is copied, never aliased
    lf = rng.normal(size=(4, 2))
    assert not np.shares_memory(frozen(lf), lf)
    # so is a read-only view whose base stays writeable
    base = rng.normal(size=(4, 2))
    view = base[:]
    view.setflags(write=False)
    assert not np.shares_memory(frozen(view), base)
    # and a frozen array of another dtype or layout
    assert frozen(held, np.float32).dtype == np.float32
    assert frozen(held.T).flags.c_contiguous
    labels = np.arange(4)
    labels.setflags(write=False)
    assert frozen(labels, np.intp) is labels


def test_hyperparameters_kappa():
    hp = HyperParameters(sigma=0.1, omega=4.0, tau=0.5, beta=2.0)
    assert hp.kappa == pytest.approx(4.0 * 0.25)


def test_hyperparameters_validation():
    with pytest.raises(InvalidConfig):
        HyperParameters(sigma=0.0, omega=1.0, tau=0.1)
    with pytest.raises(InvalidConfig):
        HyperParameters(sigma=1.0, omega=-1.0, tau=0.1)
    with pytest.raises(InvalidConfig):
        HyperParameters(sigma=1.0, omega=1.0, tau=0.0)
    with pytest.raises(InvalidConfig):
        HyperParameters(sigma=1.0, omega=1.0, tau=0.1, beta=0.0)
    with pytest.raises(InvalidConfig):
        HyperParameters(sigma=1.0, omega=1.0, tau=0.1, r=0.0)


@pytest.mark.parametrize("value", [0.0, 0.1, 1e-20, -3e-300, 7e100, 7e299])
def test_component_stats_rejects_a_constant_column_at_any_scale(value, rng):
    # at 7e299 the mean rounds off the entries, and the square of that
    # residual overflowed to an inf std, which passed the test
    lf = np.column_stack([rng.normal(size=50), np.full(50, value)])
    with pytest.raises(ZeroVariance) as info:
        component_stats(lf)
    assert info.value.component == 1


def test_component_stats_takes_a_column_of_tiny_values(rng):
    # the floor is relative to each column's own largest |entry|: a column
    # of 1e-20-scale values varies at its scale, and the rows plan
    lf = np.column_stack([rng.normal(size=60), 1e-20 * rng.normal(size=60)])
    mean, std = component_stats(lf)
    assert 0 < std[1] < 1e-19
    record = plan_rows(lf, PipelineConfig(m=4, normalization=Normalization.COMPONENT)).record
    assert record.plan.m == 4


@pytest.mark.parametrize("k", [520, 1000])
def test_component_stats_past_the_square_overflow(k):
    # the squared residuals of rows at 2^520 overflowed, and the run was
    # refused as non-finite statistics; each column is taken times a power
    # of two, so the statistics are exactly 2^k times the unscaled ones,
    # and the rows plan and estimate as the unscaled ones do
    prob = generate(Generator.CLUSTERED_SHIFT, 300, 5, seed=0)
    s = 2.0**k
    mean, std = component_stats(prob.lf_data)
    got_mean, got_std = component_stats(prob.lf_data * s)
    assert np.array_equal(got_mean, mean * s)
    assert np.array_equal(got_std, std * s)
    config = PipelineConfig(m=8, seed=3, normalization=Normalization.COMPONENT)
    runs = []
    for c in (1.0, s):
        scaled = dataclasses.replace(config, sigma=0.01 * c)
        record = plan_rows(prob.lf_data * c, scaled).record
        perm = np.asarray(record.plan.permutation)
        hf = prob.true_data[list(record.plan.selected_indices)] * c
        art, estimates = estimate_planned(prob.lf_data[perm] * c, record, hf, scaled)
        runs.append((record.plan.selected_indices, np.concatenate(list(estimates)),
                     art.posterior.stddevs, art.hyper))
    (sel, mf, sd, hyper), (got_sel, got_mf, got_sd, got_hyper) = runs
    assert got_sel == sel
    assert np.array_equal(got_mf, mf * s)
    assert np.array_equal(got_sd, sd)
    assert got_hyper == hyper


def test_normalize_refuses_an_unknown_mode():
    with pytest.raises(InvalidConfig, match="unknown normalization mode 'bogus'"):
        normalize(np.ones((3, 2)), "bogus")


# width 1 would broadcast against the stored statistics
@pytest.mark.parametrize("width", [1, 3])
def test_normalization_spec_refuses_rows_of_another_width(width):
    spec = NormalizationSpec(mode=Normalization.COMPONENT, mean=np.zeros(2), std=np.ones(2))
    with pytest.raises(DimensionMismatch, match=r"expected \(\*, 2\) matrix"):
        spec.apply(np.ones((4, width)))
