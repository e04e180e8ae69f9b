import dataclasses

import numpy as np
import pytest

from mfgl.bench import Generator, PipelineConfig, estimate_planned, generate, plan_rows
from mfgl.data import (
    Dataset,
    HyperParameters,
    Normalization,
    NormalizationSpec,
    component_stats,
    displacements,
    frozen,
    normalize,
)
from mfgl.exceptions import (
    DimensionMismatch,
    InvalidConfig,
    MissingHighFidelity,
    NonFiniteInput,
    RowCountMismatch,
    ZeroVariance,
)


def test_standardize_two_point_column():
    ds = Dataset(lf=np.array([[1.0], [3.0]]))
    out, spec = normalize(ds, Normalization.COMPONENT)
    assert np.allclose(out.lf, [[-1.0], [1.0]])
    assert spec.mean[0] == 2.0
    assert spec.std[0] == 1.0  # population std, not sample


def test_normalize_round_trip(rng):
    lf = rng.normal(size=(4, 3)) + 2.0
    for mode in Normalization:
        ds = Dataset(lf=lf)
        out, spec = normalize(ds, mode)
        assert np.abs(spec.invert(out.lf.copy()) - lf).max() < 1e-12


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
    out, spec = normalize(Dataset(lf=lf), Normalization.NONE)
    assert np.array_equal(out.lf, lf)
    assert np.array_equal(spec.apply(lf), lf)
    assert np.array_equal(spec.invert(lf), lf)


def test_normalize_carries_hf_rows(rng):
    lf = rng.normal(size=(6, 3)) * 3.0 + 1.0
    hf = lf[:2] + 0.5
    out, spec = normalize(Dataset(lf=lf, hf=hf), Normalization.COMPONENT)
    assert np.allclose(out.hf, (hf - spec.mean) / spec.std)
    assert np.abs(spec.invert(out.hf.copy()) - hf).max() < 1e-12


def test_component_stats_rejects_constant_column():
    lf = np.array([[1.0, 2.0], [1.0, 5.0], [1.0, 9.0]])
    with pytest.raises(ZeroVariance) as info:
        component_stats(lf)
    assert info.value.component == 0


def test_displacement_single_row():
    ds = Dataset(lf=np.array([[1.0, 1.0], [5.0, 5.0]]), hf=np.array([[2.0, 0.0]]))
    phi = displacements(ds)
    assert np.array_equal(phi[0], [1.0, -1.0])


def test_displacement_identity_case(rng):
    lf = rng.normal(size=(6, 2))
    ds = Dataset(lf=lf, hf=lf[:3].copy())
    assert np.all(displacements(ds) == 0.0)


def test_displacement_matches_elementwise_subtraction(rng):
    lf = rng.normal(size=(5, 2))
    hf = rng.normal(size=(2, 2))
    phi = displacements(Dataset(lf=lf, hf=hf))
    oracle = np.array([[hf[i, j] - lf[i, j] for j in range(2)] for i in range(2)])
    assert np.array_equal(phi, oracle)


def test_displacement_requires_hf(rng):
    with pytest.raises(MissingHighFidelity):
        displacements(Dataset(lf=rng.normal(size=(4, 2))))


def test_dataset_validation(rng):
    lf = rng.normal(size=(4, 2))
    with pytest.raises(RowCountMismatch):
        Dataset(lf=lf, hf=rng.normal(size=(5, 2)))  # more HF than rows
    with pytest.raises(DimensionMismatch):
        Dataset(lf=lf, hf=rng.normal(size=(2, 3)))
    bad = lf.copy()
    bad[1, 1] = np.nan
    with pytest.raises(NonFiniteInput):
        Dataset(lf=bad)
    with pytest.raises(RowCountMismatch):
        Dataset(lf=lf[:1])  # a single point has no graph


def test_dataset_counts(rng):
    ds = Dataset(lf=rng.normal(size=(7, 3)), hf=rng.normal(size=(2, 3)))
    assert (ds.n, ds.d, ds.m) == (7, 3, 2)
    assert Dataset(lf=rng.normal(size=(4, 2))).m == 0


def test_dataset_arrays_are_frozen(rng):
    ds = Dataset(lf=rng.normal(size=(4, 2)))
    with pytest.raises(ValueError):
        ds.lf[0, 0] = 99.0


def test_frozen_arrays_are_shared_and_writeable_ones_copied(rng):
    ds = Dataset(lf=rng.normal(size=(4, 2)))
    assert Dataset(lf=ds.lf).lf is ds.lf
    # a caller's writeable array is copied, never aliased
    lf = rng.normal(size=(4, 2))
    held = Dataset(lf=lf)
    lf[0, 0] = 99.0
    assert held.lf[0, 0] != 99.0
    # so is a read-only view whose base stays writeable
    base = rng.normal(size=(4, 2))
    view = base[:]
    view.setflags(write=False)
    held = Dataset(lf=view)
    base[0, 0] = 99.0
    assert held.lf[0, 0] != 99.0
    assert not np.shares_memory(held.lf, base)
    # and a frozen array of another dtype or layout
    assert frozen(ds.lf, np.float32).dtype == np.float32
    assert frozen(ds.lf.T).flags.c_contiguous
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
