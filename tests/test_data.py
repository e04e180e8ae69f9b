import numpy as np
import pytest

from mfgl.data import (
    Dataset,
    HyperParameters,
    Normalization,
    component_stats,
    displacements,
    frozen,
    instance_scales,
    normalize,
)
from mfgl.exceptions import (
    DimensionMismatch,
    InvalidConfig,
    MissingHighFidelity,
    NonFiniteInput,
    RowCountMismatch,
    ZeroNorm,
    ZeroVariance,
)


def test_standardize_two_point_column():
    ds = Dataset(lf=np.array([[1.0], [3.0]]))
    out, spec = normalize(ds, Normalization.COMPONENT)
    assert np.allclose(out.lf, [[-1.0], [1.0]])
    assert spec.mean[0] == 2.0
    assert spec.std[0] == 1.0  # population std, not sample


def test_unit_norm_345_triangle():
    ds = Dataset(lf=np.array([[3.0, 4.0], [6.0, 8.0]]))
    out, spec = normalize(ds, Normalization.INSTANCE)
    assert np.allclose(out.lf[0], [0.6, 0.8])
    assert spec.scales[0] == 5.0


def test_normalize_round_trip(rng):
    lf = rng.normal(size=(4, 3)) + 2.0
    for mode in Normalization:
        ds = Dataset(lf=lf)
        out, spec = normalize(ds, mode)
        assert np.abs(spec.invert(out.lf) - lf).max() < 1e-12


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
    assert np.abs(spec.invert(out.hf) - hf).max() < 1e-12


def test_instance_apply_aligns_leading_rows(rng):
    lf = rng.normal(size=(5, 3)) + 4.0
    _, spec = normalize(Dataset(lf=lf), Normalization.INSTANCE)
    hf = lf[:2]
    assert np.allclose(spec.apply(hf), hf / spec.scales[:2, None])


def test_component_stats_rejects_constant_column():
    lf = np.array([[1.0, 2.0], [1.0, 5.0], [1.0, 9.0]])
    with pytest.raises(ZeroVariance) as info:
        component_stats(lf)
    assert info.value.component == 0


def test_instance_scales_rejects_zero_row():
    lf = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ZeroNorm) as info:
        instance_scales(lf)
    assert info.value.instance == 1


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
