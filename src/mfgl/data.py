"""Dataset containers, normalization, and hyperparameter records.

A :class:`Dataset` holds N low-fidelity points in R^D and, optionally, M
high-fidelity points aligned with the FIRST M low-fidelity rows.  That
leading-rows convention is load-bearing: every solver downstream selects
high-fidelity rows with a plain ``[:M]`` slice, and the acquisition module
is the only place allowed to reorder rows to establish it.

Every frozen container of the package takes its arrays through
:func:`frozen`: they are read-only, and an array that is already frozen
is shared between containers, never copied.  Code that makes a fresh
array for a container freezes it at the handoff (``setflags(write=False)``)
so that it is not copied again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .config import Normalization, PipelineConfig, check_fields, same_setting
from .exceptions import (
    DimensionMismatch,
    InvalidConfig,
    MissingHighFidelity,
    NonFiniteInput,
    RowCountMismatch,
    ZeroNorm,
    ZeroVariance,
)

DEGENERACY_TOL = 1e-14


def frozen(a, dtype=np.float64) -> np.ndarray:
    """``a`` as a read-only, C-contiguous ``dtype`` array.

    ``a`` itself is returned when it already fits and no writeable array
    can reach its memory: it and each array on its ``.base`` chain are
    read-only, and the chain ends in owned memory or ``bytes``.  Anything
    else is copied, so a caller's writeable array is never aliased.
    """
    if type(a) is np.ndarray and a.dtype == dtype and a.flags.c_contiguous:
        base = a
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None or type(base) is bytes:
            return a
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput(f"{name} contains NaN or Inf")


@dataclass(frozen=True)
class Dataset:
    """Aligned low-/high-fidelity point sets.

    Parameters
    ----------
    lf : ndarray, shape (N, D)
        Low-fidelity points, one row per point.
    hf : ndarray, shape (M, D), optional
        High-fidelity points; row ``i`` corresponds to ``lf[i]``.
    """

    lf: np.ndarray
    hf: Optional[np.ndarray] = None

    def __post_init__(self):
        lf = frozen(self.lf)
        if lf.ndim != 2:
            raise DimensionMismatch(f"lf must be 2-D, got ndim={lf.ndim}")
        n, d = lf.shape
        if n < 2:
            raise RowCountMismatch(f"need at least 2 low-fidelity points, got {n}")
        if d < 1:
            raise DimensionMismatch("points must have at least one component")
        _require_finite(lf, "lf")
        object.__setattr__(self, "lf", lf)

        if self.hf is not None:
            hf = frozen(self.hf)
            if hf.ndim != 2 or hf.shape[1] != d:
                raise DimensionMismatch(
                    f"hf must be (M, {d}), got {hf.shape if hf.ndim == 2 else hf.ndim}"
                )
            if hf.shape[0] > n:
                raise RowCountMismatch(
                    f"more high-fidelity rows ({hf.shape[0]}) than low-fidelity ({n})"
                )
            _require_finite(hf, "hf")
            object.__setattr__(self, "hf", hf)

    @property
    def n(self) -> int:
        return self.lf.shape[0]

    @property
    def d(self) -> int:
        return self.lf.shape[1]

    @property
    def m(self) -> int:
        """Number of high-fidelity rows (0 when absent)."""
        return 0 if self.hf is None else self.hf.shape[0]


@dataclass(frozen=True)
class NormalizationSpec:
    """Stored statistics that make a normalization invertible.

    ``mean``/``std`` are set for per-component standardization, ``scales``
    for per-instance scaling.  Both transforms act on matrices whose rows
    align with the originating dataset's rows (a leading subset is fine,
    matching the first-M convention).
    """

    mode: Normalization
    mean: Optional[np.ndarray] = None
    std: Optional[np.ndarray] = None
    scales: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("mean", "std", "scales"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, frozen(v))
        if self.mode is Normalization.COMPONENT:
            if self.mean is None or self.std is None:
                raise InvalidConfig("component normalization needs mean and std")
            if np.any(self.std <= 0):
                raise InvalidConfig("stored stds must be positive")
        elif self.mode is Normalization.INSTANCE:
            if self.scales is None:
                raise InvalidConfig("instance normalization needs scale factors")
            if np.any(self.scales <= 0):
                raise InvalidConfig("stored norms must be positive")

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Forward transform of a row-aligned matrix, as one new array;
        mode none returns ``a`` itself."""
        a = np.asarray(a, dtype=np.float64)
        if self.mode is Normalization.NONE:
            return a
        if self.mode is Normalization.COMPONENT:
            self._check_cols(a)
            out = a - self.mean
            out /= self.std
            return out
        self._check_rows(a)
        return a / self.scales[: a.shape[0], None]

    def invert(self, a: np.ndarray) -> np.ndarray:
        """Inverse transform of a row-aligned matrix, as one new array;
        mode none returns ``a`` itself."""
        a = np.asarray(a, dtype=np.float64)
        if self.mode is Normalization.NONE:
            return a
        if self.mode is Normalization.COMPONENT:
            self._check_cols(a)
            out = a * self.std
            out += self.mean
            return out
        self._check_rows(a)
        return a * self.scales[: a.shape[0], None]

    def permuted(self, perm) -> "NormalizationSpec":
        """The same statistics for the rows reordered by ``perm``."""
        if self.mode is Normalization.INSTANCE:
            return NormalizationSpec(mode=self.mode, scales=self.scales[perm])
        return self

    def _check_cols(self, a: np.ndarray) -> None:
        if a.ndim != 2 or a.shape[1] != self.mean.shape[0]:
            raise DimensionMismatch(
                f"expected (*, {self.mean.shape[0]}) matrix, got {a.shape}"
            )

    def _check_rows(self, a: np.ndarray) -> None:
        if a.ndim != 2 or a.shape[0] > self.scales.shape[0]:
            raise DimensionMismatch(
                f"matrix rows {a.shape} exceed stored scales ({self.scales.shape[0]})"
            )


def component_stats(lf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population standard deviation of ``lf``."""
    lf = np.asarray(lf, dtype=np.float64)
    mean = lf.mean(axis=0)
    std = lf.std(axis=0)  # population (1/N) convention
    bad = np.flatnonzero(std < DEGENERACY_TOL)
    if bad.size:
        raise ZeroVariance(int(bad[0]))
    return mean, std


def instance_scales(lf: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norms of ``lf``."""
    lf = np.asarray(lf, dtype=np.float64)
    scales = np.linalg.norm(lf, axis=1)
    bad = np.flatnonzero(scales < DEGENERACY_TOL)
    if bad.size:
        raise ZeroNorm(int(bad[0]))
    return scales


def normalize(
    data: Dataset, mode: Normalization
) -> tuple[Dataset, NormalizationSpec]:
    """Rescale a dataset, applying identical statistics to hf rows.

    Per-component mode standardizes each column to zero mean and unit
    population standard deviation, with the statistics computed over the
    low-fidelity set only.  Per-instance mode divides pair ``i`` (both the
    low- and high-fidelity row) by ``||lf[i]||_2``.

    Returns
    -------
    (Dataset, NormalizationSpec)
        The transformed copy and the statistics needed to invert it.

    Raises
    ------
    ZeroVariance
        Component mode, when a column's std over lf is below 1e-14.
    ZeroNorm
        Instance mode, when a low-fidelity row's norm is below 1e-14.
    """
    if mode is Normalization.NONE:
        return data, NormalizationSpec(mode=mode)
    if mode is Normalization.COMPONENT:
        mean, std = component_stats(data.lf)
        spec = NormalizationSpec(mode=mode, mean=mean, std=std)
    elif mode is Normalization.INSTANCE:
        spec = NormalizationSpec(mode=mode, scales=instance_scales(data.lf))
    else:
        raise InvalidConfig(f"unknown normalization mode {mode!r}")
    lf = spec.apply(data.lf)
    lf.setflags(write=False)
    hf = spec.apply(data.hf) if data.hf is not None else None
    return Dataset(lf=lf, hf=hf), spec


@dataclass(frozen=True)
class HyperParameters:
    """Likelihood and prior hyperparameters (sigma, omega, tau, beta, r),
    resolved: each is declared, and checked, as its
    :class:`~mfgl.config.PipelineConfig` setting, but must be set.

    ``kappa = omega * tau**beta`` is the derived reparameterized strength.
    """

    sigma: float = same_setting(PipelineConfig, "sigma", required=True)
    omega: float = same_setting(PipelineConfig, "omega", required=True)
    tau: float = same_setting(PipelineConfig, "tau", required=True)
    beta: float = same_setting(PipelineConfig, "beta")
    r: float = same_setting(PipelineConfig, "r")

    def __post_init__(self):
        check_fields(self)

    @property
    def kappa(self) -> float:
        return self.omega * self.tau ** self.beta

    def as_dict(self) -> dict:
        """The five settings plus the derived kappa, as written to JSON."""
        return {**asdict(self), "kappa": self.kappa}


def displacements(data: Dataset) -> np.ndarray:
    """Observed low-to-high-fidelity displacements hf - lf[:M], M x D.

    Raises
    ------
    MissingHighFidelity
        When the dataset has no high-fidelity rows.
    """
    if data.hf is None or data.m == 0:
        raise MissingHighFidelity("dataset has no high-fidelity rows")
    return data.hf - data.lf[: data.m]
