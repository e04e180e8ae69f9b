"""Dataset containers, normalization, and hyperparameter records.

A :class:`Dataset` holds N low-fidelity points in R^D and, optionally, M
high-fidelity points aligned with the FIRST M low-fidelity rows.  That
leading-rows convention is load-bearing: every solver downstream selects
high-fidelity rows with a plain ``[:M]`` slice.  Only an acquisition plan
(:mod:`mfgl.acquisition`) builds the ordering that establishes it; callers
apply the plan's permutation to their rows.

Every frozen container of the package takes its arrays through
:func:`frozen`: they are read-only, and an array that is already frozen
is shared between containers, never copied.  Code that makes a fresh
array for a container freezes it at the handoff (``setflags(write=False)``)
so that it is not copied again.  Containers of arrays are ``eq=False``:
``==`` is identity and they hash; settings records keep value equality.
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


def require_finite(a: np.ndarray, name: str, error: type = NonFiniteInput) -> None:
    """Raise ``error`` unless every entry of ``a`` is finite: min and max
    propagate NaN and reach +-inf, so no mask of ``a``'s size is made."""
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise error(f"{name} contains NaN or Inf")


def observations(phi_hat, m: Optional[int] = None, name: str = "phi_hat") -> np.ndarray:
    """The observed displacements a solver takes, as floats, refused unless
    2-D, finite (``NonFiniteInput``) and, when ``m`` is given, of ``m``
    rows, the rows the solver observes (``DimensionMismatch``).  Messages
    call the rows ``name``, the caller's argument."""
    phi_hat = np.asarray(phi_hat, dtype=np.float64)
    if phi_hat.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D")
    require_finite(phi_hat, name)
    if m is not None and phi_hat.shape[0] != m:
        raise DimensionMismatch(f"{name} has {phi_hat.shape[0]} rows, the solve observes M={m}")
    return phi_hat


@dataclass(frozen=True, eq=False)
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
        require_finite(lf, "lf")
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
            require_finite(hf, "hf")
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


@dataclass(frozen=True, eq=False)
class NormalizationSpec:
    """Stored statistics that make a normalization invertible.

    ``mean``/``std`` are set for per-component standardization and no
    array else; they are 1-D of one length, each is finite, and the stds
    positive (else ``InvalidConfig``).  Both transforms
    act on any matrix of the dataset's width, row by row, so they need
    no row alignment.
    """

    mode: Normalization
    mean: Optional[np.ndarray] = None
    std: Optional[np.ndarray] = None

    def __post_init__(self):
        held = [k for k in ("mean", "std") if getattr(self, k) is not None]
        for name in held:
            object.__setattr__(self, name, frozen(getattr(self, name)))
        check_fields(self)
        kept = ["mean", "std"] if self.mode is Normalization.COMPONENT else []
        if held != kept:
            raise InvalidConfig(f"{self.mode.value} normalization keeps {kept}, got {held}")
        if held and (self.mean.ndim != 1 or self.mean.shape != self.std.shape):
            raise InvalidConfig("stored mean and std must be 1-D arrays of one length, "
                                f"got shapes {self.mean.shape} and {self.std.shape}")
        if held and not np.all(self.std > 0):
            raise InvalidConfig("stored stds must be positive")
        if not all(np.isfinite(getattr(self, k)).all() for k in held):
            raise InvalidConfig("stored statistics must be finite")

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Forward transform, as one new read-only array, which a
        :class:`Dataset` takes without a copy; mode none returns ``a``
        itself."""
        a = np.asarray(a, dtype=np.float64)
        if self.mode is Normalization.NONE:
            return a
        self._check_cols(a)
        out = a - self.mean
        out /= self.std
        out.setflags(write=False)
        return out

    def invert(self, a: np.ndarray) -> np.ndarray:
        """Inverse transform, in place in ``a`` (a writeable float64
        array), which is returned."""
        if self.mode is Normalization.NONE:
            return a
        self._check_cols(a)
        a *= self.std
        a += self.mean
        return a

    def _check_cols(self, a: np.ndarray) -> None:
        if a.ndim != 2 or a.shape[1] != self.mean.shape[0]:
            raise DimensionMismatch(
                f"expected (*, {self.mean.shape[0]}) matrix, got {a.shape}"
            )


def component_stats(lf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population standard deviation of ``lf``,
    refused (``ZeroVariance``) for a column constant at its own scale:
    std at most ``DEGENERACY_TOL`` times its largest |entry|.

    Each column is taken times 2^-e, e the exponent of its largest
    |entry| (``np.frexp``), so that entry lies in [0.5, 1) and no sum or
    square overflows, and the statistics are scaled back by 2^e.  Both
    scalings are exact, and the arithmetic is ``np.mean`` and ``np.std``'s
    own, so the result equals theirs bit for bit wherever theirs is
    finite and no entry falls below 2^-1021 of its column's largest."""
    lf = np.asarray(lf, dtype=np.float64)
    n = lf.shape[0]
    scale = np.maximum(lf.max(axis=0), -lf.min(axis=0))  # no N x D temporary
    e = np.frexp(scale)[1]
    x = np.ldexp(lf, -e)  # the one N x D temporary, as np.std makes
    mean = x.sum(axis=0) / n
    x -= mean
    x *= x
    std = np.ldexp(np.sqrt(x.sum(axis=0) / n), e)  # population (1/N) convention
    mean = np.ldexp(mean, e)
    bad = np.flatnonzero(~(std > DEGENERACY_TOL * scale))
    if bad.size:
        raise ZeroVariance(int(bad[0]))
    return mean, std


def normalize(
    data: Dataset, mode: Normalization
) -> tuple[Dataset, NormalizationSpec]:
    """Rescale a dataset, applying identical statistics to hf rows.

    Per-component mode standardizes each column to zero mean and unit
    population standard deviation, with the statistics computed over the
    low-fidelity set only; mode none returns ``data`` itself.

    Returns
    -------
    (Dataset, NormalizationSpec)
        The transformed copy and the statistics needed to invert it.

    Raises
    ------
    ZeroVariance
        Component mode, when a column of lf is constant at its own scale
        (:func:`component_stats`).
    """
    if mode is Normalization.NONE:
        return data, NormalizationSpec(mode=mode)
    if mode is not Normalization.COMPONENT:
        raise InvalidConfig(f"unknown normalization mode {mode!r}")
    mean, std = component_stats(data.lf)
    spec = NormalizationSpec(mode=mode, mean=mean, std=std)
    hf = spec.apply(data.hf) if data.hf is not None else None
    return Dataset(lf=spec.apply(data.lf), hf=hf), spec


@dataclass(frozen=True)
class HyperParameters:
    """Likelihood and prior hyperparameters (sigma, omega, tau, beta, r),
    resolved, as an estimate returns and writes them: each is declared,
    and checked, as its :class:`~mfgl.config.PipelineConfig` setting, but
    must be set.  The solvers check the values they take against it.

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
