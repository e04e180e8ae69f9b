"""The settings: one schema for the library and the command line.

:class:`PipelineConfig` declares every pipeline setting once, and
:class:`ProblemConfig` every setting of a synthetic problem, each with
its default, its bounds and its help text (in the field's ``metadata``).
The command line derives its flags, its config-file keys and their type
checks from these fields, and :func:`mfgl.bench.generate` checks its
arguments by building a :class:`ProblemConfig`.  This module imports only
the standard library: the command line builds its parser and settings,
and applies ``--threads``, before numpy may load.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .exceptions import InvalidConfig

TRUNCATION_FACTOR = 4

# The format of a matrix file is always named, never guessed from a suffix.
FORMATS = ("csv", "bin")


class SolverTag(Enum):
    DENSE = "dense"
    TRUNCATED = "truncated"
    # Kept only for the benchmark's landmark probe; every pipeline entry refuses it.
    NYSTROM = "nystrom"


class Normalization(Enum):
    """How a dataset is rescaled before graph construction."""

    COMPONENT = "component"   # zero mean, unit (population) std per column
    INSTANCE = "instance"     # unit Euclidean norm per row
    NONE = "none"


class ErrorMetric(Enum):
    COMPONENT_REL_ABS = "component"
    FIELD_REL_L2 = "field"


class Generator(Enum):
    CLUSTERED_SHIFT = "clustered-shift"
    SMOOTH_MANIFOLD = "smooth-manifold"
    BEAM_LIKE_1D = "beam-like-1d"


def _setting(default, help: str, **cli):
    """A field with its help text.  ``cli`` may add ``auto=True`` (the
    flag also takes "auto", meaning None) and ``command`` (the only
    subcommand with the flag)."""
    return field(default=default, metadata={"help": help, **cli})


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the drivers need beyond the data itself.

    ``sigma``, ``omega``, ``tau``, and ``K`` may be left unset: sigma then
    comes from the problem's stored noise level, tau from the smallest
    non-zero eigenvalue, omega from the spread-calibration rule, and K
    from 4M.  ``sigma`` is in input units on every entry point;
    :func:`mfgl.bench.estimate_planned` maps it into normalized
    coordinates by the mean column std or mean row scale, an
    approximation because a single scalar cannot be exact once columns
    are rescaled differently.

    Every field is checked here, against the bounds the solvers enforce,
    so a bad value fails before any data is read or any graph is built.
    """

    solver: SolverTag = _setting(SolverTag.TRUNCATED, "posterior solver")
    m: int = _setting(10, "high-fidelity budget")
    knn_k: int = _setting(7, "neighbor rank for the local kernel scale")
    p: float = _setting(0.5, "left degree exponent")
    q: float = _setting(0.5, "right degree exponent")
    normalization: Normalization = _setting(Normalization.NONE, "rescaling before the graph is built")
    sigma: Optional[float] = _setting(None, "observation noise level, in input units")
    K: Optional[int] = _setting(None, "spectrum size")
    beta: float = _setting(2.0, "prior smoothness exponent")
    r: float = _setting(3.0, "spread-calibration multiple")
    omega: Optional[float] = _setting(None, "'auto' or a fixed prior strength", auto=True)
    tau: Optional[float] = _setting(None, "'auto' or a fixed spectral shift", auto=True)
    seed: int = _setting(0, "random seed")
    embed_dim: Optional[int] = _setting(None, "spectral embedding width for planning")
    metric: ErrorMetric = _setting(ErrorMetric.FIELD_REL_L2, "error metric of the report", command="bench")

    def __post_init__(self):
        if self.m < 0:
            raise InvalidConfig(f"M must be non-negative, got {self.m}")
        for name in ("knn_k", "K", "embed_dim"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise InvalidConfig(f"{name} must be at least 1, got {value}")
        for name in ("sigma", "omega", "tau"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise InvalidConfig(f"{name} must be positive, got {value}")
        if not self.beta >= 1:
            raise InvalidConfig(f"beta must be at least 1, got {self.beta}")
        if not self.r > 1:
            raise InvalidConfig(f"r must exceed 1, got {self.r}")

    def spectrum_size(self, n: int) -> int:
        return min(n, max(self.K or TRUNCATION_FACTOR * self.m, self.m, 2))


@dataclass(frozen=True)
class ProblemConfig:
    """The settings of one synthetic problem (see :func:`mfgl.bench.generate`),
    with the bounds every generator needs."""

    generator: Generator = _setting(Generator.CLUSTERED_SHIFT, "synthetic problem family", command="bench")
    n: int = _setting(1000, "number of parameter points", command="bench")
    d: int = _setting(5, "state dimension", command="bench")
    clusters: int = _setting(10, "point groups of clustered-shift, in [2, n]", command="bench")
    displacement_rel: float = _setting(0.3, "shift of the truth relative to the data scale", command="bench")
    noise_rel: float = _setting(0.01, "observation noise relative to the displacement scale", command="bench")
    lf_scale: float = _setting(0.8, "low-fidelity underprediction factor (beam-like-1d)", command="bench")

    def __post_init__(self):
        if not isinstance(self.generator, Generator):
            raise InvalidConfig(f"unknown generator {self.generator!r}")
        if self.n < 2:
            raise InvalidConfig(f"n must be at least 2, got {self.n}")
        if self.d < 1:
            raise InvalidConfig(f"d must be at least 1, got {self.d}")
        if self.clusters < 1:
            raise InvalidConfig(f"clusters must be at least 1, got {self.clusters}")
        if self.generator is Generator.CLUSTERED_SHIFT and not 2 <= self.clusters <= self.n:
            raise InvalidConfig(
                f"clustered-shift needs clusters in [2, {self.n}], got {self.clusters}"
            )
        if self.generator is Generator.BEAM_LIKE_1D and self.d < 3:
            raise InvalidConfig(f"beam-like-1d needs d >= 3, got {self.d}")
        for name in ("displacement_rel", "noise_rel"):
            value = getattr(self, name)
            if not value >= 0:
                raise InvalidConfig(f"{name} must be non-negative, got {value}")
        if not self.lf_scale > 0:
            raise InvalidConfig(f"lf_scale must be positive, got {self.lf_scale}")
