"""The pipeline's settings: one schema for the library and the command line.

:class:`PipelineConfig` declares every pipeline setting once, with its
default, its bounds and its help text (in the field's ``metadata``).  The
command line derives its shared flags, its config-file keys and their
type checks from these fields.  This module imports only the standard
library: the command line builds its parser and settings, and applies
``--threads``, before numpy may load.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .exceptions import InvalidConfig

TRUNCATION_FACTOR = 4


class SolverTag(Enum):
    DENSE = "dense"
    TRUNCATED = "truncated"
    NYSTROM = "nystrom"


class Normalization(Enum):
    """How a dataset is rescaled before graph construction."""

    COMPONENT = "component"   # zero mean, unit (population) std per column
    INSTANCE = "instance"     # unit Euclidean norm per row
    NONE = "none"


class ErrorMetric(Enum):
    COMPONENT_REL_ABS = "component"
    FIELD_REL_L2 = "field"


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
    K: Optional[int] = _setting(None, "spectrum size (truncated) or landmark count (nystrom)")
    beta: float = _setting(2.0, "prior smoothness exponent")
    r: float = _setting(3.0, "spread-calibration multiple")
    omega: Optional[float] = _setting(None, "'auto' or a fixed prior strength", auto=True)
    tau: Optional[float] = _setting(None, "'auto' or a fixed spectral shift", auto=True)
    seed: int = _setting(0, "random seed")
    rank_r: Optional[int] = _setting(None, "extra rank cut for the landmark factor")
    embed_dim: Optional[int] = _setting(None, "spectral embedding width for planning")
    metric: ErrorMetric = _setting(ErrorMetric.FIELD_REL_L2, "error metric of the report", command="bench")

    def __post_init__(self):
        if self.solver is SolverTag.NYSTROM and abs(self.p + self.q - 1.0) > 1e-12:
            raise InvalidConfig(
                f"the low-rank solver needs p + q = 1, got p={self.p}, q={self.q}"
            )
        if self.m < 0:
            raise InvalidConfig(f"M must be non-negative, got {self.m}")
        for name in ("knn_k", "K", "rank_r", "embed_dim"):
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
