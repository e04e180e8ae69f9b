"""The settings: one schema for the library and the command line.

:class:`PipelineConfig` declares every pipeline setting once, and
:class:`ProblemConfig` every setting of a synthetic problem, each with
its default, its lower bound and its help text (through :func:`setting`).
:func:`check_fields` checks every settings record against those
declarations, by field type and bound; only rules that join two fields
are written by hand.  The command line derives its flags and config-file
keys from these fields, and :func:`mfgl.bench.generate` checks its
arguments by building a :class:`ProblemConfig`.  This module imports only
the standard library: the command line builds its parser and settings,
and applies ``--threads``, before numpy may load.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import cache
from numbers import Integral, Real
from typing import Optional, get_args, get_type_hints

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


def setting(default=MISSING, help: str = "", *, low=None, strict: bool = False, **cli):
    """A field with its help text and lower bound: the value must be at
    least ``low``, or above it with ``strict``.  ``cli`` may add
    ``auto=True`` (the flag also takes "auto", meaning None) and
    ``command`` (the only subcommand with the flag)."""
    return field(default=default, metadata={"help": help, "low": low, "strict": strict, **cli})


def same_setting(schema, name: str, required: bool = False):
    """A field declared as ``schema``'s field ``name``: the same help text
    and bound, and the same default unless ``required``."""
    f = schema.__dataclass_fields__[name]
    return field(default=MISSING if required else f.default, metadata=f.metadata)


# An int field holds any integer, a float field any real; neither holds a bool.
_ABSTRACT = {int: Integral, float: Real}


@cache
def field_rules(schema) -> tuple:
    """Per field of ``schema``: its name, its types ((X, NoneType) for
    Optional[X]), its bound and whether the bound is strict."""
    hints = get_type_hints(schema)
    return tuple(
        (f.name, get_args(hints[f.name]) or (hints[f.name],), f.metadata.get("low"),
         f.metadata.get("strict")) for f in fields(schema)
    )


def check_fields(record) -> None:
    """Raise ``InvalidConfig`` when a field of the settings dataclass
    ``record`` holds a value of the wrong type, or one below its declared
    bound.  An enum field holds a member, numpy scalars count as numbers,
    only an Optional field holds None, and NaN fails every bound."""
    for name, (kind, *none), low, strict in field_rules(type(record)):
        value = getattr(record, name)
        if value is None and none:
            continue
        if not isinstance(value, _ABSTRACT.get(kind, kind)) or (
            isinstance(value, bool) and kind is not bool
        ):
            if issubclass(kind, Enum):
                values = ", ".join(e.value for e in kind)
                raise InvalidConfig(f"unknown {name} {value!r}: expected a {kind.__name__}: {values}")
            expected = kind.__name__ + (" or None" if none else "")
            raise InvalidConfig(f"{name} must be of type {expected}, got {value!r}")
        if low is not None and not (value > low if strict else value >= low):
            if strict:
                bound = "be positive" if low == 0 else f"exceed {low}"
            else:
                bound = "be non-negative" if low == 0 else f"be at least {low}"
            raise InvalidConfig(f"{name} must {bound}, got {value}")


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

    Every field is checked on construction, against the bounds the
    solvers enforce, so a bad value fails before any data is read or any
    graph is built.
    """

    solver: SolverTag = setting(SolverTag.TRUNCATED, "posterior solver")
    m: int = setting(10, "high-fidelity budget", low=0)
    knn_k: int = setting(7, "neighbor rank for the local kernel scale", low=1)
    p: float = setting(0.5, "left degree exponent")
    q: float = setting(0.5, "right degree exponent")
    normalization: Normalization = setting(Normalization.NONE, "rescaling before the graph is built")
    sigma: Optional[float] = setting(None, "observation noise level, in input units",
                                     low=0, strict=True)
    K: Optional[int] = setting(None, "spectrum size", low=1)
    beta: float = setting(2.0, "prior smoothness exponent", low=1)
    r: float = setting(3.0, "spread-calibration multiple", low=1, strict=True)
    omega: Optional[float] = setting(None, "'auto' or a fixed prior strength",
                                     low=0, strict=True, auto=True)
    tau: Optional[float] = setting(None, "'auto' or a fixed spectral shift",
                                   low=0, strict=True, auto=True)
    seed: int = setting(0, "random seed", low=0)
    embed_dim: Optional[int] = setting(None, "spectral embedding width for planning", low=1)
    metric: ErrorMetric = setting(ErrorMetric.FIELD_REL_L2, "error metric of the report", command="bench")

    def __post_init__(self):
        check_fields(self)

    def spectrum_size(self, n: int) -> int:
        return min(n, max(self.K or TRUNCATION_FACTOR * self.m, self.m, 2))


@dataclass(frozen=True)
class ProblemConfig:
    """The settings of one synthetic problem (see :func:`mfgl.bench.generate`),
    with the bounds every generator needs."""

    generator: Generator = setting(Generator.CLUSTERED_SHIFT, "synthetic problem family", command="bench")
    n: int = setting(1000, "number of parameter points", low=2, command="bench")
    d: int = setting(5, "state dimension", low=1, command="bench")
    clusters: int = setting(10, "point groups of clustered-shift, in [2, n]", low=1, command="bench")
    displacement_rel: float = setting(0.3, "shift of the truth relative to the data scale",
                                      low=0, command="bench")
    noise_rel: float = setting(0.01, "observation noise relative to the displacement scale",
                               low=0, command="bench")
    lf_scale: float = setting(0.8, "low-fidelity underprediction factor (beam-like-1d)",
                              low=0, strict=True, command="bench")

    def __post_init__(self):
        check_fields(self)
        if self.generator is Generator.CLUSTERED_SHIFT and not 2 <= self.clusters <= self.n:
            raise InvalidConfig(
                f"clustered-shift needs clusters in [2, {self.n}], got {self.clusters}"
            )
        if self.generator is Generator.BEAM_LIKE_1D and self.d < 3:
            raise InvalidConfig(f"beam-like-1d needs d >= 3, got {self.d}")
