"""The settings: one schema for the library and the command line.

:class:`PipelineConfig` declares every pipeline setting once, and
:class:`ProblemConfig` every setting of a synthetic problem, each with
its default, its lower bound and its help text (through :func:`setting`).
:func:`check_fields` checks every settings record against those
declarations, by field type and bound; only rules that join two fields
are written by hand.  The command line derives its flags and config-file
keys from these fields, and :func:`mfgl.bench.generate` checks its
arguments by building a :class:`ProblemConfig`.  :data:`MEMORY_BUDGET`
is the one size limit, which every large stage checks through
:func:`check_budget`.  This module imports only
the standard library: the command line builds its parser and settings,
and applies ``--threads``, before numpy may load.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import cache
from math import isfinite
from numbers import Integral, Real
from typing import Optional, get_args, get_type_hints

from .exceptions import InvalidConfig, MemoryBudgetExceeded

TRUNCATION_FACTOR = 4

MEMORY_BUDGET = 2 << 30
"""The most bytes one stage may hold, 2 GiB: each stage predicts what it
will hold and refuses with ``MemoryBudgetExceeded`` (exit 3), through
:func:`check_budget`, before it allocates it.  What each stage holds,
and what it is charged:

- :func:`~mfgl.graph.build_graph`: the kept triangle (12 bytes a pair),
  one Gram block of ``_WORK_BYTES``, and for the degrees W's values (16
  bytes a pair) and up to two ``_WORK_BYTES`` of mirror work.
  :func:`~mfgl.graph.laplacian`, for a graph handed on, holds the
  triangle next to L_sym's values, then the triangle's pattern next to
  L_sym (24 bytes a pair), and the triangle dies before the eigensolve.
  The graph is charged 28 bytes a kept pair plus two ``_WORK_BYTES``,
  checked as pairs are kept, before the degree pass.
- :func:`~mfgl.spectral.low_spectrum`: L_sym, the LU and ARPACK's
  workspace; the shift is written into L_sym's own diagonal, so no copy
  of its values is made.  Charged L_sym's CSR bytes, 8N (2 ncv + K) for
  ARPACK's two N x ncv arrays and the K eigenvectors, and 12 bytes (a
  value and a row index) per LU nonzero: ``_LU_FILL`` = 2 x nnz(L_sym)
  of them before ``splu`` (the fill is 1.02 x on clustered-shift at
  N=3000 and 1.21 x at N=20000, 1.52 x on beam-like-1d 2000 x 256 and
  1.69 x on smooth-manifold 3000), and ``lu.nnz`` after it.  The
  dense branch (K > N - 2) is charged 4 x 8N^2 (measured 3.06-3.24 x).
- :func:`~mfgl.posterior.dense_factor`: Q (8N^2) next to L_sym while Q
  is written, then Q alone; tau is written onto L_sym's own diagonal,
  and Q_uu is factored where it lies in Q.  The pipeline and ``mfgl
  estimate`` hand on L_sym and the planning spectrum, so the
  eigenvectors die before Q is written and L_sym once it is.  Charged
  L_sym's CSR bytes, and for integer beta Q and one row-block product,
  at most 12 bytes for each of its ceil(N/16) x N entries, for
  fractional beta 2.1 x 8N^2 (the copy ``eigh`` overwrites, the
  eigenvectors and their product).  The charge lies within 10% of the
  traced peak of the factor and of the dense pipeline at N=400 and 1000.

Not charged: the rows a caller holds (``mfgl plan`` holds 2.02-2.07 x
their bytes, ``mfgl estimate`` 1.79 x) and the k-means.
"""

# The format of a matrix file is always named, never guessed from a suffix.
FORMATS = ("csv", "bin")


class SolverTag(Enum):
    DENSE = "dense"
    TRUNCATED = "truncated"
    # The landmark solver was removed; the tag stays for the benchmark's probe,
    # and every pipeline entry refuses it.
    NYSTROM = "nystrom"


class Normalization(Enum):
    """How a dataset is rescaled before graph construction."""

    COMPONENT = "component"   # zero mean, unit (population) std per column
    NONE = "none"


class ErrorMetric(Enum):
    COMPONENT_REL_ABS = "component"
    FIELD_REL_L2 = "field"


class Generator(Enum):
    CLUSTERED_SHIFT = "clustered-shift"
    SMOOTH_MANIFOLD = "smooth-manifold"
    BEAM_LIKE_1D = "beam-like-1d"


def check_budget(stage: str, predicted: int) -> None:
    """Refuse ``stage`` (``MemoryBudgetExceeded``) when it predicts that it
    will hold more than ``MEMORY_BUDGET`` bytes."""
    if predicted > MEMORY_BUDGET:
        raise MemoryBudgetExceeded(f"{stage} would hold about {int(predicted)} bytes, "
                                   f"above the {MEMORY_BUDGET}-byte memory budget")


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


def check_values(schema, **values) -> None:
    """Raise ``InvalidConfig`` when a value, named as a field of the
    settings dataclass ``schema``, is of the wrong type, a float that is
    not finite, or below that field's declared bound.  An enum field
    holds a member, numpy scalars count as numbers, and only an Optional
    field holds None."""
    for name, (kind, *none), low, strict in field_rules(schema):
        if name not in values:
            continue
        value = values[name]
        if value is None and none:
            continue
        if not isinstance(value, _ABSTRACT.get(kind, kind)) or (
            isinstance(value, bool) and kind is not bool
        ):
            if issubclass(kind, Enum):
                members = ", ".join(e.value for e in kind)
                raise InvalidConfig(f"unknown {name} {value!r}: expected a {kind.__name__}: {members}")
            expected = kind.__name__ + (" or None" if none else "")
            raise InvalidConfig(f"{name} must be of type {expected}, got {value!r}")
        if kind is float and not isfinite(value):
            raise InvalidConfig(f"{name} must be finite, got {value}")
        if low is not None and not (value > low if strict else value >= low):
            if strict:
                bound = "be positive" if low == 0 else f"exceed {low}"
            else:
                bound = "be non-negative" if low == 0 else f"be at least {low}"
            raise InvalidConfig(f"{name} must {bound}, got {value}")


def check_fields(record) -> None:
    """:func:`check_values` on every field of the settings dataclass ``record``."""
    check_values(type(record), **vars(record))


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the drivers need beyond the data itself.

    ``sigma``, ``omega``, ``tau``, and ``K`` may be left unset: sigma then
    comes from the problem's stored noise level, tau from the smallest
    non-zero eigenvalue, omega from the spread-calibration rule, and K
    from 4M.  ``sigma`` is in input units on every entry point;
    :func:`mfgl.bench.estimate_planned` maps it into normalized
    coordinates by the mean column std, an approximation because a
    single scalar cannot be exact once columns are rescaled differently.

    Every field is checked on construction, against the bounds the
    solvers enforce, so a bad value fails before any data is read or any
    graph is built.
    """

    solver: SolverTag = setting(SolverTag.TRUNCATED, "posterior solver")
    m: int = setting(10, "high-fidelity budget", low=1)
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
