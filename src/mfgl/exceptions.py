"""Semantic exception hierarchy.

Two branches matter for the CLI exit-code taxonomy: ``ValidationError``
(exit 3, bad inputs/config) and ``NumericalError`` (exit 4, degenerate data
or solver failure). I/O problems use ``MatrixIOError`` (exit 2).
"""

from __future__ import annotations


class MfglError(Exception):
    """Base class for all library errors."""


class MatrixIOError(MfglError):
    """Unreadable, malformed, or unwritable matrix file."""


class ValidationError(MfglError):
    """Inconsistent shapes, bounds, or configuration caught before compute."""


class NumericalError(MfglError):
    """Degenerate data or a numerical method that failed its contract."""


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class MissingHighFidelity(ValidationError):
    """Operation requires high-fidelity rows but the dataset has none."""


class RowCountMismatch(ValidationError):
    """A matrix has the wrong number of rows for its role."""


class DimensionMismatch(ValidationError):
    """Vector/matrix dimensions are inconsistent."""


class NonFiniteInput(ValidationError):
    """NaN or Inf encountered in an input array."""


class MemoryBudgetExceeded(ValidationError):
    """A stage would hold more bytes than the memory budget
    (:data:`mfgl.config.MEMORY_BUDGET`)."""


class InsufficientSpectrum(ValidationError):
    """Fewer eigenpairs available than the operation needs."""


class InvalidConfig(ValidationError):
    """Mutually inconsistent or out-of-range configuration values."""


# ---------------------------------------------------------------------------
# Numerical
# ---------------------------------------------------------------------------

class ZeroVariance(NumericalError):
    """A component of the low-fidelity set has (numerically) zero variance."""

    def __init__(self, component: int):
        self.component = component
        super().__init__(f"component {component} has zero variance over the low-fidelity set")


class DuplicatePointScale(NumericalError):
    """Self-tuning scale collapsed: a point's knn_k-th neighbor distance
    is zero to round-off of the data's scale."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"self-tuning scale underflow at point {index}: its knn_k-th neighbor "
            "distance is zero to round-off of the data's scale"
        )


class ZeroDegree(NumericalError):
    """A graph node has zero degree; the Laplacian family is undefined."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"node {index} has zero degree")


class ConvergenceFailure(NumericalError):
    """An eigenpair failed its residual tolerance within the iteration budget."""

    def __init__(self, k: int, residual: float):
        self.k = k
        self.residual = residual
        super().__init__(f"eigenpair {k} residual {residual:.3e} exceeds tolerance")


class SingularSystem(NumericalError):
    """An SPD factorization failed, or its factor shows the system is
    numerically singular (signals NaN input or a prior with a near-null
    mode no observation reaches)."""


class NoBracket(NumericalError):
    """Calibration target unattainable within the expanded search bracket."""


class AllZeroSpectrum(NumericalError):
    """No eigenvalue exceeds the zero threshold; tau cannot be chosen."""


class EmptyCluster(NumericalError):
    """A k-means cluster ended empty: re-seeding cannot keep a cluster
    when embedding rows coincide, since the coinciding rows tie and ties
    go to the lower cluster."""


class ZeroReferenceColumn(NumericalError):
    """A reference column has zero mean absolute value; the relative
    component error is undefined."""

    def __init__(self, component: int):
        self.component = component
        super().__init__(f"reference column {component} is identically zero")


class ZeroReferenceSet(NumericalError):
    """The reference set has zero mean row norm; the relative field error
    is undefined."""
