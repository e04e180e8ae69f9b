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


class DenseLimitExceeded(ValidationError):
    """Problem size exceeds a dense-algebra limit or the graph's byte budget."""


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


class ZeroNorm(NumericalError):
    """A low-fidelity instance has (numerically) zero Euclidean norm."""

    def __init__(self, instance: int):
        self.instance = instance
        super().__init__(f"instance {instance} has zero norm")


class DuplicatePointScale(NumericalError):
    """Self-tuning scale collapsed: a point has >= knn_k exact duplicates."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"self-tuning scale underflow at point {index}: "
            "data contains enough exact duplicates to zero the kernel bandwidth"
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
    """An SPD factorization failed; signals NaN or corrupted input."""


class NoBracket(NumericalError):
    """Calibration target unattainable within the expanded search bracket."""


class AllZeroSpectrum(NumericalError):
    """No eigenvalue exceeds the zero threshold; tau cannot be chosen."""


class NegativeApproxDegree(NumericalError):
    """Nystrom-approximated degree is non-positive; landmark set too poor."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"approximate degree at point {index} is not positive; "
            "increase the landmark count, re-sample landmarks, or pass "
            "rank_r to truncate the landmark block (the kernel has a zero "
            "diagonal, so its landmark block is indefinite and an "
            "untruncated pseudoinverse can extrapolate wildly)"
        )


class SingularLandmarkBlock(NumericalError):
    """W(X,X) is numerically zero; no usable landmark information."""


class SingularCapacitance(NumericalError):
    """The K x K Woodbury core is numerically singular."""


class EmptyCluster(NumericalError):
    """Unreachable by construction: empty k-means clusters are re-seeded."""


class ZeroReferenceColumn(NumericalError):
    """A reference column has zero mean absolute value; the relative
    component error is undefined."""

    def __init__(self, component: int):
        self.component = component
        super().__init__(f"reference column {component} is identically zero")


class ZeroReferenceSet(NumericalError):
    """The reference set has zero mean row norm; the relative field error
    is undefined."""
