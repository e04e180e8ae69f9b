"""Dense reference posterior, hyperparameter rules, and the convergence
harness for the vanishing-noise limit.

Everything here is O(N^2)-O(N^3) and deliberately simple: this module is
the oracle the scalable solvers are validated against, so clarity beats
speed.  The MAP system for the (p, q)-normalized Laplacian is assembled
in its symmetric form

    A = (1/sigma^2) P_M^T P_M + omega * S (L_sym + tau I)^beta S,

with S = D^{(p-q)/2}, which equals the D^{p-q}-weighted normal equations
of the non-symmetric L and stays Cholesky-friendly for any (p, q).

Only the observation term depends on omega and sigma, and it touches
the observed block alone.  So :func:`dense_factor`, the one place the
prior is built and factored, builds Q = S (L_sym + tau I)^beta S once
and factors it once: a Cholesky of the unobserved block Q_uu, its
triangular inverse, and an M x M ``eigh`` of the Schur complement of
Q_uu.  After that the MAP, the stddevs sqrt(diag(A^{-1})) and the
calibration handle's mean stddev cost O(NM) for any (omega, sigma), and
the N x N covariance is formed only when it is asked for.  Q takes one
N x N array: an integer power is written from sparse row-block products
of L_sym + tau I, tau written onto L_sym's own diagonal while they run,
and Q_uu is checked finite in blocks and factored where it lies in that
array.  L_sym handed on dies once Q is written, so the dense route holds
Q, and L_sym only while Q is written, and nothing else of their size.  The
vanishing-noise path solves every step on one such factor, and its
limit, the constrained minimizer, is the factor's -Q_uu^{-1} Q_uo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dtrtri

from .config import PipelineConfig, SolverTag, check_budget, check_values  # noqa: F401  (SolverTag re-exported: callers import it from here)
from .data import HyperParameters, frozen, observations
from .exceptions import (
    AllZeroSpectrum,
    DimensionMismatch,
    InvalidConfig,
    NoBracket,
    SingularSystem,
)
from .graph import GraphLaplacian
from .matio import block_rows
from .spectral import Spectrum, checked_cholesky, shifted_eigenvalues

# Row blocks in which shifted_power writes an integer power, so the sparse
# products in flight cover N/16 rows of the result at a time.
_PRIOR_ROW_BLOCKS = 16
# What a fractional power's eigh route holds next to L_sym, per 8N^2 bytes.
_EIGH_PRIOR_FACTOR = 2.1
ZERO_EIGENVALUE_REL_TOL = 1e-8
CALIBRATION_RTOL = 1e-3
CALIBRATION_BRACKET = (1e-4, 1e4)
BRACKET_DECADES = 60


@dataclass(frozen=True, eq=False)
class PosteriorResult:
    """Gaussian posterior summary: the MAP displacement field plus uncertainty.

    The MAP field is kept as its solver's factors, shared, not copied:
    Phi* is ``head`` over ``basis @ coeffs`` (truncated: no head, Psi_K
    and A*; dense: phi_o, Z and -phi_o).  ``phi_star``, N x D, is the
    stack of the :meth:`map_blocks`, so the two agree bit for bit.

    ``mf_estimates`` (lf + MAP displacement, in original coordinates) is
    attached by :func:`~mfgl.bench.run_pipeline`, which collects them
    from the estimate step's row blocks; ``mfgl estimate`` writes those
    blocks as they are formed and attaches none.
    """

    stddevs: np.ndarray
    head: np.ndarray
    basis: np.ndarray
    coeffs: np.ndarray
    mf_estimates: Optional[np.ndarray] = None
    covariance: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("stddevs", "head", "basis", "coeffs", "mf_estimates", "covariance"):
            a = getattr(self, name)
            if a is not None:
                object.__setattr__(self, name, frozen(a))
        h, b, c = self.head, self.basis, self.coeffs
        if not (h.ndim == b.ndim == c.ndim == 2 and h.shape[1] == c.shape[1]
                and b.shape[1] == c.shape[0]):
            raise DimensionMismatch("the MAP factors must be head (h, D), basis (N - h, r) "
                                    "and coeffs (r, D)")
        if self.stddevs.ndim != 1 or self.stddevs.shape[0] != self.n:
            raise DimensionMismatch("stddevs must have one entry per point")
        if not np.all(self.stddevs > 0):
            raise SingularSystem("posterior standard deviations must be positive")
        if self.covariance is not None and self.covariance.shape != (self.n,) * 2:
            raise DimensionMismatch("covariance must be N x N")

    @property
    def n(self) -> int:
        return self.head.shape[0] + self.basis.shape[0]

    def map_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """The rows of Phi* in blocks of :func:`~mfgl.matio.block_rows`
        rows, each a new array, with the slice of rows it holds."""
        h, step = self.head.shape[0], block_rows(self.coeffs.shape[1])
        for lo in range(0, self.n, step):
            tail = self.basis[max(lo - h, 0):max(lo + step - h, 0)] @ self.coeffs
            yield slice(lo, lo + step), np.concatenate([self.head[lo:lo + step], tail])

    @property
    def phi_star(self) -> np.ndarray:
        """Phi*, N x D, stacked from :meth:`map_blocks`."""
        out = np.concatenate([block for _, block in self.map_blocks()])
        out.setflags(write=False)
        return out


def shifted_power(gl: GraphLaplacian, tau: float, beta: float) -> np.ndarray:
    """(L_sym + tau I)^beta for the Laplacian ``gl`` and beta >= 1, as one
    new N x N array.

    Integer beta writes tau onto L_sym's own diagonal for the span of the
    product (:meth:`~mfgl.graph.GraphLaplacian.shifted` at sigma = -tau;
    x - (-tau) rounds as x + tau), so A = L_sym + tau I is L_sym's arrays
    and no copy of them is made.  A is multiplied out in
    ``_PRIOR_ROW_BLOCKS`` row blocks, each A[rows] @ A @ ... written into
    its rows of the result (Gustavson's row-wise product, ACM TOMS 4(3),
    1978), so no dense operand is made, and beta = 2 costs the sum of the
    squared row counts of A instead of N^3.  Each row is formed alone, so
    the result equals the full sparse product bit for bit, and it is
    exactly symmetric for beta <= 2.  Otherwise ``eigh`` overwrites one
    Fortran-ordered dense copy of L_sym, the eigenvectors are scaled in
    place by s = sqrt((lambda + tau)^beta)
    (:func:`~mfgl.spectral.shifted_eigenvalues`), and the result is the
    one product (V s)(V s)^T.
    """
    if float(beta).is_integer():
        n = gl.n
        step = -(-n // _PRIOR_ROW_BLOCKS)
        with gl.shifted(-tau) as a:
            a = a.T  # A = A^T, so this is the CSR view of the same arrays
            out = np.empty((n, n))  # once the diagonal-slot search has freed its work
            for lo in range(0, n, step):
                block = a[lo:lo + step]
                for _ in range(int(beta) - 1):
                    block = block @ a
                block.toarray(out=out[lo:lo + step])
        return out
    base = gl.sym_matrix.toarray(order="F")
    vals, vecs = sla.eigh(base, overwrite_a=True)
    del base
    vecs *= np.sqrt(shifted_eigenvalues(vals, tau, beta))
    return vecs @ vecs.T


def _prior_bytes(gl: GraphLaplacian, beta: float) -> int:
    """The bytes :func:`dense_factor` is charged for the prior of ``gl``:
    L_sym, and for integer beta Q and one row-block product of at most 12
    bytes (value and column index) for each entry of its rows, for
    fractional beta ``_EIGH_PRIOR_FACTOR`` x 8N^2."""
    n = gl.n
    if float(beta).is_integer():
        return gl.nbytes + 8 * n * n + 12 * -(-n // _PRIOR_ROW_BLOCKS) * n
    return gl.nbytes + int(_EIGH_PRIOR_FACTOR * 8 * n * n)


def _prior_matrix(gl: GraphLaplacian, tau: float, beta: float) -> np.ndarray:
    """S (L_sym + tau I)^beta S with S = D^{(p-q)/2}: the prior precision
    per unit omega, scaled in place.  Entry (i, j) is multiplied by
    s_i s_j, which equals s_j s_i, so scaling keeps the power's symmetry."""
    b = shifted_power(gl, tau, beta)
    if gl.p != gl.q:
        s = gl.degrees ** (0.5 * (gl.p - gl.q))
        for row, s_i in zip(b, s):
            row *= s_i * s
    return b


@dataclass(frozen=True, eq=False)
class DenseFactor:
    """The omega- and sigma-free factor of the dense MAP system for the
    first M rows observed (o) and the rest unobserved (u).

    With Q = S (L_sym + tau I)^beta S split into blocks, R = Q_uu = L L^T
    and the Schur complement Q_oo - Q_ou R^{-1} Q_uo = V diag(theta) V^T,
    it holds

    - ``l_inv`` = L^{-1}, Fortran-ordered at the front of Q's N x N
      buffer, and ``r`` = diag(R^{-1}), its squared column norms
    - ``z`` = R^{-1} Q_uo, (N-M) x M
    - ``theta`` and ``v``, the Schur complement's eigenpairs
    - ``y`` = Z V

    so every (omega, sigma) is a closed form in O(NM) (Golub & Van Loan,
    block LDL^T; Rasmussen & Williams 2006, App. A.3).  Build it with
    :func:`dense_factor`.
    """

    l_inv: np.ndarray
    r: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    v: np.ndarray
    y: np.ndarray

    @property
    def m(self) -> int:
        return self.v.shape[0]

    def _gain(self, omega: float, sigma: float) -> np.ndarray:
        """g = 1/(theta + c), c = 1/(omega sigma^2): the eigenvalues of
        omega X_oo, the observed block of A^{-1}, in the basis V."""
        return 1.0 / (self.theta + 1.0 / (omega * sigma**2))

    def variances(self, omega: float, sigma: float) -> np.ndarray:
        """diag(A^{-1}); every term is positive, so nothing cancels."""
        g = self._gain(omega, sigma)
        var_o = (self.v * self.v) @ g
        var_u = self.r + (self.y * self.y) @ g
        return np.concatenate([var_o, var_u]) / omega

    def mean_stddev(self, omega: float, sigma: float) -> float:
        """Mean stddev over the unobserved rows M..N-1, in O(NM)."""
        if self.r.size == 0:
            raise InvalidConfig("calibration needs at least one unobserved row")
        return float(np.sqrt(self.variances(omega, sigma)[self.m:]).mean())

    def interpolant(self, phi_o: np.ndarray) -> np.ndarray:
        """[phi_o; -Z phi_o]: the rows that minimize <Theta, Q Theta> with
        the observed block held at ``phi_o``."""
        return np.vstack([phi_o, -self.z @ phi_o])


def dense_factor(gl: GraphLaplacian, m: int, tau: float,
                 beta: float = PipelineConfig.beta) -> DenseFactor:
    """Factor the prior of ``gl`` under ``tau`` and ``beta`` for the first
    ``m`` rows observed: one prior build, one Cholesky of the (N-M) x
    (N-M) block, its triangular inverse and one M x M ``eigh``.

    Q is built in one N x N array.  Q_oo and Q_uo are copied out, Q_uu
    is moved to the front of that array, and the Cholesky factor and its
    inverse overwrite it there, so the factor holds about one N x N
    array at its peak; ``l_inv`` keeps that array alive.  The reference
    to ``gl`` is dropped once Q is written, so a caller that passes its
    only reference (``dense_factor(laplacians.pop(), m, tau, beta)``, as
    :func:`~mfgl.bench.estimate_attached` does) holds L_sym next to Q
    while Q is written and Q alone after that.  A caller that keeps
    ``gl`` gets the same factor bit for bit.

    Raises
    ------
    InvalidConfig, MemoryBudgetExceeded
        Before the prior is built: when tau or beta is refused as its
        :class:`~mfgl.data.HyperParameters` field, or when its bytes
        (:func:`_prior_bytes`) exceed the memory budget
        (:data:`~mfgl.config.MEMORY_BUDGET`).
    SingularSystem
        When a factorization fails, or when the unobserved block is
        numerically singular (see :func:`mfgl.spectral.checked_cholesky`).
    """
    check_values(HyperParameters, tau=tau, beta=beta)
    n = gl.n
    if not 0 <= m <= n:
        raise DimensionMismatch(f"need 0 <= M <= N, got M={m}, N={n}")
    check_budget(f"the dense prior of N={n} points", _prior_bytes(gl, beta))
    q = _prior_matrix(gl, tau, beta)
    del gl  # so that L_sym handed on is freed before the Cholesky
    k = n - m
    q_oo, q_uo = q[:m, :m].copy(), q[m:, :m].copy()
    l_inv = np.zeros((0, 0))
    if k:
        # Q_uu moves to the front of Q's buffer a row at a time: row i goes
        # from (m + i) N + m to i K, forward, onto entries already read
        flat = q.reshape(-1)
        for i in range(k):
            flat[i * k:(i + 1) * k] = q[m + i, m:]
        # read in Fortran order the block is Q_uu^T, which LAPACK factors
        # without a copy; it is Q_uu itself for beta <= 2 and fractional
        # beta, whose Q is exactly symmetric, and Q_uu to round-off else
        q_uu = flat[:k * k].reshape(k, k, order="F")
        l_inv, info = dtrtri(checked_cholesky(q_uu, "unobserved prior block"),
                             lower=1, overwrite_c=1)
        if info != 0:
            raise SingularSystem(f"triangular inverse failed: dtrtri info={info}")
    del q  # only l_inv, at the front of its buffer, still holds it
    w = l_inv @ q_uo
    schur = q_oo - w.T @ w
    try:
        theta, v = sla.eigh(schur)
    except sla.LinAlgError as exc:
        raise SingularSystem(f"Schur complement eigensolve failed: {exc}") from exc
    z = l_inv.T @ w
    z.setflags(write=False)  # so that a posterior shares it
    return DenseFactor(l_inv=l_inv, r=np.einsum("ij,ij->j", l_inv, l_inv), z=z,
                       theta=np.clip(theta, 0.0, None), v=v, y=z @ v)


def dense_posterior(
    factor: DenseFactor, phi_hat: np.ndarray, omega: float, sigma: float, want_cov: bool = False
) -> PosteriorResult:
    """Exact Gaussian posterior: A Phi* = (1/sigma^2) P_M^T Phi_hat and
    ``stddevs`` = sqrt(diag(A^{-1})), on ``factor`` (:func:`dense_factor`,
    which fixes tau, beta and M), so a caller that calibrated omega on it
    factors once.  omega and sigma are checked as their
    :class:`~mfgl.data.HyperParameters` fields, and ``phi_hat`` must hold
    the factor's M rows (:func:`~mfgl.data.observations`).  The N x N
    covariance is formed only for ``want_cov``.
    """
    check_values(HyperParameters, omega=omega, sigma=sigma)
    phi_hat = observations(phi_hat, factor.m)
    v = factor.v
    g = factor._gain(omega, sigma)
    x_oo = (v * g) @ v.T / omega
    phi_o = x_oo @ phi_hat / sigma**2
    cov = None
    if want_cov:
        y = factor.y
        x_uu = (factor.l_inv.T @ factor.l_inv + (y * g) @ y.T) / omega
        x_uo = -factor.z @ x_oo
        cov = np.block([[x_oo, x_uo.T], [x_uo, x_uu]])
        cov = 0.5 * (cov + cov.T)
    return PosteriorResult(
        stddevs=np.sqrt(factor.variances(omega, sigma)),
        head=phi_o, basis=factor.z, coeffs=-phi_o,  # the interpolant's factors
        covariance=cov,
    )


def choose_tau(spectrum: Spectrum) -> float:
    """Smallest non-zero eigenvalue, the shift that makes the prior proper.

    "Non-zero" means above 1e-8 times ``spectrum.shift_a``, the bound of
    the whole spectrum, so round-off zeros and genuine multi-component
    kernels are both skipped, and the choice does not depend on how many
    eigenpairs were computed.

    Raises
    ------
    AllZeroSpectrum
        When every eigenvalue sits below the zero threshold.
    """
    vals = spectrum.eigenvalues
    if vals.size < 2:
        raise InvalidConfig("need at least two eigenvalues to choose tau")
    positive = vals[vals > ZERO_EIGENVALUE_REL_TOL * spectrum.shift_a]
    if positive.size == 0:
        raise AllZeroSpectrum("no eigenvalue above the zero threshold")
    return float(positive.min())


def calibrate_omega(
    mean_stddev: Callable[[float], float], sigma: float, r: float = PipelineConfig.r
) -> float:
    """Pick omega so the mean unobserved stddev equals r * sigma, to a
    relative ``CALIBRATION_RTOL``.

    ``mean_stddev`` maps omega to (1/(N-M)) sum_{i >= M} sqrt(C_ii) under
    any solver's covariance-diagonal access.  The function is decreasing
    in omega (a stronger prior shrinks posterior spread), so the root is
    found by bisection in log omega; the initial ``CALIBRATION_BRACKET``
    is expanded up to ``BRACKET_DECADES`` decades each way before giving
    up.

    Raises
    ------
    NoBracket
        When the target r * sigma is unattainable: even the widest
        bracket leaves both endpoints on the same side.
    """
    if not r > 1:
        raise InvalidConfig(f"r must exceed 1, got {r}")
    target = r * sigma
    tol = CALIBRATION_RTOL * target
    lo, hi = CALIBRATION_BRACKET
    f_lo = mean_stddev(lo) - target
    f_hi = mean_stddev(hi) - target
    decades = 0
    while (f_lo < 0 or f_hi > 0) and decades < BRACKET_DECADES:
        decades += 1
        if f_lo < 0:
            lo /= 10.0
            f_lo = mean_stddev(lo) - target
        if f_hi > 0:
            hi *= 10.0
            f_hi = mean_stddev(hi) - target
    if f_lo < 0 or f_hi > 0:
        raise NoBracket(
            f"mean stddev never crosses r*sigma={target:.3e} within the bracket"
        )
    if abs(f_lo) <= tol:
        return lo
    if abs(f_hi) <= tol:
        return hi
    log_lo, log_hi = np.log(lo), np.log(hi)
    for _ in range(200):
        mid = np.exp(0.5 * (log_lo + log_hi))
        f_mid = mean_stddev(mid) - target
        if abs(f_mid) <= tol:
            return float(mid)
        if f_mid > 0:
            log_lo = np.log(mid)
        else:
            log_hi = np.log(mid)
    raise NoBracket("bisection failed to meet the calibration tolerance")


@dataclass(frozen=True, eq=False)
class RegularizationPath:
    """Trace of MAP solutions along a vanishing-noise schedule, as built
    (and checked) by :func:`regularization_path`."""

    deltas: np.ndarray
    omegas: np.ndarray
    iterates: tuple
    limit: np.ndarray

    def __post_init__(self):
        for name in ("deltas", "omegas", "limit"):
            object.__setattr__(self, name, frozen(getattr(self, name)))
        object.__setattr__(
            self, "iterates", tuple(np.asarray(it, dtype=np.float64) for it in self.iterates)
        )


def _observed_rows(gl: GraphLaplacian, phi_observed: np.ndarray) -> np.ndarray:
    """``phi_observed`` as :func:`~mfgl.data.observations` takes it, once
    1 <= M < N is checked."""
    phi_observed = observations(phi_observed, name="phi_observed")
    m, n = phi_observed.shape[0], gl.n
    if not 1 <= m < n:
        raise DimensionMismatch(f"need 1 <= M < N, got M={m}, N={n}")
    return phi_observed


def constrained_minimizer(
    gl: GraphLaplacian, phi_observed: np.ndarray, tau: float, beta: float = PipelineConfig.beta
) -> np.ndarray:
    """Minimize <Theta, Q Theta>_F, Q = S (L_sym + tau I)^beta S, subject to
    the first M rows equaling ``phi_observed``, by eliminating the
    constraint.

    The free rows solve Q_uu Theta_u = -Q_uo phi_observed, that is
    Theta_u = -Z phi_observed with Z = Q_uu^{-1} Q_uo taken from
    :func:`dense_factor` (:meth:`DenseFactor.interpolant`).
    """
    phi_observed = _observed_rows(gl, phi_observed)
    return dense_factor(gl, phi_observed.shape[0], tau, beta).interpolant(phi_observed)


def regularization_path(
    gl: GraphLaplacian,
    phi_observed: np.ndarray,
    noise_scales: Sequence[float],
    tau: float,
    beta: float = PipelineConfig.beta,
    omega_coeff: float = 1.0,
    omega_exponent: float = 1.0,
    seed: int = 0,
) -> RegularizationPath:
    """MAP iterates under shrinking observation noise, plus their limit.

    For each scale delta_n the observed block is perturbed by a random
    matrix of Frobenius norm exactly delta_n, and the objective
    (1/2)||P_M Theta - observed||^2 + omega_n <Theta, Q Theta> is
    minimized with omega_n = omega_coeff * delta_n^omega_exponent.  That
    is the dense MAP problem at sigma = 1 and prior strength 2 omega_n
    (rescaling sigma only reparameterizes omega), so one
    :func:`dense_factor` serves every step and the limit, the
    :func:`constrained_minimizer`.

    The schedule is checked before the prior is built: delta_n strictly
    decreasing, omega_n positive and non-increasing, and the exponent
    below 2 so that delta_n^2/omega_n vanishes, which is what drives the
    iterates to the limit.
    """
    if omega_exponent >= 2:
        raise InvalidConfig(
            f"omega exponent must be < 2 for convergence, got {omega_exponent}"
        )
    deltas = np.asarray(noise_scales, dtype=np.float64)
    omegas = omega_coeff * deltas**omega_exponent
    if np.any(np.diff(deltas) >= 0):
        raise InvalidConfig("noise scales must be strictly decreasing")
    if not np.all(omegas > 0):
        raise InvalidConfig("omega schedule must be positive")
    if np.any(np.diff(omegas) > 0):
        raise InvalidConfig("omega schedule must be non-increasing")
    ratio = deltas**2 / omegas
    if ratio.size >= 2 and not ratio[-1] < ratio[0]:
        raise InvalidConfig("delta_n^2/omega_n must tend to zero")
    phi_observed = _observed_rows(gl, phi_observed)
    m, d = phi_observed.shape
    factor = dense_factor(gl, m, tau, beta)
    rng = np.random.default_rng(seed)
    iterates = []
    for delta, omega in zip(deltas, omegas):
        noise = rng.standard_normal((m, d))
        norm = np.linalg.norm(noise)
        noise = noise * (delta / norm) if norm > 0 else noise
        iterates.append(dense_posterior(factor, phi_observed + noise, 2.0 * omega, 1.0).phi_star)
    return RegularizationPath(deltas=deltas, omegas=omegas, iterates=tuple(iterates),
                              limit=factor.interpolant(phi_observed))
