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
the N x N covariance is formed only when it is asked for.  The
vanishing-noise path solves every step on one such factor, and its
limit, the constrained minimizer, is the factor's -Q_uu^{-1} Q_uo.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dtrtri

from .config import SolverTag
from .data import HyperParameters, frozen
from .exceptions import (
    AllZeroSpectrum,
    DenseLimitExceeded,
    DimensionMismatch,
    InvalidConfig,
    NoBracket,
    NonFiniteInput,
    SingularSystem,
)
from .graph import GraphLaplacian
from .spectral import Spectrum, checked_cholesky, shifted_eigenvalues

DENSE_POSTERIOR_LIMIT = 3_000
ZERO_EIGENVALUE_REL_TOL = 1e-8
CALIBRATION_RTOL = 1e-3
CALIBRATION_BRACKET = (1e-4, 1e4)
BRACKET_DECADES = 60


@dataclass(frozen=True)
class PosteriorResult:
    """Gaussian posterior summary: MAP displacements plus uncertainty.

    ``mf_estimates`` (lf + MAP displacement, in original coordinates) is
    attached by the pipeline once denormalization statistics are known.
    """

    phi_star: np.ndarray
    stddevs: np.ndarray
    solver_tag: SolverTag
    mf_estimates: Optional[np.ndarray] = None
    covariance: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("phi_star", "stddevs", "mf_estimates", "covariance"):
            a = getattr(self, name)
            if a is not None:
                object.__setattr__(self, name, frozen(a))
        if self.stddevs.ndim != 1 or self.stddevs.shape[0] != self.phi_star.shape[0]:
            raise DimensionMismatch("stddevs must have one entry per point")
        if np.any(self.stddevs <= 0):
            raise SingularSystem("posterior standard deviations must be positive")
        if self.covariance is not None:
            if self.covariance.shape != (self.phi_star.shape[0],) * 2:
                raise DimensionMismatch("covariance must be N x N")


def shifted_power(sym: np.ndarray, tau: float, beta: float) -> np.ndarray:
    """(sym + tau I)^beta for a symmetric PSD matrix.

    Integer beta multiplies out exactly; otherwise the power is taken on
    the eigenvalues (:func:`~mfgl.spectral.shifted_eigenvalues`).
    """
    sym = np.asarray(sym, dtype=np.float64)
    base = sym + tau * np.eye(sym.shape[0])
    if float(beta).is_integer():
        return np.linalg.matrix_power(base, int(beta))
    vals, vecs = sla.eigh(sym)
    return (vecs * shifted_eigenvalues(vals, tau, beta)) @ vecs.T


def _prior_matrix(gl: GraphLaplacian, hp: HyperParameters) -> np.ndarray:
    """S (L_sym + tau I)^beta S with S = D^{(p-q)/2}: the prior precision
    per unit omega."""
    b = shifted_power(gl.sym_matrix.toarray(), hp.tau, hp.beta)
    if gl.p != gl.q:
        s = gl.graph.degrees ** (0.5 * (gl.p - gl.q))
        b = s[:, None] * b * s[None, :]
    return b


@dataclass(frozen=True)
class DenseFactor:
    """The omega- and sigma-free factor of the dense MAP system for the
    first M rows observed (o) and the rest unobserved (u).

    With Q = S (L_sym + tau I)^beta S split into blocks, R = Q_uu = L L^T
    and the Schur complement Q_oo - Q_ou R^{-1} Q_uo = V diag(theta) V^T,
    it holds

    - ``l_inv`` = L^{-1} and ``r`` = diag(R^{-1}), its squared column norms
    - ``z`` = R^{-1} Q_uo, (N-M) x M
    - ``theta`` and ``v``, the Schur complement's eigenpairs
    - ``y`` = Z V

    so every (omega, sigma) is a closed form in O(NM) (Golub & Van Loan,
    block LDL^T; Rasmussen & Williams 2006, App. A.3).  Build it with
    :func:`dense_factor`.
    """

    tau: float
    beta: float
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


def dense_factor(gl: GraphLaplacian, hp: HyperParameters, m: int) -> DenseFactor:
    """Factor the prior of ``gl`` under ``hp.tau`` and ``hp.beta`` for the
    first ``m`` rows observed: one prior build, one Cholesky of the
    (N-M) x (N-M) block, its triangular inverse and one M x M ``eigh``.

    Raises
    ------
    DenseLimitExceeded
        When N exceeds ``DENSE_POSTERIOR_LIMIT``, before any N^3 work.
    SingularSystem
        When a factorization fails, or when the unobserved block is
        numerically singular (see :func:`mfgl.spectral.checked_cholesky`).
    """
    n = gl.graph.n
    if n > DENSE_POSTERIOR_LIMIT:
        raise DenseLimitExceeded(
            f"N={n} exceeds the dense posterior limit {DENSE_POSTERIOR_LIMIT}"
        )
    if not 0 <= m <= n:
        raise DimensionMismatch(f"need 0 <= M <= N, got M={m}, N={n}")
    q = _prior_matrix(gl, hp)
    l_inv = np.zeros((0, 0))
    if m < n:
        chol = checked_cholesky(q[m:, m:], "unobserved prior block")
        l_inv, info = dtrtri(chol, lower=1, overwrite_c=1)
        if info != 0:
            raise SingularSystem(f"triangular inverse failed: dtrtri info={info}")
    w = l_inv @ q[m:, :m]
    schur = q[:m, :m] - w.T @ w
    del q  # the N x N prior is not needed past this point
    try:
        theta, v = sla.eigh(schur)
    except sla.LinAlgError as exc:
        raise SingularSystem(f"Schur complement eigensolve failed: {exc}") from exc
    z = l_inv.T @ w
    return DenseFactor(
        tau=hp.tau,
        beta=hp.beta,
        l_inv=l_inv,
        r=np.einsum("ij,ij->j", l_inv, l_inv),
        z=z,
        theta=np.clip(theta, 0.0, None),
        v=v,
        y=z @ v,
    )


def dense_posterior(
    gl: Union[GraphLaplacian, DenseFactor],
    phi_hat: np.ndarray,
    hp: HyperParameters,
    want_cov: bool = False,
) -> PosteriorResult:
    """Exact Gaussian posterior: A Phi* = (1/sigma^2) P_M^T Phi_hat and
    ``stddevs`` = sqrt(diag(A^{-1})).

    ``gl`` is the graph Laplacian, factored here by :func:`dense_factor`,
    or a :class:`DenseFactor` already built for ``hp.tau``, ``hp.beta``
    and M = ``len(phi_hat)``, so a caller that calibrated omega on it
    factors once.  The N x N covariance is formed only for ``want_cov``.

    Raises
    ------
    DenseLimitExceeded
        When N exceeds ``DENSE_POSTERIOR_LIMIT``; use the truncated or
        low-rank solver instead.
    """
    phi_hat = np.asarray(phi_hat, dtype=np.float64)
    if phi_hat.ndim != 2:
        raise DimensionMismatch("phi_hat must be 2-D")
    if not np.all(np.isfinite(phi_hat)):
        raise NonFiniteInput("phi_hat contains NaN or Inf")
    m = phi_hat.shape[0]
    if isinstance(gl, DenseFactor):
        factor = gl
        if factor.m != m:
            raise DimensionMismatch(f"phi_hat has {m} rows, the factor observes {factor.m}")
        if (factor.tau, factor.beta) != (hp.tau, hp.beta):
            raise InvalidConfig("the factor was built for another tau or beta")
    else:
        factor = dense_factor(gl, hp, m)
    omega, sigma = hp.omega, hp.sigma
    v = factor.v
    g = factor._gain(omega, sigma)
    x_oo = (v * g) @ v.T / omega
    phi_o = x_oo @ phi_hat / sigma**2
    phi_star = factor.interpolant(phi_o)
    phi_star.setflags(write=False)
    cov = None
    if want_cov:
        y = factor.y
        x_uu = (factor.l_inv.T @ factor.l_inv + (y * g) @ y.T) / omega
        x_uo = -factor.z @ x_oo
        cov = np.block([[x_oo, x_uo.T], [x_uo, x_uu]])
        cov = 0.5 * (cov + cov.T)
    return PosteriorResult(
        phi_star=phi_star,
        stddevs=np.sqrt(factor.variances(omega, sigma)),
        solver_tag=SolverTag.DENSE,
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
    mean_stddev: Callable[[float], float], sigma: float, r: float = 3.0
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
    decades = 0.0
    while f_lo < 0 and decades < BRACKET_DECADES:
        lo /= 10.0
        decades += 1.0
        f_lo = mean_stddev(lo) - target
    decades = 0.0
    while f_hi > 0 and decades < BRACKET_DECADES:
        hi *= 10.0
        decades += 1.0
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


@dataclass(frozen=True)
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
    """``phi_observed`` as floats, once 1 <= M < N is checked."""
    phi_observed = np.asarray(phi_observed, dtype=np.float64)
    m, n = phi_observed.shape[0], gl.graph.n
    if not 1 <= m < n:
        raise DimensionMismatch(f"need 1 <= M < N, got M={m}, N={n}")
    return phi_observed


def constrained_minimizer(
    gl: GraphLaplacian, phi_observed: np.ndarray, hp: HyperParameters
) -> np.ndarray:
    """Minimize <Theta, Q Theta>_F, Q = S (L_sym + tau I)^beta S, subject to
    the first M rows equaling ``phi_observed``, by eliminating the
    constraint.

    The free rows solve Q_uu Theta_u = -Q_uo phi_observed, that is
    Theta_u = -Z phi_observed with Z = Q_uu^{-1} Q_uo taken from
    :func:`dense_factor` (:meth:`DenseFactor.interpolant`).
    """
    phi_observed = _observed_rows(gl, phi_observed)
    return dense_factor(gl, hp, phi_observed.shape[0]).interpolant(phi_observed)


def regularization_path(
    gl: GraphLaplacian,
    phi_observed: np.ndarray,
    noise_scales: Sequence[float],
    hp: HyperParameters,
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
    factor = dense_factor(gl, hp, m)
    rng = np.random.default_rng(seed)
    iterates = []
    for delta, omega in zip(deltas, omegas):
        noise = rng.standard_normal((m, d))
        norm = np.linalg.norm(noise)
        noise = noise * (delta / norm) if norm > 0 else noise
        step = replace(hp, sigma=1.0, omega=2.0 * omega)
        iterates.append(dense_posterior(factor, phi_observed + noise, step).phi_star)
    return RegularizationPath(
        deltas=deltas,
        omegas=omegas,
        iterates=tuple(iterates),
        limit=factor.interpolant(phi_observed),
    )
