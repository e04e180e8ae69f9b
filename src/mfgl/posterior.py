"""Dense reference posterior, hyperparameter rules, and the convergence
harness for the vanishing-noise limit.

Everything here is O(N^2)-O(N^3) and deliberately simple: this module is
the oracle the scalable solvers are validated against, so clarity beats
speed.  The MAP system for the (p, q)-normalized Laplacian is assembled
in its symmetric form

    A = (1/sigma^2) P_M^T P_M + omega * S (L_sym + tau I)^beta S,

with S = D^{(p-q)/2}, which equals the D^{p-q}-weighted normal equations
of the non-symmetric L and stays Cholesky-friendly for any (p, q).

The stddevs sqrt(diag(A^{-1})) are read from the triangular inverse of
the Cholesky factor L of A (the squared column norms of L^{-1}), so the
N x N covariance is formed only when it is asked for.  The omega
calibration handle builds the omega-independent prior S (L_sym + tau
I)^beta S once per handle, not once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dtrtri

from .config import SolverTag
from .data import HyperParameters
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
from .spectral import Spectrum

DENSE_POSTERIOR_LIMIT = 3_000
ZERO_EIGENVALUE_REL_TOL = 1e-8
CALIBRATION_RTOL = 1e-3
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
            if a is None:
                continue
            a = np.asarray(a, dtype=np.float64).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)
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
    the eigenvalues, clipped below at zero to remove round-off negatives.
    """
    sym = np.asarray(sym, dtype=np.float64)
    base = sym + tau * np.eye(sym.shape[0])
    if float(beta).is_integer():
        return np.linalg.matrix_power(base, int(beta))
    vals, vecs = sla.eigh(sym)
    powered = (np.clip(vals, 0.0, None) + tau) ** beta
    return (vecs * powered) @ vecs.T


def _prior_matrix(gl: GraphLaplacian, hp: HyperParameters) -> np.ndarray:
    """S (L_sym + tau I)^beta S with S = D^{(p-q)/2}: the prior precision
    per unit omega."""
    b = shifted_power(gl.sym_matrix.toarray(), hp.tau, hp.beta)
    if gl.p != gl.q:
        s = gl.graph.degrees ** (0.5 * (gl.p - gl.q))
        b = s[:, None] * b * s[None, :]
    return b


def _dense_prior(
    gl: GraphLaplacian, hp: HyperParameters, dense_limit: int
) -> np.ndarray:
    """``_prior_matrix`` after the size check, so an oversized dense run
    fails before any N^3 work."""
    n = gl.graph.n
    if n > dense_limit:
        raise DenseLimitExceeded(f"N={n} exceeds the dense posterior limit {dense_limit}")
    return _prior_matrix(gl, hp)


def _map_cholesky(
    prior: np.ndarray, omega: float, sigma: float, m: int
) -> np.ndarray:
    """Lower Cholesky factor (upper triangle zero) of the MAP matrix
    A = omega * prior + (1/sigma^2) P_M^T P_M for the first M rows observed."""
    a = omega * prior
    a[np.arange(m), np.arange(m)] += 1.0 / sigma**2
    try:
        return sla.cholesky(a, lower=True, overwrite_a=True)
    except sla.LinAlgError as exc:
        raise SingularSystem(f"MAP system factorization failed: {exc}") from exc


def _inverse_diagonal(chol: np.ndarray) -> np.ndarray:
    """diag(A^{-1}) from the lower Cholesky factor L of A.

    A^{-1} = L^{-T} L^{-1}, so its diagonal holds the squared column norms
    of the triangular inverse L^{-1} (LAPACK ``dtrtri``, in place); the
    full A^{-1} is never formed.
    """
    inv, info = dtrtri(chol, lower=1, overwrite_c=1)
    if info != 0:
        raise SingularSystem(f"triangular inverse failed: dtrtri info={info}")
    return np.einsum("ij,ij->j", inv, inv)


def dense_posterior(
    gl: GraphLaplacian,
    phi_hat: np.ndarray,
    hp: HyperParameters,
    want_cov: bool = False,
    dense_limit: int = DENSE_POSTERIOR_LIMIT,
) -> PosteriorResult:
    """Exact Gaussian posterior by one SPD factorization.

    Solves A Phi* = (1/sigma^2) P_M^T Phi_hat; ``stddevs`` are
    sqrt(diag(A^{-1})), from the triangular inverse of the factor unless
    ``want_cov`` asks for the full inverse, when they are its diagonal.

    Raises
    ------
    DenseLimitExceeded
        When N exceeds ``dense_limit``; use the truncated or low-rank
        solver instead.
    """
    phi_hat = np.asarray(phi_hat, dtype=np.float64)
    if phi_hat.ndim != 2:
        raise DimensionMismatch("phi_hat must be 2-D")
    if not np.all(np.isfinite(phi_hat)):
        raise NonFiniteInput("phi_hat contains NaN or Inf")
    n = gl.graph.n
    m = phi_hat.shape[0]
    if m > n:
        raise DimensionMismatch(f"phi_hat has {m} rows, more than N={n}")
    chol = _map_cholesky(_dense_prior(gl, hp, dense_limit), hp.omega, hp.sigma, m)
    rhs = np.zeros((n, phi_hat.shape[1]))
    rhs[:m] = phi_hat / hp.sigma**2
    phi_star = sla.cho_solve((chol, True), rhs)
    if want_cov:
        cov = sla.cho_solve((chol, True), np.eye(n))
        cov = 0.5 * (cov + cov.T)
        stddevs = np.sqrt(np.diag(cov))
    else:
        cov = None
        stddevs = np.sqrt(_inverse_diagonal(chol))
    return PosteriorResult(
        phi_star=phi_star,
        stddevs=stddevs,
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
    mean_stddev: Callable[[float], float],
    sigma: float,
    r: float = 3.0,
    bracket: tuple = (1e-4, 1e4),
    rtol: float = CALIBRATION_RTOL,
) -> float:
    """Pick omega so the mean unobserved stddev equals r * sigma.

    ``mean_stddev`` maps omega to (1/(N-M)) sum_{i >= M} sqrt(C_ii) under
    any solver's covariance-diagonal access.  The function is decreasing
    in omega (a stronger prior shrinks posterior spread), so the root is
    found by bisection in log omega; the initial bracket is expanded up to
    60 decades each way before giving up.

    Raises
    ------
    NoBracket
        When the target r * sigma is unattainable: even the widest
        bracket leaves both endpoints on the same side.
    """
    if not r > 1:
        raise InvalidConfig(f"r must exceed 1, got {r}")
    target = r * sigma
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (lo > 0 and hi > lo):
        raise InvalidConfig(f"bracket must satisfy 0 < lo < hi, got {bracket}")
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
    if abs(f_lo) <= rtol * target:
        return lo
    if abs(f_hi) <= rtol * target:
        return hi
    log_lo, log_hi = np.log(lo), np.log(hi)
    for _ in range(200):
        mid = np.exp(0.5 * (log_lo + log_hi))
        f_mid = mean_stddev(mid) - target
        if abs(f_mid) <= rtol * target:
            return float(mid)
        if f_mid > 0:
            log_lo = np.log(mid)
        else:
            log_hi = np.log(mid)
    raise NoBracket("bisection failed to meet the calibration tolerance")


def dense_mean_stddev(
    gl: GraphLaplacian, hp_template: HyperParameters, m: int
) -> Callable[[float], float]:
    """Calibration handle: omega -> mean stddev over rows M..N-1, dense.

    The omega-independent prior S (L_sym + tau I)^beta S is built once,
    here, after the size check; each call only scales it, adds the
    observation term, takes one Cholesky factor and reads the stddevs
    from its triangular inverse.  The handle holds that N x N prior, so
    release it before the final solve.

    Raises
    ------
    DenseLimitExceeded
        On creation, when N exceeds ``DENSE_POSTERIOR_LIMIT``.
    """
    if m >= gl.graph.n:
        raise InvalidConfig("calibration needs at least one unobserved row")
    prior = _dense_prior(gl, hp_template, DENSE_POSTERIOR_LIMIT)
    sigma = hp_template.sigma

    def handle(omega: float) -> float:
        chol = _map_cholesky(prior, omega, sigma, m)
        return float(np.sqrt(_inverse_diagonal(chol)[m:]).mean())

    return handle


@dataclass(frozen=True)
class RegularizationPath:
    """Trace of MAP solutions along a vanishing-noise schedule."""

    deltas: np.ndarray
    omegas: np.ndarray
    iterates: tuple
    limit: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=np.float64)
        w = np.asarray(self.omegas, dtype=np.float64)
        if np.any(np.diff(d) >= 0):
            raise InvalidConfig("noise scales must be strictly decreasing")
        if np.any(np.diff(w) > 0):
            raise InvalidConfig("omega schedule must be non-increasing")
        ratio = d**2 / w
        if ratio.size >= 2 and not ratio[-1] < ratio[0]:
            raise InvalidConfig("delta_n^2/omega_n must tend to zero")
        for name, val in (("deltas", d), ("omegas", w)):
            val = val.copy()
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        lim = np.asarray(self.limit, dtype=np.float64).copy()
        lim.setflags(write=False)
        object.__setattr__(self, "limit", lim)
        object.__setattr__(
            self, "iterates", tuple(np.asarray(it, dtype=np.float64) for it in self.iterates)
        )


def constrained_minimizer(
    gl: GraphLaplacian, phi_observed: np.ndarray, hp: HyperParameters
) -> np.ndarray:
    """Minimize <Theta, (L+tau I)^beta Theta>_F subject to the first M rows
    equaling ``phi_observed``, by eliminating the constraint.

    With B the (weighted) power matrix split into observed/unobserved
    blocks, the free rows solve B_uu Theta_u = -B_uo phi_observed.
    """
    phi_observed = np.asarray(phi_observed, dtype=np.float64)
    m = phi_observed.shape[0]
    n = gl.graph.n
    if not 1 <= m < n:
        raise DimensionMismatch(f"need 1 <= M < N, got M={m}, N={n}")
    b = _prior_matrix(gl, hp)
    try:
        chol = sla.cho_factor(b[m:, m:], lower=True)
    except sla.LinAlgError as exc:
        raise SingularSystem(f"reduced system factorization failed: {exc}") from exc
    theta_u = -sla.cho_solve(chol, b[m:, :m] @ phi_observed)
    return np.vstack([phi_observed, theta_u])


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
    matrix of Frobenius norm exactly delta_n and the MAP problem is solved
    with omega_n = omega_coeff * delta_n^omega_exponent.  The exponent
    must stay below 2 so that delta_n^2/omega_n vanishes, which is what
    drives the iterates to the constrained minimizer.

    The noise level enters the objective directly (sigma is fixed at 1
    inside this harness; rescaling sigma only reparameterizes omega).
    """
    if omega_exponent >= 2:
        raise InvalidConfig(
            f"omega exponent must be < 2 for convergence, got {omega_exponent}"
        )
    deltas = np.asarray(noise_scales, dtype=np.float64)
    if np.any(np.diff(deltas) >= 0):
        raise InvalidConfig("noise scales must be strictly decreasing")
    phi_observed = np.asarray(phi_observed, dtype=np.float64)
    m, d = phi_observed.shape
    n = gl.graph.n
    omegas = omega_coeff * deltas**omega_exponent
    b = _prior_matrix(gl, hp)
    rng = np.random.default_rng(seed)
    iterates = []
    for delta, omega in zip(deltas, omegas):
        noise = rng.standard_normal((m, d))
        norm = np.linalg.norm(noise)
        noise = noise * (delta / norm) if norm > 0 else noise
        observed = phi_observed + noise
        # objective (1/2)||P_M Theta - observed||^2 + omega <Theta, B Theta>
        a = 2.0 * omega * b
        a[np.arange(m), np.arange(m)] += 1.0
        rhs = np.zeros((n, d))
        rhs[:m] = observed
        try:
            chol = sla.cho_factor(a, lower=True)
        except sla.LinAlgError as exc:
            raise SingularSystem(f"path solve failed: {exc}") from exc
        iterates.append(sla.cho_solve(chol, rhs))
    limit = constrained_minimizer(gl, phi_observed, hp)
    return RegularizationPath(
        deltas=deltas, omegas=omegas, iterates=tuple(iterates), limit=limit
    )
