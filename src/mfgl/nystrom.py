"""Low-rank solver path: Nyström factorization of the kernel, closed-form
powers of (L + tau I), and the MAP solve and covariance access, both
through one factored Woodbury core.

Nothing in this module may touch the full N x N weight matrix; kernel
access goes through W(:, X) columns only, so memory stays O(NK).  The
factorization chain is

    D_hat = W(:,X) Wxx^+ (W(:,X)^T 1)          approximate degrees
    Q R   = D_hat^{-1/2} W(:,X)                thin QR
    R Wxx^+ R^T = Gamma Sigma Gamma^T          K x K eigendecomposition
    U_tilde = Q Gamma                          orthonormal columns

after which U_tilde Sigma U_tilde^T approximates D^{-1/2} W D^{-1/2} and
every power of the shifted Laplacian collapses to a rank-K correction of
a scalar multiple of the identity.  The exponent pair is restricted to
p + q = 1 on this path (p = q = 1/2 being the symmetric member).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.linalg as sla

from .data import HyperParameters
from .exceptions import (
    DimensionMismatch,
    InvalidConfig,
    NegativeApproxDegree,
    SingularCapacitance,
    SingularLandmarkBlock,
)
from .spectral import Spectrum, _fix_signs

PINV_REL_CUTOFF = 1e-12
XI_DROP_REL_TOL = 1e-10

WeightAccess = Union[np.ndarray, Callable[[Sequence[int]], np.ndarray]]


def select_landmarks(n: int, m: int, count: int, seed: int) -> tuple:
    """All M high-fidelity indices plus a seeded uniform sample of the rest."""
    if not m <= count <= n:
        raise InvalidConfig(f"landmark count must be in [{m}, {n}], got {count}")
    rng = np.random.default_rng(seed)
    extra = np.sort(rng.choice(np.arange(m, n), size=count - m, replace=False))
    return tuple(range(m)) + tuple(int(i) for i in extra)


def _columns(access: WeightAccess, idx: np.ndarray) -> np.ndarray:
    if callable(access):
        return np.asarray(access(idx), dtype=np.float64)
    w = np.asarray(access, dtype=np.float64)
    return w[:, idx]


@dataclass(frozen=True)
class LowRankLaplacian:
    """Nyström factors of the normalized kernel.

    ``sigma_vals`` (descending) approximate the eigenvalues of
    D^{-1/2} W D^{-1/2} = I - L_sym; ``u_tilde`` has orthonormal columns.
    The general-exponent factors U = D_hat^{1/2-p} U_tilde (approximate
    eigenvectors of L) and V = D_hat^{p-1/2} U_tilde (their duals, with
    V^T U = I) are derived views.
    """

    landmarks: tuple
    u_tilde: np.ndarray
    sigma_vals: np.ndarray
    d_hat: np.ndarray
    p: float = 0.5

    def __post_init__(self):
        object.__setattr__(
            self, "landmarks", tuple(int(i) for i in self.landmarks)
        )
        for name in ("u_tilde", "sigma_vals", "d_hat"):
            a = np.asarray(getattr(self, name), dtype=np.float64).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.u_tilde.shape[0]

    @property
    def rank(self) -> int:
        return self.u_tilde.shape[1]

    @cached_property
    def u(self) -> np.ndarray:
        if self.p == 0.5:
            return self.u_tilde
        return (self.d_hat ** (0.5 - self.p))[:, None] * self.u_tilde

    @cached_property
    def v(self) -> np.ndarray:
        if self.p == 0.5:
            return self.u_tilde
        return (self.d_hat ** (self.p - 0.5))[:, None] * self.u_tilde


def nystrom_factor(
    weight_access: WeightAccess,
    landmarks: Sequence[int],
    rank_r: Optional[int] = None,
    p: float = 0.5,
) -> LowRankLaplacian:
    """Factor the kernel through its landmark columns.

    Parameters
    ----------
    weight_access : ndarray or callable
        Either the dense weight matrix, or a callable mapping an index
        array to the N x K column block W(:, idx).
    landmarks : sequence of int
        Distinct column indices X; must include at least one observed row.
    rank_r : int, optional
        Optional spectral truncation of W(X, X) to its ``rank_r``
        largest-magnitude eigenvalues before the pseudoinverse (useful
        when landmarks oversample; off by default).
    p : float
        Normalization exponent, with q = 1 - p implied.

    Raises
    ------
    NegativeApproxDegree
        When an approximate degree is non-positive; the landmark set is
        too poor for a meaningful normalization.
    SingularLandmarkBlock
        When W(X, X) is numerically zero.
    """
    idx = np.asarray(landmarks, dtype=np.intp)
    if idx.size == 0 or len(set(idx.tolist())) != idx.size:
        raise InvalidConfig("landmarks must be a non-empty set of distinct indices")
    if idx.min() < 0:
        raise InvalidConfig("landmark indices must be non-negative")
    if not callable(weight_access):
        n_cols = np.asarray(weight_access).shape[1]
        if idx.max() >= n_cols:
            raise InvalidConfig(f"landmark index out of range for N={n_cols}")
    wcols = _columns(weight_access, idx)
    n = wcols.shape[0]
    if idx.max() >= n:
        raise InvalidConfig(f"landmark index out of range for N={n}")
    wxx = wcols[idx]
    wxx = 0.5 * (wxx + wxx.T)
    vals, vecs = sla.eigh(wxx)
    vmax = float(np.abs(vals).max())
    if vmax == 0.0:
        raise SingularLandmarkBlock("landmark block W(X, X) is numerically zero")
    keep = np.abs(vals) > PINV_REL_CUTOFF * vmax
    if rank_r is not None:
        if not 1 <= rank_r <= idx.size:
            raise InvalidConfig(f"rank_r must be in [1, {idx.size}], got {rank_r}")
        order = np.argsort(np.abs(vals))[::-1]
        keep &= np.isin(np.arange(vals.size), order[:rank_r])
    if not np.any(keep):
        raise SingularLandmarkBlock("no landmark eigenvalue above the cutoff")
    vk = vecs[:, keep]
    pinv = (vk / vals[keep]) @ vk.T

    row_mass = wcols.T @ np.ones(n)
    d_hat = wcols @ (pinv @ row_mass)
    bad = np.flatnonzero(d_hat <= 0.0)
    if bad.size:
        raise NegativeApproxDegree(int(bad[0]))

    b = wcols / np.sqrt(d_hat)[:, None]
    q, r = sla.qr(b, mode="economic")
    core = r @ pinv @ r.T
    core = 0.5 * (core + core.T)
    sig, gamma = sla.eigh(core)
    order = np.argsort(sig)[::-1]  # descending: leading sigma ~ lowest Laplacian mode
    sig = sig[order]
    gamma = gamma[:, order]
    u_tilde = _fix_signs(q @ gamma)
    return LowRankLaplacian(
        landmarks=tuple(int(i) for i in idx),
        u_tilde=u_tilde,
        sigma_vals=sig,
        d_hat=d_hat,
        p=p,
    )


def lowrank_spectrum(lrl: LowRankLaplacian) -> Spectrum:
    """Approximate low-lying spectrum implied by the factors.

    Eigenvalue estimates are 1 - sigma_i (ascending); eigenvectors are the
    U view, matching the (p, 1-p) normalization convention.
    """
    return Spectrum(
        K=lrl.rank,
        eigenvalues=1.0 - lrl.sigma_vals,
        eigenvectors=lrl.u,
        shift_a=2.0,
        pq=(lrl.p, 1.0 - lrl.p),
    )


def lowrank_power_apply(
    lrl: LowRankLaplacian, tau: float, beta: float, v: np.ndarray
) -> np.ndarray:
    """Apply (L_hat + tau I)^beta in the symmetric coordinates, O(NK).

    The identity: with P the projector U_tilde U_tilde^T, the approximated
    shifted Laplacian is (1+tau)(I-P) + U_tilde((1+tau)I - Sigma)U_tilde^T,
    whose beta-th power collapses to

        (1+tau)^beta I
        + U_tilde [((1+tau)I - Sigma)^beta - (1+tau)^beta I] U_tilde^T.

    Sigma entries above 1 + tau are clipped so non-integer beta stays real
    (such columns are dropped by the saddle assembly anyway).
    """
    v = np.asarray(v, dtype=np.float64)
    base = np.clip(1.0 + tau - lrl.sigma_vals, 0.0, None) ** beta
    scalar = (1.0 + tau) ** beta
    coeff = base - scalar
    inner = lrl.u_tilde.T @ v
    if v.ndim == 1:
        return scalar * v + lrl.u_tilde @ (coeff * inner)
    return scalar * v + lrl.u_tilde @ (coeff[:, None] * inner)


@dataclass(frozen=True)
class SaddleOperators:
    """Diagonals of the low-rank MAP system (Theta - V Xi V^T) x = P_M^T b.

    Theta folds the observation mask and the scalar part of the prior;
    Xi carries the rank-K correction.  Columns whose Xi entry is within
    round-off of zero, or whose sigma exceeds 1 + tau, are dropped for
    conditioning and recorded in ``dropped_columns``.
    """

    theta: np.ndarray
    xi: np.ndarray
    retained: tuple
    dropped_columns: tuple
    m: int
    sigma_sq: float

    def __post_init__(self):
        for name in ("theta", "xi"):
            a = np.asarray(getattr(self, name), dtype=np.float64).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "retained", tuple(int(i) for i in self.retained))
        object.__setattr__(
            self, "dropped_columns", tuple(int(i) for i in self.dropped_columns)
        )
        if np.any(self.theta <= 0):
            raise InvalidConfig("Theta must be strictly positive")

    @property
    def rank(self) -> int:
        return len(self.retained)


def build_saddle(
    lrl: LowRankLaplacian, hp: HyperParameters, m: int
) -> SaddleOperators:
    """Assemble the diagonals Theta and Xi of the low-rank MAP system.

    Theta_ii = [i < M] + sigma^2 omega (1+tau)^beta D_hat_i^{2p-1}
    Xi_ii    = sigma^2 omega ((1+tau)^beta - (1+tau-sigma_i)^beta)

    (D_hat^{2p-1} is identically 1 for p = 1/2.)  Xi entries may be
    negative: the kernel is indefinite, so sigma_i < 0 occurs.  That is
    expected; the Woodbury core inverts Xi, which stays safe under the
    drop threshold.
    """
    if not 0 <= m <= lrl.n:
        raise DimensionMismatch(f"M must be in [0, {lrl.n}], got {m}")
    scalar = (1.0 + hp.tau) ** hp.beta
    weight = hp.sigma**2 * hp.omega
    theta = weight * scalar * lrl.d_hat ** (2.0 * lrl.p - 1.0)
    theta[:m] += 1.0
    sig = lrl.sigma_vals
    admissible = sig <= 1.0 + hp.tau
    xi_full = np.where(
        admissible,
        weight * (scalar - np.clip(1.0 + hp.tau - sig, 0.0, None) ** hp.beta),
        0.0,
    )
    xi_max = float(np.abs(xi_full).max()) if xi_full.size else 0.0
    keep = admissible & (np.abs(xi_full) > XI_DROP_REL_TOL * xi_max)
    retained = tuple(int(i) for i in np.flatnonzero(keep))
    dropped = tuple(int(i) for i in np.flatnonzero(~keep))
    return SaddleOperators(
        theta=theta,
        xi=xi_full[keep],
        retained=retained,
        dropped_columns=dropped,
        m=m,
        sigma_sq=hp.sigma**2,
    )


def _woodbury_factors(lrl: LowRankLaplacian, ops: SaddleOperators) -> tuple:
    """Theta^{-1}, the retained V, Theta^{-1} V, and the LU factors of the
    K x K Woodbury core Xi^{-1} - V^T Theta^{-1} V (None when no column
    is retained).  O(NK^2), done once per system.

    Raises
    ------
    SingularCapacitance
        The core is numerically singular.
    """
    theta_inv = 1.0 / ops.theta
    v = lrl.v[:, list(ops.retained)]
    tiv = theta_inv[:, None] * v
    if not ops.rank:
        return theta_inv, v, tiv, None
    core = v.T @ tiv
    core *= -1.0
    core[np.arange(ops.rank), np.arange(ops.rank)] += 1.0 / ops.xi
    try:
        lu = sla.lu_factor(core)
    except sla.LinAlgError as exc:
        raise SingularCapacitance(f"Woodbury core factorization failed: {exc}") from exc
    return theta_inv, v, tiv, lu


def solve_map_saddle(
    lrl: LowRankLaplacian, ops: SaddleOperators, phi_hat: np.ndarray
) -> np.ndarray:
    """MAP displacements from the low-rank system, N x D.

    Direct: the Woodbury identity turns (Theta - V Xi V^T)^{-1} into the
    diagonal Theta^{-1} plus a rank-K correction through the factored
    K x K core, so every column costs O(NK).

    Raises
    ------
    SingularCapacitance
        The Woodbury core is numerically singular.
    """
    phi_hat = np.asarray(phi_hat, dtype=np.float64)
    if phi_hat.ndim != 2:
        raise DimensionMismatch("phi_hat must be 2-D")
    if phi_hat.shape[0] != ops.m:
        raise DimensionMismatch(
            f"phi_hat has {phi_hat.shape[0]} rows, saddle was built for M={ops.m}"
        )
    rhs = np.zeros((lrl.n, phi_hat.shape[1]))
    rhs[: ops.m] = phi_hat
    theta_inv, v, tiv, lu = _woodbury_factors(lrl, ops)
    base = theta_inv[:, None] * rhs
    if lu is None:
        return base
    return base + tiv @ sla.lu_solve(lu, v.T @ base)


class CovarianceOperator:
    """O(NK) matvec access to C = sigma^2 (Theta - V Xi V^T)^{-1}.

    The K x K capacitance is factored once at construction (O(NK^2));
    each matvec and the exact diagonal then cost O(NK).
    """

    def __init__(self, lrl: LowRankLaplacian, ops: SaddleOperators):
        self._sigma_sq = ops.sigma_sq
        self._theta_inv, self._v, self._tiv, self._lu = _woodbury_factors(lrl, ops)

    @property
    def n(self) -> int:
        return self._theta_inv.shape[0]

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.float64)
        base = self._theta_inv * vec
        if self._lu is None:
            return self._sigma_sq * base
        corr = self._tiv @ sla.lu_solve(self._lu, self._v.T @ base)
        return self._sigma_sq * (base + corr)

    def diagonal(self) -> np.ndarray:
        """Exact diag(C) via the explicit Woodbury form, no sampling."""
        if self._lu is None:
            return self._sigma_sq * self._theta_inv
        core_inv = sla.lu_solve(self._lu, np.eye(self._v.shape[1]))
        core_inv = 0.5 * (core_inv + core_inv.T)
        rank_part = np.einsum("nk,nk->n", self._tiv @ core_inv, self._tiv)
        return self._sigma_sq * (self._theta_inv + rank_part)

