"""Low-rank solver path: Nyström factorization of the kernel, closed-form
powers of (L + tau I), and the low-rank MAP system, assembled and
factored once by :func:`build_saddle`, whose MAP solve and covariance
access all go through that one factored Woodbury core.

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

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg as sla

from .data import HyperParameters, frozen, observations
from .exceptions import (
    DimensionMismatch,
    InvalidConfig,
    NegativeApproxDegree,
    SingularCapacitance,
    SingularLandmarkBlock,
)
from .spectral import _fix_signs

PINV_REL_CUTOFF = 1e-12
XI_DROP_REL_TOL = 1e-10


def select_landmarks(n: int, m: int, count: int, seed: int) -> tuple:
    """All M high-fidelity indices plus a seeded uniform sample of the rest."""
    if not m <= count <= n:
        raise InvalidConfig(f"landmark count must be in [{m}, {n}], got {count}")
    rng = np.random.default_rng(seed)
    extra = np.sort(rng.choice(np.arange(m, n), size=count - m, replace=False))
    return tuple(range(m)) + tuple(int(i) for i in extra)


@dataclass(frozen=True, eq=False)
class LowRankLaplacian:
    """Nyström factors of the normalized kernel.

    ``sigma_vals`` (descending) approximate the eigenvalues of
    D^{-1/2} W D^{-1/2} = I - L_sym; ``u_tilde`` has orthonormal columns.
    ``v`` is the derived view V = D_hat^{p-1/2} U_tilde: the dual, with
    V^T U = I, of the general-exponent factor U = D_hat^{1/2-p} U_tilde
    (approximate eigenvectors of L).
    """

    u_tilde: np.ndarray
    sigma_vals: np.ndarray
    d_hat: np.ndarray
    p: float = 0.5

    def __post_init__(self):
        for name in ("u_tilde", "sigma_vals", "d_hat"):
            object.__setattr__(self, name, frozen(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.u_tilde.shape[0]

    @property
    def rank(self) -> int:
        return self.u_tilde.shape[1]

    @cached_property
    def v(self) -> np.ndarray:
        if self.p == 0.5:
            return self.u_tilde
        return (self.d_hat ** (self.p - 0.5))[:, None] * self.u_tilde


def nystrom_factor(
    columns: Callable[[np.ndarray], np.ndarray],
    landmarks: Sequence[int],
    rank_r: Optional[int] = None,
    p: float = 0.5,
) -> LowRankLaplacian:
    """Factor the kernel through its landmark columns.

    Parameters
    ----------
    columns : callable
        Maps an index array to the N x K column block W(:, idx), e.g.
        ``lambda idx: weight_columns(lf, scales, idx)``.
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
    DimensionMismatch
        When ``columns`` does not return an N x K block.
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
    wcols = np.asarray(columns(idx), dtype=np.float64)
    if wcols.ndim != 2 or wcols.shape[1] != idx.size:
        raise DimensionMismatch(
            f"weight columns must be an N x {idx.size} block, got shape {wcols.shape}"
        )
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
        u_tilde=u_tilde,
        sigma_vals=sig,
        d_hat=d_hat,
        p=p,
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




@dataclass(frozen=True, eq=False)
class SaddleOperators:
    """The low-rank MAP system (Theta - V Xi V^T) x = P_M^T b, factored.

    Theta folds the observation mask and the scalar part of the prior;
    Xi carries the rank-K correction on the retained columns of V, held
    as the rows of ``vt`` (K x N).  Columns whose Xi entry is within
    round-off of zero, or whose sigma exceeds 1 + tau, are dropped for
    conditioning and recorded in ``dropped_columns``.  ``lu`` holds the
    LU factors of the K x K Woodbury core Xi^{-1} - V^T Theta^{-1} V
    (None when no column is retained), so the MAP solve, each covariance
    matvec and the exact covariance diagonal cost O(NK) on the one
    O(NK^2) factorization that :func:`build_saddle` made.
    """

    theta: np.ndarray
    xi: np.ndarray
    vt: np.ndarray
    lu: Optional[tuple]
    retained: tuple
    dropped_columns: tuple
    m: int
    sigma_sq: float

    def __post_init__(self):
        for name in ("theta", "xi", "vt"):
            object.__setattr__(self, name, frozen(getattr(self, name)))
        object.__setattr__(self, "retained", tuple(int(i) for i in self.retained))
        object.__setattr__(
            self, "dropped_columns", tuple(int(i) for i in self.dropped_columns)
        )

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def rank(self) -> int:
        return len(self.retained)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """(Theta - V Xi V^T)^{-1} x by the Woodbury identity: the diagonal
        Theta^{-1} plus a rank-K correction through the factored core."""
        theta_inv = 1.0 / self.theta
        base = (theta_inv[:, None] if x.ndim == 2 else theta_inv) * x
        if self.lu is None:
            return base
        tiv = theta_inv[:, None] * self.vt.T
        return base + tiv @ sla.lu_solve(self.lu, self.vt @ base)

    def solve(self, phi_hat: np.ndarray) -> np.ndarray:
        """MAP displacements, N x D, from the observed displacements of
        the first M rows; each column costs O(NK).

        Raises
        ------
        DimensionMismatch
            ``phi_hat`` is not 2-D with M rows.
        NonFiniteInput
            ``phi_hat`` holds NaN or Inf.
        """
        phi_hat = observations(phi_hat, self.m)
        rhs = np.zeros((self.n, phi_hat.shape[1]))
        rhs[: self.m] = phi_hat
        return self._apply(rhs)

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """C vec for the posterior covariance C = sigma^2 (Theta - V Xi V^T)^{-1}."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n,):
            raise DimensionMismatch(f"vec must have shape ({self.n},), got {vec.shape}")
        return self.sigma_sq * self._apply(vec)

    def diagonal(self) -> np.ndarray:
        """Exact diag(C) via the explicit Woodbury form, no sampling."""
        theta_inv = 1.0 / self.theta
        if self.lu is None:
            return self.sigma_sq * theta_inv
        tiv = theta_inv[:, None] * self.vt.T
        core_inv = sla.lu_solve(self.lu, np.eye(self.rank))
        core_inv = 0.5 * (core_inv + core_inv.T)
        rank_part = np.einsum("nk,nk->n", tiv @ core_inv, tiv)
        return self.sigma_sq * (theta_inv + rank_part)


def build_saddle(
    lrl: LowRankLaplacian, hp: HyperParameters, m: int
) -> SaddleOperators:
    """Assemble the low-rank MAP system and factor its Woodbury core once.

    Theta_ii = [i < M] + sigma^2 omega (1+tau)^beta D_hat_i^{2p-1}
    Xi_ii    = sigma^2 omega ((1+tau)^beta - (1+tau-sigma_i)^beta)

    (D_hat^{2p-1} is identically 1 for p = 1/2.)  Xi entries may be
    negative: the kernel is indefinite, so sigma_i < 0 occurs.  That is
    expected; the Woodbury core inverts Xi, which stays safe under the
    drop threshold.  The core costs O(NK^2).

    Raises
    ------
    SingularCapacitance
        The Woodbury core is singular: its LU factor has a zero or
        non-finite pivot.
    """
    if not 0 <= m <= lrl.n:
        raise DimensionMismatch(f"M must be in [0, {lrl.n}], got {m}")
    scalar = (1.0 + hp.tau) ** hp.beta
    weight = hp.sigma**2 * hp.omega
    theta = weight * scalar * lrl.d_hat ** (2.0 * lrl.p - 1.0)
    theta[:m] += 1.0
    if not np.all(theta > 0):
        raise InvalidConfig("Theta must be strictly positive")
    sig = lrl.sigma_vals
    admissible = sig <= 1.0 + hp.tau
    xi_full = np.where(
        admissible,
        weight * (scalar - np.clip(1.0 + hp.tau - sig, 0.0, None) ** hp.beta),
        0.0,
    )
    xi_max = float(np.abs(xi_full).max()) if xi_full.size else 0.0
    keep = admissible & (np.abs(xi_full) > XI_DROP_REL_TOL * xi_max)
    xi = xi_full[keep]
    vt = lrl.v.T[keep]
    vt.setflags(write=False)
    lu = None
    if xi.size:
        core = vt @ ((1.0 / theta)[:, None] * vt.T)
        core *= -1.0
        core[np.arange(xi.size), np.arange(xi.size)] += 1.0 / xi
        # LAPACK returns a zero pivot with only a warning; the check below
        # refuses it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu = sla.lu_factor(core, check_finite=False)
        if not (np.all(np.isfinite(lu[0])) and np.all(np.diag(lu[0]) != 0.0)):
            raise SingularCapacitance(
                "the Woodbury core is singular: its LU factor has a zero or non-finite pivot"
            )
        for a in lu:
            a.setflags(write=False)
    return SaddleOperators(
        theta=theta,
        xi=xi,
        vt=vt,
        lu=lu,
        retained=np.flatnonzero(keep),
        dropped_columns=np.flatnonzero(~keep),
        m=m,
        sigma_sq=hp.sigma**2,
    )
