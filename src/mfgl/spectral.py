"""Low-lying Laplacian spectrum and the truncated-eigenbasis posterior.

Up to ``DENSE_EIG_THRESHOLD`` points (or when K is close to N) the K
lowest pairs come straight from a dense eigensolve of L_sym restricted
to those K indices.  Above it, Lanczos iteration runs on the shifted
matrix a*I - L_sym with a = 2 max_i D_ii^{1-p-q}: the spectrum of L lies
in [0, a], so the low-lying pairs of L are the LEADING pairs of the
shifted matrix, the regime Lanczos resolves quickly.  For p != q the
symmetric eigenvectors are converted via D^{-(p-q)/2}, making them
orthonormal in the reweighted inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import eigsh

from .data import HyperParameters
from .exceptions import (
    ConvergenceFailure,
    DimensionMismatch,
    InsufficientSpectrum,
    InvalidConfig,
    SingularSystem,
)
from .graph import GraphLaplacian

DENSE_EIG_THRESHOLD = 2_000
EIG_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class Spectrum:
    """K low-lying eigenpairs of a graph Laplacian.

    ``eigenvalues`` is ascending; ``eigenvectors[:, k]`` pairs with
    ``eigenvalues[k]`` and is unit-norm in the inner product induced by
    the (p, q) normalization.
    """

    K: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    shift_a: float
    pq: tuple

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            a = np.asarray(getattr(self, name), dtype=np.float64).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if self.eigenvalues.shape != (self.K,):
            raise DimensionMismatch("eigenvalue count must equal K")
        if self.eigenvectors.shape[1] != self.K:
            raise DimensionMismatch("eigenvector count must equal K")

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    anchor = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[anchor, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def low_spectrum(
    gl: GraphLaplacian,
    K: int,
    dense_threshold: int = DENSE_EIG_THRESHOLD,
) -> Spectrum:
    """K smallest eigenpairs of L.

    A dense symmetric eigensolve of L_sym, for the K lowest indices only,
    is used for N <= ``dense_threshold`` (or whenever K is too close to N
    for a Krylov solver); above that, Lanczos iteration on a*I - L_sym with
    a deterministic start vector.

    Raises
    ------
    ConvergenceFailure
        When some returned pair has residual above ``EIG_RESIDUAL_TOL``.
    """
    n = gl.graph.n
    if not 1 <= K <= n:
        raise InvalidConfig(f"K must be in [1, {n}], got {K}")
    lsym = gl.sym_matrix
    a = gl.shift_bound
    if n <= dense_threshold or K > n - 2:
        vals, vecs_s = sla.eigh(lsym, subset_by_index=[0, K - 1])
    else:
        shifted = a * np.eye(n) - lsym
        v0 = np.full(n, 1.0 / np.sqrt(n))
        vals_s, vecs_s = eigsh(shifted, k=K, which="LA", v0=v0)
        order = np.argsort(vals_s)[::-1]
        vals = a - vals_s[order]  # ascending eigenvalues of L_sym
        vecs_s = vecs_s[:, order]
    resid = lsym @ vecs_s - vecs_s * vals[None, :]
    resid_norms = np.linalg.norm(resid, axis=0)
    worst = int(np.argmax(resid_norms))
    if resid_norms[worst] > EIG_RESIDUAL_TOL:
        raise ConvergenceFailure(worst, float(resid_norms[worst]))
    vecs_s = _fix_signs(vecs_s)
    if gl.p != gl.q:
        conv = gl.graph.degrees ** (-0.5 * (gl.p - gl.q))
        vecs = conv[:, None] * vecs_s
    else:
        vecs = vecs_s
    return Spectrum(
        K=K, eigenvalues=vals, eigenvectors=vecs, shift_a=a, pq=(gl.p, gl.q)
    )


def embed(spectrum: Spectrum, m: int) -> np.ndarray:
    """Spectral-embedding coordinates: row i is the i-th entries of the
    first m eigenvectors."""
    if m > spectrum.K:
        raise InsufficientSpectrum(
            f"embedding needs {m} eigenvectors, spectrum holds {spectrum.K}"
        )
    return spectrum.eigenvectors[:, :m].copy()


def shifted_eigenvalues(
    eigenvalues: np.ndarray, tau: float, beta: float
) -> np.ndarray:
    """(lambda + tau)^beta with round-off negatives clipped at zero first."""
    lam = np.clip(np.asarray(eigenvalues, dtype=np.float64), 0.0, None)
    return (lam + tau) ** beta


@dataclass(frozen=True)
class TruncatedPosterior:
    """Gaussian posterior over the K expansion coefficients."""

    coeff_mean: np.ndarray
    coeff_cov: np.ndarray
    spectrum: Spectrum

    def __post_init__(self):
        for name in ("coeff_mean", "coeff_cov"):
            a = np.asarray(getattr(self, name), dtype=np.float64).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def map_displacements(self) -> np.ndarray:
        """Reconstruct the N x D MAP displacement field Psi_K A*_K."""
        return self.spectrum.eigenvectors @ self.coeff_mean


def truncated_posterior(
    spectrum: Spectrum,
    phi_hat: np.ndarray,
    hp: HyperParameters,
) -> TruncatedPosterior:
    """Posterior over expansion coefficients in the truncated eigenbasis.

    With B = P_M Psi_K the first M rows of the eigenvector matrix,

        C^{-1} = (1/sigma^2) B^T B + omega diag((Lambda + tau)^beta)
        A*     = (1/sigma^2) C B^T Phi_hat

    solved through one SPD factorization shared by mean and covariance.

    Raises
    ------
    SingularSystem
        If the SPD factorization fails (signals NaN input; the matrix is
        positive definite for any omega, tau > 0).
    """
    phi_hat = np.asarray(phi_hat, dtype=np.float64)
    if phi_hat.ndim != 2:
        raise DimensionMismatch("phi_hat must be 2-D")
    m = phi_hat.shape[0]
    if m > spectrum.n:
        raise DimensionMismatch("more observations than graph nodes")
    b = spectrum.eigenvectors[:m]
    inv_s2 = 1.0 / hp.sigma**2
    cinv = inv_s2 * (b.T @ b)
    cinv[np.diag_indices_from(cinv)] += hp.omega * shifted_eigenvalues(
        spectrum.eigenvalues, hp.tau, hp.beta
    )
    try:
        chol = sla.cho_factor(cinv, lower=True)
    except sla.LinAlgError as exc:
        raise SingularSystem(f"coefficient system factorization failed: {exc}") from exc
    cov = sla.cho_solve(chol, np.eye(spectrum.K))
    cov = 0.5 * (cov + cov.T)
    mean = inv_s2 * sla.cho_solve(chol, b.T @ phi_hat)
    return TruncatedPosterior(coeff_mean=mean, coeff_cov=cov, spectrum=spectrum)


def truncated_variances(tp: TruncatedPosterior) -> np.ndarray:
    """diag(Psi_K C Psi_K^T) in O(N K^2), never forming the N x N matrix."""
    psi = tp.spectrum.eigenvectors
    return np.einsum("nk,nk->n", psi @ tp.coeff_cov, psi)
