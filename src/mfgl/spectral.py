"""Low-lying Laplacian spectrum and the truncated-eigenbasis posterior.

The K lowest pairs of the sparse L_sym come from one route: Lanczos in
shift-invert mode about the small negative shift sigma = -1e-3 a, with
a = 2 max_i D_ii^{1-p-q} bounding the spectrum of L.  L_sym - sigma I is
symmetric positive definite, so it is factored once by sparse LU under a
symmetric minimum-degree ordering of A^T + A (Davis, *Direct Methods for
Sparse Linear Systems*, SIAM 2006, ch. 7), and the eigenvalues nearest
zero, crowded together on a clustered graph, become the largest and best
separated ones of the inverted operator (the spectral transformation
Lanczos method).  L_sym is exactly symmetric, so its CSR arrays are also
its CSC arrays and the factor reads them without a copy.  Only when
K > N - 2, too close to N for ARPACK, does a dense eigensolve take over.
For p != q the symmetric eigenvectors are converted via D^{-(p-q)/2},
making them orthonormal in the reweighted inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .data import HyperParameters, frozen
from .exceptions import (
    ConvergenceFailure,
    DimensionMismatch,
    InsufficientSpectrum,
    InvalidConfig,
    SingularSystem,
)
from .graph import GraphLaplacian

EIG_RESIDUAL_TOL = 1e-6
# Largest squared diagonal ratio of a Cholesky factor that a solve accepts
# (see checked_cholesky).
CONDITION_LIMIT = 1e12
# The shift-invert pole, as a fraction of the spectral bound a.
_SHIFT_FRACTION = -1e-3


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
            object.__setattr__(self, name, frozen(getattr(self, name)))
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


def low_spectrum(gl: GraphLaplacian, K: int) -> Spectrum:
    """K smallest eigenpairs of L.

    Shift-invert Lanczos on the sparse L_sym about sigma = -1e-3 a, with
    a deterministic start vector and one LU factor of L_sym - sigma I in
    a symmetric minimum-degree ordering; a dense eigensolve of the K
    lowest indices only when K > N - 2.

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
    if K > n - 2:
        vals, vecs_s = sla.eigh(lsym.toarray(), subset_by_index=[0, K - 1])
    else:
        sigma = _SHIFT_FRACTION * a
        # read as CSC, the CSR arrays of the symmetric L_sym are L_sym itself
        shifted = sp.csc_array((lsym.data.copy(), lsym.indices, lsym.indptr), shape=lsym.shape)
        shifted.setdiag(lsym.diagonal() - sigma)
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A")
        del shifted
        v0 = np.full(n, 1.0 / np.sqrt(n))
        vals, vecs_s = eigsh(
            lsym, k=K, sigma=sigma, which="LM", v0=v0,
            OPinv=LinearOperator(lsym.shape, matvec=lu.solve, dtype=np.float64),
        )
        order = np.argsort(vals)
        vals, vecs_s = vals[order], vecs_s[:, order]
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
            object.__setattr__(self, name, frozen(getattr(self, name)))

    def map_displacements(self) -> np.ndarray:
        """Reconstruct the N x D MAP displacement field Psi_K A*_K."""
        return self.spectrum.eigenvectors @ self.coeff_mean


def checked_cholesky(a: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor C of the SPD matrix ``a``, refused when ``a``
    is numerically singular.

    The test is the squared diagonal ratio of the factor of the
    equilibrated matrix S a S, S = diag(a)^{-1/2}, whose diagonal is
    C_ii / sqrt(a_ii): a lower bound on cond(S a S), which bounds the
    relative error of a Cholesky solve whatever the scaling of the rows
    (van der Sluis 1969; Demmel, SIAM J. Matrix Anal. Appl., 1989).  An
    unscaled ratio would also refuse well-posed systems whose diagonal
    merely spans many decades, such as a weak prior on a fine graph.

    Raises
    ------
    SingularSystem
        When the factorization fails, or when that ratio exceeds
        ``CONDITION_LIMIT``.
    """
    try:
        chol = sla.cholesky(a, lower=True)
    except sla.LinAlgError as exc:
        raise SingularSystem(f"{what} factorization failed: {exc}") from exc
    pivots = np.diag(chol) ** 2 / np.diag(a)
    ratio = pivots.max() / pivots.min()
    if not ratio <= CONDITION_LIMIT:
        raise SingularSystem(
            f"{what} is numerically singular: its Cholesky factor has squared "
            f"diagonal ratio {ratio:.2e}, above {CONDITION_LIMIT:.0e}"
        )
    return chol


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
        positive definite for any omega, tau > 0) or the system is
        numerically singular (see :func:`checked_cholesky`).
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
    chol = (checked_cholesky(cinv, "coefficient system"), True)
    cov = sla.cho_solve(chol, np.eye(spectrum.K))
    cov = 0.5 * (cov + cov.T)
    mean = inv_s2 * sla.cho_solve(chol, b.T @ phi_hat)
    return TruncatedPosterior(coeff_mean=mean, coeff_cov=cov, spectrum=spectrum)


def truncated_variances(tp: TruncatedPosterior) -> np.ndarray:
    """diag(Psi_K C Psi_K^T) in O(N K^2), never forming the N x N matrix."""
    psi = tp.spectrum.eigenvectors
    return np.einsum("nk,nk->n", psi @ tp.coeff_cov, psi)
