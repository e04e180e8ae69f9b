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
its CSC arrays, and the factor reads them without a copy: the shift is
written into L_sym's own diagonal slots while ``splu`` runs, and the
saved diagonal written back (:meth:`~mfgl.graph.GraphLaplacian.shifted`).
So the eigensolve holds L_sym, the LU and ARPACK's workspace, never a
second copy of L_sym's values.  Only when
K > N - 2, too close to N for ARPACK, does a dense eigensolve take over.
For p != q the symmetric eigenvectors are converted via D^{-(p-q)/2},
making them orthonormal in the reweighted inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .config import PipelineConfig, check_budget, check_fields, check_values, setting
from .data import HyperParameters, frozen, observations, require_finite
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
# The LU's nonzeros charged before it is made, per nonzero of L_sym
# (measured 1.02-1.69: see mfgl.config.MEMORY_BUDGET).
_LU_FILL = 2.0


@dataclass(frozen=True, eq=False)
class Spectrum:
    """K low-lying eigenpairs of a graph Laplacian.

    ``eigenvalues`` is ascending; ``eigenvectors[:, k]`` pairs with
    ``eigenvalues[k]`` and is unit-norm in the inner product induced by
    the (p, q) normalization.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    shift_a: float = setting(help="bound a of the spectrum of L", low=0, strict=True)

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            object.__setattr__(self, name, frozen(getattr(self, name)))
        check_fields(self)
        if self.eigenvalues.ndim != 1 or self.eigenvectors.shape[1:] != self.eigenvalues.shape:
            raise DimensionMismatch(f"need one eigenvector column per eigenvalue, got shapes "
                                    f"{self.eigenvalues.shape} and {self.eigenvectors.shape}")

    @property
    def K(self) -> int:
        return self.eigenvalues.size

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
    a symmetric minimum-degree ordering, made in L_sym's own arrays and
    leaving them as they were, also when the factorization raises; a
    dense eigensolve of the K lowest indices only when K > N - 2.

    Raises
    ------
    MemoryBudgetExceeded
        Before ``splu``, when L_sym, ARPACK's workspace and the LU at
        ``_LU_FILL`` x nnz(L_sym) nonzeros exceed the memory budget, and
        after it, when they do at the LU's own nonzeros; before the dense
        branch's copy of L_sym, when 4 x 8N^2 bytes do
        (:data:`~mfgl.config.MEMORY_BUDGET`).
    SingularSystem
        When L_sym holds NaN or Inf, or ``splu`` finds L_sym - sigma I
        exactly singular.
    ConvergenceFailure
        When ARPACK runs out of iterations, or some returned pair has
        residual above ``EIG_RESIDUAL_TOL``.
    """
    n = gl.n
    if not 1 <= K <= n:
        raise InvalidConfig(f"K must be in [1, {n}], got {K}")
    lsym = gl.sym_matrix
    require_finite(lsym.data, "L_sym", SingularSystem)  # one built by hand
    a = gl.shift_bound
    if K > n - 2:
        check_budget("the dense eigensolve", 4 * 8 * n * n)  # measured 3.06-3.24 x 8N^2
        vals, vecs_s = sla.eigh(lsym.toarray(), subset_by_index=[0, K - 1])
    else:
        # L_sym, ARPACK's two N x ncv arrays (eigsh's default ncv) and the
        # K eigenvectors, and the LU at 12 bytes a nonzero
        held = gl.nbytes + 8 * n * (2 * min(n, max(2 * K + 1, 20)) + K)
        check_budget("the eigensolve", held + 12 * _LU_FILL * lsym.nnz)
        sigma = _SHIFT_FRACTION * a
        with gl.shifted(sigma) as shifted:
            try:
                lu = splu(shifted, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:  # "Factor is exactly singular"
                raise SingularSystem(f"the shift-invert factor of L_sym: {exc}") from exc
        check_budget("the eigensolve", held + 12 * lu.nnz)
        v0 = np.full(n, 1.0 / np.sqrt(n))
        try:
            vals, vecs_s = eigsh(
                lsym, k=K, sigma=sigma, which="LM", v0=v0,
                OPinv=LinearOperator(lsym.shape, matvec=lu.solve, dtype=np.float64),
            )
        except ArpackNoConvergence as exc:
            raise ConvergenceFailure(f"the eigensolve of {K} pairs: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs_s = vals[order], vecs_s[:, order]
    resid = lsym @ vecs_s - vecs_s * vals[None, :]
    resid_norms = np.linalg.norm(resid, axis=0)
    worst = int(np.argmax(resid_norms))
    if resid_norms[worst] > EIG_RESIDUAL_TOL:
        raise ConvergenceFailure(f"eigenpair {worst} residual {resid_norms[worst]:.3e} exceeds tolerance")
    vecs_s = _fix_signs(vecs_s)
    if gl.p != gl.q:
        conv = gl.degrees ** (-0.5 * (gl.p - gl.q))
        vecs = conv[:, None] * vecs_s
    else:
        vecs = vecs_s
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, shift_a=a)


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


def _variances(psi: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """diag(Psi_K C Psi_K^T) in O(N K^2), Psi_K C formed in near-equal row
    blocks of at least two and 2^20 / K^2 rows: OpenBLAS rounds one row
    (gemv) and products of at most 100^3 terms unlike a larger gemm."""
    n, k = psi.shape
    blocks = max(1, n // max(2, -(-(1 << 20) // (k * k))))
    bounds = np.arange(blocks + 1) * n // blocks
    return np.concatenate([np.einsum("nk,nk->n", psi[lo:hi] @ cov, psi[lo:hi])
                           for lo, hi in zip(bounds[:-1], bounds[1:])])


@dataclass(frozen=True, eq=False)
class TruncatedPosterior:
    """Gaussian posterior over the K expansion coefficients."""

    coeff_mean: np.ndarray
    coeff_cov: np.ndarray
    spectrum: Spectrum

    def __post_init__(self):
        for name in ("coeff_mean", "coeff_cov"):
            object.__setattr__(self, name, frozen(getattr(self, name)))


def checked_cholesky(a: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor C of the SPD matrix ``a``, refused when ``a``
    is numerically singular.

    ``a`` is overwritten, so callers pass a scratch array: a
    Fortran-ordered ``a`` becomes C in place, and any other layout is
    first copied by scipy's LAPACK wrapper.  Before the factorization
    starts, every entry of ``a``, in both triangles, is checked finite
    (:func:`~mfgl.data.require_finite`, which makes no mask), and its
    diagonal is read.

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
        When ``a`` holds NaN or Inf, when the factorization fails, or when
        that ratio exceeds ``CONDITION_LIMIT``.
    """
    require_finite(a, what, SingularSystem)
    diag = a.diagonal().copy()
    try:
        chol = sla.cholesky(a, lower=True, overwrite_a=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise SingularSystem(f"{what} factorization failed: {exc}") from exc
    pivots = np.diag(chol) ** 2 / diag
    ratio = pivots.max() / pivots.min()
    if not ratio <= CONDITION_LIMIT:
        raise SingularSystem(
            f"{what} is numerically singular: its Cholesky factor has squared "
            f"diagonal ratio {ratio:.2e}, above {CONDITION_LIMIT:.0e}"
        )
    return chol


@dataclass(frozen=True, eq=False)
class TruncatedFactor:
    """What the truncated system shares across (omega, sigma) for the first
    M rows observed: ``btb`` = B^T B, B = P_M Psi_K, and ``prior`` =
    (Lambda + tau)^beta.  Each (omega, sigma) factors its own K x K
    C^{-1} = (1/sigma^2) B^T B + omega diag(``prior``).  Build it with
    :func:`truncated_factor`."""

    spectrum: Spectrum
    m: int
    btb: np.ndarray
    prior: np.ndarray

    def _covariance(self, omega: float, sigma: float) -> tuple:
        """The Cholesky factor of C^{-1}, and C symmetrized."""
        cinv = (1.0 / sigma**2) * self.btb
        cinv[np.diag_indices_from(cinv)] += omega * self.prior
        chol = (checked_cholesky(cinv, "coefficient system"), True)
        cov = sla.cho_solve(chol, np.eye(self.spectrum.K))
        return chol, 0.5 * (cov + cov.T)

    def variances(self, omega: float, sigma: float) -> np.ndarray:
        """The pointwise variances under (omega, sigma) (:func:`_variances`)."""
        return _variances(self.spectrum.eigenvectors, self._covariance(omega, sigma)[1])

    def mean_stddev(self, omega: float, sigma: float) -> float:
        """Mean stddev over the unobserved rows M..N-1.  An omega whose
        system is refused as singular reads as +inf: the test is on the
        equilibrated factor, well conditioned once omega is large, so a
        refusal marks a prior too weak to pin some direction."""
        if self.m >= self.spectrum.n:
            raise InvalidConfig("calibration needs at least one unobserved row")
        try:
            var = self.variances(omega, sigma)
        except SingularSystem:
            return np.inf
        return float(np.sqrt(var[self.m:]).mean())


def truncated_factor(spectrum: Spectrum, m: int, tau: float,
                     beta: float = PipelineConfig.beta) -> TruncatedFactor:
    """The factor of ``spectrum``'s prior under ``tau`` and ``beta`` for
    the first ``m`` rows observed; tau and beta are checked as their
    :class:`~mfgl.data.HyperParameters` fields."""
    check_values(HyperParameters, tau=tau, beta=beta)
    if m > spectrum.n:
        raise DimensionMismatch("more observations than graph nodes")
    b = spectrum.eigenvectors[:m]
    return TruncatedFactor(spectrum, m, b.T @ b, shifted_eigenvalues(spectrum.eigenvalues, tau, beta))


def truncated_posterior(
    factor: TruncatedFactor, phi_hat: np.ndarray, omega: float, sigma: float
) -> TruncatedPosterior:
    """Posterior over expansion coefficients in the truncated eigenbasis.

    With B = P_M Psi_K the first M rows of the eigenvector matrix,

        C^{-1} = (1/sigma^2) B^T B + omega diag((Lambda + tau)^beta)
        A*     = (1/sigma^2) C B^T Phi_hat

    solved through one SPD factorization shared by mean and covariance,
    on ``factor`` (:func:`truncated_factor`, which fixes tau, beta and M);
    omega and sigma are checked as their
    :class:`~mfgl.data.HyperParameters` fields.

    Raises
    ------
    DimensionMismatch, NonFiniteInput
        ``phi_hat`` is not 2-D with the factor's M rows, or holds NaN or
        Inf (:func:`~mfgl.data.observations`).
    SingularSystem
        If the SPD factorization fails (the matrix is positive definite
        for any omega, tau > 0) or the system is numerically singular
        (see :func:`checked_cholesky`).
    """
    check_values(HyperParameters, omega=omega, sigma=sigma)
    phi_hat = observations(phi_hat, factor.m)
    chol, cov = factor._covariance(omega, sigma)
    mean = (1.0 / sigma**2) * sla.cho_solve(chol, factor.spectrum.eigenvectors[:factor.m].T @ phi_hat)
    return TruncatedPosterior(coeff_mean=mean, coeff_cov=cov, spectrum=factor.spectrum)


def truncated_variances(tp: TruncatedPosterior) -> np.ndarray:
    """The posterior's pointwise variances (:func:`_variances`)."""
    return _variances(tp.spectrum.eigenvectors, tp.coeff_cov)
