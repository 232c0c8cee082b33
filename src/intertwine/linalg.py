"""Dense complex linear-algebra kernels.

All routines operate on square (or rectangular, where noted) complex
matrices stored as numpy arrays of dtype complex128.  They are thin,
contract-enforcing wrappers around LAPACK-backed numpy/scipy routines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

DEFAULT_TOL_EIG = 1e-9
DEFAULT_TOL_RANK = 1e-9


class NumericalError(RuntimeError):
    """A linear-algebra routine failed to meet its accuracy contract."""


def as_matrix(a) -> np.ndarray:
    """Validate and coerce input to a finite 2D complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"empty matrix of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def _require_square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    return m


def matmul(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return a @ b


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def transpose(a) -> np.ndarray:
    return as_matrix(a).T


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dag b)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hs_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def matexp(a) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with Pade approximants.

    Deliberately eigendecomposition-free so it stays correct for
    defective inputs (exceptional points).
    """
    a = _require_square(as_matrix(a))
    e = scipy.linalg.expm(a)
    if not np.all(np.isfinite(e)):
        raise OverflowError("matrix exponential overflowed double range")
    return e


def fix_vector_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector so its largest-magnitude entry is real and >= 0."""
    i = int(np.argmax(np.abs(v)))
    piv = v[i]
    if abs(piv) == 0.0:
        return v
    return v * (np.conj(piv) / abs(piv))


@dataclass
class Spectrum:
    """Eigenvalue/right-eigenvector bundle with residual diagnostics.

    Eigenvector columns have unit norm and a fixed phase (largest entry
    real non-negative) so that downstream output is deterministic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray


def eig(a, tol_eig: float = DEFAULT_TOL_EIG) -> Spectrum:
    """Full right-eigendecomposition of a general complex matrix."""
    if tol_eig <= 0:
        raise ValueError("tol_eig must be positive")
    a = _require_square(as_matrix(a))
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    # deterministic order: by real part, then imaginary part
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]
    for k in range(v.shape[1]):
        col = v[:, k]
        nrm = np.linalg.norm(col)
        if nrm == 0.0:
            raise NumericalError(f"eigenvector {k} is numerically zero")
        v[:, k] = fix_vector_phase(col / nrm)
    residuals = np.linalg.norm(a @ v - v * w[None, :], axis=0)
    scale = np.linalg.norm(a)
    bad = np.nonzero(residuals > tol_eig * max(scale, 1e-300))[0]
    if bad.size:
        raise NumericalError(
            "eigenpairs failed the residual contract: "
            + ", ".join(f"k={k} (residual={residuals[k]:.3e})" for k in bad)
        )
    return Spectrum(eigenvalues=w, eigenvectors=v, residuals=residuals)


def null_space(a, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
    """Orthonormal basis of the numerical null space, as columns.

    Uses the SVD so the extraction stays well-conditioned even when the
    matrix is defective.  Returns an (n, k) array; k may be 0.
    """
    if tol_rank <= 0:
        raise ValueError("tol_rank must be positive")
    a = as_matrix(a)
    _, s, vh = scipy.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    ncols = a.shape[1]
    nkeep = int(np.sum(s > tol_rank * smax)) if smax > 0 else 0
    return vh[nkeep:].conj().T.copy() if nkeep < ncols else np.zeros((ncols, 0), dtype=complex)


def rank(a, tol_rank: float = DEFAULT_TOL_RANK):
    """Number of singular values above tol_rank * sigma_max.

    ``a`` is one matrix or a stack of shape (..., m, n); a stack gives an
    integer array with one count per matrix.
    """
    if tol_rank <= 0:
        raise ValueError("tol_rank must be positive")
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or 0 in a.shape[-2:]:
        raise ValueError(f"expected matrices with non-empty last two axes, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    s = np.linalg.svd(a, compute_uv=False)
    counts = np.count_nonzero(s > tol_rank * s[..., :1], axis=-1)
    return int(counts) if a.ndim == 2 else counts
