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


def as_matrix(a, batched: bool = False) -> np.ndarray:
    """Validate and coerce input to a finite 2D complex128 array.

    With ``batched`` a stack of shape (..., m, n) is accepted too; its
    leading axes are batch axes.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 and not (batched and m.ndim > 2):
        raise ValueError(f"expected a 2D matrix, got ndim={m.ndim}")
    if 0 in m.shape[-2:]:
        raise ValueError(f"empty matrix of shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def _require_square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    return m


def _vector_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector along the last axis of complex ``x``.

    Each norm is summed as ``np.linalg.norm`` sums one complex vector (a
    dot product of the real parts plus one of the imaginary parts), so a
    stack gives the same bits as one call per vector.
    """
    re, im = x.real[..., None, :], x.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def hs_norm(a):
    """Frobenius norm; a stack (..., m, n) gives an array with one norm per matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim <= 2:
        return float(np.linalg.norm(a))
    return _vector_norms(a.reshape(*a.shape[:-2], -1))


def matexp(a) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with Pade approximants.

    Deliberately eigendecomposition-free so it stays correct for
    defective inputs (exceptional points).  ``a`` is one matrix or a
    stack (..., n, n), exponentiated matrix by matrix.  One matrix whose
    exponential is not finite raises OverflowError; in a stack such a
    slice is left as computed, for the caller to mask.  Neither warns.
    """
    a = _require_square(as_matrix(a, batched=True))
    with np.errstate(over="ignore", invalid="ignore"):
        e = scipy.linalg.expm(a)
    if a.ndim == 2 and not np.isfinite(e).all():
        raise OverflowError("matrix exponential overflowed double range")
    return e


@dataclass
class Spectrum:
    """Eigenvalue/right-eigenvector bundle with residual diagnostics.

    Eigenvector columns have unit norm and a fixed phase (largest entry
    real non-negative) so that downstream output is deterministic.  For
    a stack the batch axes come first: eigenvalues (..., n),
    eigenvectors (..., n, n), residuals (..., n).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray


def eig(a, tol_eig: float = DEFAULT_TOL_EIG) -> Spectrum:
    """Full right-eigendecomposition of a general complex matrix or stack (..., n, n)."""
    if tol_eig <= 0:
        raise ValueError("tol_eig must be positive")
    a = _require_square(as_matrix(a, batched=True))
    # the contract is checked on A / 2^p, 2^p about max|A_ij| where that
    # is >= 1: dividing by a power of two is exact, so every decision and
    # residual is as on A, but ||A||_F cannot overflow
    p = np.maximum(np.frexp(np.abs(a).max(axis=(-2, -1)))[1], 0)[..., None]
    f = np.ldexp(1.0, -p)[..., None]
    scale = np.asarray(hs_norm(a * f))[..., None]
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    # deterministic order: by real part, then imaginary part
    order = np.lexsort((w.imag, w.real), axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    nrm = _vector_norms(v.swapaxes(-1, -2))[..., None, :]
    if np.any(nrm == 0.0):
        raise NumericalError(f"eigenvector {np.argwhere(nrm == 0.0)[0, -1]} is numerically zero")
    v = v / nrm
    # fix each column's phase: its largest-magnitude entry real and >= 0;
    # that entry's modulus by hypot, as abs() of one complex number takes
    # it, so each column gets the bits of a one-vector computation
    piv = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    size = np.hypot(piv.real, piv.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(size == 0.0, v, v * (np.conj(piv) / size))
    r = a @ v - v * w[..., None, :]
    r *= f
    scaled = np.linalg.norm(r, axis=-2)
    bad = np.argwhere(scaled > tol_eig * np.maximum(scale, 1e-300))
    residuals = np.ldexp(scaled, p)
    if bad.size:
        raise NumericalError(
            "eigenpairs failed the residual contract: "
            + ", ".join(
                ("" if at.size == 1 else f"matrix {tuple(at[:-1].tolist())} ")
                + f"k={at[-1]} (residual={residuals[tuple(at)]:.3e})"
                for at in bad
            )
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
    a = as_matrix(a, batched=True)
    s = np.linalg.svd(a, compute_uv=False)
    counts = np.count_nonzero(s > tol_rank * s[..., :1], axis=-1)
    return int(counts) if a.ndim == 2 else counts
