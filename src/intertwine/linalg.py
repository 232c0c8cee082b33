"""Dense complex linear-algebra kernels.

All routines operate on square (or rectangular, where noted) complex
matrices stored as numpy arrays of dtype complex128.  They are thin,
contract-enforcing wrappers around LAPACK-backed numpy/scipy routines.
scipy.linalg is imported inside ``matexp`` and ``null_space``, the only
two callers, so importing the package loads no scipy.

The package's tolerance policy is two constants, read at call time:
``TOL_EIG`` cuts the residuals of ``eig`` (||A v - lambda v|| <=
TOL_EIG ||A||_F per pair) and is the PT-phase margin; ``TOL_RANK`` is
the rank and null-space cut (singular values up to TOL_RANK times the
scale are zero), the Hermitization floor and the Kronecker switch
cond(V)^2 > 1/TOL_RANK of ``liouville.eigen_operators``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_EIG = 1e-9
TOL_RANK = 1e-9


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


def pow2_exponent(a) -> np.ndarray:
    """Per matrix of ``a`` (..., m, n), the binary exponent p >= 0 of max|a_ij|.

    Dividing by 2^p is exact, and a / 2^p has entries below 1, so its
    Frobenius norm cannot overflow.
    """
    return np.maximum(np.frexp(np.abs(a).max(axis=(-2, -1)))[1], 0)


def scaled_hs_norm(a):
    """``hs_norm`` taken on a / 2^p and scaled back by 2^p (p from ``pow2_exponent``).

    The same bits as ``hs_norm`` where that is finite, and finite
    wherever ||a||_F fits a double.
    """
    a = np.asarray(a, dtype=complex)
    p = pow2_exponent(a)
    nrm = np.ldexp(hs_norm(a * np.ldexp(1.0, -p)[..., None, None]), p)
    return float(nrm) if a.ndim <= 2 else nrm


def matexp(a) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with Pade approximants.

    Deliberately eigendecomposition-free so it stays correct for
    defective inputs (exceptional points).  ``a`` is one matrix or a
    stack (..., n, n), exponentiated matrix by matrix.  One matrix whose
    exponential is not finite raises OverflowError; in a stack such a
    slice is left as computed, for the caller to mask.  Neither warns.
    """
    import scipy.linalg

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


def eig(a) -> Spectrum:
    """Full right-eigendecomposition of a general complex matrix or stack (..., n, n).

    Raises NumericalError when a pair misses the TOL_EIG residual contract.
    """
    a = _require_square(as_matrix(a, batched=True))
    # the contract is checked on A / 2^p, 2^p about max|A_ij| where that
    # is >= 1: dividing by a power of two is exact, so every decision and
    # residual is as on A, but ||A||_F cannot overflow
    p = pow2_exponent(a)[..., None]
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
    bad = np.argwhere(scaled > TOL_EIG * np.maximum(scale, 1e-300))
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


def null_space(a, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the numerical null space, as columns.

    Uses the SVD so the extraction stays well-conditioned even when the
    matrix is defective.  Singular values up to TOL_RANK * scale count
    as zero; ``scale`` defaults to sigma_max.  Returns an (n, k) array;
    k may be 0.
    """
    import scipy.linalg

    a = as_matrix(a)
    _, s, vh = scipy.linalg.svd(a)
    nkeep = int(np.sum(s > TOL_RANK * (s[0] if scale is None else scale)))
    return vh[nkeep:].conj().T.copy()


def rank(a):
    """Number of singular values above TOL_RANK * sigma_max.

    ``a`` is one matrix or a stack of shape (..., m, n); a stack gives an
    integer array with one count per matrix.
    """
    a = as_matrix(a, batched=True)
    s = np.linalg.svd(a, compute_uv=False)
    counts = np.count_nonzero(s > TOL_RANK * s[..., :1], axis=-1)
    return int(counts) if a.ndim == 2 else counts
