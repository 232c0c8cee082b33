"""Static-Hamiltonian analysis via the superoperator eigenvalue method.

The central object is the N^2 x N^2 matrix
    L = -i [H^T kron 1 - 1 kron H^dag],
whose action on vec(eta) equals vec(-i(eta H - H^dag eta)).  Zero modes
of L are conserved (intertwining) operators; the remaining eigenvectors
are operators whose expectation values evolve as a single exponential.
The eigen-operator core (``null_space_operators``, ``split_eigen_operators``)
and the PT-phase test (``classify_phase``) here serve both this static path
(L, target eigenvalue 0) and the Floquet path (gf^T kron gf^dag, target 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import (
    DEFAULT_TOL_EIG,
    DEFAULT_TOL_RANK,
    Spectrum,
    as_matrix,
    eig,
    hs_norm,
    null_space,
)
from .vectorize import unvec, vec

# a superoperator eigenvalue lambda with |lambda - mu| <= this times the
# path's scale belongs to the conserved (target mu) eigenspace
TARGET_EIGENVALUE_REL_TOL = 1e-8
HERMITIAN_FLAG_TOL = 1e-10


class PTPhase(enum.Enum):
    SYMMETRIC = "symmetric"
    BROKEN = "broken"
    EXCEPTIONAL_POINT = "exceptional-point"


_PHASES = np.array(list(PTPhase), dtype=object)  # indexed by classify_phase's code


@dataclass
class EigenOperator:
    """An operator together with its superoperator eigenvalue.

    ``rate`` is the exponential rate for static Hamiltonians and the
    stroboscopic multiplier for Floquet propagators.  ``op`` has unit
    Frobenius norm and a deterministic phase; operators that are
    Hermitian up to a global phase are returned as genuinely Hermitian.
    """

    op: np.ndarray
    rate: complex
    hermitian: bool
    residual: float


@dataclass
class LiouvillianResult:
    liouvillian: np.ndarray
    liouvillian_spectrum: Spectrum
    conserved: list[EigenOperator]
    transient: list[EigenOperator]
    hamiltonian_spectrum: Spectrum


def _fix_sign_hermitian(op: np.ndarray) -> np.ndarray:
    # Hermitian matrices form a real vector space; fix the overall sign
    # by the largest-magnitude real coefficient of that parametrization.
    r = np.concatenate([op.real.reshape(-1), op.imag.reshape(-1)])
    i = int(np.argmax(np.abs(r)))
    return -op if r[i] < 0 else op


def canonicalize_operator(op: np.ndarray) -> np.ndarray:
    """Normalize to unit Frobenius norm and fix the free global phase.

    If the operator is Hermitian up to a phase (always the case for
    conjugate-symmetric eigenspaces), the returned representative is
    exactly Hermitian with a fixed sign; otherwise the largest-magnitude
    entry is made real and positive.
    """
    op = as_matrix(op)
    nrm = hs_norm(op)
    if nrm == 0.0:
        raise ValueError("cannot canonicalize the zero operator")
    op = op / nrm
    c = np.vdot(op, op.conj().T)  # <op, op^dag> in the HS inner product
    if abs(abs(c) - 1.0) <= 1e-8:
        op = op * np.exp(0.5j * np.angle(c))
        op = 0.5 * (op + op.conj().T)
        op = op / hs_norm(op)
        return _fix_sign_hermitian(op)
    v = op.reshape(-1, order="F")
    i = int(np.argmax(np.abs(v)))
    return op * (np.conj(v[i]) / abs(v[i]))


def build_liouvillian(h) -> np.ndarray:
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got {h.shape}")
    n = h.shape[0]
    ident = np.eye(n, dtype=complex)
    return -1j * (np.kron(h.T, ident) - np.kron(ident, h.conj().T))


def apply_liouvillian(h, eta) -> np.ndarray:
    """Direct action -i(eta H - H^dag eta), without the Kronecker matrix."""
    h = as_matrix(h)
    eta = as_matrix(eta)
    return -1j * (eta @ h - h.conj().T @ eta)


def predicted_rates(h, tol_eig: float = DEFAULT_TOL_EIG) -> np.ndarray:
    """All N^2 rates -i(eps_p - eps_q*), sorted by (real, imag)."""
    eps = eig(h, tol_eig).eigenvalues
    rates = (-1j * (eps[:, None] - np.conj(eps)[None, :])).reshape(-1)
    order = np.lexsort((rates.imag, rates.real))
    return rates[order]


def verify_intertwining(eta, h) -> float:
    """Frobenius norm of eta H - H^dag eta; zero iff eta intertwines H."""
    eta = as_matrix(eta)
    h = as_matrix(h)
    if eta.shape != h.shape:
        raise ValueError(f"shape mismatch: {eta.shape} vs {h.shape}")
    return hs_norm(eta @ h - h.conj().T @ eta)


def hermitize_basis(vectors: np.ndarray, tol: float = DEFAULT_TOL_RANK) -> list[np.ndarray]:
    """Replace a basis of a dagger-closed operator subspace by a Hermitian one.

    From each basis matrix M the candidates (M + M^dag)/2 and
    -i(M - M^dag)/2 are generated and orthonormalized (modified
    Gram-Schmidt in the HS inner product); near-zero leftovers are
    discarded.  Raises if the Hermitian vectors fail to span the
    original subspace, which can only happen when the subspace is not
    closed under the adjoint.
    """
    vectors = np.asarray(vectors, dtype=complex)
    k = vectors.shape[1]
    if k == 0:
        return []
    basis: list[np.ndarray] = []
    for j in range(k):
        m = unvec(vectors[:, j])
        for cand in (0.5 * (m + m.conj().T), -0.5j * (m - m.conj().T)):
            w = cand.copy()
            for b in basis:
                w = w - np.vdot(b, w) * b
            nrm = hs_norm(w)
            if nrm > max(tol, 1e-12):
                basis.append(w / nrm)
        if len(basis) >= k:
            basis = basis[:k]
    if len(basis) != k:
        raise ValueError(
            f"Hermitization found {len(basis)} independent operators for a "
            f"{k}-dimensional subspace; subspace is not dagger-closed"
        )
    # confirm the Hermitian basis still spans the original space
    bmat = np.column_stack([vec(b) for b in basis])
    proj = bmat @ (bmat.conj().T @ vectors)
    if np.linalg.norm(proj - vectors) > 1e-8 * max(1.0, np.linalg.norm(vectors)):
        raise ValueError("Hermitized basis does not span the original subspace")
    return basis


def _eigen_operator(op: np.ndarray, lam: complex, action, hermitian: bool) -> EigenOperator:
    residual = hs_norm(action(op) - lam * op)
    return EigenOperator(op=op, rate=complex(lam), hermitian=hermitian, residual=residual)


def null_space_operators(smat, action, mu: complex, tol_rank: float) -> list[EigenOperator]:
    """Hermitian orthonormal basis of the eigenvalue-mu eigenspace of S.

    Extraction goes through the SVD null space of S - mu 1 rather than
    the eigendecomposition, which stays robust at and near exceptional
    points where S is defective.  ``action(op)`` applies S to an operator.
    """
    basis = null_space(smat - mu * np.eye(smat.shape[0]), tol_rank)
    return [
        _eigen_operator(canonicalize_operator(b), mu, action, True)
        for b in hermitize_basis(basis, tol_rank)
    ]


def split_eigen_operators(
    smat, spectrum: Spectrum, action, mu: complex, scale: float, tol_rank: float
) -> tuple[list[EigenOperator], list[EigenOperator]]:
    """Eigen-operators of S (eigendecomposed in ``spectrum``), split into (conserved, others).

    The conserved ones come from ``null_space_operators``; the others are
    the eigenpairs with |lambda - mu| > TARGET_EIGENVALUE_REL_TOL * scale,
    sorted by (|lambda - mu|, arg lambda, |lambda|).
    """
    tol = TARGET_EIGENVALUE_REL_TOL * max(scale, 1e-300)
    others = []
    for lam, v in zip(spectrum.eigenvalues, spectrum.eigenvectors.T):
        if abs(lam - mu) > tol:
            op = canonicalize_operator(unvec(v))
            herm = hs_norm(op - op.conj().T) <= HERMITIAN_FLAG_TOL
            others.append(_eigen_operator(op, lam, action, herm))
    others.sort(key=lambda e: (abs(e.rate - mu), np.angle(e.rate), abs(e.rate)))
    return null_space_operators(smat, action, mu, tol_rank), others


def conserved_operators(
    h, tol_rank: float = DEFAULT_TOL_RANK
) -> list[EigenOperator]:
    """Hermitian orthonormal basis of the zero-rate eigenspace of L."""
    h = as_matrix(h)
    return null_space_operators(build_liouvillian(h), partial(apply_liouvillian, h), 0.0, tol_rank)


def eigen_operators(
    h,
    tol_eig: float = DEFAULT_TOL_EIG,
    tol_rank: float = DEFAULT_TOL_RANK,
) -> LiouvillianResult:
    """All N^2 eigen-pairs of L, split into conserved and transient."""
    h = as_matrix(h)
    lmat = build_liouvillian(h)
    spectrum = eig(lmat, tol_eig)
    conserved, transient = split_eigen_operators(
        lmat, spectrum, partial(apply_liouvillian, h), 0.0, hs_norm(lmat), tol_rank
    )
    return LiouvillianResult(
        liouvillian=lmat,
        liouvillian_spectrum=spectrum,
        conserved=conserved,
        transient=transient,
        hamiltonian_spectrum=eig(h, tol_eig),
    )


def recursive_tower(eta1, h, count: int, scale: float | None = None) -> list[np.ndarray]:
    """Tower eta_{k+1} = eta_k H / s seeded by a known intertwiner.

    ``scale`` defaults to the spectral norm of H; every member is checked
    against the intertwining relation before being returned.
    """
    eta1 = as_matrix(eta1)
    h = as_matrix(h)
    if count < 1:
        raise ValueError("count must be >= 1")
    tol = 1e-8 * max(hs_norm(eta1) * hs_norm(h), 1e-300)
    if verify_intertwining(eta1, h) > tol:
        raise ValueError("eta1 is not an intertwiner of H")
    s = float(scale) if scale is not None else float(np.linalg.norm(h, 2))
    if s <= 0:
        raise ValueError("scale must be positive")
    tower = []
    eta = eta1
    for _ in range(count):
        eta = eta @ h / s
        if verify_intertwining(eta, h) > 1e-8 * max(hs_norm(eta) * hs_norm(h), 1e-300):
            raise ValueError("recursive construction left the intertwiner space")
        tower.append(eta)
    return tower


def classify_phase(w, v, spread, scale, tol: float = DEFAULT_TOL_EIG):
    """PT phase from eigenvalues ``w`` (eigenvectors ``v`` as columns).

    An exceptional point requires both an eigenvalue collision and an
    ill-conditioned eigenvector matrix (the floating-point stand-in for
    algebraic multiplicity exceeding geometric multiplicity).  Otherwise it
    is symmetric when ``spread`` (zero in the symmetric phase) <= tol * scale.
    Stacked inputs (w (..., n), v (..., n, n), spread and scale (...))
    give an object array of phases with the batch shape.
    """
    scale = np.maximum(scale, 1e-300)
    gaps = np.abs(w[..., :, None] - w[..., None, :])
    n = w.shape[-1]
    gaps[..., range(n), range(n)] = np.inf
    exceptional = np.asarray(np.min(gaps, axis=(-2, -1)) <= tol * scale)
    if np.any(exceptional):
        exceptional[exceptional] = np.linalg.cond(v[exceptional]) > 1.0 / tol
    code = np.where(exceptional, 2, np.where(spread <= tol * scale, 0, 1))
    return _PHASES[code]


def classify_pt_phase(h, tol: float = DEFAULT_TOL_EIG):
    """Classify the spectrum as PT-symmetric (all eigenvalues real), PT-broken, or at an EP.

    ``h`` is one Hamiltonian or a stack (..., N, N), classified matrix by matrix.
    """
    h = as_matrix(h, batched=True)
    if h.shape[-2] != h.shape[-1]:
        raise ValueError("Hamiltonian must be square")
    w, v = np.linalg.eig(h)
    return classify_phase(w, v, np.max(np.abs(w.imag), axis=-1), hs_norm(h), tol)


def verify_pt_symmetry(h, p) -> float:
    """Residual of P conj(H) P^-1 - H for an involutory parity P."""
    h = as_matrix(h)
    p = as_matrix(p)
    n = p.shape[0]
    if p.shape[0] != p.shape[1]:
        raise ValueError("parity operator must be square")
    if hs_norm(p @ p - np.eye(n)) > 1e-10 * max(hs_norm(p) ** 2, 1.0):
        raise ValueError("parity operator is not involutory (P^2 != 1)")
    return hs_norm(p @ h.conj() @ p - h)
