"""Static-Hamiltonian analysis via the superoperator eigenvalue method.

The central object is the N^2 x N^2 matrix
    L = -i [H^T kron 1 - 1 kron H^dag],
whose action on vec(eta) equals vec(-i(eta H - H^dag eta)).  Zero modes
of L are conserved (intertwining) operators; the remaining eigenvectors
are operators whose expectation values evolve as a single exponential.

One split (``split_eigen_operators``) makes every route's operator
stacks (k, N, N) into ``EigenOperator``s: a Hermitian basis of the
target eigenspace, then the other eigen-operators.  Three routes feed it:
* rank-1 (static): with H = V diag(e) V^-1 and l_a the left eigenvectors
  of H (the rows of V^-1, conjugated), the N^2 eigenvectors of L are
  l_b l_a^dag with rates -i(e_a - conj(e_b)), from one N x N eig;
* Kronecker (static, at and near exceptional points, where V is nearly
  singular and those products do not span the operator space; also the
  test oracle): the eigenvectors and the SVD null space of L, target 0;
* Floquet (``floquet.py``): the same for gf^T kron gf^dag, target 1.
The PT-phase test (``classify_phase``) serves the static and Floquet paths.
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
    pow2_exponent,
    scaled_hs_norm,
)

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
    """The N^2 eigen-operators of L for one H, and the eigendecomposition of H behind them.

    ``computed_eigenvalues`` are N^2 eigenvalues of L found apart from the
    reported rates: on the ``"rank-1"`` path the Rayleigh quotient
    <eta, L eta>/<eta, eta> of each operator (conserved first), on the
    ``"kronecker"`` path the eigenvalues of the Kronecker matrix.
    ``pt_phase`` is classified from ``hamiltonian_spectrum``.
    """

    computed_eigenvalues: np.ndarray
    conserved: list[EigenOperator]
    transient: list[EigenOperator]
    hamiltonian_spectrum: Spectrum
    pt_phase: PTPhase
    path: str


def canonicalize_operators(ops) -> np.ndarray:
    """Normalize each operator of a stack (k, N, N) and fix its free global phase.

    An operator that is Hermitian up to a phase (always the case for
    conjugate-symmetric eigenspaces) becomes exactly Hermitian, its sign
    fixed by the largest-magnitude real coefficient of the Hermitian
    parametrization; any other has its largest-magnitude entry (first in
    column-major order) made real and positive.  Each operator comes out
    with the bits that canonicalizing it on its own gives.
    """
    ops = as_matrix(ops, batched=True)
    # np.linalg.norm sums one matrix in memory order: sum column-stacked
    # operators (eigenvectors of a superoperator) by columns, as it does
    nrm = hs_norm(ops.swapaxes(-1, -2) if ops.strides[-2] < ops.strides[-1] else ops)
    if np.any(nrm == 0.0):
        raise ValueError("cannot canonicalize the zero operator")
    ops = ops / nrm[:, None, None]  # a fresh array, canonicalized in place below
    # <op, op^dag> in the HS inner product, one BLAS dot per operator: an
    # eigenvalue of the adjoint map, of modulus 1 exactly when op is Hermitian up to a phase
    c = np.array([np.vdot(op, op.conj().T) for op in ops])
    herm = np.abs(np.hypot(c.real, c.imag) - 1.0) <= TARGET_EIGENVALUE_REL_TOL
    if np.any(herm):
        h = ops[herm] * np.exp(0.5j * np.angle(c[herm]))[:, None, None]
        h = 0.5 * (h + h.conj().swapaxes(-1, -2))
        h /= hs_norm(h)[:, None, None]
        # Hermitian matrices form a real vector space; fix the overall sign
        r = np.concatenate([h.real.reshape(len(h), -1), h.imag.reshape(len(h), -1)], axis=1)
        piv = r[np.arange(len(r)), np.argmax(np.abs(r), axis=1)]
        ops[herm] = np.where((piv < 0)[:, None, None], -h, h)
    if not np.all(herm):
        g = ops[~herm]
        v = g.swapaxes(-1, -2).reshape(len(g), -1)  # column-major entries
        piv = v[np.arange(len(v)), np.argmax(np.abs(v), axis=1)]
        ops[~herm] = g * (np.conj(piv) / np.hypot(piv.real, piv.imag))[:, None, None]
    return ops


def build_liouvillian(h) -> np.ndarray:
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got {h.shape}")
    n = h.shape[0]
    ident = np.eye(n, dtype=complex)
    return -1j * (np.kron(h.T, ident) - np.kron(ident, h.conj().T))


def liouvillian_norm(h) -> float:
    """Frobenius norm of L in closed form, sqrt(2N ||H||_F^2 - 2 Re((tr H)^2)), without forming L."""
    h = as_matrix(h)
    # on h / 2^p, scaled back: exact, and finite wherever ||L||_F is
    p = int(pow2_exponent(h))
    h = h * np.ldexp(1.0, -p)
    norm = np.sqrt(max(2 * h.shape[0] * hs_norm(h) ** 2 - 2 * (np.trace(h) ** 2).real, 0.0))
    return float(np.ldexp(norm, p))


def apply_liouvillian(h, eta) -> np.ndarray:
    """Direct action -i(eta H - H^dag eta), without the Kronecker matrix; ``eta`` may be a stack."""
    h = as_matrix(h)
    eta = as_matrix(eta, batched=True)
    return -1j * (eta @ h - h.conj().T @ eta)


def pair_rates(eps) -> np.ndarray:
    """All N^2 rates -i(e_a - conj(e_b)) from the eigenvalues ``eps`` of H; rate (a, b) at index a*N + b."""
    eps = np.asarray(eps, dtype=complex)
    return (-1j * (eps[:, None] - np.conj(eps)[None, :])).reshape(-1)


def predicted_rates(h, tol_eig: float = DEFAULT_TOL_EIG) -> np.ndarray:
    """All N^2 rates -i(eps_p - eps_q*), sorted by (real, imag)."""
    rates = pair_rates(eig(h, tol_eig).eigenvalues)
    return rates[np.lexsort((rates.imag, rates.real))]


def verify_intertwining(eta, h) -> float:
    """Frobenius norm of eta H - H^dag eta; zero iff eta intertwines H."""
    eta = as_matrix(eta)
    h = as_matrix(h)
    if eta.shape != h.shape:
        raise ValueError(f"shape mismatch: {eta.shape} vs {h.shape}")
    return hs_norm(eta @ h - h.conj().T @ eta)


def hermitize_basis(ops, tol: float = DEFAULT_TOL_RANK) -> list[np.ndarray]:
    """Replace a basis (a stack (k, N, N)) of a dagger-closed operator subspace by a Hermitian one.

    From each basis matrix M the candidates (M + M^dag)/2 and
    -i(M - M^dag)/2 are generated and orthonormalized (modified
    Gram-Schmidt in the HS inner product); near-zero leftovers are
    discarded.  Raises if the Hermitian operators fail to span the
    original subspace, which can only happen when the subspace is not
    closed under the adjoint.
    """
    ops = np.asarray(ops, dtype=complex)
    k = len(ops)
    if k == 0:
        return []
    basis: list[np.ndarray] = []
    for m in ops:
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
    rows, brows = ops.reshape(k, -1), np.array(basis).reshape(k, -1)
    proj = rows @ brows.conj().T @ brows
    if np.linalg.norm(proj - rows) > 1e-8 * max(1.0, np.linalg.norm(rows)):
        raise ValueError("Hermitized basis does not span the original subspace")
    return basis


def _build_operators(ops: np.ndarray, lams: np.ndarray, action):
    """EigenOperators of the stack ``ops`` (canonicalized here) with eigenvalues ``lams``.

    The residual of each is ||action(op) - lambda op||, and the operators
    that come out Hermitian are flagged.  Also returns each operator's
    Rayleigh quotient <op, action(op)>/<op, op>.
    """
    if len(ops) == 0:
        return [], np.zeros(0, dtype=complex)
    ops = canonicalize_operators(ops)
    # exactly the operators that canonicalization made Hermitian: those come
    # out exactly Hermitian, and a unit operator this close to its adjoint
    # has |<op, op^dag>| within ~1e-20 of 1
    hermitian = hs_norm(ops - ops.conj().swapaxes(-1, -2)) <= HERMITIAN_FLAG_TOL
    acted = action(ops)
    quotients = np.einsum("kij,kij->k", ops.conj(), acted) / np.einsum("kij,kij->k", ops.conj(), ops)
    acted -= lams[:, None, None] * ops
    residuals = hs_norm(acted)
    # a Hermitian operator is row-major, whatever the layout of the stack;
    # products with it (as in evolve_trace) depend on that in the last bit
    found = [
        EigenOperator(
            op=np.ascontiguousarray(op) if herm else op,
            rate=complex(lam),
            hermitian=herm,
            residual=float(res),
        )
        for op, lam, herm, res in zip(ops, lams.tolist(), hermitian.tolist(), residuals.tolist())
    ]
    return found, quotients


def _unvec_rows(rows: np.ndarray) -> np.ndarray:
    """The stack (k, N, N) of the operators column-stacked in the rows of ``rows`` (k, N^2)."""
    n = int(round(np.sqrt(rows.shape[-1])))
    return rows.reshape(-1, n, n).swapaxes(-1, -2)


def split_eigen_operators(span, operators, lams: np.ndarray, action, mu: complex, scale: float, tol_rank: float):
    """Eigen-operators of a superoperator S with eigenvalues ``lams``: (conserved, others, quotients).

    ``operators(idx)`` builds the stack (k, N, N) of the eigen-operators
    with eigenvalues lams[idx].  Those with |lambda - mu| <=
    TARGET_EIGENVALUE_REL_TOL * scale belong to mu, and ``span(idx)``,
    given their indices, builds a stack spanning the eigenspace of mu; the
    conserved operators are a Hermitian orthonormal basis of it, with
    eigenvalue mu.  The others are the remaining eigenpairs, sorted by
    (|lambda - mu|, arg lambda, |lambda|).  ``action(ops)`` applies S to a
    stack of operators.  The Rayleigh quotients <op, S op>/<op, op> of all
    operators come conserved first.
    """
    far = np.abs(lams - mu) > TARGET_EIGENVALUE_REL_TOL * max(scale, 1e-300)
    basis = np.array(hermitize_basis(span(np.flatnonzero(~far)), tol_rank))
    conserved, q_conserved = _build_operators(basis, np.full(len(basis), complex(mu)), action)
    vals = lams.tolist()
    keep = sorted(np.flatnonzero(far).tolist(), key=lambda i: (abs(vals[i] - mu), np.angle(vals[i]), abs(vals[i])))
    keep = np.array(keep, dtype=int)  # ties kept in order
    others, q_others = _build_operators(operators(keep), lams[keep], action)
    return conserved, others, np.concatenate([q_conserved, q_others])


def superoperator_eigen_operators(
    smat, spectrum: Spectrum, action, mu: complex, scale: float, tol_rank: float
) -> tuple[list[EigenOperator], list[EigenOperator]]:
    """Eigen-operators of S (eigendecomposed in ``spectrum``), split into (conserved, others).

    S acts on column-stacked operators.  The eigenspace of mu is spanned by
    the SVD null space of S - mu 1 (singular values up to tol_rank *
    scale), which stays robust at and near exceptional points, where S is
    defective and its eigenvectors do not span that space.
    """
    null = _unvec_rows(null_space(smat - mu * np.eye(smat.shape[0]), tol_rank, scale).T)
    conserved, others, _ = split_eigen_operators(
        lambda near: null, lambda idx: _unvec_rows(spectrum.eigenvectors.T[idx]),
        spectrum.eigenvalues, action, mu, scale, tol_rank,
    )
    return conserved, others


def kronecker_eigen_operators(
    h,
    tol_eig: float = DEFAULT_TOL_EIG,
    tol_rank: float = DEFAULT_TOL_RANK,
) -> LiouvillianResult:
    """All N^2 eigen-pairs of L from the eigendecomposition of the N^2 x N^2 Kronecker matrix.

    The O(N^6) reference route: the oracle that ``eigen_operators`` is
    tested against, and its fallback at and near exceptional points.
    """
    h = as_matrix(h)
    spectrum = eig(h, tol_eig)
    lmat = build_liouvillian(h)
    lspec = eig(lmat, tol_eig)
    conserved, transient = superoperator_eigen_operators(
        lmat, lspec, partial(apply_liouvillian, h), 0.0, hs_norm(lmat), tol_rank
    )
    phase = _hamiltonian_phase(h, spectrum.eigenvalues, spectrum.eigenvectors, tol_eig)
    return LiouvillianResult(lspec.eigenvalues, conserved, transient, spectrum, phase, "kronecker")


def eigen_operators(
    h,
    tol_eig: float = DEFAULT_TOL_EIG,
    tol_rank: float = DEFAULT_TOL_RANK,
) -> LiouvillianResult:
    """All N^2 eigen-pairs of L, split into conserved and transient, from one eig(H).

    With H = V diag(e) V^-1 the operators are the rank-1 products
    l_b l_a^dag of the left eigenvectors (l_a^dag the rows of V^-1), with
    rates -i(e_a - conj(e_b)).  Those with |e_a - conj(e_b)| <=
    TARGET_EIGENVALUE_REL_TOL * ||L||_F span the conserved operators,
    which are Hermitized together; the others are the transient ones,
    sorted by (|rate|, arg rate).  At and near an exceptional
    point, where cond(V)^2 > 1/tol_rank, the result comes from
    ``kronecker_eigen_operators`` instead; ``path`` records which.
    """
    h = as_matrix(h)
    spectrum = eig(h, tol_eig)
    v = spectrum.eigenvectors
    if np.linalg.cond(v) > 1.0 / np.sqrt(tol_rank):  # cond(V)^2 > 1/tol_rank
        return kronecker_eigen_operators(h, tol_eig, tol_rank)
    w = np.linalg.inv(v)  # row a: w_a H = e_a w_a
    w = w / np.linalg.norm(w, axis=1, keepdims=True)
    a, b = np.divmod(np.arange(h.shape[0] ** 2), h.shape[0])  # pair (a, b) at index a*N + b

    def products(pairs):
        """The unit operators l_b l_a^dag, entry (i, j) = conj(w[b, i]) w[a, j]."""
        return w.conj()[b[pairs], :, None] * w[a[pairs], None, :]

    conserved, transient, quotients = split_eigen_operators(
        products, products, pair_rates(spectrum.eigenvalues), partial(apply_liouvillian, h),
        0.0, liouvillian_norm(h), tol_rank,
    )
    phase = _hamiltonian_phase(h, spectrum.eigenvalues, v, tol_eig)
    return LiouvillianResult(quotients, conserved, transient, spectrum, phase, "rank-1")


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
    return _hamiltonian_phase(h, w, v, tol)


def _hamiltonian_phase(h, w, v, tol: float):
    """PT phase of H (or a stack) from its eigenvalues ``w`` and eigenvectors ``v``."""
    return classify_phase(w, v, np.max(np.abs(w.imag), axis=-1), scaled_hs_norm(h), tol)


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
