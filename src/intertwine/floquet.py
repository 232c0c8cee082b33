"""Time-periodic (Floquet) analysis.

A drive is described by a ``Schedule``: piecewise-constant Hamiltonian
segments interleaved with instantaneous non-unitary kicks over one
period.  The one-period propagator gf fixes the stroboscopic dynamics
psi(mT) = gf^m psi(0); conserved operators are unit-eigenvalue
eigenvectors of the superoperator gf^T kron gf^dag, found by the
eigen-operator core and phase test of ``liouville.py`` with target 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL_EIG,
    DEFAULT_TOL_RANK,
    NumericalError,
    Spectrum,
    as_matrix,
    eig,
    hs_norm,
    matexp,
)
from .liouville import (
    EigenOperator,
    PTPhase,
    classify_phase,
    superoperator_eigen_operators,
)


@dataclass
class Segment:
    """Constant-Hamiltonian stretch; propagates as exp(-i H duration).

    ``duration`` may be an array and ``generator`` a stack (..., N, N);
    their leading axes are batch axes, broadcast against each other.
    """

    duration: np.ndarray
    generator: np.ndarray

    def __post_init__(self):
        self.generator = as_matrix(self.generator, batched=True)
        self.duration = np.asarray(self.duration, dtype=float)
        if not (np.isfinite(self.duration) & (self.duration >= 0)).all():
            raise ValueError("segment duration must be finite and non-negative")

    @property
    def batch_shape(self) -> tuple:
        return np.broadcast_shapes(self.duration.shape, self.generator.shape[:-2])

    def factor(self) -> np.ndarray:
        return matexp((-1j * self.duration)[..., None, None] * self.generator)


@dataclass
class Kick:
    """Instantaneous non-unitary factor exp(K); K is dimensionless (or a stack of them)."""

    generator: np.ndarray

    def __post_init__(self):
        self.generator = as_matrix(self.generator, batched=True)

    @property
    def batch_shape(self) -> tuple:
        return self.generator.shape[:-2]

    def factor(self) -> np.ndarray:
        return matexp(self.generator)


@dataclass
class Schedule:
    """One period of a piecewise-constant drive, events in time order.

    The events' batch axes broadcast to the schedule's ``batch_shape``:
    a batched schedule is one drive per batch point.
    """

    dim: int
    events: list

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not self.events:
            raise ValueError("schedule needs at least one event")
        for ev in self.events:
            if not isinstance(ev, (Segment, Kick)):
                raise TypeError(f"unsupported event type {type(ev).__name__}")
            if ev.generator.shape[-2:] != (self.dim, self.dim):
                raise ValueError(
                    f"event generator shape {ev.generator.shape} != ({self.dim}, {self.dim})"
                )
        self.batch_shape = np.broadcast_shapes(*(ev.batch_shape for ev in self.events))
        if (np.asarray(self.period) <= 0).any():
            raise ValueError("total segment duration must be positive")

    @property
    def period(self) -> float | np.ndarray:
        return sum(ev.duration for ev in self.events if isinstance(ev, Segment))


@dataclass
class FloquetPropagator:
    """One-period propagator gf, its eigendecomposition kappa and PT phase.

    Over a batched schedule every field carries the batch axes, and
    ``failed`` names per batch point why its analysis failed ("" where it
    did not): a product that is not finite, or an eigendecomposition that
    misses the contract of ``linalg.eig``.  At a failed point gf is left
    as composed and kappa and phase describe the identity in its place.
    """

    gf: np.ndarray
    kappa: Spectrum
    phase: PTPhase | np.ndarray
    failed: np.ndarray


def classify_floquet_phase(kappa: Spectrum, tol: float = DEFAULT_TOL_EIG):
    """PT phase from the moduli of the one-period propagator eigenvalues (all equal: symmetric)."""
    moduli = np.abs(kappa.eigenvalues)
    top = np.max(moduli, axis=-1)
    return classify_phase(kappa.eigenvalues, kappa.eigenvectors, top - np.min(moduli, axis=-1), top, tol)


def compose(s: Schedule) -> np.ndarray:
    """One-period time-ordered product, shape batch_shape + (dim, dim); earliest event acts first.

    A schedule without batch axes raises OverflowError when the product
    is not finite; in a batched one an overflowed batch point is left
    non-finite, to be masked by the caller (a factor without batch axes
    is shared by every point, and still raises).
    """
    gf = np.eye(s.dim, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for ev in s.events:
            gf = ev.factor() @ gf
    if not s.batch_shape and not np.isfinite(gf).all():
        raise OverflowError("one-period propagator overflowed double range")
    return gf


def propagator(s: Schedule, tol_eig: float = DEFAULT_TOL_EIG) -> FloquetPropagator:
    """The one-period product with its eigendecomposition and PT phase, per batch point.

    Without batch axes a failure raises (OverflowError, NumericalError);
    in a batched schedule it is recorded in ``failed`` for its point alone.
    """
    gf = compose(s)
    failed = np.full(s.batch_shape, "", dtype=object)
    failed[~np.isfinite(gf).all(axis=(-2, -1))] = "one-period propagator overflowed double range"
    a = np.where((failed == "")[..., None, None], gf, np.eye(s.dim))
    try:
        kappa = eig(a, tol_eig)
    except NumericalError:
        if not s.batch_shape:
            raise
        # some point misses eig's contract: find each one, with the message
        # a call for that point alone gives, and solve the others together
        for idx in np.ndindex(s.batch_shape):
            try:
                eig(a[idx], tol_eig)
            except NumericalError as exc:
                failed[idx] = str(exc)
                a[idx] = np.eye(s.dim)
        kappa = eig(a, tol_eig)
    return FloquetPropagator(gf, kappa, classify_floquet_phase(kappa, tol_eig), failed)


def build_floquet_superoperator(gf) -> np.ndarray:
    """Matrix of eta -> gf^dag eta gf under vec, i.e. gf^T kron gf^dag.

    Raises OverflowError when an entry (a product of two entries of gf)
    overflows double range.
    """
    gf = as_matrix(gf)
    if gf.shape[0] != gf.shape[1]:
        raise ValueError("propagator must be square")
    with np.errstate(over="ignore", invalid="ignore"):
        gmat = np.kron(gf.T, gf.conj().T)
    if not np.isfinite(gmat).all():
        raise OverflowError("Floquet superoperator gf^T kron gf^dag overflowed double range")
    return gmat


def _sandwich(gf: np.ndarray):
    """The superoperator's action eta -> gf^dag eta gf, on one operator or a stack."""
    gdag = gf.conj().T
    return lambda eta: gdag @ eta @ gf


def floquet_eigen_operators(
    gf,
    tol_eig: float = DEFAULT_TOL_EIG,
    tol_rank: float = DEFAULT_TOL_RANK,
) -> list[EigenOperator]:
    """All N^2 eigen-operators of the Floquet superoperator, conserved first.

    The ``rate`` field carries the stroboscopic multiplier lambda; the
    conserved operators carry exactly 1.  A multiplier counts as 1 within
    a tolerance relative to max|lambda|.
    """
    gf = as_matrix(gf)
    gmat = build_floquet_superoperator(gf)
    spectrum = eig(gmat, tol_eig)
    conserved, others = superoperator_eigen_operators(
        gmat, spectrum, _sandwich(gf), 1.0, float(np.max(np.abs(spectrum.eigenvalues))), tol_rank
    )
    return conserved + others


@dataclass
class RecursiveCandidates:
    """Symmetrized/antisymmetrized recursion applied to a conserved eta."""

    symmetrized: np.ndarray
    antisymmetrized: np.ndarray
    symmetrized_independent: bool
    antisymmetrized_independent: bool


def recursive_floquet(eta1, gf) -> RecursiveCandidates:
    """Both recursion candidates, tagged for independence from eta1."""
    eta1 = as_matrix(eta1)
    gf = as_matrix(gf)
    tol = 1e-8  # relative to the norms of eta1 and gf
    if hs_norm(_sandwich(gf)(eta1) - eta1) > tol * max(hs_norm(eta1), 1e-300) * hs_norm(gf) ** 2:
        raise ValueError("eta1 is not stroboscopically conserved under gf")
    sym = 0.5 * (eta1 @ gf + gf.conj().T @ eta1)
    anti = -0.5j * (eta1 @ gf - gf.conj().T @ eta1)

    def independent(cand: np.ndarray) -> bool:
        nrm = hs_norm(cand)
        if nrm <= tol * hs_norm(eta1) * hs_norm(gf):
            return False
        e1 = eta1 / hs_norm(eta1)
        rem = cand - np.vdot(e1, cand) * e1
        return hs_norm(rem) > tol * nrm

    return RecursiveCandidates(
        symmetrized=sym,
        antisymmetrized=anti,
        symmetrized_independent=independent(sym),
        antisymmetrized_independent=independent(anti),
    )


def _split_events(s: Schedule, t0: float):
    """Partition events at absolute time t0, splitting a segment if needed."""
    before, after = [], []
    t = 0.0
    boundary_tol = 1e-12 * s.period
    for ev in s.events:
        if isinstance(ev, Kick):
            if abs(t - t0) <= boundary_tol:
                raise ValueError(f"t0={t0} lands exactly on a kick; shift is ambiguous")
            (before if t < t0 else after).append(ev)
            continue
        end = t + ev.duration
        if end <= t0 + boundary_tol:
            before.append(ev)
        elif t >= t0 - boundary_tol:
            after.append(ev)
        else:
            before.append(Segment(t0 - t, ev.generator))
            after.append(Segment(end - t0, ev.generator))
        t = end
    return before, after


def time_shift(s: Schedule, t0: float, tol: float = 1e-9):
    """Shift the time origin to t0; returns (S, shifted schedule).

    S is the time-ordered product over [0, t0]; the shifted schedule is
    the cyclic rotation of the events, and its propagator equals
    S gf S^-1 (verified internally).
    """
    if s.batch_shape:
        raise ValueError("time_shift needs a schedule without batch axes")
    if not 0.0 <= t0 < s.period:
        raise ValueError(f"t0 must lie in [0, period), got {t0}")
    if t0 == 0.0:
        return np.eye(s.dim, dtype=complex), s
    before, after = _split_events(s, t0)
    smat = np.eye(s.dim, dtype=complex)
    for ev in before:
        smat = ev.factor() @ smat
    shifted = Schedule(dim=s.dim, events=after + before)
    gf = compose(s)
    expected = smat @ gf @ np.linalg.inv(smat)
    got = compose(shifted)
    if hs_norm(got - expected) > tol * max(hs_norm(gf), 1.0):
        raise ValueError("time-shift covariance check failed")
    return smat, shifted


@dataclass
class TraceSeries:
    """Normalized expectation-value traces on a uniform time grid.

    ``times`` are in units of the period; ``values`` has one row per
    operator.  Operators whose initial expectation vanished are left
    unnormalized and flagged via ``normalized``.
    """

    times: np.ndarray
    values: np.ndarray
    stroboscopic_indices: np.ndarray
    normalized: list[bool]


def evolve_trace(
    s: Schedule,
    psi0,
    etas,
    steps_per_period: int = 200,
    periods: int = 10,
) -> TraceSeries:
    """Dense-time evolution of normalized expectation values <psi|eta|psi>.

    The stroboscopic states psi(mT) = gf^m psi0 are repeated products by
    gf, so they do not accumulate substep drift.  Every other sample is
    one batched product of its partial propagator with the stroboscopic
    state before it.  The partial propagators inside a segment come from
    one stacked exponential of their sub-intervals; kicks act atomically
    (a sample inside the period that coincides with a kick instant sees
    the post-kick state), and samples at the end of the period get gf.
    Each operator's values are one batched bra-ket product, divided by
    their value at psi0 unless that vanishes.  Values that overflow are
    left non-finite.
    """
    if s.batch_shape:
        raise ValueError("evolve_trace needs a schedule without batch axes")
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi0.size != s.dim:
        raise ValueError(f"psi0 has length {psi0.size}, expected {s.dim}")
    if np.linalg.norm(psi0) == 0.0:
        raise ValueError("psi0 must be nonzero")
    if steps_per_period < 1 or periods < 1:
        raise ValueError("steps_per_period and periods must be >= 1")
    etas = [as_matrix(e) for e in etas]

    t_samples = np.arange(steps_per_period) * (s.period / steps_per_period)
    partials = np.empty((steps_per_period, s.dim, s.dim), dtype=complex)
    acc = np.eye(s.dim, dtype=complex)
    t = 0.0
    k = 0
    for ev in s.events:
        if isinstance(ev, Segment):
            end = t + ev.duration
            stop = np.searchsorted(t_samples, end - 1e-12 * s.period)
            partials[k:stop] = matexp((-1j * (t_samples[k:stop] - t))[:, None, None] * ev.generator) @ acc
            k, t = stop, end
        acc = ev.factor() @ acc
    partials[k:] = acc  # samples at the trailing boundary

    norm0 = float(np.vdot(psi0, psi0).real)
    strobe = [psi0]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(periods):
            strobe.append(acc @ strobe[-1])
        strobe = np.array(strobe)
        psi = (partials @ strobe[:-1, None, :, None])[..., 0]
        psi[:, 0] = strobe[:-1]  # a stroboscopic sample sees the state before any kick at t = 0
        psi = np.concatenate([psi.reshape(-1, s.dim), strobe[-1:]])
        bra = psi.conj()[:, None, :]
        values = np.array([(bra @ (e @ psi[:, :, None]))[:, 0, 0] for e in etas], dtype=complex)
        values = values.reshape(len(etas), len(psi))
        # the first sample is psi0, so its values are the denominators
        flags = np.array([abs(d) > 1e-12 * hs_norm(e) * norm0 for d, e in zip(values[:, 0], etas)], dtype=bool)
        values[flags] /= values[flags, :1]
    return TraceSeries(
        times=np.arange(len(psi)) / steps_per_period,
        values=values,
        stroboscopic_indices=np.arange(periods + 1) * steps_per_period,
        normalized=flags.tolist(),
    )
