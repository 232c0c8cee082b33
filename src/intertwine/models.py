"""The two PT-symmetric dimer case studies and their closed-form oracles.

Both models live on N=2:

* quantum dimer:   H = J sigma_x + i gamma f(t) sigma_z, f static or a
  square wave (sign flip at half period);
* classical dimer: H = J sigma_y + i gamma f(t) sigma_z, f static or a
  pair of delta kicks at t = 0 and t = T/2.

The closed forms here (eta_pm, propagator coefficients, EP contours)
serve as independent oracles for the numerical machinery.

The dimers' EP map lives here: ``dimer_params`` (the (J, gamma/J, JT)
convention and its defaults), ``ep_indicator`` and ``analytic_ep_gamma``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .floquet import Kick, Schedule, Segment, compose
from .linalg import hs_norm, matexp

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

PLUS_X = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)

# |delta*T| below which the 1/delta^2 closed forms switch to their series
_SERIES_CUTOFF = 1e-4


class Model(enum.Enum):
    QUANTUM = "quantum-dimer"
    CLASSICAL = "classical-dimer"

    @property
    def periodic_waveform(self) -> Waveform:
        """The model's time-periodic drive: a square wave (quantum) or delta kicks (classical)."""
        return Waveform.SQUARE_WAVE if self is Model.QUANTUM else Waveform.DELTA_KICKS


class Waveform(enum.Enum):
    STATIC = "static"
    SQUARE_WAVE = "square"
    DELTA_KICKS = "kicks"


@dataclass
class DimerParams:
    """Dimer parameters; ``gamma`` and ``T`` may be arrays, broadcast into
    the batch axes of the schedules built from them."""

    J: float = 1.0
    gamma: float | np.ndarray = 0.5
    T: float | np.ndarray = 1.0
    waveform: Waveform = Waveform.STATIC

    def __post_init__(self):
        if not (np.isfinite(self.J) & np.isfinite(self.gamma) & np.isfinite(self.T)).all():
            raise ValueError("J, gamma and T must be finite")
        if self.J <= 0:
            raise ValueError("J must be positive")
        if (np.asarray(self.gamma) < 0).any():
            raise ValueError("gamma must be non-negative")
        if (np.asarray(self.T) <= 0).any():
            raise ValueError("T must be positive")

    @property
    def delta(self) -> complex:
        """Principal square root of J^2 - gamma^2 (real or +i|.| branch)."""
        return complex(np.sqrt(complex(self.J**2 - self.gamma**2)))


def quantum_hamiltonian(J: float, gamma, sign: float = 1.0) -> np.ndarray:
    """J sigma_x + i sign gamma sigma_z; an array of gamma gives a stack."""
    return J * SIGMA_X + np.multiply.outer(1j * sign * gamma, SIGMA_Z)


def classical_hamiltonian(J: float, gamma, sign: float = 1.0) -> np.ndarray:
    """J sigma_y + i sign gamma sigma_z; an array of gamma gives a stack."""
    return J * SIGMA_Y + np.multiply.outer(1j * sign * gamma, SIGMA_Z)


def quantum_dimer(p: DimerParams) -> Schedule:
    """Schedule for the quantum dimer (static or square-wave gain/loss)."""
    if p.waveform is Waveform.STATIC:
        return Schedule(dim=2, events=[Segment(p.T, quantum_hamiltonian(p.J, p.gamma))])
    if p.waveform is Waveform.SQUARE_WAVE:
        return Schedule(
            dim=2,
            events=[
                Segment(p.T / 2, quantum_hamiltonian(p.J, p.gamma, +1.0)),
                Segment(p.T / 2, quantum_hamiltonian(p.J, p.gamma, -1.0)),
            ],
        )
    raise ValueError("quantum dimer supports only static or square waveforms")


def classical_dimer(p: DimerParams) -> Schedule:
    """Schedule for the classical dimer (static or delta-kicked gain/loss).

    The kicked schedule is ordered so the one-period product is
    exp(+gT sz) exp(-iJT sy/2) exp(-gT sz) exp(-iJT sy/2): the + kick is
    taken at the end of the period, a time-origin choice only.
    """
    if p.waveform is Waveform.STATIC:
        return Schedule(dim=2, events=[Segment(p.T, classical_hamiltonian(p.J, p.gamma))])
    if p.waveform is Waveform.DELTA_KICKS:
        free = p.J * SIGMA_Y
        g = p.gamma * p.T
        return Schedule(
            dim=2,
            events=[
                Segment(p.T / 2, free),
                Kick(np.multiply.outer(-g, SIGMA_Z)),
                Segment(p.T / 2, free),
                Kick(np.multiply.outer(+g, SIGMA_Z)),
            ],
        )
    raise ValueError("classical dimer supports only static or kicked waveforms")


def build_schedule(model: Model, p: DimerParams) -> Schedule:
    """The model's schedule, batched over the broadcast shape of p.gamma and p.T."""
    return quantum_dimer(p) if model is Model.QUANTUM else classical_dimer(p)


def dimer_params(waveform: Waveform, J=None, gamma_over_j=None, jt=None) -> DimerParams:
    """The dimer at coupling J > 0, gain-loss gamma/J and period JT; None is J = 1, gamma/J = 0.5, JT = 1."""
    J = 1.0 if J is None else J
    gamma_over_j = 0.5 if gamma_over_j is None else gamma_over_j
    jt = 1.0 if jt is None else jt
    return DimerParams(J=J, gamma=gamma_over_j * J, T=jt / J, waveform=waveform)


def dimer_schedule(model: Model, waveform: Waveform, J=None, gamma_over_j=None, jt=None) -> Schedule:
    """The model's schedule at ``dimer_params(waveform, J, gamma_over_j, jt)``."""
    return build_schedule(model, dimer_params(waveform, J, gamma_over_j, jt))


def analytic_eta_pm(model: Model, p: DimerParams):
    """Closed-form rank-1 eigen-operators of the static Liouvillian.

    Returns (eta_plus, eta_minus, rate_plus, rate_minus) with rates
    +-2i*delta.  Degenerate at the EP (delta = 0), where the formulas
    lose meaning.
    """
    if p.waveform is not Waveform.STATIC:
        raise ValueError("analytic eta_pm are defined for the static waveform")
    d = p.delta
    if abs(d) < 1e-12 * p.J:
        raise ValueError("eta_pm formulas degenerate at the exceptional point")
    etas = []
    for sgn in (+1.0, -1.0):
        a = p.gamma + sgn * 1j * d
        if model is Model.QUANTUM:
            off_upper, off_lower = -1j * a, +1j * a
        else:
            off_upper = off_lower = -a
        etas.append(
            np.array([[a * a, off_upper], [off_lower, 1.0]], dtype=complex) / p.J**2
        )
    return etas[0], etas[1], 2j * d, -2j * d


def _h1(z: complex) -> complex:
    """(1 - cos x)/x^2 as a function of z = x^2, stable near z = 0."""
    if abs(z) < _SERIES_CUTOFF**2:
        return 0.5 - z / 24.0 + z * z / 720.0 - z**3 / 40320.0
    x = np.sqrt(complex(z))
    return (1.0 - np.cos(x)) / z


def _h2(z: complex) -> complex:
    """sin(x)/x as a function of z = x^2, stable near z = 0."""
    if abs(z) < _SERIES_CUTOFF**2:
        return 1.0 - z / 6.0 + z * z / 120.0 - z**3 / 5040.0
    x = np.sqrt(complex(z))
    return np.sin(x) / x


@dataclass
class QuantumCoeffs:
    """gf = g0*1 + i*gx*sigma_x + gy*sigma_y, all coefficients real."""

    g0: float
    gx: float
    gy: float

    def matrix(self) -> np.ndarray:
        return self.g0 * ID2 + 1j * self.gx * SIGMA_X + self.gy * SIGMA_Y

    def kappa(self) -> tuple[complex, complex]:
        root = np.sqrt(complex(self.gx**2 - self.gy**2))
        return self.g0 + 1j * root, self.g0 - 1j * root

    def discriminant(self) -> float:
        # positive in the PT-symmetric phase, negative in the broken one
        return self.gx**2 - self.gy**2


@dataclass
class ClassicalCoeffs:
    """gf = g0*1 + gx*sigma_x + i*gy*sigma_y + gz*sigma_z, all real."""

    g0: float
    gx: float
    gy: float
    gz: float

    def matrix(self) -> np.ndarray:
        return (
            self.g0 * ID2
            + self.gx * SIGMA_X
            + 1j * self.gy * SIGMA_Y
            + self.gz * SIGMA_Z
        )

    def kappa(self) -> tuple[complex, complex]:
        root = np.sqrt(complex(self.gx**2 + self.gz**2 - self.gy**2))
        return self.g0 + root, self.g0 - root

    def discriminant(self) -> float:
        # positive in the PT-symmetric phase, negative in the broken one
        return self.gy**2 - self.gx**2 - self.gz**2


def analytic_floquet_coeffs(model: Model, p: DimerParams):
    """Closed-form one-period propagator coefficients.

    Quantum (square wave): g0 = [J^2 cos(dT) - g^2]/d^2,
    gx = -J sin(dT)/d, gy = -J g [1 - cos(dT)]/d^2, evaluated through a
    single complex-delta code path with explicit series branches at the
    d -> 0 (EP) line; realness is asserted, not assumed.
    """
    J, g, T = p.J, p.gamma, p.T
    if model is Model.QUANTUM:
        if p.waveform is not Waveform.SQUARE_WAVE:
            raise ValueError("quantum coefficients require the square waveform")
        z = complex(J**2 - g**2) * T**2  # (delta*T)^2
        h1, h2 = _h1(z), _h2(z)
        vals = [1.0 - (J * T) ** 2 * h1, -J * T * h2, -J * g * T**2 * h1]
        for v in vals:
            if abs(np.imag(v)) > 1e-12:
                raise ValueError(f"coefficient {v} has a non-real residue")
        return QuantumCoeffs(*(float(np.real(v)) for v in vals))
    if p.waveform is not Waveform.DELTA_KICKS:
        raise ValueError("classical coefficients require the kicked waveform")
    x = J * T
    ch, sh = np.cosh(2 * g * T), np.sinh(2 * g * T)
    return ClassicalCoeffs(
        g0=float(np.cos(x / 2) ** 2 - np.sin(x / 2) ** 2 * ch),
        gx=float(-np.sin(x) * sh / 2),
        gy=float(-np.sin(x) * (1 + ch) / 2),
        gz=float(-np.sin(x / 2) ** 2 * sh),
    )


def analytic_discriminant(model: Model, p: DimerParams) -> float:
    """Sign-definite PT indicator: > 0 symmetric phase, < 0 broken, 0 on EP."""
    return analytic_floquet_coeffs(model, p).discriminant()


def discriminant(gf) -> np.ndarray:
    """det - (tr/2)^2 of a 2x2 propagator or a stack of them: > 0 symmetric, < 0 broken."""
    tr2 = (gf[..., 0, 0] + gf[..., 1, 1]) / 2
    return (np.linalg.det(gf) - tr2 * tr2).real


def numerical_discriminant(model: Model, p: DimerParams):
    """Same indicator as ``analytic_discriminant``, from the composed propagator (batched with p)."""
    val = discriminant(compose(build_schedule(model, p)))
    return float(val) if np.ndim(val) == 0 else val


def ep_indicator(model: Model, waveform: Waveform, J, gamma_over_j, jt):
    """The PT indicator at coupling J, batched over gamma/J and JT: > 0 symmetric, < 0 broken, 0 on the EP.

    For a periodic drive it is ``numerical_discriminant``; for the static
    drive, 1 - (gamma/J)^2, since both static dimers break PT at gamma = J.
    """
    if waveform is Waveform.STATIC:
        return 1.0 - gamma_over_j * gamma_over_j
    return numerical_discriminant(model, dimer_params(waveform, J, gamma_over_j, jt))


def analytic_ep_gamma(model: Model, waveform: Waveform, jt: float) -> float | None:
    """The closed-form EP contour gamma/J at JT, or None where there is none."""
    if waveform is Waveform.STATIC:
        return 1.0
    if waveform is Waveform.DELTA_KICKS and model is Model.CLASSICAL:
        try:
            return classical_ep_gamma(jt)
        except ValueError:
            pass
    return None


# brentq's default relative tolerance
_BRENT_RTOL = 4 * np.finfo(float).eps
_BRENT_MAXITER = 100


def brent_roots(f, lo, hi, flo, fhi, xtol: float) -> np.ndarray:
    """Brent's method on every bracket [lo[j], hi[j]] of 1-D arrays at once: each lane's root, NaN for none.

    Each lane takes the steps of ``scipy.optimize.brentq`` (brentq.c:
    rtol = 4 eps, at most 100 iterations), with the same expressions in
    the same order, so it gets the bits of its own brentq call.  ``flo``
    and ``fhi`` are the known values at the ends; ``f(x, lanes)`` gives
    the values at x for the active lanes ``lanes`` and is called once per
    iteration.  A value 0 at an end makes that end the root; a lane has
    no root when its ends have the same sign bit or when a value is NaN
    (where brentq raises ValueError).  Raises RuntimeError when a lane
    does not converge, as brentq does.
    """
    xpre, xcur, fpre, fcur = (
        np.array(v, dtype=float, ndmin=1) for v in np.broadcast_arrays(lo, hi, flo, fhi))
    roots = np.full(xpre.shape, np.nan)
    usable = ~(np.isnan(fpre) | np.isnan(fcur))
    at_lo = usable & (fpre == 0)
    at_hi = usable & ~at_lo & (fcur == 0)
    roots[at_lo], roots[at_hi] = xpre[at_lo], xcur[at_hi]
    lanes = np.flatnonzero(usable & ~at_lo & ~at_hi & (np.signbit(fpre) != np.signbit(fcur)))
    xpre, xcur, fpre, fcur = xpre[lanes], xcur[lanes], fpre[lanes], fcur[lanes]
    xblk, fblk, spre, scur = (np.zeros(lanes.size) for _ in range(4))
    for _ in range(_BRENT_MAXITER):
        if not lanes.size:
            return roots
        # a sign change between the last two iterates is the new bracket
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        # keep the end with the smaller value as xcur
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

        delta = (xtol + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        roots[lanes[done]] = xcur[done]

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # interpolate (secant) where xpre is the bracket end, else extrapolate
            # (inverse quadratic); only lanes that take the step use its value
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),
            )
            # brentq.c's MIN(a, b) is (a < b ? a : b)
            a, b = np.abs(spre), 3 * np.abs(sbis) - delta
            short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2 * np.abs(stry) < np.where(a < b, a, b)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))

        keep = ~done
        lanes, xpre, xcur, xblk, fpre, fblk, spre, scur = (
            v[keep] for v in (lanes, xpre, xcur, xblk, fpre, fblk, spre, scur))
        fcur = np.asarray(f(xcur, lanes), dtype=float) if lanes.size else np.zeros(0)
        # a NaN value ends its lane without a root
        live = ~np.isnan(fcur)
        lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (
            v[live] for v in (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur))
    if lanes.size:
        raise RuntimeError(f"Brent's method failed to converge after {_BRENT_MAXITER} iterations "
                           f"in {lanes.size} bracket(s)")
    return roots


def contour_roots(disc, gammas, values, jts, xtol: float, floor: float = -np.inf) -> list[tuple[float, float]]:
    """Roots of ``disc`` along each row of a grid, one per sign change: (root, jt) pairs, row by row.

    ``values[i, k]`` is disc(gammas[k], jts[i]), known from the caller's
    own evaluation of the grid; NaN marks a point that could not be
    evaluated.  ``disc`` takes arrays of gamma and JT of one shape.  An
    interval is skipped when its two values have the same sign or one is
    NaN, when its left value is 0 and it is not the first interval (that
    zero is the root of the interval before it), and when Brent's method
    finds no root on [max(left end, floor), right end].  All intervals
    are refined together by ``brent_roots``; the left ends below
    ``floor`` are evaluated in one call.
    """
    gammas, values, jts = (np.asarray(x, dtype=float) for x in (gammas, values, jts))
    left, right = values[:, :-1], values[:, 1:]
    first = np.arange(left.shape[1]) == 0
    with np.errstate(invalid="ignore"):
        crossing = (gammas[:-1] != gammas[1:]) & ((left != 0.0) | first) & (left * right <= 0)
    rows, ks = np.nonzero(crossing)
    lo = np.maximum(gammas[ks], floor)
    flo = left[rows, ks]
    below = gammas[ks] < floor
    if below.any():
        flo[below] = disc(lo[below], jts[rows[below]])
    roots = brent_roots(lambda x, lanes: disc(x, jts[rows[lanes]]), lo, gammas[ks + 1], flo,
                        right[rows, ks], xtol)
    found = ~np.isnan(roots)
    return list(zip(roots[found].tolist(), jts[rows[found]].tolist()))


def ep_contour(
    model: Model,
    jt_values,
    gamma_bracket: tuple[float, float] = (1e-6, 4.0),
    tol: float = 1e-10,
) -> list[tuple[float, float]]:
    """EP contour points (gamma/J, JT) of the periodic drive by Brent's method on
    ``ep_indicator`` at J = 1, all JT at once.

    The bracket is a two-point grid for ``contour_roots``.  Raises when
    the bracket shows no sign change for some row.
    """
    jts = np.asarray(jt_values, dtype=float)
    gammas = np.asarray(gamma_bracket, dtype=float)
    disc = functools.partial(ep_indicator, model, model.periodic_waveform, 1.0)
    values = disc(np.broadcast_to(gammas, (jts.size, 2)), jts[:, None])
    points = contour_roots(disc, gammas, values, jts, tol)
    found = {jt for _, jt in points}
    for jt in jts.tolist():
        if jt not in found:
            raise ValueError(f"no sign change in gamma bracket {gamma_bracket} at JT={jt}")
    return points


def classical_ep_gamma(jt: float) -> float:
    """Analytic classical contour gamma/J from cos(JT/2) = tanh(gamma T)."""
    c = np.cos(jt / 2)
    if not 0.0 < c < 1.0:
        raise ValueError(f"no EP contour at JT={jt}")
    return float(np.arctanh(c) / jt)


def basis_rotation_check(p: DimerParams) -> float:
    """Residual of exp(-i pi sz/4) H1 exp(+i pi sz/4) - H2 (static forms)."""
    r = matexp(-1j * np.pi * SIGMA_Z / 4)
    rinv = matexp(+1j * np.pi * SIGMA_Z / 4)
    h1 = quantum_hamiltonian(p.J, p.gamma)
    h2 = classical_hamiltonian(p.J, p.gamma)
    return hs_norm(r @ h1 @ rinv - h2)
