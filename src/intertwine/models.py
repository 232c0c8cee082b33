"""The two PT-symmetric dimer case studies and their closed-form oracles.

Both models live on N=2:

* quantum dimer:   H = J sigma_x + i gamma f(t) sigma_z, f static or a
  square wave (sign flip at half period);
* classical dimer: H = J sigma_y + i gamma f(t) sigma_z, f static or a
  pair of delta kicks at t = 0 and t = T/2.

The closed forms here (eta_pm, propagator coefficients, EP contours)
serve as independent oracles for the numerical machinery.
"""

from __future__ import annotations

import enum
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


def contour_roots(disc, gammas, values, jt: float, xtol: float, floor: float = -np.inf) -> list[float]:
    """Roots of ``disc(gamma_over_j, jt)`` by Brent's method, one per sign change of a row.

    ``values[k]`` is disc(gammas[k], jt), known from the caller's own
    evaluation of the row; NaN marks a point that could not be evaluated.
    An interval is skipped when its left value is 0, when its two values
    have the same sign or one is NaN, and when Brent's method finds no
    bracket on [max(left end, floor), right end].
    """
    from scipy.optimize import brentq

    roots = []
    for k in range(len(gammas) - 1):
        lo, hi = gammas[k], gammas[k + 1]
        if lo == hi or values[k] == 0.0 or not values[k] * values[k + 1] <= 0:
            continue
        try:
            roots.append(float(brentq(disc, max(lo, floor), hi, args=(jt,), xtol=xtol)))
        except ValueError:
            continue
    return roots


def ep_contour(
    model: Model,
    jt_values,
    gamma_bracket: tuple[float, float] = (1e-6, 4.0),
    J: float = 1.0,
    tol: float = 1e-10,
    use_numerical: bool = False,
) -> list[tuple[float, float]]:
    """EP contour points (gamma/J, JT) by bisection on the discriminant.

    Raises when the bracket shows no sign change for some row.
    """
    waveform = Waveform.SQUARE_WAVE if model is Model.QUANTUM else Waveform.DELTA_KICKS

    def disc(gamma_over_j: float, jt: float) -> float:
        p = DimerParams(J=J, gamma=gamma_over_j * J, T=jt / J, waveform=waveform)
        if use_numerical:
            return numerical_discriminant(model, p)
        return analytic_discriminant(model, p)

    points = []
    for jt in jt_values:
        ends = [disc(g, jt) for g in gamma_bracket]
        if ends[0] == 0.0:
            points.append((gamma_bracket[0], float(jt)))
            continue
        roots = contour_roots(disc, gamma_bracket, ends, jt, tol)
        if not roots:
            raise ValueError(f"no sign change in gamma bracket {gamma_bracket} at JT={jt}")
        points.append((roots[0], float(jt)))
    return points


def classical_ep_gamma(jt: float, J: float = 1.0) -> float:
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
