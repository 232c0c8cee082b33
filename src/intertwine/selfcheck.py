"""Built-in verification suite binding the package's core identities.

Each check is independent of the code path it validates where possible
(Taylor series against the Pade exponential, closed forms against
composed propagators, pair-products against superoperator spectra).
Used by the ``verify`` CLI command and by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import floquet as fl
from . import liouville as lv
from . import models as md
from .linalg import eig, hs_norm, matexp
from .vectorize import sandwich_matrix, unvec, vec


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    measured: float = 0.0
    threshold: float = 0.0

    @staticmethod
    def from_measure(name: str, measured: float, threshold: float, what: str = "residual") -> "CheckResult":
        return CheckResult(
            name, measured <= threshold, f"{what} {measured:.3e} (tol {threshold:.1e})", measured, threshold
        )


def _rng(seed=20240817):
    return np.random.default_rng(seed)


def random_complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_pt_symmetric(rng, n: int) -> np.ndarray:
    """Random H with P conj(H) P = H for the exchange parity P."""
    p = np.fliplr(np.eye(n))
    a = random_complex(rng, n, n)
    return a + p @ a.conj() @ p


def match_spectra(a: np.ndarray, b: np.ndarray) -> float:
    """Max eigenvalue distance under optimal (assignment) matching."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def check_vec_round_trip(tols) -> CheckResult:
    rng = _rng()
    ok = True
    for n in (2, 3, 5):
        m = random_complex(rng, n, n)
        ok = ok and bool(np.array_equal(unvec(vec(m)), m))
    return CheckResult("vec/unvec round trip is bit-exact", ok, "")


def check_sandwich_identity(tols) -> CheckResult:
    rng = _rng(7)
    worst = 0.0
    for _ in range(5):
        a, b, eta = (random_complex(rng, 3, 3) for _ in range(3))
        worst = max(worst, float(np.linalg.norm(sandwich_matrix(a, b) @ vec(eta) - vec(a @ eta @ b))))
    return CheckResult.from_measure("Kronecker sandwich identity", worst, tols.get("residual", 1e-12))


def check_matexp_taylor(tols) -> CheckResult:
    rng = _rng(11)
    worst = 0.0
    for _ in range(5):
        a = random_complex(rng, 4, 4)
        a = a / np.linalg.norm(a)
        term = np.eye(4, dtype=complex)
        total = term.copy()
        for k in range(1, 30):
            term = term @ a / k
            total += term
        worst = max(worst, hs_norm(matexp(a) - total))
    return CheckResult.from_measure("matexp vs 30-term Taylor", worst, tols.get("residual", 1e-10))


def check_matexp_defective(tols) -> CheckResult:
    # at gamma = J each half-period generator is nilpotent, so the full
    # propagator is exactly quadratic in T
    J = 1.0
    T = 1.0
    hp = md.quantum_hamiltonian(J, J, +1.0)
    hm = md.quantum_hamiltonian(J, J, -1.0)
    gf = matexp(-1j * hm * T / 2) @ matexp(-1j * hp * T / 2)
    poly = (np.eye(2) - 1j * hm * T / 2) @ (np.eye(2) - 1j * hp * T / 2)
    res = hs_norm(gf - poly)
    return CheckResult.from_measure("matexp exact on defective (EP) generators", res, tols.get("residual", 1e-10))


def check_spectrum_pairing(tols) -> CheckResult:
    rng = _rng(23)
    worst = 0.0
    for n in (2, 3, 4):
        hs = [random_pt_symmetric(rng, n) for _ in range(5)]
        spectra = eig(np.stack([lv.build_liouvillian(h) for h in hs])).eigenvalues
        for h, rates in zip(hs, spectra):
            worst = max(worst, match_spectra(rates, lv.predicted_rates(h)))
    return CheckResult.from_measure(
        "Liouvillian spectrum equals -i(eps_p - eps_q*)", worst, tols.get("residual", 1e-7), "mismatch"
    )


def check_static_exponential_law(tols) -> CheckResult:
    rng = _rng(31)
    worst = 0.0
    for gamma in (0.3, 0.5, 1.5):
        h = md.quantum_hamiltonian(1.0, gamma)
        result = lv.eigen_operators(h)
        ts = np.linspace(0.0, 10.0 / hs_norm(h), 7)
        props = [matexp(-1j * h * t) for t in ts]
        for eop in result.conserved + result.transient:
            for _ in range(3):
                psi0 = md.PLUS_X + 0.3 * random_complex(rng, 2)
                v0 = np.vdot(psi0, eop.op @ psi0)
                for t, prop in zip(ts, props):
                    psi = prop @ psi0
                    got = np.vdot(psi, eop.op @ psi)
                    want = np.exp(eop.rate * t) * v0
                    denom = max(abs(want), abs(v0), 1e-30)
                    worst = max(worst, abs(got - want) / denom)
    return CheckResult.from_measure("static exponential law", worst, tols.get("residual", 1e-7), "rel error")


def _closed_form_gap(model: md.Model, waveform: md.Waveform) -> float:
    """Worst |gf - closed form| over a 9 x 3 grid, gf composed for the whole grid at once."""
    gammas, jts = np.linspace(0.0, 2.0, 9), (0.4, 1.0, 2.7)
    gfs = fl.compose(md.build_schedule(
        model, md.DimerParams(J=1.0, gamma=gammas[:, None], T=np.array(jts), waveform=waveform)))
    return max(
        hs_norm(gfs[i, k] - md.analytic_floquet_coeffs(
            model, md.DimerParams(J=1.0, gamma=gj, T=jt, waveform=waveform)).matrix())
        for i, gj in enumerate(gammas)
        for k, jt in enumerate(jts)
    )


def check_quantum_closed_form(tols) -> CheckResult:
    worst = _closed_form_gap(md.Model.QUANTUM, md.Waveform.SQUARE_WAVE)
    return CheckResult.from_measure("quantum propagator matches closed form", worst, tols.get("residual", 1e-10))


def check_classical_closed_form(tols) -> CheckResult:
    worst = _closed_form_gap(md.Model.CLASSICAL, md.Waveform.DELTA_KICKS)
    return CheckResult.from_measure("classical propagator matches closed form", worst, tols.get("residual", 1e-10))


def check_stroboscopic_law(tols) -> CheckResult:
    rng = _rng(41)
    worst = 0.0
    for model in (md.Model.QUANTUM, md.Model.CLASSICAL):
        wf = md.Waveform.SQUARE_WAVE if model is md.Model.QUANTUM else md.Waveform.DELTA_KICKS
        p = md.DimerParams(J=1.0, gamma=0.5, T=1.0, waveform=wf)
        gf = fl.propagator(md.build_schedule(model, p)).gf
        for eop in fl.floquet_eigen_operators(gf):
            psi = md.PLUS_X + 0.2 * random_complex(rng, 2)
            v = np.vdot(psi, eop.op @ psi)
            ref = v
            for m in range(1, 51):
                psi = gf @ psi
                ref = ref * eop.rate
                got = np.vdot(psi, eop.op @ psi)
                worst = max(worst, abs(got - ref) / max(abs(ref), abs(v), 1e-30))
    return CheckResult.from_measure("stroboscopic exponential law", worst, tols.get("residual", 1e-6), "rel error")


def resolve_classical_eta2_form() -> tuple[str, float, float]:
    """Decide which printed form of the second classical invariant is right.

    The source gives two inconsistent sign patterns for
    -i(eta1 gf - gf^dag eta1)/2 with eta1 = sigma_y; this computes the
    recursion numerically and reports the residual of each candidate.
    """
    p = md.DimerParams(J=1.0, gamma=0.5, T=1.0, waveform=md.Waveform.DELTA_KICKS)
    c = md.analytic_floquet_coeffs(md.Model.CLASSICAL, p)
    gf = c.matrix()
    eta2 = -0.5j * (md.SIGMA_Y @ gf - gf.conj().T @ md.SIGMA_Y)
    form_a = c.gy * md.ID2 + c.gz * md.SIGMA_X - c.gx * md.SIGMA_Z
    form_b = c.gy * md.ID2 + c.gx * md.SIGMA_Z - c.gz * md.SIGMA_X
    res_a = hs_norm(eta2 - form_a)
    res_b = hs_norm(eta2 - form_b)
    winner = "gy*1 + gz*sx - gx*sz" if res_a < res_b else "gy*1 + gx*sz - gz*sx"
    return winner, res_a, res_b


def check_classical_eta2_form(tols) -> CheckResult:
    winner, res_a, res_b = resolve_classical_eta2_form()
    exactly_one = (res_a <= 1e-10) != (res_b <= 1e-10)
    return CheckResult(
        "classical second invariant form resolved",
        exactly_one,
        f"matching form: {winner} (residuals {res_a:.3e} / {res_b:.3e})",
    )


def check_time_shift(tols) -> CheckResult:
    p = md.DimerParams(J=1.0, gamma=0.5, T=1.0, waveform=md.Waveform.SQUARE_WAVE)
    sched = md.quantum_dimer(p)
    gf = fl.compose(sched)
    worst = 0.0
    for frac in (0.25, 0.5, 0.75):
        smat, shifted = fl.time_shift(sched, frac * p.T)
        got = fl.compose(shifted)
        worst = max(worst, hs_norm(got - smat @ gf @ np.linalg.inv(smat)))
    return CheckResult.from_measure("time-shift similarity covariance", worst, tols.get("residual", 1e-9))


def check_classical_ep_contour(tols) -> CheckResult:
    worst = 0.0
    points = md.ep_contour(md.Model.CLASSICAL, np.linspace(0.6, 2.4, 5), (1e-6, 6.0), tol=1e-12)
    for root, jt in points:
        worst = max(worst, abs(root * jt - np.arctanh(np.cos(jt / 2))))
    return CheckResult.from_measure(
        "classical EP contour matches cos(JT/2)=tanh(gT)", worst, tols.get("residual", 1e-6), "gap in gT"
    )


ALL_CHECKS = [
    check_vec_round_trip,
    check_sandwich_identity,
    check_matexp_taylor,
    check_matexp_defective,
    check_spectrum_pairing,
    check_static_exponential_law,
    check_quantum_closed_form,
    check_classical_closed_form,
    check_stroboscopic_law,
    check_classical_eta2_form,
    check_time_shift,
    check_classical_ep_contour,
]


def run_all(tols: dict | None = None) -> list[CheckResult]:
    tols = tols or {}
    return [check(tols) for check in ALL_CHECKS]
