"""End-to-end acceptance checks, one numbered test per criterion.

Each test prints a single pass line once its assertions hold, so the
suite output doubles as a checklist for the two dimer case studies and
the supporting kernel/property guarantees.
"""

import numpy as np
import pytest

from intertwine import floquet as fl
from intertwine import liouville as lv
from intertwine import models as md
from intertwine import selfcheck
from intertwine.linalg import hs_norm, matexp, rank
from intertwine.models import ID2, PLUS_X, SIGMA_X, SIGMA_Y, SIGMA_Z
from intertwine.vectorize import unvec, vec

from conftest import floquet_conserved, random_complex, random_pt_symmetric
from test_liouville import match_spectra, subspace_distance


def _passed(num: int, detail: str) -> None:
    print(f"[PASS] acceptance {num:02d}: {detail}")


def _quantum_fig_params():
    return md.DimerParams(J=1.0, gamma=0.5, T=1.0, waveform=md.Waveform.SQUARE_WAVE)


def _classical_fig_params():
    return md.DimerParams(J=1.0, gamma=0.5, T=1.0, waveform=md.Waveform.DELTA_KICKS)


def _transient_pair(ops):
    """The two non-unit-multiplier eigen-operators, plus-branch first."""
    transient = [e for e in ops if abs(e.rate - 1.0) > 1e-8]
    assert len(transient) == 2
    plus = max(transient, key=lambda e: e.rate.imag)
    minus = min(transient, key=lambda e: e.rate.imag)
    return plus, minus


def test_01_quantum_dimer_stroboscopic_traces():
    p = _quantum_fig_params()
    sched = md.quantum_dimer(p)
    fp = fl.propagator(sched)
    ops = fl.floquet_eigen_operators(fp.gf)

    lams = np.array([e.rate for e in ops])
    want = [1.0, 1.0, -0.44 + 0.9j, -0.44 - 0.9j]
    assert match_spectra(lams, want) < 0.01

    plus, minus = _transient_pair(ops)
    lam3 = plus.rate

    c = md.analytic_floquet_coeffs(md.Model.QUANTUM, p)
    eta2 = c.gx * ID2 + c.gy * SIGMA_Z
    series = fl.evolve_trace(
        sched,
        PLUS_X,
        [SIGMA_X, eta2, plus.op, minus.op],
        steps_per_period=20,
        periods=50,
    )
    assert all(series.normalized)
    strobe = series.stroboscopic_indices

    assert np.max(np.abs(series.values[0] - 1.0)) < 1e-8
    assert np.max(np.abs(series.values[1, strobe] - 1.0)) < 1e-8
    ms = np.arange(51)
    assert np.max(np.abs(series.values[2, strobe].real - (lam3 ** ms).real)) < 1e-6
    _passed(
        1,
        "quantum dimer gamma=0.5J, JT=1: multipliers {1, 1, -0.44+0.9i, c.c.}, "
        "eta1 constant, eta2 stroboscopically 1, Re eta_plus follows Re lambda3^m",
    )


def test_02_classical_dimer_traces():
    p = _classical_fig_params()
    sched = md.classical_dimer(p)
    fp = fl.propagator(sched)
    ops = fl.floquet_eigen_operators(fp.gf)

    plus, minus = _transient_pair(ops)
    assert abs(plus.rate - (-0.65 + 0.756j)) < 0.005

    psi0 = np.array([1.0, 0.3])  # arbitrary real state
    series = fl.evolve_trace(
        sched,
        psi0,
        [SIGMA_Y, plus.op, minus.op],
        steps_per_period=20,
        periods=50,
    )
    # real propagator, real state: the sigma_y expectation vanishes identically
    assert not series.normalized[0]
    assert np.max(np.abs(series.values[0])) < 1e-10

    assert series.normalized[1] and series.normalized[2]
    assert fp.phase is lv.PTPhase.SYMMETRIC
    strobe = series.stroboscopic_indices
    assert np.max(
        np.abs(series.values[2, strobe].imag + series.values[1, strobe].imag)
    ) < 1e-8
    _passed(
        2,
        "classical dimer gamma=0.5J, JT=1: lambda3 = -0.65+0.756i, sigma_y trace "
        "vanishes for real psi0, Im eta_minus = -Im eta_plus stroboscopically",
    )


def test_03_closed_form_propagators_on_grid():
    worst = 0.0
    for gj in np.linspace(0.0, 2.0, 20):
        for jt in np.linspace(0.2, 4.0, 20):
            for model, waveform in (
                (md.Model.QUANTUM, md.Waveform.SQUARE_WAVE),
                (md.Model.CLASSICAL, md.Waveform.DELTA_KICKS),
            ):
                p = md.DimerParams(J=1.0, gamma=gj, T=jt, waveform=waveform)
                gf = fl.propagator(md.build_schedule(model, p)).gf
                err = hs_norm(gf - md.analytic_floquet_coeffs(model, p).matrix())
                worst = max(worst, err / max(1.0, hs_norm(gf)))
    assert worst < 1e-10
    _passed(3, f"closed-form propagators match composition on 20x20 grid (worst {worst:.2e})")


def test_04_spectrum_pairing_random_pt_symmetric(rng):
    checked = 0
    while checked < 100:
        n = (2, 3, 4)[checked % 3]
        h = random_pt_symmetric(rng, n)
        predicted = lv.predicted_rates(h)
        nonzero = [abs(r) for r in predicted if abs(r) > 1e-12]
        if nonzero and min(nonzero) < 1e-6:
            continue  # resample away from accidental degeneracies
        lmat = lv.build_liouvillian(h)
        assert match_spectra(np.linalg.eigvals(lmat), predicted) < 1e-7
        assert len(lv.eigen_operators(h).conserved) == n
        checked += 1
    _passed(4, "superoperator spectra pair as -i(e_p - conj(e_q)) with n zero modes, 100 samples")


def test_05_exponential_laws(rng):
    # static: exact exponential decay/growth of every eigen-operator trace
    for model_h in (md.quantum_hamiltonian, md.classical_hamiltonian):
        for gamma in (0.3, 0.5, 1.5):
            h = model_h(1.0, gamma)
            res = lv.eigen_operators(h)
            eops = res.conserved + res.transient
            assert len(eops) == 4
            for _ in range(20):
                psi0 = random_complex(rng, 2)
                for t in (0.0, 0.4, 1.1, 2.0):
                    psi = matexp(-1j * h * t) @ psi0
                    for e in eops:
                        v0 = np.vdot(psi0, e.op @ psi0)
                        got = np.vdot(psi, e.op @ psi)
                        want = np.exp(e.rate * t) * v0
                        assert abs(got - want) <= 1e-7 * max(abs(want), abs(v0), 1e-30)

    # stroboscopic: multiplier powers over 50 periods
    for sched in (md.quantum_dimer(_quantum_fig_params()),
                  md.classical_dimer(_classical_fig_params())):
        fp = fl.propagator(sched)
        ops = fl.floquet_eigen_operators(fp.gf)
        psi0 = random_complex(rng, 2)
        psi = psi0.copy()
        for m in range(51):
            for e in ops:
                v0 = np.vdot(psi0, e.op @ psi0)
                got = np.vdot(psi, e.op @ psi)
                want = e.rate ** m * v0
                assert abs(got - want) <= 1e-6 * max(abs(want), abs(v0))
            psi = fp.gf @ psi
    _passed(5, "exponential law holds statically (1e-7) and stroboscopically to m=50 (1e-6)")


def test_06_static_intertwiner_identities():
    for gamma in (0.3, 0.5, 1.5):
        q_ops = lv.eigen_operators(md.quantum_hamiltonian(1.0, gamma)).conserved
        assert subspace_distance(
            [e.op for e in q_ops], [SIGMA_X, ID2 + gamma * SIGMA_Y]
        ) < 1e-8
        c_ops = lv.eigen_operators(md.classical_hamiltonian(1.0, gamma)).conserved
        assert subspace_distance(
            [e.op for e in c_ops], [SIGMA_Y, ID2 - gamma * SIGMA_X]
        ) < 1e-8
        for model_h in (md.quantum_hamiltonian, md.classical_hamiltonian):
            res = lv.eigen_operators(model_h(1.0, gamma))
            for t in res.transient:
                assert rank(t.op) == 1
                # Hermiticity flips exactly at the transition gamma = J
                assert t.hermitian == (gamma > 1.0)
    _passed(6, "conserved spans, rank-1 transients, Hermiticity flip across gamma=J")


def test_07_ep_contours():
    jts = np.linspace(0.8, 2.9, 10)
    points = md.ep_contour(md.Model.CLASSICAL, jts, use_numerical=True)
    assert len(points) == 10
    for gj, jt in points:
        assert abs(gj * jt - np.arctanh(np.cos(jt / 2))) < 1e-6

    # quantum tongue: the boundary is where the two coefficient magnitudes cross
    jt = 2.0
    [(gj, _)] = md.ep_contour(md.Model.QUANTUM, [jt])
    coeffs = md.analytic_floquet_coeffs(
        md.Model.QUANTUM,
        md.DimerParams(J=1.0, gamma=gj, T=jt, waveform=md.Waveform.SQUARE_WAVE),
    )
    assert abs(abs(coeffs.gx) - abs(coeffs.gy)) < 1e-8

    def disc(g):
        p = md.DimerParams(J=1.0, gamma=g, T=jt, waveform=md.Waveform.SQUARE_WAVE)
        return md.analytic_discriminant(md.Model.QUANTUM, p)

    assert disc(gj - 1e-3) * disc(gj + 1e-3) < 0
    _passed(7, "classical EP roots match cos(JT/2)=tanh(gammaT) at 10 JT values; "
               "quantum boundary sits at the coefficient-magnitude crossing")


def test_08_time_shift_covariance():
    sched = md.quantum_dimer(_quantum_fig_params())
    gf = fl.propagator(sched).gf
    etas = [e.op for e in floquet_conserved(gf)]
    for frac in (0.25, 0.5, 0.75):
        t0 = frac * sched.period
        smat, shifted = fl.time_shift(sched, t0)
        gf_shift = fl.propagator(shifted).gf
        sinv = np.linalg.inv(smat)
        assert hs_norm(gf_shift - smat @ gf @ sinv) < 1e-9
        for eta in etas:
            eta_shift = sinv.conj().T @ eta @ sinv
            resid = hs_norm(gf_shift.conj().T @ eta_shift @ gf_shift - eta_shift)
            assert resid < 1e-8
    _passed(8, "time-origin shifts conjugate the propagator and transport invariants")


def test_09_classical_second_invariant_resolution():
    winner, res_a, res_b = selfcheck.resolve_classical_eta2_form()
    assert (res_a <= 1e-10) != (res_b <= 1e-10)
    assert winner == "gy*1 + gz*sx - gx*sz"
    _passed(9, f"exactly one printed form of the classical second invariant matches "
               f"the recursion: {winner} (residuals {res_a:.1e} vs {res_b:.1e})")


def test_10_kernel_checks(rng):
    # matexp against a truncated Taylor series at unit norm
    for _ in range(5):
        a = random_complex(rng, 4, 4)
        a /= np.linalg.norm(a)
        term = np.eye(4, dtype=complex)
        total = term.copy()
        for k in range(1, 31):
            term = term @ a / k
            total += term
        assert np.linalg.norm(matexp(a) - total) < 1e-10

    # defective point gamma = J: the generator squares to zero, so the
    # exponential terminates after the linear term
    h_ep = md.quantum_hamiltonian(1.0, 1.0)
    assert np.linalg.norm(h_ep @ h_ep) < 1e-14
    for t in (0.3, 1.0, 2.7):
        assert np.linalg.norm(matexp(-1j * t * h_ep) - (np.eye(2) - 1j * t * h_ep)) < 1e-12

    # vec round trip is bit-exact
    m = random_complex(rng, 6, 6)
    assert np.array_equal(unvec(vec(m)), m)

    # Kronecker sandwich identity on random triples
    for _ in range(10):
        a, eta, b = (random_complex(rng, 3, 3) for _ in range(3))
        lhs = np.kron(b.T, a) @ vec(eta)
        assert np.linalg.norm(lhs - vec(a @ eta @ b)) < 1e-12
    _passed(10, "matexp (Taylor + defective point), vec round trip, sandwich identity")
