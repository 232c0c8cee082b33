import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from intertwine import floquet as fl
from intertwine import liouville as lv
from intertwine import models as md
from intertwine.linalg import hs_norm, matexp
from intertwine.models import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z


class TestDimerParams:
    def test_delta_real_branch(self):
        p = md.DimerParams(J=1.0, gamma=0.5)
        assert p.delta == pytest.approx(np.sqrt(0.75))

    def test_delta_imaginary_branch(self):
        p = md.DimerParams(J=1.0, gamma=1.5)
        assert p.delta == pytest.approx(1j * np.sqrt(1.25))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            md.DimerParams(J=-1.0)
        with pytest.raises(ValueError):
            md.DimerParams(gamma=-0.1)
        with pytest.raises(ValueError):
            md.DimerParams(T=0.0)
        with pytest.raises(ValueError):
            md.DimerParams(gamma=np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            md.DimerParams(gamma=np.array([0.5, np.nan]))


class TestBuilders:
    def test_quantum_static_eigenvalues(self):
        sched = md.quantum_dimer(md.DimerParams(J=1.0, gamma=0.5))
        h = sched.events[0].generator
        w = np.sort(np.linalg.eigvals(h).real)
        assert np.allclose(w, [-np.sqrt(0.75), np.sqrt(0.75)], atol=1e-12)

    def test_quantum_hermitian_limit(self):
        p = md.DimerParams(J=1.0, gamma=0.0, T=1.0, waveform=md.Waveform.SQUARE_WAVE)
        gf = fl.propagator(md.quantum_dimer(p)).gf
        assert hs_norm(gf - matexp(-1j * SIGMA_X)) < 1e-12

    def test_quantum_rejects_kicks(self):
        with pytest.raises(ValueError):
            md.quantum_dimer(md.DimerParams(waveform=md.Waveform.DELTA_KICKS))

    def test_classical_rejects_square(self):
        with pytest.raises(ValueError):
            md.classical_dimer(md.DimerParams(waveform=md.Waveform.SQUARE_WAVE))

    def test_classical_hermitian_limit(self):
        p = md.DimerParams(J=1.0, gamma=0.0, T=1.0, waveform=md.Waveform.DELTA_KICKS)
        gf = fl.propagator(md.classical_dimer(p)).gf
        assert hs_norm(gf - matexp(-1j * SIGMA_Y)) < 1e-12

    def test_classical_propagator_is_real(self):
        p = md.DimerParams(J=1.0, gamma=0.5, T=1.0, waveform=md.Waveform.DELTA_KICKS)
        gf = fl.propagator(md.classical_dimer(p)).gf
        assert np.max(np.abs(gf.imag)) < 1e-12


class TestAnalyticEtaPm:
    def test_quantum_values(self):
        p = md.DimerParams(J=1.0, gamma=0.5)
        ep, em, rp, rm = md.analytic_eta_pm(md.Model.QUANTUM, p)
        d = np.sqrt(0.75)
        assert np.allclose(
            ep, [[-0.5 + d * 1j, d - 0.5j], [-d + 0.5j, 1.0]], atol=1e-12
        )
        assert rp == pytest.approx(2j * d)
        assert rm == pytest.approx(-2j * d)

    def test_classical_values(self):
        p = md.DimerParams(J=1.0, gamma=0.5)
        ep, _, _, _ = md.analytic_eta_pm(md.Model.CLASSICAL, p)
        d = np.sqrt(0.75)
        a = 0.5 + 1j * d
        assert np.allclose(ep, [[a * a, -a], [-a, 1.0]], atol=1e-12)

    def test_broken_phase_hermitian(self):
        p = md.DimerParams(J=1.0, gamma=1.5)
        for model in md.Model:
            ep, em, _, _ = md.analytic_eta_pm(model, p)
            assert hs_norm(ep - ep.conj().T) < 1e-12
            assert hs_norm(em - em.conj().T) < 1e-12

    def test_satisfy_rate_equation(self):
        p = md.DimerParams(J=1.0, gamma=0.5)
        h = md.quantum_hamiltonian(1.0, 0.5)
        ep, em, rp, rm = md.analytic_eta_pm(md.Model.QUANTUM, p)
        for eta, rate in ((ep, rp), (em, rm)):
            assert hs_norm(lv.apply_liouvillian(h, eta) - rate * eta) < 1e-12

    def test_rejects_ep(self):
        with pytest.raises(ValueError):
            md.analytic_eta_pm(md.Model.QUANTUM, md.DimerParams(J=1.0, gamma=1.0))


class TestAnalyticCoeffs:
    def test_quantum_reference_values(self):
        p = md.DimerParams(J=1.0, gamma=0.5, T=1.0, waveform=md.Waveform.SQUARE_WAVE)
        c = md.analytic_floquet_coeffs(md.Model.QUANTUM, p)
        assert c.g0 == pytest.approx(0.5306, abs=2e-4)
        assert c.gx == pytest.approx(-0.8796, abs=2e-4)
        assert c.gy == pytest.approx(-0.2347, abs=2e-4)

    def test_classical_reference_values(self):
        p = md.DimerParams(J=1.0, gamma=0.5, T=1.0, waveform=md.Waveform.DELTA_KICKS)
        c = md.analytic_floquet_coeffs(md.Model.CLASSICAL, p)
        assert c.g0 == pytest.approx(0.4156, abs=2e-4)
        assert c.gx == pytest.approx(-0.4945, abs=2e-4)
        assert c.gy == pytest.approx(-1.0700, abs=2e-4)
        assert c.gz == pytest.approx(-0.2701, abs=2e-4)

    def test_quantum_kappa_unit_modulus(self):
        p = md.DimerParams(J=1.0, gamma=0.5, T=1.0, waveform=md.Waveform.SQUARE_WAVE)
        k1, k2 = md.analytic_floquet_coeffs(md.Model.QUANTUM, p).kappa()
        assert k1 == pytest.approx(0.5306 + 0.8477j, abs=2e-4)
        assert abs(k1) == pytest.approx(1.0, abs=1e-12)
        assert abs(k2) == pytest.approx(1.0, abs=1e-12)

    def test_matches_composed_propagator_across_grid(self):
        # includes the broken region and the EP line gamma = J
        for gj in list(np.linspace(0.0, 2.0, 11)) + [1.0]:
            for jt in (0.3, 1.0, 2.2, 3.9):
                p = md.DimerParams(J=1.0, gamma=gj, T=jt, waveform=md.Waveform.SQUARE_WAVE)
                gf = fl.propagator(md.quantum_dimer(p)).gf
                err = hs_norm(gf - md.analytic_floquet_coeffs(md.Model.QUANTUM, p).matrix())
                assert err < 1e-10 * max(1.0, hs_norm(gf))
                p = md.DimerParams(J=1.0, gamma=gj, T=jt, waveform=md.Waveform.DELTA_KICKS)
                gf = fl.propagator(md.classical_dimer(p)).gf
                err = hs_norm(gf - md.analytic_floquet_coeffs(md.Model.CLASSICAL, p).matrix())
                assert err < 1e-10 * max(1.0, hs_norm(gf))

    def test_ep_line_series_values(self):
        # l'Hopital-safe branch at delta = 0
        p = md.DimerParams(J=1.0, gamma=1.0, T=1.0, waveform=md.Waveform.SQUARE_WAVE)
        c = md.analytic_floquet_coeffs(md.Model.QUANTUM, p)
        assert c.g0 == pytest.approx(1.0 - 0.5, abs=1e-12)  # 1 - (gamma T)^2/2
        assert c.gx == pytest.approx(-1.0, abs=1e-12)
        assert c.gy == pytest.approx(-0.5, abs=1e-12)


class TestEPContour:
    def test_classical_matches_tanh_formula(self):
        jt = 1.0
        [(gj, _)] = md.ep_contour(md.Model.CLASSICAL, [jt])
        assert gj * jt == pytest.approx(np.arctanh(np.cos(jt / 2)), abs=1e-8)

    def test_classical_analytic_helper(self):
        assert md.classical_ep_gamma(1.0) == pytest.approx(np.arctanh(np.cos(0.5)), abs=1e-12)

    def test_static_quantum_threshold(self):
        # the static analogue: the PT transition sits at gamma = J
        assert (
            lv.classify_pt_phase(md.quantum_hamiltonian(1.0, 0.999))
            is lv.PTPhase.SYMMETRIC
        )
        assert (
            lv.classify_pt_phase(md.quantum_hamiltonian(1.0, 1.001))
            is lv.PTPhase.BROKEN
        )

    def test_classifier_flips_across_contour(self):
        jt = 1.0
        [(gj, _)] = md.ep_contour(md.Model.CLASSICAL, [jt])
        for eps, want in ((-1e-3, lv.PTPhase.SYMMETRIC), (1e-3, lv.PTPhase.BROKEN)):
            p = md.DimerParams(J=1.0, gamma=gj + eps, T=jt, waveform=md.Waveform.DELTA_KICKS)
            assert fl.propagator(md.classical_dimer(p)).phase is want

    def test_quantum_contour_matches_gx_gy_crossing(self):
        # the quantum model has no EP at small JT; JT = 2 sits inside a tongue
        jt = 2.0
        [(gj, _)] = md.ep_contour(md.Model.QUANTUM, [jt])
        p = md.DimerParams(J=1.0, gamma=gj, T=jt, waveform=md.Waveform.SQUARE_WAVE)
        c = md.analytic_floquet_coeffs(md.Model.QUANTUM, p)
        assert abs(abs(c.gx) - abs(c.gy)) < 1e-8

    def test_numerical_and_analytic_discriminants_agree(self):
        jt = 1.3
        [(got, _)] = md.ep_contour(md.Model.CLASSICAL, [jt])

        def analytic(gj):
            p = md.DimerParams(gamma=gj, T=jt, waveform=md.Waveform.DELTA_KICKS)
            return md.analytic_discriminant(md.Model.CLASSICAL, p)

        assert got == pytest.approx(brentq(analytic, 1e-6, 4.0, xtol=1e-10), abs=1e-8)

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError):
            md.ep_contour(md.Model.CLASSICAL, [1.0], gamma_bracket=(0.01, 0.02))

    def test_zero_at_lower_bracket_end_is_the_root(self, monkeypatch):
        # a stand-in discriminant that is exactly 0 at gamma/J = 0.5
        monkeypatch.setattr(md, "numerical_discriminant", lambda model, p: p.gamma - 0.5 + 0.0 * p.T)
        assert md.ep_contour(md.Model.QUANTUM, [1.0, 2.0], (0.5, 4.0)) == [(0.5, 1.0), (0.5, 2.0)]

    def test_batched_discriminant_equals_scalar_calls(self):
        g = np.array([[0.0, 0.3, 0.9], [1.2, 1.6, 2.4]])
        t = np.array([[0.5], [2.0]])
        for model, wf in ((md.Model.QUANTUM, md.Waveform.SQUARE_WAVE),
                          (md.Model.CLASSICAL, md.Waveform.DELTA_KICKS)):
            got = md.numerical_discriminant(model, md.DimerParams(gamma=g, T=t, waveform=wf))
            for i, k in np.ndindex(g.shape):
                p = md.DimerParams(gamma=g[i, k], T=t[i, 0], waveform=wf)
                assert got[i, k] == md.numerical_discriminant(model, p)

    @pytest.mark.parametrize("model", list(md.Model))
    def test_ep_indicator_has_the_bits_of_the_dimer_params_it_replaces(self, model):
        g = np.linspace(0.0, 2.4, 25)[None, :]
        t = np.linspace(0.3, 3.3, 13)[:, None]
        wf = model.periodic_waveform
        cases = [
            # ep_contour's construction: J = 1 by DimerParams' default
            (1.0, md.DimerParams(gamma=g, T=t, waveform=wf)),
            (None, md.DimerParams(gamma=g, T=t, waveform=wf)),
            # scan's at --J 2
            (2.0, md.DimerParams(J=2.0, gamma=g * 2.0, T=t / 2.0, waveform=wf)),
        ]
        for J, p in cases:
            got = md.ep_indicator(model, wf, J, g, t)
            assert got.tobytes() == md.numerical_discriminant(model, p).tobytes(), J
            for i, k in [(0, 0), (5, 7), (12, 24)]:
                scalar = md.ep_indicator(model, wf, J, g[0, k], t[i, 0])
                assert np.float64(scalar).tobytes() == got[i, k].tobytes()
        # the static drive, at any J and JT
        for J in (1.0, 2.0):
            got = np.broadcast_to(md.ep_indicator(model, md.Waveform.STATIC, J, g, t), (13, 25))
            assert got.tobytes() == np.broadcast_to(1.0 - g * g, (13, 25)).tobytes()

    def test_analytic_ep_gamma(self):
        for model in md.Model:
            assert md.analytic_ep_gamma(model, md.Waveform.STATIC, 1.3) == 1.0
        assert md.analytic_ep_gamma(md.Model.CLASSICAL, md.Waveform.DELTA_KICKS, 1.3) == md.classical_ep_gamma(1.3)
        # cos(JT/2) <= 0: the kicked dimer has no EP at this JT
        assert md.analytic_ep_gamma(md.Model.CLASSICAL, md.Waveform.DELTA_KICKS, 4.0) is None
        assert md.analytic_ep_gamma(md.Model.QUANTUM, md.Waveform.SQUARE_WAVE, 1.3) is None

    def test_contour_roots_skip_failed_and_unchanged_intervals(self):
        gammas = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])

        def disc(gj, jt):
            return np.cos(gj * jt)

        values = np.cos(gammas)[None, :]
        roots = md.contour_roots(disc, gammas, values, [1.0], 1e-12)
        assert [jt for _, jt in roots] == [1.0, 1.0]
        assert [r for r, _ in roots] == pytest.approx([np.pi / 2, 3 * np.pi / 2], abs=1e-10)
        values[0, 5] = np.nan
        roots = md.contour_roots(disc, gammas, values, [1.0], 1e-12)
        assert [r for r, _ in roots] == pytest.approx([np.pi / 2])


def smooth(params, x):
    """tanh(a x + b) + c sin(d x) + e, one parameter row per entry of x."""
    a, b, c, d, e = np.asarray(params).T
    return np.tanh(a * x + b) + c * np.sin(d * x) + e


def brentq_or_nan(f, lo, hi, xtol):
    """scipy's brentq, NaN where it finds no bracket or meets a NaN (ValueError)."""
    try:
        return brentq(f, lo, hi, xtol=xtol)
    except ValueError:
        return np.nan


class TestBrentRoots:
    """``brent_roots`` against one ``scipy.optimize.brentq`` call per bracket, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        params=st.lists(
            st.tuples(*(st.floats(-3.0, 3.0) for _ in range(5))), min_size=1, max_size=4),
        xtol=st.sampled_from([1e-6, 1e-10, 1e-12]),
    )
    def test_matches_brentq_bit_for_bit(self, params, xtol):
        xs = np.linspace(-4.0, 4.0, 33)
        lanes_of = []
        for j, row in enumerate(params):
            v = smooth([row], xs)
            lanes_of += [(j, k) for k in np.flatnonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))]
        assume(lanes_of)
        fn, ks = (np.array(x) for x in zip(*lanes_of))
        rows = np.array(params)[fn]
        lo, hi = xs[ks], xs[ks + 1]
        got = md.brent_roots(lambda x, lanes: smooth(rows[lanes], x), lo, hi,
                             smooth(rows, lo), smooth(rows, hi), xtol)
        want = [brentq_or_nan(lambda x, r=r: smooth([r], x)[0], a, b, xtol)
                for r, a, b in zip(rows, lo, hi)]
        np.testing.assert_array_equal(got, want)
        assert not np.isnan(got).any()

    def test_ends_decide_without_evaluation(self):
        def f(x, lanes):
            raise AssertionError("an end value was evaluated again")

        lo = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
        hi = np.array([3.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        flo = np.array([0.0, -1.0, 1.0, np.nan, -1.0, 0.0])
        fhi = np.array([2.0, 0.0, 2.0, 1.0, np.nan, np.nan])
        got = md.brent_roots(f, lo, hi, flo, fhi, 1e-12)
        # zero at the left end, zero at the right end, same sign, NaN ends
        np.testing.assert_array_equal(got, [1.0, 1.0, np.nan, np.nan, np.nan, np.nan])
        # brentq agrees where its end values are these
        assert brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert brentq(lambda x: x - 1.0, -1.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            brentq(lambda x: x + 1.0, 0.0, 1.0)

    def test_nan_mid_iteration_ends_only_its_lane(self):
        # lane 0 first steps to x = 0.3, where f is NaN; lane 1 is clean
        def g(x, shift):
            return np.where((x > 0.2) & (x < 0.4) & (shift == 0.3), np.nan, x - shift)

        shifts = np.array([0.3, 0.7])
        lo, hi = np.zeros(2), np.full(2, 2.0)
        got = md.brent_roots(lambda x, lanes: g(x, shifts[lanes]), lo, hi,
                             g(lo, shifts), g(hi, shifts), 1e-12)
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: float(g(x, 0.3)), 0.0, 2.0, xtol=1e-12)
        assert np.isnan(got[0])
        assert got[1] == brentq(lambda x: float(g(x, 0.7)), 0.0, 2.0, xtol=1e-12)

    def test_lanes_converge_at_different_iterations(self):
        # a root the first secant step hits, and roots of ever more curved functions
        curvature = np.array([0.0, 1.0, 40.0])
        calls = []

        def f(x, lanes):
            assert np.all(np.diff(lanes) > 0)  # each active lane once, in order
            calls.append(lanes.size)
            return (x - 0.3) * (1 + curvature[lanes] * x * x)

        lo, hi = np.zeros(3), np.ones(3)
        got = md.brent_roots(f, lo, hi, lo - 0.3, (hi - 0.3) * (1 + curvature), 1e-12)
        assert calls == sorted(calls, reverse=True) and len(set(calls)) == 3
        for lane, c in enumerate(curvature):
            assert got[lane] == brentq(lambda x: (x - 0.3) * (1 + c * x * x), 0.0, 1.0, xtol=1e-12)

    def test_no_convergence_raises_like_brentq(self):
        # bisection towards a root at 0 with xtol 1e-300 needs ~1000 steps
        with pytest.raises(RuntimeError):
            brentq(np.cbrt, -1.0, 2.0, xtol=1e-300)
        with pytest.raises(RuntimeError):
            md.brent_roots(lambda x, lanes: np.cbrt(x), -1.0, 2.0, np.cbrt(-1.0), np.cbrt(2.0), 1e-300)


class TestEvaluationCount:
    def test_contour_roots_evaluates_each_new_point_once(self):
        gammas = np.linspace(0.0, 3.0, 7)
        jts = np.array([0.5, 1.0, 2.0])
        floor = 1e-9

        def disc(gj, jt):
            return np.cos(3.0 * gj * jt) - 0.5 + 0.7 * jt

        calls = []

        def counting(gj, jt):
            assert gj.shape == jt.shape
            calls.append(set(zip(gj.tolist(), jt.tolist())))
            assert len(calls[-1]) == gj.size  # no lane twice in one call
            return disc(gj, jt)

        values = disc(gammas[None, :], jts[:, None])
        roots = md.contour_roots(counting, gammas, values, jts, 1e-10, floor)
        known = {(g, t) for g in gammas.tolist() for t in jts.tolist()}
        assert all(not (c & known) for c in calls)
        # the rows crossing in their first interval start at the floor, all in one call
        first = {t for t in jts.tolist() if disc(np.float64(0.0), t) * disc(gammas[1], t) <= 0}
        assert first and calls[0] == {(floor, t) for t in first}
        # the same roots as one brentq call per interval
        want = []
        for t in jts.tolist():
            row = disc(gammas, t)
            for k in range(gammas.size - 1):
                if row[k] != 0 and row[k] * row[k + 1] <= 0:
                    f = lambda g, t=t: float(disc(np.float64(g), t))  # noqa: E731
                    want.append((brentq(f, max(gammas[k], floor), gammas[k + 1], xtol=1e-10), t))
        assert roots == want

    def test_ep_contour_makes_few_discriminant_calls(self, monkeypatch):
        calls = []
        numerical = md.numerical_discriminant

        def counting(model, p):
            calls.append(np.size(p.gamma))
            return numerical(model, p)

        monkeypatch.setattr(md, "numerical_discriminant", counting)
        jts = np.linspace(0.6, 2.4, 5)
        got = md.ep_contour(md.Model.CLASSICAL, jts, (1e-6, 6.0), tol=1e-12)
        assert len(calls) <= 20
        assert calls[0] == 2 * jts.size  # every bracket end in one call
        # the same bits as one brentq call per JT on the scalar discriminant
        for (root, jt), want_jt in zip(got, jts.tolist()):
            def f(gj, jt=want_jt):
                p = md.DimerParams(gamma=gj, T=jt, waveform=md.Waveform.DELTA_KICKS)
                return numerical(md.Model.CLASSICAL, p)

            assert (root, jt) == (brentq(f, 1e-6, 6.0, xtol=1e-12), want_jt)


class TestBasisRotation:
    def test_models_are_rotations_of_each_other(self):
        for gamma in (0.0, 0.5, 1.5):
            assert md.basis_rotation_check(md.DimerParams(J=1.0, gamma=gamma)) < 1e-14

    def test_rotated_intertwiner_transfers(self):
        r = matexp(-1j * np.pi * SIGMA_Z / 4)
        rinv = matexp(+1j * np.pi * SIGMA_Z / 4)
        h2 = md.classical_hamiltonian(1.0, 0.5)
        # sigma_x intertwines H1; the rotation carries it to an intertwiner of H2
        eta = rinv.conj().T @ SIGMA_X @ rinv
        assert lv.verify_intertwining(eta, h2) < 1e-12

    def test_identity_rotation_is_exact(self):
        h1 = md.quantum_hamiltonian(1.0, 0.5)
        assert hs_norm(ID2 @ h1 @ ID2 - h1) == 0.0
