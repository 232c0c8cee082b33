import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intertwine import floquet as fl
from intertwine import liouville as lv
from intertwine.linalg import NumericalError, hs_norm, matexp
from intertwine.liouville import PTPhase
from intertwine.models import (
    ID2,
    PLUS_X,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimerParams,
    Model,
    Waveform,
    analytic_floquet_coeffs,
    build_schedule,
    classical_dimer,
    classical_ep_gamma,
    quantum_dimer,
    quantum_hamiltonian,
)
from intertwine.selfcheck import match_spectra
from intertwine.vectorize import vec

from conftest import floquet_conserved, random_complex, random_pt_symmetric


def fig1_params():
    return DimerParams(J=1.0, gamma=0.5, T=1.0, waveform=Waveform.SQUARE_WAVE)


def fig2_params():
    return DimerParams(J=1.0, gamma=0.5, T=1.0, waveform=Waveform.DELTA_KICKS)


class TestSchedule:
    def test_period(self):
        s = quantum_dimer(fig1_params())
        assert s.period == pytest.approx(1.0)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            fl.Schedule(dim=3, events=[fl.Segment(1.0, SIGMA_X)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fl.Schedule(dim=2, events=[])

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            fl.Segment(-1.0, SIGMA_X)

    @pytest.mark.parametrize("duration", [np.nan, np.inf, [1.0, np.nan]])
    def test_rejects_non_finite_duration(self, duration):
        with pytest.raises(ValueError):
            fl.Segment(duration, SIGMA_X)


class TestPropagator:
    def test_quantum_closed_form_coefficients(self):
        fp = fl.propagator(quantum_dimer(fig1_params()))
        want = analytic_floquet_coeffs(Model.QUANTUM, fig1_params())
        assert want.g0 == pytest.approx(0.5306, abs=2e-4)
        assert want.gx == pytest.approx(-0.8796, abs=2e-4)
        assert want.gy == pytest.approx(-0.2347, abs=2e-4)
        assert hs_norm(fp.gf - want.matrix()) < 1e-10

    def test_hermitian_limit(self):
        p = DimerParams(J=1.0, gamma=1e-13, T=1.0, waveform=Waveform.SQUARE_WAVE)
        fp = fl.propagator(quantum_dimer(p))
        assert hs_norm(fp.gf - matexp(-1j * SIGMA_X)) < 1e-10

    def test_short_period_limit(self):
        p = DimerParams(J=1.0, gamma=0.5, T=1e-9, waveform=Waveform.SQUARE_WAVE)
        fp = fl.propagator(quantum_dimer(p))
        assert hs_norm(fp.gf - ID2) < 1e-8

    def test_classical_kick_product(self):
        p = fig2_params()
        g = p.gamma * p.T
        want = (
            matexp(g * SIGMA_Z)
            @ matexp(-1j * p.T * SIGMA_Y / 2)
            @ matexp(-g * SIGMA_Z)
            @ matexp(-1j * p.T * SIGMA_Y / 2)
        )
        fp = fl.propagator(classical_dimer(p))
        assert hs_norm(fp.gf - want) < 1e-12

    def test_unit_determinant(self):
        for sched in (quantum_dimer(fig1_params()), classical_dimer(fig2_params())):
            fp = fl.propagator(sched)
            assert abs(abs(np.linalg.det(fp.gf)) - 1.0) < 1e-10

    def test_phase_symmetric(self):
        assert fl.propagator(quantum_dimer(fig1_params())).phase is PTPhase.SYMMETRIC

    def test_phase_broken(self):
        p = DimerParams(J=1.0, gamma=1.6, T=2.0, waveform=Waveform.SQUARE_WAVE)
        assert fl.propagator(quantum_dimer(p)).phase is PTPhase.BROKEN

    def test_ep_termination_at_delta_zero(self):
        # at gamma = J both half-period generators are nilpotent, so the
        # exact propagator is its own second-order Taylor polynomial in T
        T = 1.0
        p = DimerParams(J=1.0, gamma=1.0, T=T, waveform=Waveform.SQUARE_WAVE)
        fp = fl.propagator(quantum_dimer(p))
        hp = quantum_hamiltonian(1.0, 1.0, +1.0)
        hm = quantum_hamiltonian(1.0, 1.0, -1.0)
        poly = (ID2 - 1j * hm * T / 2) @ (ID2 - 1j * hp * T / 2)
        assert hs_norm(fp.gf - poly) < 1e-10


def _grid_points(waveform):
    """(gamma, T) arrays of shape (JT rows, gamma columns) with J = 1.

    The static grid holds gamma = J; the kicked one also has a column on
    the contour cos(JT/2) = tanh(gamma T).
    """
    jts = np.array([0.3, 1.0, 1.7, 2.9])
    gammas = np.array([0.0, 0.4, 1.0, 1.3, 2.2])
    g, t = np.meshgrid(gammas, jts)
    if waveform is Waveform.DELTA_KICKS:
        on_contour = np.array([classical_ep_gamma(jt) for jt in jts])
        g = np.column_stack([g, on_contour])
        t = np.column_stack([t, jts])
    return g, t


class TestBatchedPropagator:
    @pytest.mark.parametrize(
        "model, waveform",
        [
            (Model.QUANTUM, Waveform.STATIC),
            (Model.QUANTUM, Waveform.SQUARE_WAVE),
            (Model.CLASSICAL, Waveform.STATIC),
            (Model.CLASSICAL, Waveform.DELTA_KICKS),
        ],
    )
    def test_stack_equals_per_point_calls(self, model, waveform):
        g, t = _grid_points(waveform)
        batched = fl.propagator(build_schedule(model, DimerParams(gamma=g, T=t, waveform=waveform)))
        assert batched.gf.shape == g.shape + (2, 2)
        assert np.all(batched.failed == "")
        phases = set()
        for idx in np.ndindex(g.shape):
            p = DimerParams(gamma=float(g[idx]), T=float(t[idx]), waveform=waveform)
            one = fl.propagator(build_schedule(model, p))
            assert np.array_equal(batched.gf[idx], one.gf)
            assert np.array_equal(batched.kappa.eigenvalues[idx], one.kappa.eigenvalues)
            assert np.array_equal(batched.kappa.eigenvectors[idx], one.kappa.eigenvectors)
            assert batched.phase[idx] is one.phase
            phases.add(one.phase)
        assert {PTPhase.SYMMETRIC, PTPhase.BROKEN} <= phases

    def test_overflowed_points_are_masked(self):
        g = np.array([0.5, 400.0])
        sched = classical_dimer(DimerParams(gamma=g, T=3.0, waveform=Waveform.DELTA_KICKS))
        fp = fl.propagator(sched)
        assert fp.failed.tolist() == ["", "one-period propagator overflowed double range"]
        assert not np.all(np.isfinite(fp.gf[1]))
        one = classical_dimer(DimerParams(gamma=400.0, T=3.0, waveform=Waveform.DELTA_KICKS))
        with pytest.raises(OverflowError):
            fl.propagator(one)

    def test_eig_failures_are_recorded_per_point(self):
        g, t = _grid_points(Waveform.SQUARE_WAVE)
        sched = build_schedule(Model.QUANTUM, DimerParams(gamma=g, T=t, waveform=Waveform.SQUARE_WAVE))
        fp = fl.propagator(sched, tol_eig=3e-16)
        failed = fp.failed != ""
        assert failed.any() and not failed.all()
        for idx in np.ndindex(g.shape):
            p = DimerParams(gamma=float(g[idx]), T=float(t[idx]), waveform=Waveform.SQUARE_WAVE)
            if failed[idx]:
                with pytest.raises(NumericalError) as exc:
                    fl.propagator(build_schedule(Model.QUANTUM, p), tol_eig=3e-16)
                assert fp.failed[idx] == str(exc.value)
                assert np.array_equal(fp.kappa.eigenvalues[idx], [1, 1])
            else:
                one = fl.propagator(build_schedule(Model.QUANTUM, p), tol_eig=3e-16)
                assert np.array_equal(fp.kappa.eigenvectors[idx], one.kappa.eigenvectors)
                assert fp.phase[idx] is one.phase

    def test_rejects_mismatched_batch_axes(self):
        with pytest.raises(ValueError):
            fl.Schedule(dim=2, events=[fl.Segment([1.0, 2.0], SIGMA_X), fl.Segment([1.0, 2.0, 3.0], SIGMA_Z)])

    def test_trace_and_time_shift_need_one_drive(self):
        sched = fl.Schedule(dim=2, events=[fl.Segment([1.0, 2.0], SIGMA_X)])
        with pytest.raises(ValueError):
            fl.evolve_trace(sched, PLUS_X, [ID2])
        with pytest.raises(ValueError):
            fl.time_shift(sched, 0.5)


class TestSuperoperator:
    def test_identity(self):
        assert np.array_equal(fl.build_floquet_superoperator(ID2), np.eye(4, dtype=complex))

    def test_sandwich_action(self, rng):
        gf = random_complex(rng, 3, 3)
        eta = random_complex(rng, 3, 3)
        got = fl.build_floquet_superoperator(gf) @ vec(eta)
        assert np.linalg.norm(got - vec(gf.conj().T @ eta @ gf)) < 1e-12

    def test_fig1_eigenvalues(self):
        gf = fl.propagator(quantum_dimer(fig1_params())).gf
        lams = np.linalg.eigvals(fl.build_floquet_superoperator(gf))
        lam3 = lams[np.argmax(lams.imag)]
        assert abs(lam3 - (-0.44 + 0.9j)) < 0.01
        assert np.sum(np.abs(lams - 1.0) < 1e-8) == 2


class TestStroboscopicConserved:
    def test_quantum_span(self):
        from test_liouville import subspace_distance

        p = fig1_params()
        gf = fl.propagator(quantum_dimer(p)).gf
        c = analytic_floquet_coeffs(Model.QUANTUM, p)
        ops = floquet_conserved(gf)
        assert len(ops) == 2
        want = [SIGMA_X, c.gx * ID2 + c.gy * SIGMA_Z]
        assert subspace_distance([e.op for e in ops], want) < 1e-8

    def test_classical_contains_sigma_y(self):
        gf = fl.propagator(classical_dimer(fig2_params())).gf
        ops = floquet_conserved(gf)
        basis = np.column_stack([vec(e.op) for e in ops])
        v = vec(SIGMA_Y) / hs_norm(SIGMA_Y)
        proj = basis @ (basis.conj().T @ v)
        assert np.linalg.norm(proj - v) < 1e-8

    def test_unitary_conserves_identity(self):
        gf = matexp(-1j * 0.7 * SIGMA_X)
        ops = floquet_conserved(gf)
        basis = np.column_stack([vec(e.op) for e in ops])
        v = vec(ID2) / hs_norm(ID2)
        proj = basis @ (basis.conj().T @ v)
        assert np.linalg.norm(proj - v) < 1e-8

    def test_residuals(self):
        gf = fl.propagator(quantum_dimer(fig1_params())).gf
        for e in floquet_conserved(gf):
            assert e.residual < 1e-10
            assert e.hermitian


class TestFloquetEigenOperators:
    @pytest.mark.parametrize("jt", [1e-12, 1e-10, 1e-8, np.pi, 2 * np.pi, 4 * np.pi])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("model", [Model.QUANTUM, Model.CLASSICAL])
    def test_propagator_near_one_keeps_every_operator(self, model, gamma, jt):
        """Where gf^T kron gf^dag - 1 is rounding noise its null space is the whole space."""
        waveform = Waveform.SQUARE_WAVE if model is Model.QUANTUM else Waveform.DELTA_KICKS
        gf = fl.propagator(build_schedule(model, DimerParams(J=1.0, gamma=gamma, T=jt, waveform=waveform))).gf
        assert len(fl.floquet_eigen_operators(gf)) == 4

    def test_phase_times_identity_conserves_everything(self):
        ops = fl.floquet_eigen_operators(np.exp(0.3j) * np.eye(4))
        assert len(ops) == 16
        assert all(e.rate == 1.0 for e in ops)

    def test_multiplier_multiset(self):
        from test_liouville import match_spectra

        fp = fl.propagator(quantum_dimer(fig1_params()))
        kappas = fp.kappa.eigenvalues
        want = [k1 * np.conj(k2) for k1 in kappas for k2 in kappas]
        got = [e.rate for e in fl.floquet_eigen_operators(fp.gf)]
        assert match_spectra(got, want) < 1e-8

    def test_quantum_lambda3(self):
        gf = fl.propagator(quantum_dimer(fig1_params())).gf
        ops = fl.floquet_eigen_operators(gf)
        lam3 = [e.rate for e in ops if e.rate.imag > 0.1]
        assert len(lam3) == 1
        assert abs(lam3[0] - (-0.44 + 0.9j)) < 0.01
        lam4 = [e.rate for e in ops if e.rate.imag < -0.1]
        assert abs(lam4[0] - np.conj(lam3[0])) < 1e-10

    def test_classical_lambda3(self):
        gf = fl.propagator(classical_dimer(fig2_params())).gf
        ops = fl.floquet_eigen_operators(gf)
        lam3 = [e.rate for e in ops if e.rate.imag > 0.1]
        assert abs(lam3[0] - (-0.65 + 0.756j)) < 0.005

    def test_symmetric_phase_adjoint_pairing(self):
        gf = fl.propagator(quantum_dimer(fig1_params())).gf
        ops = fl.floquet_eigen_operators(gf)
        ep = next(e for e in ops if e.rate.imag > 0.1)
        em = next(e for e in ops if e.rate.imag < -0.1)
        # eta_minus equals eta_plus^dag up to the fixed phase convention
        align = abs(np.vdot(vec(em.op), vec(ep.op.conj().T)))
        assert align == pytest.approx(1.0, abs=1e-8)

    def test_unit_multiplier_count(self):
        for sched in (quantum_dimer(fig1_params()), classical_dimer(fig2_params())):
            gf = fl.propagator(sched).gf
            ops = fl.floquet_eigen_operators(gf)
            assert sum(abs(e.rate - 1.0) < 1e-8 for e in ops) == 2
            assert len(ops) == 4

    def test_phase_dichotomy(self):
        sym = fl.propagator(quantum_dimer(fig1_params()))
        lams = [e.rate for e in fl.floquet_eigen_operators(sym.gf) if abs(e.rate - 1) > 1e-8]
        assert all(abs(abs(l) - 1.0) < 1e-9 for l in lams)
        assert abs(lams[0] - np.conj(lams[1])) < 1e-9

        p = DimerParams(J=1.0, gamma=1.6, T=2.0, waveform=Waveform.SQUARE_WAVE)
        broken = fl.propagator(quantum_dimer(p))
        lams = [e.rate for e in fl.floquet_eigen_operators(broken.gf) if abs(e.rate - 1) > 1e-8]
        assert abs(abs(lams[0] * lams[1]) - 1.0) < 1e-9
        assert abs(np.angle(lams[0]) - np.angle(lams[1])) < 1e-9

    def test_stroboscopic_exponential_law(self, rng):
        gf = fl.propagator(quantum_dimer(fig1_params())).gf
        for eop in fl.floquet_eigen_operators(gf):
            psi = random_complex(rng, 2)
            v0 = np.vdot(psi, eop.op @ psi)
            ref = v0
            for m in range(50):
                psi = gf @ psi
                ref = ref * eop.rate
                got = np.vdot(psi, eop.op @ psi)
                assert abs(got - ref) <= 1e-6 * max(abs(ref), abs(v0))


class TestRecursiveFloquet:
    def test_quantum_antisymmetrized(self):
        p = fig1_params()
        gf = fl.propagator(quantum_dimer(p)).gf
        c = analytic_floquet_coeffs(Model.QUANTUM, p)
        rec = fl.recursive_floquet(SIGMA_X, gf)
        assert not rec.symmetrized_independent
        assert rec.antisymmetrized_independent
        want = c.gx * ID2 + c.gy * SIGMA_Z
        assert hs_norm(rec.antisymmetrized - want) < 1e-10

    def test_classical_antisymmetrized(self):
        p = fig2_params()
        gf = fl.propagator(classical_dimer(p)).gf
        rec = fl.recursive_floquet(SIGMA_Y, gf)
        assert rec.antisymmetrized_independent
        res = fl.build_floquet_superoperator(gf) @ vec(rec.antisymmetrized)
        assert np.linalg.norm(res - vec(rec.antisymmetrized)) < 1e-10

    def test_identity_propagator(self, rng):
        a = random_complex(rng, 2, 2)
        eta = a + a.conj().T
        rec = fl.recursive_floquet(eta, ID2)
        assert hs_norm(rec.symmetrized - eta) < 1e-12
        assert hs_norm(rec.antisymmetrized) < 1e-12
        assert not rec.antisymmetrized_independent

    def test_rejects_non_conserved(self):
        gf = fl.propagator(quantum_dimer(fig1_params())).gf
        with pytest.raises(ValueError):
            fl.recursive_floquet(SIGMA_Z, gf)


class TestTimeShift:
    def test_zero_shift(self):
        sched = quantum_dimer(fig1_params())
        smat, shifted = fl.time_shift(sched, 0.0)
        assert np.array_equal(smat, np.eye(2, dtype=complex))
        assert shifted is sched

    def test_half_period_shift(self):
        p = fig1_params()
        sched = quantum_dimer(p)
        smat, shifted = fl.time_shift(sched, p.T / 2)
        want_s = matexp(-1j * quantum_hamiltonian(p.J, p.gamma, +1.0) * p.T / 2)
        assert hs_norm(smat - want_s) < 1e-12
        gf = fl.propagator(sched).gf
        assert hs_norm(fl.propagator(shifted).gf - smat @ gf @ np.linalg.inv(smat)) < 1e-9

    def test_quarter_shifts_covariance(self):
        p = fig1_params()
        sched = quantum_dimer(p)
        gf = fl.propagator(sched).gf
        for frac in (0.25, 0.5, 0.75):
            smat, shifted = fl.time_shift(sched, frac * p.T)
            got = fl.propagator(shifted).gf
            assert hs_norm(got - smat @ gf @ np.linalg.inv(smat)) < 1e-9

    def test_transformed_invariants_conserved(self):
        p = fig1_params()
        sched = quantum_dimer(p)
        gf = fl.propagator(sched).gf
        smat, shifted = fl.time_shift(sched, p.T / 2)
        gf_shift = fl.propagator(shifted).gf
        sinv = np.linalg.inv(smat)
        for e in floquet_conserved(gf):
            eta = sinv.conj().T @ e.op @ sinv
            res = hs_norm(gf_shift.conj().T @ eta @ gf_shift - eta)
            assert res < 1e-8

    def test_rejects_shift_on_kick(self):
        sched = classical_dimer(fig2_params())
        with pytest.raises(ValueError):
            fl.time_shift(sched, 0.5)

    def test_rejects_out_of_range(self):
        sched = quantum_dimer(fig1_params())
        with pytest.raises(ValueError):
            fl.time_shift(sched, 1.5)


class TestEvolveTrace:
    def test_eta1_constant_at_all_times(self):
        sched = quantum_dimer(fig1_params())
        series = fl.evolve_trace(sched, PLUS_X, [SIGMA_X], steps_per_period=50, periods=5)
        assert np.max(np.abs(series.values[0] - 1.0)) < 1e-8

    def test_eta2_stroboscopically_one(self):
        p = fig1_params()
        sched = quantum_dimer(p)
        c = analytic_floquet_coeffs(Model.QUANTUM, p)
        eta2 = c.gx * ID2 + c.gy * SIGMA_Z
        series = fl.evolve_trace(sched, PLUS_X, [eta2], steps_per_period=20, periods=50)
        strobe = series.values[0, series.stroboscopic_indices]
        assert np.max(np.abs(strobe - 1.0)) < 1e-8
        # but eta2 genuinely oscillates between periods
        assert np.max(np.abs(series.values[0] - 1.0)) > 0.1

    def test_classical_sigma_y_vanishes(self):
        sched = classical_dimer(fig2_params())
        series = fl.evolve_trace(sched, PLUS_X, [SIGMA_Y], steps_per_period=40, periods=5)
        assert not series.normalized[0]
        assert np.max(np.abs(series.values[0])) < 1e-10

    def test_grid_layout(self):
        sched = quantum_dimer(fig1_params())
        series = fl.evolve_trace(sched, PLUS_X, [SIGMA_X], steps_per_period=10, periods=3)
        assert series.times.size == 31
        assert np.all(np.diff(series.times) > 0)
        assert list(series.stroboscopic_indices) == [0, 10, 20, 30]

    def test_rejects_zero_state(self):
        sched = quantum_dimer(fig1_params())
        with pytest.raises(ValueError):
            fl.evolve_trace(sched, np.zeros(2), [SIGMA_X])

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        kicks=st.lists(st.booleans(), min_size=2, max_size=4),
        quarters=st.booleans(),
        steps=st.one_of(st.integers(1, 12), st.integers(13, 200)),
        periods=st.integers(1, 6),
        zero_eta=st.booleans(),
    )
    def test_matches_per_sample_loop_bit_for_bit(self, n, seed, kicks, quarters, steps, periods, zero_eta):
        """Kicks may come before, between and after 1-3 segments; with durations
        in quarters, samples can fall on segment ends and kick instants."""
        rng = np.random.default_rng(seed)
        events = []
        for i, kick in enumerate(kicks):
            if kick:
                events.append(fl.Kick(0.3 * random_complex(rng, n, n)))
            if i < len(kicks) - 1:
                duration = rng.integers(1, 4) / 4 if quarters else rng.uniform(0.05, 1.0)
                events.append(fl.Segment(duration, 0.5 * random_complex(rng, n, n)))
        sched = fl.Schedule(dim=n, events=events)
        psi0 = random_complex(rng, n)
        etas = [random_complex(rng, n, n) for _ in range(rng.integers(1, 4))]
        if zero_eta:
            etas.append(np.zeros((n, n)))
        got = fl.evolve_trace(sched, psi0, etas, steps_per_period=steps, periods=periods)
        want = _per_sample_trace(sched, psi0, etas, steps, periods)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.stroboscopic_indices, want.stroboscopic_indices)
        assert got.normalized == want.normalized

    def test_one_stacked_exponential_per_segment(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(np.shape(a))
            return matexp(a)

        sched = quantum_dimer(fig1_params())
        monkeypatch.setattr(fl, "matexp", counting)
        fl.evolve_trace(sched, PLUS_X, [ID2, SIGMA_X, SIGMA_Y, SIGMA_Z], steps_per_period=200, periods=200)
        # two segments: one stack of partial propagators and one full factor each
        assert len(calls) <= 4


def _per_sample_trace(s, psi0, etas, steps_per_period, periods):
    """The reference for ``evolve_trace``: one exponential per sample and one
    vdot per operator and sample."""
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    etas = [np.asarray(e, dtype=complex) for e in etas]
    t_samples = np.arange(steps_per_period) * (s.period / steps_per_period)
    partials = np.empty((steps_per_period, s.dim, s.dim), dtype=complex)
    acc = np.eye(s.dim, dtype=complex)
    t = 0.0
    k = 0
    boundary_tol = 1e-12 * s.period
    for ev in s.events:
        if isinstance(ev, fl.Kick):
            acc = ev.factor() @ acc
            continue
        end = t + ev.duration
        while k < steps_per_period and t_samples[k] < end - boundary_tol:
            partials[k] = matexp(-1j * (t_samples[k] - t) * ev.generator) @ acc
            k += 1
        acc = ev.factor() @ acc
        t = end
    while k < steps_per_period:  # samples at the trailing boundary
        partials[k] = acc
        k += 1
    gf = acc

    n_times = periods * steps_per_period + 1
    times = np.arange(n_times) / steps_per_period
    values = np.empty((len(etas), n_times), dtype=complex)
    denoms = [np.vdot(psi0, e @ psi0) for e in etas]
    norm_flags = [
        bool(abs(d) > 1e-12 * hs_norm(e) * float(np.vdot(psi0, psi0).real))
        for d, e in zip(denoms, etas)
    ]
    psi_m = psi0.copy()
    for m in range(periods + 1):
        block = range(steps_per_period) if m < periods else [0]
        for j in block:
            psi = partials[j] @ psi_m if (m < periods and j > 0) else psi_m
            idx = m * steps_per_period + j
            for a, e in enumerate(etas):
                values[a, idx] = np.vdot(psi, e @ psi)
        psi_m = gf @ psi_m
    for a in range(len(etas)):
        if norm_flags[a]:
            values[a] /= denoms[a]
    return fl.TraceSeries(
        times=times,
        values=values,
        stroboscopic_indices=np.arange(periods + 1) * steps_per_period,
        normalized=norm_flags,
    )


def _hs_projector(ops):
    q = np.column_stack([vec(e.op) for e in ops])
    return q @ q.conj().T


class TestSharedCoreProperties:
    """The static path and the one-segment Floquet path G = exp(-iHT) agree."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        g=st.floats(0.0, 1.5),
    )
    def test_static_and_floquet_paths_agree(self, n, seed, g):
        h0 = random_pt_symmetric(np.random.default_rng(seed), n)
        # Hermitian and anti-Hermitian parts of a PT-symmetric H are each
        # PT-symmetric, so g tunes from the symmetric into the broken phase
        h = 0.5 * (h0 + h0.conj().T) + 0.5 * g * (h0 - h0.conj().T)
        scale = hs_norm(h)
        eps, v = np.linalg.eig(h)
        gaps = np.abs(eps[:, None] - eps[None, :])[~np.eye(n, dtype=bool)]
        assume(gaps.min() > 1e-2 * scale and np.linalg.cond(v) < 1e3)  # away from EPs
        rates = lv.predicted_rates(h)
        assume(np.all((np.abs(rates) < 1e-10 * scale) | (np.abs(rates) > 1e-2 * scale)))
        assume(np.all((np.abs(eps.imag) < 1e-10 * scale) | (np.abs(eps.imag) > 1e-2 * scale)))
        # |rate| * T <= 1/2: no nonzero rate aliases to multiplier 1
        t = 0.5 / np.max(np.abs(rates))

        static = lv.eigen_operators(h)
        sched = fl.Schedule(dim=n, events=[fl.Segment(t, h)])
        fp = fl.propagator(sched)
        ops = fl.floquet_eigen_operators(fp.gf)
        conserved = [e for e in ops if e.rate == 1.0]

        assert len(ops) == n * n
        assert len(conserved) == len(static.conserved) >= n
        assert np.allclose(
            _hs_projector(conserved), _hs_projector(static.conserved), atol=1e-6
        )
        want = np.exp(np.array([e.rate for e in static.conserved + static.transient]) * t)
        got = np.array([e.rate for e in ops])
        assert match_spectra(want, got) <= 1e-8 * np.abs(want).max()
        assert fp.phase is lv.classify_pt_phase(h)
        assert fp.phase is not PTPhase.EXCEPTIONAL_POINT
