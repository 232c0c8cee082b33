import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from intertwine import liouville as lv
from intertwine.linalg import DEFAULT_TOL_EIG, DEFAULT_TOL_RANK, eig, hs_norm, matexp
from intertwine.models import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimerParams,
    Model,
    analytic_eta_pm,
    classical_hamiltonian,
    quantum_hamiltonian,
)
from intertwine.vectorize import unvec, vec

from conftest import random_complex, random_pt_symmetric


def subspace_distance(ops_a, ops_b):
    """Spectral-norm distance between projectors onto two operator spans."""
    qa = np.linalg.qr(np.column_stack([vec(o) for o in ops_a]))[0]
    qb = np.linalg.qr(np.column_stack([vec(o) for o in ops_b]))[0]
    return np.linalg.norm(qa @ qa.conj().T - qb @ qb.conj().T, 2)


def match_spectra(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


class TestBuildLiouvillian:
    def test_hermitian_diagonal(self):
        lmat = lv.build_liouvillian(np.diag([1.0, 2.0]))
        want = np.array([0, 0, -1j, 1j])
        assert match_spectra(np.linalg.eigvals(lmat), want) < 1e-12

    def test_dimer_nonzero_rates(self):
        lmat = lv.build_liouvillian(quantum_hamiltonian(1.0, 0.5))
        w = np.sort(np.linalg.eigvals(lmat).imag)
        d = np.sqrt(0.75)
        assert np.allclose(w, [-2 * d, 0, 0, 2 * d], atol=1e-12)

    def test_action_identity(self, rng):
        h = random_complex(rng, 3, 3)
        eta = random_complex(rng, 3, 3)
        lhs = unvec(lv.build_liouvillian(h) @ vec(eta))
        assert hs_norm(lhs - lv.apply_liouvillian(h, eta)) < 1e-12


class TestPredictedRates:
    def test_symmetric_dimer(self):
        d = np.sqrt(0.75)
        got = lv.predicted_rates(quantum_hamiltonian(1.0, 0.5))
        assert match_spectra(got, [0, 0, -2j * d, 2j * d]) < 1e-12

    def test_broken_dimer_rates_real(self):
        d = np.sqrt(1.25)
        got = lv.predicted_rates(quantum_hamiltonian(1.0, 1.5))
        assert match_spectra(got, [0, 0, -2 * d, 2 * d]) < 1e-12

    def test_identity_hamiltonian(self):
        got = lv.predicted_rates(3.0 * ID2)
        assert np.max(np.abs(got)) < 1e-12


class TestConservedOperators:
    def test_quantum_dimer_span(self):
        gamma = 0.5
        ops = lv.eigen_operators(quantum_hamiltonian(1.0, gamma)).conserved
        want = [SIGMA_X, ID2 + gamma * SIGMA_Y]
        assert subspace_distance([e.op for e in ops], want) < 1e-8

    def test_classical_dimer_span(self):
        gamma = 0.5
        ops = lv.eigen_operators(classical_hamiltonian(1.0, gamma)).conserved
        want = [SIGMA_Y, ID2 - gamma * SIGMA_X]
        assert subspace_distance([e.op for e in ops], want) < 1e-8

    def test_hermitian_h_conserves_identity(self, rng):
        a = random_complex(rng, 3, 3)
        h = a + a.conj().T
        ops = lv.eigen_operators(h).conserved
        basis = np.column_stack([vec(e.op) for e in ops])
        v = vec(np.eye(3, dtype=complex))
        proj = basis @ (basis.conj().T @ v)
        assert np.linalg.norm(proj - v) < 1e-8

    def test_all_hermitian_with_small_residual(self):
        for gamma in (0.3, 0.5, 1.5):
            for e in lv.eigen_operators(quantum_hamiltonian(1.0, gamma)).conserved:
                assert e.hermitian
                assert hs_norm(e.op - e.op.conj().T) < 1e-10
                assert e.residual < 1e-8
                assert hs_norm(e.op) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mode_count(self):
        for gamma in (0.3, 0.5, 1.5):
            assert len(lv.eigen_operators(quantum_hamiltonian(1.0, gamma)).conserved) == 2
        assert len(lv.eigen_operators(2.5 * ID2).conserved) == 4


class TestHermitizeBasis:
    def test_hermitian_orthonormal_with_the_same_span(self, rng):
        # complex combinations of Hermitian matrices span a dagger-closed subspace
        herm = [a + a.conj().T for a in (random_complex(rng, 3, 3) for _ in range(3))]
        ops = np.einsum("kj,jab->kab", random_complex(rng, 3, 3), np.array(herm))
        basis = lv.hermitize_basis(ops)
        assert len(basis) == 3
        for b in basis:
            assert hs_norm(b - b.conj().T) < 1e-12
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(3), atol=1e-12)
        assert subspace_distance(basis, ops) < 1e-10

    def test_empty_stack(self):
        assert lv.hermitize_basis(np.zeros((0, 2, 2), dtype=complex)) == []

    def test_rejects_a_subspace_not_closed_under_the_adjoint(self):
        sigma_plus = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            lv.hermitize_basis(sigma_plus[None])


class TestEigenOperators:
    def test_counts(self):
        res = lv.eigen_operators(quantum_hamiltonian(1.0, 0.5))
        assert len(res.conserved) == 2
        assert len(res.transient) == 2
        assert len(res.conserved) + len(res.transient) == 4

    def test_generic_h_has_no_conserved_operators(self, rng):
        # no pair e_a = conj(e_b) without PT symmetry: an empty conserved stack
        res = lv.eigen_operators(random_complex(rng, 3, 3))
        assert res.path == "rank-1"
        assert res.conserved == []
        assert len(res.transient) == 9

    def test_transient_match_closed_form_quantum(self):
        p = DimerParams(J=1.0, gamma=0.5)
        ep, em, rp, rm = analytic_eta_pm(Model.QUANTUM, p)
        res = lv.eigen_operators(quantum_hamiltonian(1.0, 0.5))
        for eta, rate in ((ep, rp), (em, rm)):
            [match] = [t for t in res.transient if abs(t.rate - rate) < 1e-8]
            align = abs(np.vdot(vec(match.op), vec(eta))) / (hs_norm(match.op) * hs_norm(eta))
            assert align >= 1 - 1e-8

    def test_transient_match_closed_form_classical(self):
        p = DimerParams(J=1.0, gamma=0.5)
        ep, em, rp, rm = analytic_eta_pm(Model.CLASSICAL, p)
        res = lv.eigen_operators(classical_hamiltonian(1.0, 0.5))
        for eta, rate in ((ep, rp), (em, rm)):
            [match] = [t for t in res.transient if abs(t.rate - rate) < 1e-8]
            align = abs(np.vdot(vec(match.op), vec(eta))) / (hs_norm(match.op) * hs_norm(eta))
            assert align >= 1 - 1e-8

    def test_eta_plus_value(self):
        # direct substitution into the closed form at gamma = 0.5, J = 1
        p = DimerParams(J=1.0, gamma=0.5)
        ep, _, _, _ = analytic_eta_pm(Model.QUANTUM, p)
        want = np.array(
            [[-0.5 + np.sqrt(0.75) * 1j, np.sqrt(0.75) - 0.5j],
             [-np.sqrt(0.75) + 0.5j, 1.0]]
        )
        assert np.allclose(ep, want, atol=1e-12)

    def test_spectrum_pairing_property(self, rng):
        for n in (2, 3, 4):
            for _ in range(5):
                h = random_pt_symmetric(rng, n)
                lmat = lv.build_liouvillian(h)
                assert match_spectra(eig(lmat).eigenvalues, lv.predicted_rates(h)) < 1e-7

    def test_exponential_law(self, rng):
        for gamma in (0.3, 0.5, 1.5):
            h = quantum_hamiltonian(1.0, gamma)
            res = lv.eigen_operators(h)
            for eop in res.conserved + res.transient:
                psi0 = random_complex(rng, 2)
                v0 = np.vdot(psi0, eop.op @ psi0)
                for t in np.linspace(0, 10.0 / hs_norm(h), 5):
                    psi = matexp(-1j * h * t) @ psi0
                    got = np.vdot(psi, eop.op @ psi)
                    want = np.exp(eop.rate * t) * v0
                    assert abs(got - want) <= 1e-7 * max(abs(want), abs(v0))

    def test_hermiticity_tracks_phase(self):
        sym = lv.eigen_operators(quantum_hamiltonian(1.0, 0.5))
        assert all(not t.hermitian for t in sym.transient)
        broken = lv.eigen_operators(quantum_hamiltonian(1.0, 1.5))
        assert all(t.hermitian for t in broken.transient)
        for t in broken.transient:
            assert hs_norm(t.op - t.op.conj().T) < 1e-10

    def test_transient_rank_one(self):
        from intertwine.linalg import rank

        for gamma in (0.3, 0.5, 1.5):
            res = lv.eigen_operators(quantum_hamiltonian(1.0, gamma))
            assert all(rank(t.op) == 1 for t in res.transient)


def same_operators(got, want):
    """Bit-for-bit equality of two lists of EigenOperators."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.op.tobytes() == b.op.tobytes()
        assert (a.rate, a.hermitian, a.residual) == (b.rate, b.hermitian, b.residual)


class TestRankOnePath:
    """The rank-1 route of eigen_operators against the Kronecker oracle."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        g=st.floats(0.0, 1.5),
    )
    def test_matches_kronecker_oracle(self, n, seed, g):
        h0 = random_pt_symmetric(np.random.default_rng(seed), n)
        # Hermitian and anti-Hermitian parts of a PT-symmetric H are each
        # PT-symmetric, so g tunes from the symmetric into the broken phase
        h = 0.5 * (h0 + h0.conj().T) + 0.5 * g * (h0 - h0.conj().T)
        scale = hs_norm(h)
        eps, v = np.linalg.eig(h)
        gaps = np.abs(eps[:, None] - eps[None, :])[~np.eye(n, dtype=bool)]
        assume(gaps.min() > 1e-2 * scale and np.linalg.cond(v) < 1e3)  # away from EPs
        assume(np.all((np.abs(eps.imag) < 1e-10 * scale) | (np.abs(eps.imag) > 1e-2 * scale)))

        fast = lv.eigen_operators(h)
        oracle = lv.kronecker_eigen_operators(h)
        assert (fast.path, oracle.path) == ("rank-1", "kronecker")
        lnorm = hs_norm(lv.build_liouvillian(h))
        ops = fast.conserved + fast.transient
        assert len(ops) == n * n
        assert len(fast.conserved) == len(oracle.conserved) >= n
        rates = [e.rate for e in ops]
        assert match_spectra(rates, [e.rate for e in oracle.conserved + oracle.transient]) <= 1e-10 * lnorm
        assert match_spectra(fast.computed_eigenvalues, oracle.computed_eigenvalues) <= 1e-10 * lnorm
        assert subspace_distance([e.op for e in fast.conserved], [e.op for e in oracle.conserved]) <= 1e-8
        for e in ops:
            direct = hs_norm(lv.apply_liouvillian(h, e.op) - e.rate * e.op)
            assert e.residual == pytest.approx(direct, rel=1e-6, abs=1e-30)
            assert e.residual <= DEFAULT_TOL_EIG * lnorm
            assert hs_norm(e.op) == pytest.approx(1.0, abs=1e-12)
        assert all(e.hermitian and e.rate == 0 for e in fast.conserved)
        s = np.linalg.svd(np.column_stack([vec(e.op) for e in ops]), compute_uv=False)
        assert s[-1] > 1e-9 * s[0]
        assert fast.pt_phase is lv.classify_pt_phase(h)

    @pytest.mark.parametrize("hamiltonian", [quantum_hamiltonian, classical_hamiltonian])
    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("k", range(2, 11))
    def test_exceptional_point_sweep(self, hamiltonian, sign, k):
        h = hamiltonian(1.0, 1.0 + sign * 10.0**-k)
        res = lv.eigen_operators(h)
        near_ep = np.linalg.cond(eig(h).eigenvectors) ** 2 > 1.0 / DEFAULT_TOL_RANK
        assert res.path == ("kronecker" if near_ep else "rank-1")
        if res.path == "rank-1":
            assert len(res.conserved) + len(res.transient) == 4
            return
        oracle = lv.kronecker_eigen_operators(h)
        same_operators(res.conserved, oracle.conserved)
        same_operators(res.transient, oracle.transient)
        assert res.computed_eigenvalues.tobytes() == oracle.computed_eigenvalues.tobytes()

    @pytest.mark.parametrize("hamiltonian", [quantum_hamiltonian, classical_hamiltonian])
    def test_exceptional_point_takes_the_kronecker_route(self, hamiltonian):
        res = lv.eigen_operators(hamiltonian(1.0, 1.0))
        assert res.path == "kronecker"
        assert res.pt_phase is lv.PTPhase.EXCEPTIONAL_POINT

    def test_no_superoperator_eigensolve(self, monkeypatch):
        shapes = []

        def spy(a, *args):
            shapes.append(np.shape(a))
            return eig(a, *args)

        monkeypatch.setattr(lv, "eig", spy)
        h = random_pt_symmetric(np.random.default_rng(3), 16)
        assert lv.eigen_operators(h).path == "rank-1"
        assert shapes == [(16, 16)]

    def test_liouvillian_norm_closed_form(self, rng):
        for n in (1, 2, 3, 5, 8):
            h = random_complex(rng, n, n)
            want = hs_norm(lv.build_liouvillian(h))
            assert lv.liouvillian_norm(h) == pytest.approx(want, rel=1e-14)
            # a power of two scales it exactly, also where ||H||_F^2 overflows
            assert lv.liouvillian_norm(2.0**600 * h) == 2.0**600 * lv.liouvillian_norm(h)

    def test_stacked_canonicalization_equals_one_operator_at_a_time(self, rng):
        ops = random_complex(rng, 40, 3, 3)
        ops[:20] = (ops[:20] + ops[:20].conj().swapaxes(-1, -2)) * np.exp(1j * rng.uniform(0, 6, 20))[:, None, None]
        # row-major operators, and column-major ones (eigenvectors of a superoperator, unvec'd)
        for stack in (ops, ops.swapaxes(-1, -2).copy().swapaxes(-1, -2)):
            got = lv.canonicalize_operators(stack)
            for k in range(40):
                assert got[k].tobytes() == canonicalize_one(stack[k]).tobytes()
            assert np.all(hs_norm(got[:20] - got[:20].conj().swapaxes(-1, -2)) == 0)


def canonicalize_one(op):
    """Unit norm, global phase fixed, one operator at a time with plain numpy."""
    op = op / np.linalg.norm(op)
    c = np.vdot(op, op.conj().T)
    if abs(abs(c) - 1.0) <= 1e-8:
        op = op * np.exp(0.5j * np.angle(c))
        op = 0.5 * (op + op.conj().T)
        op = op / np.linalg.norm(op)
        r = np.concatenate([op.real.reshape(-1), op.imag.reshape(-1)])
        return -op if r[np.argmax(np.abs(r))] < 0 else op
    v = op.reshape(-1, order="F")
    i = int(np.argmax(np.abs(v)))
    return op * (np.conj(v[i]) / abs(v[i]))


class TestOperatorLayout:
    """The memory layouts that the written bytes depend on, on all three routes into the one split."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_hermitian_operators_are_exact_and_row_major(self, n):
        from intertwine.floquet import floquet_eigen_operators

        rng = np.random.default_rng(100 + n)
        h = random_pt_symmetric(rng, n)
        rank1 = lv.eigen_operators(h)
        assert rank1.path == "rank-1"
        kron = lv.kronecker_eigen_operators(h)
        routes = {
            "rank-1": rank1.conserved + rank1.transient,
            "kronecker": kron.conserved + kron.transient,
            # a PT-symmetric drive (unit multipliers) and a generic non-unitary gf
            "floquet": floquet_eigen_operators(matexp(-0.7j * h))
            + floquet_eigen_operators(random_complex(rng, n, n) / n),
        }
        for route, ops in routes.items():
            herm = [e.op for e in ops if e.hermitian]
            other = [e.op for e in ops if not e.hermitian]
            assert herm and other
            for op in herm:
                assert op.flags.c_contiguous
                assert np.array_equal(op, op.conj().T)
            if route != "rank-1":
                # column-stacked eigenvectors of the superoperator, unstacked
                assert all(op.flags.f_contiguous and not op.flags.c_contiguous for op in other)


class TestVerifyIntertwining:
    def test_parity_is_intertwiner(self):
        assert lv.verify_intertwining(SIGMA_X, quantum_hamiltonian(1.0, 0.5)) < 1e-14

    def test_identity_residual_value(self):
        gamma = 0.7
        got = lv.verify_intertwining(ID2, quantum_hamiltonian(1.0, gamma))
        assert got == pytest.approx(2 * gamma * np.sqrt(2), abs=1e-12)

    def test_conserved_ops_have_zero_residual(self, rng):
        h = random_pt_symmetric(rng, 3)
        for e in lv.eigen_operators(h).conserved:
            assert lv.verify_intertwining(e.op, h) < 1e-8 * hs_norm(h)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lv.verify_intertwining(np.eye(2), np.eye(3))


class TestRecursiveTower:
    def test_quantum_dimer(self):
        gamma = 0.5
        [eta2] = lv.recursive_tower(SIGMA_X, quantum_hamiltonian(1.0, gamma), 1, scale=1.0)
        assert np.allclose(eta2, ID2 + gamma * SIGMA_Y, atol=1e-12)

    def test_classical_dimer(self):
        gamma = 0.5
        [eta2] = lv.recursive_tower(SIGMA_Y, classical_hamiltonian(1.0, gamma), 1, scale=1.0)
        assert np.allclose(eta2, ID2 - gamma * SIGMA_X, atol=1e-12)

    def test_hermitian_limit_powers(self, rng):
        a = random_complex(rng, 3, 3)
        h = a + a.conj().T
        tower = lv.recursive_tower(np.eye(3), h, 3, scale=1.0)
        for k, eta in enumerate(tower, start=1):
            assert np.allclose(eta, np.linalg.matrix_power(h, k), atol=1e-10)

    def test_rejects_non_intertwiner(self):
        with pytest.raises(ValueError):
            lv.recursive_tower(SIGMA_Z, quantum_hamiltonian(1.0, 0.5), 1)


class TestPhaseClassification:
    def test_symmetric(self):
        assert lv.classify_pt_phase(quantum_hamiltonian(1.0, 0.5)) is lv.PTPhase.SYMMETRIC

    def test_broken(self):
        assert lv.classify_pt_phase(quantum_hamiltonian(1.0, 1.5)) is lv.PTPhase.BROKEN

    def test_exceptional_point(self):
        assert (
            lv.classify_pt_phase(quantum_hamiltonian(1.0, 1.0))
            is lv.PTPhase.EXCEPTIONAL_POINT
        )

    def test_identity_is_symmetric(self):
        # degenerate but diagonalizable: not an EP
        assert lv.classify_pt_phase(2.0 * ID2) is lv.PTPhase.SYMMETRIC

    def test_stack_equals_per_matrix_calls(self):
        gammas = np.array([[0.5, 1.0, 1.5], [0.0, 0.999, 1.001]])
        stack = quantum_hamiltonian(1.0, gammas)
        phases = lv.classify_pt_phase(stack)
        assert phases.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert phases[idx] is lv.classify_pt_phase(quantum_hamiltonian(1.0, gammas[idx]))
        assert set(phases.ravel()) == set(lv.PTPhase)


class TestVerifyPTSymmetry:
    def test_quantum_dimer(self):
        assert lv.verify_pt_symmetry(quantum_hamiltonian(1.0, 0.5), SIGMA_X) < 1e-14

    def test_classical_dimer(self):
        assert lv.verify_pt_symmetry(classical_hamiltonian(1.0, 0.5), SIGMA_X) < 1e-14

    def test_broken_symmetry_value(self):
        gamma = 0.4
        h = SIGMA_X + gamma * SIGMA_Z
        got = lv.verify_pt_symmetry(h, SIGMA_X)
        assert got == pytest.approx(2 * gamma * np.sqrt(2), abs=1e-12)

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            lv.verify_pt_symmetry(SIGMA_X, 2.0 * ID2)
