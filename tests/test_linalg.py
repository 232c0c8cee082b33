import numpy as np
import pytest

from intertwine import linalg
from intertwine.liouville import build_liouvillian
from intertwine.models import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z
from intertwine.models import quantum_hamiltonian

from conftest import random_complex


class TestBasics:
    def test_matmul_identity(self):
        assert np.allclose(linalg.matmul(ID2, SIGMA_X), SIGMA_X)

    def test_pauli_involution(self):
        assert np.allclose(linalg.matmul(SIGMA_X, SIGMA_X), ID2)

    def test_sx_sz_product(self):
        # direct 2x2 multiplication gives -i sigma_y
        assert np.allclose(linalg.matmul(SIGMA_X, SIGMA_Z), -1j * SIGMA_Y)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            linalg.matmul(np.ones((2, 3)), np.ones((2, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.as_matrix(np.array([[np.nan, 0], [0, 1]]))

    def test_adjoint_antihermitian(self):
        g = 0.7
        assert np.allclose(linalg.adjoint(1j * g * SIGMA_Z), -1j * g * SIGMA_Z)

    def test_transpose_sigma_y(self):
        assert np.allclose(linalg.transpose(SIGMA_Y), -SIGMA_Y)

    def test_adjoint_of_dimer(self):
        h1 = quantum_hamiltonian(1.0, 0.5)
        assert np.allclose(linalg.adjoint(h1), SIGMA_X - 0.5j * SIGMA_Z)
        assert not np.allclose(linalg.transpose(h1), linalg.adjoint(h1))


class TestHSInner:
    def test_pauli_norm(self):
        assert linalg.hs_inner(SIGMA_X, SIGMA_X) == pytest.approx(2.0)

    def test_pauli_orthogonality(self):
        assert linalg.hs_inner(SIGMA_X, SIGMA_Z) == pytest.approx(0.0)

    def test_matches_two_loop_sum(self, rng):
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        direct = sum(np.conj(a[i, j]) * b[i, j] for i in range(3) for j in range(3))
        assert abs(linalg.hs_inner(a, b) - direct) < 1e-13


class TestMatexp:
    def test_zero_matrix(self):
        assert np.allclose(linalg.matexp(np.zeros((3, 3))), np.eye(3))

    def test_pauli_rotation(self):
        jt = 1.0
        want = np.cos(jt) * ID2 - 1j * np.sin(jt) * SIGMA_X
        assert np.allclose(linalg.matexp(-1j * jt * SIGMA_X), want, atol=1e-12)

    def test_matches_taylor(self, rng):
        a = random_complex(rng, 4, 4)
        a /= np.linalg.norm(a)
        term = np.eye(4, dtype=complex)
        total = term.copy()
        for k in range(1, 30):
            term = term @ a / k
            total += term
        assert np.linalg.norm(linalg.matexp(a) - total) < 1e-10

    def test_inverse_property(self, rng):
        for _ in range(5):
            a = random_complex(rng, 4, 4)
            a *= 5.0 / max(np.linalg.norm(a), 1e-300)
            prod = linalg.matexp(a) @ linalg.matexp(-a)
            assert np.linalg.norm(prod - np.eye(4)) < 1e-10

    def test_traceless_has_unit_det(self, rng):
        a = random_complex(rng, 3, 3)
        a -= np.trace(a) / 3 * np.eye(3)
        assert abs(np.linalg.det(linalg.matexp(a)) - 1.0) < 1e-10

    def test_defective_input(self):
        # nilpotent generator: series terminates exactly
        n = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
        assert np.allclose(linalg.matexp(n), np.eye(2) + n, atol=1e-14)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            linalg.matexp(2000.0 * np.eye(2, dtype=complex))

    def test_stack_leaves_overflow_to_the_caller(self):
        a = np.stack([np.eye(2, dtype=complex), 2000.0 * np.eye(2, dtype=complex)])
        with np.errstate(over="ignore"):
            e = linalg.matexp(a)
        assert np.array_equal(e[0], linalg.matexp(a[0]))
        assert np.isinf(e[1, 0, 0]) and e[1, 0, 1] == 0

    def test_stack_equals_per_matrix_calls(self, rng):
        a = random_complex(rng, 4, 3, 2, 2)
        e = linalg.matexp(a)
        for idx in np.ndindex(4, 3):
            assert np.array_equal(e[idx], linalg.matexp(a[idx]))


class TestEig:
    def test_diagonal(self):
        spec = linalg.eig(SIGMA_Z)
        assert np.allclose(sorted(spec.eigenvalues.real), [-1, 1])
        for k, w in enumerate(spec.eigenvalues):
            want = np.array([1.0, 0.0]) if w.real > 0 else np.array([0.0, 1.0])
            assert np.allclose(spec.eigenvectors[:, k], want)

    def test_dimer_symmetric_phase(self):
        spec = linalg.eig(quantum_hamiltonian(1.0, 0.5))
        assert np.allclose(
            sorted(spec.eigenvalues.real), [-np.sqrt(0.75), np.sqrt(0.75)], atol=1e-12
        )
        assert np.max(np.abs(spec.eigenvalues.imag)) < 1e-12

    def test_dimer_broken_phase(self):
        spec = linalg.eig(quantum_hamiltonian(1.0, 1.5))
        assert np.allclose(
            sorted(spec.eigenvalues.imag), [-np.sqrt(1.25), np.sqrt(1.25)], atol=1e-12
        )
        assert np.max(np.abs(spec.eigenvalues.real)) < 1e-12

    def test_reconstruction(self, rng):
        a = random_complex(rng, 8, 8)
        spec = linalg.eig(a)
        v, w = spec.eigenvectors, spec.eigenvalues
        assert np.linalg.norm(a @ v - v * w[None, :]) <= 1e-8 * np.linalg.norm(a)

    def test_unit_norm_and_phase_convention(self, rng):
        spec = linalg.eig(random_complex(rng, 5, 5))
        for k in range(5):
            col = spec.eigenvectors[:, k]
            assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)
            piv = col[np.argmax(np.abs(col))]
            assert piv.real >= 0 and abs(piv.imag) < 1e-12

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            linalg.eig(SIGMA_X, tol_eig=0.0)

    @pytest.mark.parametrize("n", [2, 5])
    def test_stack_equals_per_matrix_calls(self, rng, n):
        a = random_complex(rng, 3, 4, n, n)
        spec = linalg.eig(a)
        for idx in np.ndindex(3, 4):
            one = linalg.eig(a[idx])
            assert np.array_equal(spec.eigenvalues[idx], one.eigenvalues)
            assert np.array_equal(spec.eigenvectors[idx], one.eigenvectors)
            assert np.array_equal(spec.residuals[idx], one.residuals)

    def test_phase_factor_matches_per_column_convention(self):
        # dimer Liouvillians have columns whose largest entries tie in modulus
        for gamma in np.linspace(0.0, 2.5, 201):
            lmat = build_liouvillian(quantum_hamiltonian(1.0, gamma))
            spec = linalg.eig(lmat)
            w, v = np.linalg.eig(lmat)
            v = v[:, np.lexsort((w.imag, w.real))]
            for k in range(4):
                col = v[:, k] / np.linalg.norm(v[:, k])
                piv = col[np.argmax(np.abs(col))]
                assert np.array_equal(spec.eigenvectors[:, k], col * (np.conj(piv) / abs(piv)))

    def test_stack_norms_equal_per_matrix_norms(self, rng):
        a = random_complex(rng, 6, 3, 3)
        assert [float(x) for x in linalg.hs_norm(a)] == [linalg.hs_norm(m) for m in a]


class TestSVDNullRank:
    def test_full_rank_has_empty_null_space(self):
        assert linalg.null_space(np.eye(4)).shape == (4, 0)

    def test_rank_one_projector(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        p = np.outer(v, v.conj())
        assert linalg.rank(p) == 1
        assert linalg.null_space(p).shape == (2, 1)

    def test_rank_identity(self):
        assert linalg.rank(np.eye(3)) == 3

    def test_rank_of_stack_matches_each_matrix(self, rng):
        v = random_complex(rng, 3, 1)
        stack = np.array(
            [np.eye(3), v @ v.conj().T, np.zeros((3, 3)), random_complex(rng, 3, 3), np.diag([1.0, 1e-12, 0.0])]
        )
        counts = linalg.rank(stack)
        assert counts.tolist() == [linalg.rank(m) for m in stack] == [3, 1, 0, 3, 1]
        assert linalg.rank(stack.reshape(5, 1, 3, 3)).shape == (5, 1)

    def test_rank_rejects_bad_input(self):
        with pytest.raises(ValueError):
            linalg.rank(np.ones(3))
        with pytest.raises(ValueError):
            linalg.rank(np.full((2, 2, 2), np.nan))
