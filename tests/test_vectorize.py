import numpy as np
import pytest

from intertwine import vectorize as vz
from intertwine.models import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z

from conftest import random_complex


class TestVecUnvec:
    def test_column_stacking_order(self):
        m = np.array([[1, 3], [2, 4]], dtype=complex)
        assert np.array_equal(vz.vec(m), np.array([1, 2, 3, 4], dtype=complex))

    def test_vec_identity(self):
        assert np.array_equal(vz.vec(ID2), np.array([1, 0, 0, 1], dtype=complex))

    def test_vec_sigma_x(self):
        assert np.array_equal(vz.vec(SIGMA_X), np.array([0, 1, 1, 0], dtype=complex))

    def test_round_trip_bit_exact(self, rng):
        m = random_complex(rng, 5, 5)
        assert np.array_equal(vz.unvec(vz.vec(m)), m)

    def test_unvec_sigma_y(self):
        assert np.array_equal(vz.unvec(np.array([0, 1j, -1j, 0])), SIGMA_Y)

    def test_unvec_identity(self):
        assert np.array_equal(vz.unvec(np.array([1, 0, 0, 1])), ID2)

    def test_vec_rejects_rectangular(self):
        with pytest.raises(ValueError):
            vz.vec(np.ones((2, 3)))

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(ValueError):
            vz.unvec(np.ones(5))

    def test_vec_is_linear(self, rng):
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        al, be = 1.5 - 0.5j, -2.0 + 1j
        assert np.array_equal(vz.vec(al * a + be * b), al * vz.vec(a) + be * vz.vec(b))


class TestKron:
    def test_block_diagonal(self):
        want = np.zeros((4, 4), dtype=complex)
        want[:2, :2] = SIGMA_X
        want[2:, 2:] = SIGMA_X
        assert np.array_equal(np.kron(ID2, SIGMA_X), want)

    def test_diagonal_signs(self):
        assert np.array_equal(np.kron(SIGMA_Z, ID2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_sandwich_identity(self, rng):
        for _ in range(5):
            a, eta, b = (random_complex(rng, 3, 3) for _ in range(3))
            lhs = np.kron(b.T, a) @ vz.vec(eta)
            assert np.linalg.norm(lhs - vz.vec(a @ eta @ b)) < 1e-12

    def test_mixed_product(self, rng):
        for n in (2, 3):
            a, b, c, d = (random_complex(rng, n, n) for _ in range(4))
            lhs = np.kron(a, b) @ np.kron(c, d)
            assert np.linalg.norm(lhs - np.kron(a @ c, b @ d)) < 1e-12


class TestSandwichMatrix:
    def test_identity_sandwich(self):
        assert np.array_equal(vz.sandwich_matrix(ID2, ID2), np.eye(4, dtype=complex))

    def test_left_multiplication(self, rng):
        h = random_complex(rng, 3, 3)
        eta = random_complex(rng, 3, 3)
        got = vz.sandwich_matrix(h, np.eye(3)) @ vz.vec(eta)
        assert np.linalg.norm(got - vz.vec(h @ eta)) < 1e-12

    def test_right_multiplication(self, rng):
        h = random_complex(rng, 3, 3)
        eta = random_complex(rng, 3, 3)
        got = vz.sandwich_matrix(np.eye(3), h) @ vz.vec(eta)
        assert np.linalg.norm(got - vz.vec(eta @ h)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vz.sandwich_matrix(np.eye(2), np.eye(3))


def test_inner_product_transport(rng):
    for _ in range(5):
        a = random_complex(rng, 4, 4)
        b = random_complex(rng, 4, 4)
        assert abs(np.trace(a.conj().T @ b) - np.vdot(vz.vec(a), vz.vec(b))) < 1e-13
