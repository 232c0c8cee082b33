import numpy as np
import pytest

from intertwine.floquet import floquet_eigen_operators
from intertwine.models import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_pt_symmetric(rng, n):
    """H satisfying P conj(H) P = H for the exchange parity."""
    p = np.fliplr(np.eye(n))
    a = random_complex(rng, n, n)
    return a + p @ a.conj() @ p


def floquet_conserved(gf):
    """The conserved operators of gf: the leading ones of floquet_eigen_operators, multiplier exactly 1."""
    return [e for e in floquet_eigen_operators(gf) if e.rate == 1.0]
