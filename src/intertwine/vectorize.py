"""Column-stacking vectorization and the Kronecker sandwich identity.

The reference for the paper's vec identities, checked by ``selfcheck``
and the tests; the analysis itself works on operator stacks.
Convention: vec stacks columns, so entry (p, q) of an N x N matrix
(1-based) lands at vector index p + (q-1)N, i.e. 0-based index
(p-1) + (q-1)N.  Getting this map wrong silently transposes every
superoperator built on top of it.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix


def vec(m) -> np.ndarray:
    """Column-stack a square matrix into a length-N^2 vector."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"vec expects a square matrix, got {m.shape}")
    return m.reshape(-1, order="F")


def unvec(v) -> np.ndarray:
    """Exact inverse of vec; the length must be a perfect square."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise ValueError(f"length {v.size} is not a perfect square")
    return v.reshape((n, n), order="F")


def sandwich_matrix(a, b) -> np.ndarray:
    """Matrix of the map eta -> a @ eta @ b under vec, i.e. b.T kron a."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected equal square shapes, got {a.shape} and {b.shape}")
    return np.kron(b.T, a)
