"""Conserved quantities of finite non-Hermitian Hamiltonians.

Static Hamiltonians: intertwining operators are the zero modes of the
superoperator -i(H^T kron 1 - 1 kron H^dag); the remaining eigenvectors
evolve as single exponentials.  Away from exceptional points all N^2 of
them are the rank-1 products of left eigenvectors of H, found from one
N x N eigendecomposition; the Kronecker matrix itself is the test oracle
and the fallback at and near exceptional points.  The conserved ones
are ``liouville.eigen_operators(h).conserved``.  Time-periodic
Hamiltonians (``floquet.Schedule``): the same roles are played by the
eigenvectors with eigenvalue 1 of gf^T kron gf^dag, built from the
one-period propagator gf = ``floquet.compose(schedule)``; the conserved
ones lead ``floquet.floquet_eigen_operators(gf)``, with multiplier
exactly 1.  ``models`` holds the two PT-symmetric dimers and their
closed forms, ``selfcheck`` the invariant suite, ``cli`` the command
line, and ``vectorize`` the column-stacking map under which these
superoperators are matrices.  Import each module by name, e.g.
``from intertwine import liouville``.
"""

__version__ = "0.1.0"
