"""Conserved quantities of finite non-Hermitian Hamiltonians.

Static Hamiltonians: intertwining operators are the zero modes of the
superoperator -i(H^T kron 1 - 1 kron H^dag); the remaining eigenvectors
evolve as single exponentials.  Away from exceptional points all N^2 of
them are the rank-1 products of left eigenvectors of H, found from one
N x N eigendecomposition; the Kronecker matrix itself is the test oracle
and the fallback at and near exceptional points.  Time-periodic
Hamiltonians: the same roles are played by unit-multiplier eigenvectors
of gf^T kron gf^dag, built from the one-period propagator gf.
"""

from .linalg import (
    DEFAULT_TOL_EIG,
    DEFAULT_TOL_RANK,
    NumericalError,
    Spectrum,
    adjoint,
    eig,
    hs_inner,
    hs_norm,
    matexp,
    matmul,
    null_space,
    rank,
    transpose,
)
from .vectorize import kron, sandwich_matrix, unvec, vec
from .liouville import (
    EigenOperator,
    LiouvillianResult,
    PTPhase,
    build_liouvillian,
    classify_pt_phase,
    conserved_operators,
    eigen_operators,
    kronecker_eigen_operators,
    liouvillian_norm,
    pair_rates,
    predicted_rates,
    recursive_tower,
    verify_intertwining,
    verify_pt_symmetry,
)
from .floquet import (
    FloquetPropagator,
    Kick,
    Schedule,
    Segment,
    TraceSeries,
    build_floquet_superoperator,
    evolve_trace,
    floquet_eigen_operators,
    propagator,
    recursive_floquet,
    stroboscopic_conserved,
    time_shift,
)
from .models import (
    DimerParams,
    Model,
    Waveform,
    analytic_eta_pm,
    analytic_floquet_coeffs,
    basis_rotation_check,
    classical_dimer,
    ep_contour,
    quantum_dimer,
)

__version__ = "0.1.0"
