"""Linear tomography: solve the Stokes-coefficient linear system and diagnose
physicality of the result.

The system rows are sum_nu s_nu * tr(O_mu G_nu) = f_mu.  Overdetermined sets
(more settings than d^2) are solved in the least-squares sense.  No projection
back to the physical set is applied: an unphysical result is reported as such.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IncompleteMeasurementsError, NumericalError
from .hermitian import EIGENVALUE_TOL, REAL_TRACE_TOL, TRACE_TOL, eig_hermitian

RANK_RTOL = 1e-10


@dataclass
class InversionReport:
    matrix: np.ndarray
    stokes: np.ndarray
    is_physical: bool
    min_eigenvalue: float
    trace: float
    condition_estimate: float


def build_b_matrix(povm, basis):
    """Real matrix with entry (nu, mu) = tr(O_mu G_nu); shape d^2 x m.

    B is one complex matmul of the flattened (m, d, d) operator stack and
    basis stack: tr(O G) = sum_ij G_ji O_ij.
    """
    ops = np.asarray(povm, dtype=complex)
    g = np.asarray(basis)
    b = np.swapaxes(g, 1, 2).reshape(len(g), -1) @ ops.reshape(len(ops), -1).T
    bad = np.argwhere(np.abs(b.imag.T) >= REAL_TRACE_TOL)  # (mu, nu) in row-major order
    if len(bad):
        mu, nu = bad[0]
        raise NumericalError(f"tr(O_{mu} G_{nu}) has imaginary part {b[nu, mu].imag}")
    return np.ascontiguousarray(b.real)


def linear_invert(freqs, povm, basis):
    """Recover sum_nu s_nu G_nu from normalized frequencies.

    Raises IncompleteMeasurementsError when the measurement set does not
    determine all d^2 Stokes coefficients.
    """
    freqs = np.asarray(freqs, dtype=float)
    b = build_b_matrix(povm, basis)
    a = b.T  # rows indexed by settings
    # one SVD: lstsq counts the singular values above RANK_RTOL * sv[0]
    stokes, _, rank, sv = np.linalg.lstsq(a, freqs, rcond=RANK_RTOL)
    n = len(basis)
    if rank < n:
        raise IncompleteMeasurementsError(
            f"measurement set determines only {rank} of {n} coefficients"
        )
    matrix = np.tensordot(stokes, np.asarray(basis), axes=1)  # sum_nu s_nu G_nu
    eigs = eig_hermitian(matrix)
    trace = float(np.real(matrix.trace()))
    is_physical = bool(eigs[0] >= -EIGENVALUE_TOL and abs(trace - 1.0) <= TRACE_TOL)
    return InversionReport(
        matrix=matrix,
        stokes=stokes,
        is_physical=is_physical,
        min_eigenvalue=float(eigs[0]),
        trace=trace,
        condition_estimate=float(sv[0] / sv[rank - 1]),
    )
