"""Complex Hermitian matrix helpers: Kronecker stacks, Pauli bases, state
metrics.

All functions operate on plain numpy arrays.  A "density matrix" here is a
d x d complex array that is Hermitian, has unit trace, and is positive
semidefinite up to small numerical slack; `check_density_matrix` enforces
exactly that contract.  Every operator stack refuses a dimension past the one
cap MAX_TENSOR_DIM: the two tensor-product builders, `tensor_povm` for
measurement settings and `pauli_basis`, before they build it, and
`check_psd_stack`, for record operators and state files, before its
eigenvalues.
"""

from functools import reduce

import numpy as np

from .errors import CapacityError, DimensionError, NumericalError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-8
EIGENVALUE_TOL = 1e-10
REAL_TRACE_TOL = 1e-10  # tr(A B) of Hermitian A and B is real within this

MAX_TENSOR_DIM = 256

_SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def _check_tensor_dim(dim):
    if dim > MAX_TENSOR_DIM:
        raise CapacityError(f"tensor dimension {dim} exceeds the cap {MAX_TENSOR_DIM}")


def check_psd_stack(ops):
    """The matrices as one complex (m, d, d) stack of numbers (integer, float
    or complex entries, not bools, strings or objects), each finite,
    Hermitian within HERMITICITY_TOL and positive semidefinite within
    EIGENVALUE_TOL."""
    try:
        ops = np.asarray(ops)
    except ValueError as exc:  # ragged
        raise DimensionError(f"operators do not form one (m, d, d) stack: {exc}") from exc
    if ops.dtype.kind not in "iufc":
        raise DimensionError(f"operator entries must be numbers, not {ops.dtype.name}")
    ops = ops.astype(complex, copy=False)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or ops.shape[1] == 0:
        raise DimensionError(
            f"operators form a stack of shape {ops.shape}, not (m, d, d) with d >= 1"
        )
    _check_tensor_dim(ops.shape[1])
    bad = np.flatnonzero(~np.isfinite(ops).all(axis=(1, 2)))
    if len(bad):
        raise NumericalError(f"operator {bad[0]} has a non-finite entry")
    bad = np.flatnonzero(
        (np.abs(ops - ops.conj().swapaxes(1, 2)) > HERMITICITY_TOL).any(axis=(1, 2))
    )
    if len(bad):
        raise NumericalError(f"operator {bad[0]} is not Hermitian")
    bad = np.flatnonzero(eig_hermitian(ops)[:, 0] < -EIGENVALUE_TOL)
    if len(bad):
        raise NumericalError(f"operator {bad[0]} is not positive semidefinite")
    return ops


def check_density_matrix(rho):
    """rho as a complex array, checked as a one-matrix stack and for unit trace."""
    rho = check_psd_stack([rho])[0]
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise NumericalError(f"trace {tr} is not 1")
    return rho


def kron_stack(a, b):
    """np.kron(a[i], b[j]) for every pair of matrices of two stacks, bit for
    bit, as one (len(a) * len(b), m * n, m * n) stack with i the major index."""
    (p, m, _), (q, n, _) = a.shape, b.shape
    prod = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return prod.reshape(p * q, m * n, m * n)


def tensor_povm(sets):
    """All Kronecker products across the given operator stacks, as one stack in
    lexicographic order (first factor most significant)."""
    if any(len(s) == 0 for s in sets):
        raise DimensionError("every factor set must be nonempty")
    dim = 1
    for s in sets:
        dim *= s.shape[1]
    _check_tensor_dim(dim)
    return reduce(kron_stack, sets, np.ones((1, 1, 1), dtype=complex))


def pauli_basis(n_qubits):
    """Orthonormal Hermitian basis from normalized Pauli tensor products.

    Returns the (4**n_qubits, 2**n_qubits, 2**n_qubits) stack ordered
    lexicographically over Pauli indices (identity first), each matrix
    scaled by 1/sqrt(2**n_qubits) so that tr(G_i G_j) = delta_ij.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    _check_tensor_dim(2**n_qubits)
    scale = 1.0 / np.sqrt(2.0**n_qubits)
    return scale * reduce(kron_stack, [_SIGMA] * n_qubits)


def purity(rho):
    """Re tr(rho^2), not clamped: an unphysical linear-inversion estimate
    can read above 1."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.real(np.trace(rho @ rho)))


def eig_hermitian(h):
    """Real eigenvalues of a Hermitian matrix (or stack), sorted ascending."""
    try:
        return np.linalg.eigvalsh(np.asarray(h, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
