"""The map t -> T(t) -> rho(t) and its signed-Cholesky inverse.

T(t) is upper triangular: the first d entries of t fill the (real) diagonal,
the remaining entries fill the strict upper triangle row-major, two at a time
as (real, imaginary) pairs.  rho(t) = T(t)^dag T(t) / tr(T(t)^dag T(t)) is
Hermitian, unit-trace and positive semidefinite for every nonzero t, and is
invariant under rescaling of t.

Random draws keep every diagonal parameter at least DIAG_FLOOR from 0, and
the sign patterns of all_sign_patterns number at most MAX_SIGN_PATTERNS.
"""

from functools import cache

import numpy as np

from .errors import BoundaryStateError, CapacityError, DegenerateParameterError, DimensionError

NORM_GUARD = 1e-150
DIAG_FLOOR = 1e-3
MAX_SIGN_PATTERNS = 256  # 2^d for every d <= 8


def param_dim(n_params):
    """Matrix dimension d from the parameter count d^2."""
    d = int(round(np.sqrt(n_params)))
    if d * d != n_params or d < 1:
        raise DimensionError(f"parameter vector length {n_params} is not a perfect square")
    return d


def param_layout(d):
    """Entry (row, col, coefficient) of dT/dt_k for each parameter index k.

    Diagonal parameters come first (coefficient 1), then row-major strict
    upper-triangle pairs with coefficients 1 and 1j.  This is the one
    statement of the layout; slot_map caches it per parameter count.
    """
    diag = np.arange(d)
    upper_rows, upper_cols = np.triu_indices(d, 1)
    rows = np.concatenate([diag, np.repeat(upper_rows, 2)])
    cols = np.concatenate([diag, np.repeat(upper_cols, 2)])
    coeffs = np.concatenate([np.ones(d), np.tile([1.0, 1.0j], len(upper_rows))])
    return rows, cols, coeffs


@cache
def slot_map(n_params):
    """(d, slots, transposed) for a length-n_params parameter vector.

    slots[k] is where t_k sits in the (re, im) float view of T, and
    transposed[k] the same part (re or im) of the transposed entry
    (col_k, row_k).  The likelihood reads d q_mu / d t_k / 2 =
    Re(c_k (O_mu T^dag)[col_k, row_k]) there, in the float view of
    conj(O_mu T^dag): c_k is 1 or 1j, so it is that entry's real or
    imaginary part.  Cached per n_params, so d and the layout are computed
    once.
    """
    d = param_dim(n_params)
    rows, cols, coeffs = param_layout(d)
    imag = coeffs.imag != 0
    return d, 2 * (rows * d + cols) + imag, 2 * (cols * d + rows) + imag


def build_T(t):
    """Upper-triangular T(t) for a length-d^2 real parameter vector.

    A (B, d^2) block of vectors gives the (B, d, d) stack of their T.
    Each t_k is written straight into its slot of T's (re, im) float view.
    """
    t = np.asarray(t, dtype=float)
    d, slots, *_ = slot_map(t.shape[-1])
    T = np.zeros(t.shape[:-1] + (d, d), dtype=complex)
    T.reshape(t.shape[:-1] + (d * d,)).view(float)[..., slots] = t
    return T


def rho_of_t(t):
    """Density matrix T(t)^dag T(t) / ||t||^2; a (B, d^2) block of vectors
    gives the (B, d, d) stack of their states, each bit for bit its row's."""
    t = np.asarray(t, dtype=float)
    norm_sq = np.vecdot(t, t)[..., None]  # shape (..., 1)
    if (norm_sq <= NORM_GUARD**2).any():
        raise DegenerateParameterError(f"||t|| = {np.sqrt(norm_sq.min())} is below the guard")
    T = build_T(t)
    rho = T.conj().swapaxes(-1, -2) @ T / norm_sq[..., None]
    # symmetrize away the last bits of round-off
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def inverse_param(rho, pattern=None, alpha=1.0):
    """Parameter vector with rho_of_t(t) = rho, ||t||^2 = alpha and prescribed
    diagonal signs.

    Computed from the Cholesky factor of alpha * rho; each row of the upper
    factor is flipped to match the requested sign.  Requires rho strictly
    positive definite (interior states only).
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if pattern is None:
        pattern = np.ones(d)
    pattern = np.asarray(pattern, dtype=float)
    if pattern.shape != (d,) or not np.all(np.abs(pattern) == 1.0):
        raise DimensionError(f"sign pattern must be {d} values in {{+1,-1}}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    w = np.linalg.eigvalsh(rho)
    if w[0] <= 1e-10:
        raise BoundaryStateError(
            f"smallest eigenvalue {w[0]:.3e} <= 1e-10; state is not in the relative interior"
        )
    try:
        lower = np.linalg.cholesky(alpha * rho)
    except np.linalg.LinAlgError as exc:
        raise BoundaryStateError(f"Cholesky factorization failed: {exc}") from exc
    T = lower.conj().T  # upper triangular, positive real diagonal
    T = pattern[:, None] * T  # row sign flips leave T^dag T unchanged
    _, slots, *_ = slot_map(d * d)
    return np.ravel(T).view(float)[slots]


def all_sign_patterns(d):
    """All 2^d diagonal sign patterns as one (2^d, d) array of +/-1: entry i
    of pattern k is -1 where bit i of k is set.  More than MAX_SIGN_PATTERNS
    raises CapacityError before anything is built."""
    if 2**d > MAX_SIGN_PATTERNS:
        raise CapacityError(f"{2**d} sign patterns at d = {d} exceed the cap {MAX_SIGN_PATTERNS}")
    bits = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
    return 1.0 - 2.0 * bits


def random_param(rng, d):
    """Uniform draw from [-1, 1]^{d^2}, redrawn while a diagonal entry is
    below DIAG_FLOOR in magnitude.

    Keeps samples (and the states they map to) away from the boundary where
    the signed-Cholesky correspondence breaks down.
    """
    while True:
        t = rng.uniform(-1.0, 1.0, size=d * d)
        if np.all(np.abs(t[:d]) >= DIAG_FLOOR):
            return t


def random_density(rng, d):
    """Random interior density matrix via rho_of_t of a rejected-uniform draw."""
    return rho_of_t(random_param(rng, d))
