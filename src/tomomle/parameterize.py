"""The map t -> T(t) -> rho(t) and its signed-Cholesky inverse.

T(t) is upper triangular: the first d entries of t fill the (real) diagonal,
the remaining entries fill the strict upper triangle row-major, two at a time
as (real, imaginary) pairs.  rho(t) = T(t)^dag T(t) / tr(T(t)^dag T(t)) is
Hermitian, unit-trace and positive semidefinite for every nonzero t, and is
invariant under rescaling of t.
"""

import numpy as np

from .errors import BoundaryStateError, DegenerateParameterError, DimensionError

NORM_GUARD = 1e-150

_INDEX_CACHE = {}


def param_dim(n_params):
    """Matrix dimension d from the parameter count d^2."""
    d = int(round(np.sqrt(n_params)))
    if d * d != n_params or d < 1:
        raise DimensionError(f"parameter vector length {n_params} is not a perfect square")
    return d


def _triangle_indices(d):
    # the one statement of the layout: diagonal, then the strict upper
    # triangle row-major (np.triu_indices order)
    if d not in _INDEX_CACHE:
        _INDEX_CACHE[d] = (np.diag_indices(d), np.triu_indices(d, 1))
    return _INDEX_CACHE[d]


def param_layout(d):
    """Entry (row, col, coefficient) of dT/dt_k for each parameter index k.

    Diagonal parameters come first (coefficient 1), then row-major strict
    upper-triangle pairs with coefficients 1 and 1j.
    """
    (diag, _), (upper_rows, upper_cols) = _triangle_indices(d)
    rows = np.concatenate([diag, np.repeat(upper_rows, 2)])
    cols = np.concatenate([diag, np.repeat(upper_cols, 2)])
    coeffs = np.concatenate([np.ones(d), np.tile([1.0, 1.0j], len(upper_rows))])
    return rows, cols, coeffs


def build_T(t):
    """Upper-triangular T(t) for a length-d^2 real parameter vector.

    A (B, d^2) block of vectors gives the (B, d, d) stack of their T.
    """
    t = np.asarray(t, dtype=float)
    d = param_dim(t.shape[-1])
    (diag_rows, diag_cols), (upper_rows, upper_cols) = _triangle_indices(d)
    T = np.zeros(t.shape[:-1] + (d, d), dtype=complex)
    T[..., diag_rows, diag_cols] = t[..., :d]
    T[..., upper_rows, upper_cols] = t[..., d::2] + 1j * t[..., d + 1::2]
    return T


def rho_of_t(t):
    """Density matrix T(t)^dag T(t) / ||t||^2."""
    t = np.asarray(t, dtype=float)
    norm_sq = float(t @ t)
    if norm_sq <= NORM_GUARD**2:
        raise DegenerateParameterError(f"||t|| = {np.sqrt(norm_sq)} is below the guard")
    T = build_T(t)
    rho = T.conj().T @ T / norm_sq
    # symmetrize away the last bits of round-off
    return 0.5 * (rho + rho.conj().T)


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
    diagonal, upper = _triangle_indices(d)
    t = np.empty(d * d)
    t[:d] = T[diagonal].real
    t[d::2] = T[upper].real
    t[d + 1::2] = T[upper].imag
    return t


def in_r_star_star(t, tol=1e-8):
    """True iff every diagonal parameter has magnitude above tol."""
    t = np.asarray(t, dtype=float)
    d = param_dim(t.size)
    return bool(np.all(np.abs(t[:d]) > tol))


def all_sign_patterns(d):
    """All 2^d diagonal sign patterns, as +/-1 arrays."""
    patterns = []
    for bits in range(2**d):
        patterns.append(np.array([1.0 if bits & (1 << i) == 0 else -1.0 for i in range(d)]))
    return patterns


def random_param(rng, d, diag_floor=1e-3):
    """Uniform draw from [-1, 1]^{d^2}, rejecting near-zero diagonal entries.

    Keeps samples (and the states they map to) away from the boundary where
    the signed-Cholesky correspondence breaks down.
    """
    while True:
        t = rng.uniform(-1.0, 1.0, size=d * d)
        if np.all(np.abs(t[:d]) >= diag_floor):
            return t


def random_density(rng, d, diag_floor=1e-3):
    """Random interior density matrix via rho_of_t of a rejected-uniform draw."""
    return rho_of_t(random_param(rng, d, diag_floor))
