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

_SLOT_CACHE = {}


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


def slot_map(n_params):
    """(d, slots, transposed, factor) for a length-n_params parameter vector.

    slots[k] is where t_k sits in the (re, im) float view of T.  The
    likelihood reads d q_mu / d t_k = 2 Re(c_k (O_mu T^dag)[col_k, row_k])
    from the float view of a (d, d) product: c_k is 1 or 1j, so this is the
    slot transposed[k] of the transposed entry, times factor[k] = +2 or -2.
    Cached per n_params, so d and the layout are computed once.
    """
    layout = _SLOT_CACHE.get(n_params)
    if layout is None:
        d = param_dim(n_params)
        rows, cols, coeffs = param_layout(d)
        imag = coeffs.imag != 0
        layout = _SLOT_CACHE[n_params] = (
            d,
            2 * (rows * d + cols) + imag,
            2 * (cols * d + rows) + imag,
            np.where(imag, -2.0, 2.0),
        )
    return layout


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
    _, slots, *_ = slot_map(d * d)
    return np.ravel(T).view(float)[slots]


def in_r_star_star(t, tol=1e-8):
    """True iff every diagonal parameter has magnitude above tol."""
    t = np.asarray(t, dtype=float)
    d = param_dim(t.size)
    return bool(np.all(np.abs(t[:d]) > tol))


def all_sign_patterns(d):
    """All 2^d diagonal sign patterns as one (2^d, d) array of +/-1: entry i
    of pattern k is -1 where bit i of k is set."""
    bits = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
    return 1.0 - 2.0 * bits


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
