"""An independent reference for the Gaussian objective's minimum F*, taken
over density matrices rather than through the parameter map t -> rho(t).

    F(rho) = 1/2 sum_mu (p_mu - f_mu)^2 / p_mu,   p_mu = tr(O_mu rho)

is convex in rho, with gradient G = sum_mu w_mu O_mu, w_mu = dF/dp_mu =
(1 - f_mu^2 / p_mu^2) / 2.  Over the density matrices, min tr(G sigma) is
lambda_min(G), so

    gap(rho) = tr(G rho) - lambda_min(G) = w . p - lambda_min(G) >= F(rho) - F*

bounds any state's distance in F from the minimum.  minimize runs
accelerated projected gradient (FISTA with backtracking on the step 1/L)
until its own gap is at most `gap_tol`; the projection onto the density
matrices is one eigh plus a projection of the eigenvalues onto the simplex.
"""

import numpy as np

from tomomle.likelihood import PROBABILITY_FLOOR

# the backtracking test's slack, relative to F: below it, F(z) and its
# quadratic model differ by rounding, and L would double without end
ROUNDING = 1e-13
# L's factor at the start of each iteration, so that the step 1/L can grow
# again after a region of high curvature
L_SHRINK = 0.9


def probabilities(povm, rho):
    """p_mu = tr(O_mu rho), real, for a Hermitian rho."""
    return np.einsum("mij,ji->m", povm, rho).real


def objective(povm, freqs, rho):
    """F(rho), +inf where a probability falls below PROBABILITY_FLOOR."""
    p = probabilities(povm, rho)
    if (p < PROBABILITY_FLOOR).any():
        return np.inf
    return 0.5 * float(((p - freqs) ** 2 / p).sum())


def _weights(povm, freqs, rho):
    """(w, p) at rho, w_mu = dF/dp_mu = (1 - f_mu^2 / p_mu^2) / 2."""
    p = probabilities(povm, rho)
    return 0.5 * (1.0 - (freqs / p) ** 2), p


def gap(povm, freqs, rho):
    """w . p - lambda_min(G), an upper bound on F(rho) - F* for any state rho
    whose probabilities are positive."""
    w, p = _weights(povm, freqs, rho)
    return float(w @ p) - np.linalg.eigvalsh(np.tensordot(w, povm, axes=1))[0]


def _simplex(lam):
    """The Euclidean projection of a vector onto {x >= 0, sum x = 1}."""
    u = np.sort(lam)[::-1]
    c = np.cumsum(u) - 1.0
    k = np.flatnonzero(u - c / np.arange(1, len(u) + 1) > 0)[-1]
    return np.maximum(lam - c[k] / (k + 1), 0.0)


def project(h):
    """The density matrix nearest (in Frobenius norm) to a Hermitian h."""
    lam, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (v * _simplex(lam)) @ v.conj().T


def minimize(povm, freqs, gap_tol=1e-8, max_iters=10_000):
    """(rho, F(rho), gap(rho), iterations) from the maximally mixed state.

    Each iteration first lowers L by L_SHRINK, then doubles it until F(z)
    is below its quadratic model at the extrapolated point y.  The gap is
    tested at each new point z, before the momentum restarts (y = z), which
    it does when F rose or when the next y floors a probability.
    """
    povm = np.asarray(povm, dtype=complex)
    freqs = np.asarray(freqs, dtype=float)
    d = povm.shape[1]
    x = np.eye(d, dtype=complex) / d
    fx = objective(povm, freqs, x)
    y, fy, theta, lip = x, fx, 1.0, 1.0
    for it in range(1, max_iters + 1):
        g = np.tensordot(_weights(povm, freqs, y)[0], povm, axes=1)
        lip *= L_SHRINK
        while True:
            z = project(y - g / lip)
            fz = objective(povm, freqs, z)
            step = z - y
            model = fy + np.vdot(g, step).real + 0.5 * lip * np.vdot(step, step).real
            if fz <= model + ROUNDING * fy:
                break
            lip *= 2.0
        z_gap = gap(povm, freqs, z)
        if z_gap <= gap_tol:
            return z, fz, z_gap, it
        rose = fz > fx
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta**2))
        y = z + ((theta - 1.0) / theta_next) * (z - x)
        x, fx, theta = z, fz, theta_next
        fy = objective(povm, freqs, y)
        if rose or not np.isfinite(fy):
            y, fy, theta = x, fx, 1.0
    raise RuntimeError(f"no gap below {gap_tol} in {max_iters} iterations")
