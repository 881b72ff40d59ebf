"""The Gaussian negative log-likelihood over parameter space.

One objective, the Pearson-weighted one of James, Kwiat, Munro and White
(PRA 64, 052312, 2001), convex in rho, is read through the chain rule of
rho(t) = T^dag T / tr(T^dag T):

  F(t) = 1/2 sum_mu [(p_mu(t) - f_mu) / sqrt(p_mu(t))]^2

with p_mu(t) = tr(O_mu rho(t)).  Probabilities below a small floor are
clamped (and flagged) so that evaluation is total near the boundary, where
the true objective can blow up.

F is homogeneous of degree zero in t, hence F(c t) = F(t) and
grad F(c t) = grad F(t) / c for any c != 0 -- the reason gradient norms can
become artificially small at large ||t||.

Everything is read from one kernel, _forms.  Each probability is a ratio of
quadratic forms, p_mu(t) = t^T Q_mu t / t^T t, and the rows y_mu = t^T Q_mu
give every derivative: with w_mu = dF/dp_mu,

  gradient:  g = 2 (w^T y - (w . p) t) / ||t||^2,  w = r dr/dp
  Jacobian:  J = (y - p t^T) * 2 dr/dp / ||t||^2

The rows are stated once, by _rows, as the operator products conj(O_mu) T^T
read at slot_map's transposed slots; the dimension picks only where they
are evaluated.  Above QUADRATIC_FORM_MAX_DIM (d = 4) _rows runs at t.  Up
to it y is one product with the (d^2, m d^2) matrix of the Q_mu, which is
_rows tabulated at the d^2 unit vectors, built on first use and kept by
each model (8 m d^4 bytes, d^2 / 2 times the operator stack); there
value(2^k t) is value(t) bit for bit, since every product and sum scales
exactly.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .parameterize import build_T, slot_map

PROBABILITY_FLOOR = 1e-12
# dr/dp where p is floored
FLOORED_DRDP = 1.0 / np.sqrt(PROBABILITY_FLOOR)
# _forms reads y from the quadratic forms up to this dimension and from the
# operator products above it: per vector the forms cost m d^4 multiply-adds
# and the products 4 m d^3, and Q takes d^2 / 2 times the stack's bytes
# (8x at d = 4, 134 MB for 256 operators at d = 16)
QUADRATIC_FORM_MAX_DIM = 4


@dataclass(frozen=True)
class ObjectiveModel:
    """Measurement operators and observed frequencies of the Gaussian
    objective.

    `povm` is the complex (m, d, d) operator stack, the one every evaluation
    reads: through _rows above QUADRATIC_FORM_MAX_DIM, and through
    `quadratic_form`, its rows tabulated, up to it.  The methods are the
    solvers' interface; each calls the module function of the same name.
    """

    povm: np.ndarray
    freqs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "povm", np.asarray(self.povm, dtype=complex))
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        if len(self.povm) != len(self.freqs):
            raise DimensionError(
                f"{len(self.povm)} operators for {len(self.freqs)} frequencies"
            )

    @property
    def dim(self):
        return self.povm.shape[1]

    @property
    def n_params(self):
        return self.dim**2

    def value(self, t):
        return value(t, self)

    def value_and_gradient(self, t):
        return value_and_gradient(t, self)

    def residuals_and_jacobian(self, t):
        return residuals_and_jacobian(t, self)

    @cached_property
    def quadratic_form(self):
        """The real (n, m n) matrix Q, n = d^2, that _forms reads up to
        QUADRATIC_FORM_MAX_DIM, built on first use and kept.  Its mu-th
        (n, n) block of columns is the symmetric Q_mu with
        tr(O_mu T^dag T) = t^T Q_mu t.  Q tabulates the products at the unit
        vectors."""
        n = self.n_params
        return _rows(np.eye(n), self).reshape(n, -1)


@dataclass
class ObjectiveEvaluation:
    value: float
    gradient: np.ndarray
    floor_hit: bool = False


def _rows(t, model):
    """The (..., m, n) rows y_mu = t^T Q_mu at one vector t or a (B, n)
    block: y_mu[k] = Re(c_k (O_mu T^dag)[col_k, row_k]) for c_k = 1 or 1j,
    which is the real or imaginary part of conj(O_mu T^dag) = conj(O_mu) T^T
    at that entry.  One gemm with the operator stack, conjugated in place and
    read at slot_map's transposed slots of its float view."""
    *_, transposed = slot_map(t.shape[-1])
    b = model.povm.reshape(-1, model.dim) @ build_T(t).conj().swapaxes(-1, -2)
    np.conjugate(b, out=b)
    b = b.view(float).reshape(t.shape[:-1] + (len(model.povm), -1))
    return np.take(b, transposed, axis=-1)


def _forms(t, model):
    """(y, p, s) at one vector t or a (B, n) block of them: the (..., m, n)
    rows y_mu = t^T Q_mu, half the gradient of q_mu = t^T Q_mu t (Q_mu is
    symmetric, as O_mu is Hermitian), p_mu = y_mu . t / s and s = ||t||^2
    (shape (..., 1) for a block).

    Only y depends on d: _rows above QUADRATIC_FORM_MAX_DIM, one product
    with model.quadratic_form up to it, taken as ndarray.dot for one vector
    and a block alike.  p and s take ndarray.dot for one vector, @ and
    vecdot for a block.
    """
    t = np.asarray(t, dtype=float)
    if model.dim > QUADRATIC_FORM_MAX_DIM:
        y = _rows(t, model)
    else:
        y = t.dot(model.quadratic_form).reshape(t.shape[:-1] + (len(model.povm), -1))
    if t.ndim == 1:
        s = t.dot(t)
        return y, y.dot(t) / s, s
    s = np.vecdot(t, t)[..., None]
    return y, (y @ t[..., None])[..., 0] / s, s


def value(t, model):
    """Objective value only (used by derivative-free search)."""
    _, p, _ = _forms(t, model)
    pf = np.maximum(p, PROBABILITY_FLOOR)
    r = (p - model.freqs) / np.sqrt(pf)
    return 0.5 * r.dot(r)


def _residuals(p, model):
    """Weighted residuals r_mu = (p_mu - f_mu) / sqrt(p_mu) and dr_mu/dp_mu,
    with p floored."""
    pf = np.maximum(p, PROBABILITY_FLOOR)
    r = (p - model.freqs) / np.sqrt(pf)
    drdp = np.where(p > PROBABILITY_FLOOR, (p + model.freqs) / (2.0 * pf**1.5), FLOORED_DRDP)
    return r, drdp


def residuals_and_jacobian(t, model):
    """Residual vector and its Jacobian.

    A (B, d^2) block of vectors gives (B, m) residuals and a (B, m, d^2)
    Jacobian; the floor flag is set if any row hits the floor.  With
    dp_mu = 2 (y_mu - p_mu t) / ||t||^2 (see _forms), the Jacobian is
    (y - p t^T) * 2 dr/dp / ||t||^2, formed in place on y.
    """
    t = np.asarray(t, dtype=float)
    jac, p, s = _forms(t, model)
    r, drdp = _residuals(p, model)
    jac -= p[..., None] * t[..., None, :]
    jac *= (2.0 * drdp / s)[..., None]
    return r, jac, bool((p < PROBABILITY_FLOOR).any())


def value_and_gradient(t, model):
    """Value and analytic gradient at one vector t, w_mu = dF/dp_mu = r dr/dp:

        g = 2 (w^T y - (w . p) t) / ||t||^2

    with y_mu = t^T Q_mu = (dq_mu/dt) / 2 (see _forms).
    """
    t = np.asarray(t, dtype=float)
    y, p, s = _forms(t, model)
    r, drdp = _residuals(p, model)
    w = r * drdp
    g = 2.0 * w.dot(y) - (2.0 * w.dot(p)) * t
    return ObjectiveEvaluation(0.5 * r.dot(r), g / s, bool((p < PROBABILITY_FLOOR).any()))


def finite_difference_gradient(t, model):
    """Central-difference gradient, step 1e-6 max(1, ||t||); the independent
    check on the analytic one."""
    t = np.asarray(t, dtype=float)
    h = 1e-6 * max(1.0, float(np.linalg.norm(t)))
    g = np.empty(t.size)
    for k in range(t.size):
        tp = t.copy()
        tm = t.copy()
        tp[k] += h
        tm[k] -= h
        g[k] = (value(tp, model) - value(tm, model)) / (2.0 * h)
    return g
