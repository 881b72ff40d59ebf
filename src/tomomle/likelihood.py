"""Negative log-likelihood objectives over parameter space.

Two objective kinds share one differentiation engine through the chain rule
of rho(t) = T^dag T / tr(T^dag T):

  gaussian:    F(t) = 1/2 sum_mu [(p_mu(t) - f_mu) / sqrt(p_mu(t))]^2
  multinomial: F(t) = -sum_mu f_mu * log p_mu(t)

with p_mu(t) = tr(O_mu rho(t)).  Probabilities below a small floor are
clamped (and flagged) so that evaluation is total near the boundary, where
the true objective can blow up.

Both objectives are homogeneous of degree zero in t, hence F(c t) = F(t) and
grad F(c t) = grad F(t) / c for any c != 0 -- the reason gradient norms can
become artificially small at large ||t||.

Every probability is a ratio of quadratic forms, p_mu(t) = t^T Q_mu t / t^T t.
Up to QUADRATIC_FORM_MAX_DIM (d = 4) every evaluation reads the (d^2, m d^2)
matrix of the Q_mu, which each model builds on first use and keeps (8 m d^4
bytes, d^2 / 2 times the operator stack): the residual Jacobian of a whole
block of vectors comes from one gemm with it, and value and
value_and_gradient take one gemv at one vector.  Above it every evaluation
takes the operator products O_mu T^dag.  On the quadratic forms, value(2^k t)
is value(t) bit for bit, since every product and sum scales exactly.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .parameterize import build_T, param_layout, slot_map

PROBABILITY_FLOOR = 1e-12
# residuals_and_jacobian takes the quadratic forms up to this dimension and
# the operator products above it: per vector the forms cost m d^4
# multiply-adds and the products 4 m d^3, and Q takes d^2 / 2 times the
# stack's bytes (8x at d = 4, 134 MB for 256 operators at d = 16)
QUADRATIC_FORM_MAX_DIM = 4


@dataclass(frozen=True)
class ObjectiveModel:
    """Objective kind, measurement operators and observed frequencies.

    `povm` is the complex (m, d, d) operator stack that every evaluation
    reads.  The methods are the solvers' interface; each calls the module
    function of the same name.
    """

    kind: str  # "gaussian" | "multinomial"
    povm: np.ndarray
    freqs: np.ndarray

    def __post_init__(self):
        if self.kind not in ("gaussian", "multinomial"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
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
        """The real (n, m n) matrix Q, n = d^2, built on first use, with
        tr(O_mu T^dag T) = t^T Q_mu t for the mu-th (n, n) block Q_mu of
        its columns:

            Q_mu[k, l] = Re(conj(c_k) c_l O_mu[col_l, col_k])

        when parameters k and l sit in the same row of T (param_layout's
        (row, col, c) of each parameter), and 0 otherwise."""
        m, d, _ = self.povm.shape
        rows, cols, coeffs = param_layout(d)
        q = np.real(coeffs.conj()[:, None] * coeffs * self.povm[:, cols[None, :], cols[:, None]])
        q *= rows[:, None] == rows
        return q.transpose(1, 0, 2).reshape(d * d, m * d * d)


@dataclass
class ObjectiveEvaluation:
    value: float
    gradient: np.ndarray
    floor_hit: bool = False


def _probs_and_derivs(t, mats):
    """p_mu(t) and the m x d^2 matrix of partials dp_mu/dt_k; mats is the
    (m, d, d) operator stack.  A (B, d^2) block of vectors gives (B, m)
    probabilities and (B, m, d^2) partials, one row per vector.  T(t)
    comes from build_T, and the stack enters A_mu = O_mu T^dag as its
    (m d, d) rows: one gemm per vector."""
    t = np.asarray(t, dtype=float)
    d, _, pos, factor = slot_map(t.shape[-1])
    T = build_T(t)
    a = (mats.reshape(-1, d) @ T.conj().swapaxes(-1, -2)).reshape(t.shape[:-1] + mats.shape)
    s = np.vecdot(t, t)[..., None]  # ||t||^2, shape (..., 1)
    q = np.real(np.einsum("...mij,...ji->...m", a, T))
    p = q / s
    # dp = (dq - 2 p t^T) / s, in place on dq
    dp = factor * np.take(a.view(float).reshape(a.shape[:-2] + (-1,)), pos, axis=-1)
    dp -= p[..., None] * (2.0 * t[..., None, :])
    dp /= s[..., None]
    return p, dp


def _probs(t, mats, d, slots):
    """T(t) and p_mu(t) at one float vector t: the products of
    _probs_and_derivs, without its block bookkeeping.  Each t_k is written
    into its slot of T's float view, as build_T does; every 1-D dot is
    ndarray.dot, bit for bit the BLAS dot of @."""
    T = np.zeros((d, d), dtype=complex)
    T.reshape(-1).view(float)[slots] = t
    a = (mats.reshape(-1, d) @ T.conj().T).reshape(mats.shape)
    return T, np.einsum("mij,ji->m", a, T).real / t.dot(t)


def _quadratic_probs(t, model):
    """y and p_mu(t) at one float vector t, d <= QUADRATIC_FORM_MAX_DIM:
    the (m, n) rows y_mu = t^T Q_mu and p_mu = y_mu t / ||t||^2."""
    y = t.dot(model.quadratic_form).reshape(len(model.povm), t.size)
    return y, y.dot(t) / t.dot(t)


def value(t, model):
    """Objective value only (used by derivative-free search)."""
    t = np.asarray(t, dtype=float)
    if model.dim > QUADRATIC_FORM_MAX_DIM:
        d, slots, *_ = slot_map(t.size)
        _, p = _probs(t, model.povm, d, slots)
    else:
        _, p = _quadratic_probs(t, model)
    pf = np.maximum(p, PROBABILITY_FLOOR)
    if model.kind == "gaussian":
        r = (p - model.freqs) / np.sqrt(pf)
        return 0.5 * r.dot(r)
    return -model.freqs.dot(np.log(pf))


def _residuals(p, model):
    """Weighted residuals r_mu = (p_mu - f_mu) / sqrt(p_mu) and dr_mu/dp_mu,
    with p floored."""
    pf = np.maximum(p, PROBABILITY_FLOOR)
    r = (p - model.freqs) / np.sqrt(pf)
    drdp = np.where(
        p > PROBABILITY_FLOOR,
        (p + model.freqs) / (2.0 * pf**1.5),
        1.0 / np.sqrt(PROBABILITY_FLOOR),
    )
    return r, drdp


def residuals_and_jacobian(t, model):
    """Residual vector and its Jacobian (gaussian kind).

    A (B, d^2) block of vectors gives (B, m) residuals and a (B, m, d^2)
    Jacobian; the floor flag is set if any row hits the floor.  Up to
    QUADRATIC_FORM_MAX_DIM the whole block takes its m quadratic forms from
    one gemm with model.quadratic_form: y_mu = t^T Q_mu = dq_mu / 2 (Q_mu is
    symmetric, as O_mu is Hermitian), p_mu = y_mu t / ||t||^2 and
    dp_mu = 2 (y_mu - p_mu t) / ||t||^2.
    """
    if model.kind != "gaussian":
        raise ValueError("residuals are defined for the gaussian objective only")
    if model.dim > QUADRATIC_FORM_MAX_DIM:
        p, jac = _probs_and_derivs(t, model.povm)
        r, drdp = _residuals(p, model)
        jac *= drdp[..., None]
    else:
        t = np.asarray(t, dtype=float)
        s = np.vecdot(t, t)[..., None]  # ||t||^2, shape (..., 1)
        jac = (t @ model.quadratic_form).reshape(t.shape[:-1] + (len(model.povm), t.shape[-1]))
        p = (jac @ t[..., None])[..., 0] / s
        r, drdp = _residuals(p, model)
        # y_mu becomes the Jacobian in place: (y - p t^T) * 2 dr/dp / ||t||^2
        jac -= p[..., None] * t[..., None, :]
        jac *= (2.0 * drdp / s)[..., None]
    return r, jac, bool((p < PROBABILITY_FLOOR).any())


def value_and_gradient(t, model):
    """Value and analytic gradient at one vector t, w_mu = dF/dp_mu:

        g = (sum_mu w_mu dq_mu/dt - 2 (w . p) t) / ||t||^2

    with q_mu = t^T Q_mu t.  Up to QUADRATIC_FORM_MAX_DIM, dq_mu/dt = 2 y_mu
    (see _quadratic_probs).  Above it the sum comes from the one operator
    R = sum_mu w_mu O_mu of Hradil's R rho R iteration, as
    2 Re[c_k (R T^dag)[col_k, row_k]].

    Gaussian: w = r dr/dp; multinomial: w = -f / p, zero where p is floored.
    """
    t = np.asarray(t, dtype=float)
    mats = model.povm
    if model.dim > QUADRATIC_FORM_MAX_DIM:
        d, slots, pos, factor = slot_map(t.size)
        T, p = _probs(t, mats, d, slots)
    else:
        y, p = _quadratic_probs(t, model)
    if model.kind == "gaussian":
        r, drdp = _residuals(p, model)
        f = 0.5 * r.dot(r)
        w = r * drdp
    else:
        pf = np.maximum(p, PROBABILITY_FLOOR)
        f = -model.freqs.dot(np.log(pf))
        w = np.where(p > PROBABILITY_FLOOR, -model.freqs / pf, 0.0)
    if model.dim > QUADRATIC_FORM_MAX_DIM:
        # R = sum_mu w_mu O_mu as the one gemm np.tensordot(w, mats, 1) makes
        R = np.dot(w[None, :], mats.reshape(len(mats), -1)).reshape(T.shape)
        dq = factor * (R @ T.conj().T).view(float).ravel()[pos]
    else:
        dq = 2.0 * w.dot(y)
    g = dq - (2.0 * w.dot(p)) * t
    return ObjectiveEvaluation(f, g / t.dot(t), bool((p < PROBABILITY_FLOOR).any()))


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
