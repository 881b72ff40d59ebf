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
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .parameterize import build_T, slot_map

PROBABILITY_FLOOR = 1e-12

_LAYOUT_CACHE = {}


def _layout(n_params):
    """Where d q_mu / d t_k = 2 Re(c_k * (O_mu T^dag)[col_k, row_k]) sits in
    the (re, im) float view of a (d, d) product, and the factor +-2.

    c_k is 1 or 1j, so the real part of c_k z is Re z or -Im z: the slot of
    the transposed entry, taken with sign +1 or -1.
    """
    if n_params not in _LAYOUT_CACHE:
        d, rows, cols, imag, _ = slot_map(n_params)
        _LAYOUT_CACHE[n_params] = (2 * (cols * d + rows) + imag, np.where(imag, -2.0, 2.0))
    return _LAYOUT_CACHE[n_params]


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


@dataclass
class ObjectiveEvaluation:
    value: float
    gradient: np.ndarray
    floor_hit: bool = False


def _products(t, mats):
    """T(t) and the (..., m, d, d) products A_mu = O_mu T^dag.

    The operator stack enters as its (m d, d) rows, so each parameter
    vector costs one gemm, not one per operator.
    """
    T = build_T(t)
    d = T.shape[-1]
    a = mats.reshape(-1, d) @ T.conj().swapaxes(-1, -2)
    return T, a.reshape(T.shape[:-2] + mats.shape)


def _probs_and_derivs(t, mats):
    """p_mu(t) and the m x d^2 matrix of partials dp_mu/dt_k; mats is the
    (m, d, d) operator stack.  A (B, d^2) block of vectors gives (B, m)
    probabilities and (B, m, d^2) partials, one row per vector."""
    t = np.asarray(t, dtype=float)
    pos, factor = _layout(t.shape[-1])
    T, a = _products(t, mats)
    s = (t[..., None, :] @ t[..., :, None])[..., 0]  # ||t||^2, shape (..., 1)
    q = np.real(np.einsum("...mij,...ji->...m", a, T))
    p = q / s
    # dp = (dq - 2 p t^T) / s, in place on dq
    dp = factor * np.take(a.view(float).reshape(a.shape[:-2] + (-1,)), pos, axis=-1)
    dp -= p[..., None] * (2.0 * t[..., None, :])
    dp /= s[..., None]
    return p, dp


def _probs(t, mats):
    """T(t) and p_mu(t) at one float vector t: the products of _products,
    without its block bookkeeping."""
    T = build_T(t)
    a = (mats.reshape(-1, T.shape[0]) @ T.conj().T).reshape(mats.shape)
    return T, np.einsum("mij,ji->m", a, T).real / float(t @ t)


def value(t, model):
    """Objective value only (used by derivative-free search)."""
    _, p = _probs(np.asarray(t, dtype=float), model.povm)
    pf = np.maximum(p, PROBABILITY_FLOOR)
    if model.kind == "gaussian":
        r = (p - model.freqs) / np.sqrt(pf)
        return 0.5 * float(r @ r)
    return -float(model.freqs @ np.log(pf))


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
    Jacobian; the floor flag is set if any row hits the floor.
    """
    if model.kind != "gaussian":
        raise ValueError("residuals are defined for the gaussian objective only")
    p, dp = _probs_and_derivs(t, model.povm)
    r, drdp = _residuals(p, model)
    dp *= drdp[..., None]
    return r, dp, bool(np.any(p < PROBABILITY_FLOOR))


def value_and_gradient(t, model):
    """Value and analytic gradient at one vector t, through the one operator
    R = sum_mu w_mu O_mu of Hradil's R rho R iteration, w_mu = dF/dp_mu:

        g_k = (2 Re[c_k (R T^dag)[col_k, row_k]] - 2 (w . p) t_k) / ||t||^2

    Gaussian: w = r dr/dp; multinomial: w = -f / p, zero where p is floored.
    """
    t = np.asarray(t, dtype=float)
    mats = model.povm
    T, p = _probs(t, mats)
    if model.kind == "gaussian":
        r, drdp = _residuals(p, model)
        f = 0.5 * float(r @ r)
        w = r * drdp
    else:
        pf = np.maximum(p, PROBABILITY_FLOOR)
        f = -float(model.freqs @ np.log(pf))
        w = np.where(p > PROBABILITY_FLOOR, -model.freqs / pf, 0.0)
    pos, factor = _layout(t.size)
    # R = sum_mu w_mu O_mu as the one gemm np.tensordot(w, mats, 1) makes
    R = np.dot(w[None, :], mats.reshape(len(mats), -1)).reshape(T.shape)
    rt = R @ T.conj().T
    g = factor * rt.view(float).ravel()[pos] - (2.0 * float(w @ p)) * t
    return ObjectiveEvaluation(f, g / float(t @ t), bool((p < PROBABILITY_FLOOR).any()))


def finite_difference_gradient(t, model, h=None):
    """Central-difference gradient; the independent check on the analytic one."""
    t = np.asarray(t, dtype=float)
    if h is None:
        h = 1e-6 * max(1.0, float(np.linalg.norm(t)))
    g = np.empty(t.size)
    for k in range(t.size):
        tp = t.copy()
        tm = t.copy()
        tp[k] += h
        tm[k] -= h
        g[k] = (value(tp, model) - value(tm, model)) / (2.0 * h)
    return g
