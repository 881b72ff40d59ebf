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

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .measurement import born_probability
from .parameterize import build_T, param_dim, param_layout

PROBABILITY_FLOOR = 1e-12

_LAYOUT_CACHE = {}


def _layout(d):
    if d not in _LAYOUT_CACHE:
        _LAYOUT_CACHE[d] = param_layout(d)
    return _LAYOUT_CACHE[d]


@dataclass(frozen=True)
class ObjectiveModel:
    """Objective kind, measurement operators and observed frequencies.

    The operator matrices are stacked once, at construction, into the
    (m, d, d) array `mats` that every evaluation reuses.
    """

    kind: str  # "gaussian" | "multinomial"
    povm: tuple
    freqs: np.ndarray
    probability_floor: float = PROBABILITY_FLOOR
    mats: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("gaussian", "multinomial"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        object.__setattr__(self, "povm", tuple(self.povm))
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        if len(self.povm) != len(self.freqs):
            raise DimensionError(
                f"{len(self.povm)} operators for {len(self.freqs)} frequencies"
            )
        object.__setattr__(self, "mats", np.stack([op.matrix for op in self.povm]))

    @property
    def dim(self):
        return self.mats.shape[1]

    @property
    def n_params(self):
        return self.dim**2


@dataclass
class ObjectiveEvaluation:
    value: float
    residuals: np.ndarray | None
    gradient: np.ndarray
    jacobian: np.ndarray | None
    floor_hit: bool = field(default=False)


def _probs_and_derivs(t, mats):
    """p_mu(t) and the m x d^2 matrix of partials dp_mu/dt_k; mats is the
    (m, d, d) operator stack."""
    t = np.asarray(t, dtype=float)
    d = param_dim(t.size)
    rows, cols, coeffs = _layout(d)
    T = build_T(t)
    Th = T.conj().T
    s = float(t @ t)
    a = mats @ Th  # A_mu = O_mu T^dag
    q = np.real(np.einsum("mij,ji->m", a, T))
    # d q_mu / d t_k = 2 Re(c_k * (O_mu T^dag)[col_k, row_k])
    dq = 2.0 * np.real(coeffs[None, :] * a[:, cols, rows])
    p = q / s
    dp = (dq - np.outer(p, 2.0 * t)) / s
    return p, dp


def _probs(t, mats):
    t = np.asarray(t, dtype=float)
    T = build_T(t)
    s = float(t @ t)
    return np.real(np.einsum("mij,ji->m", mats @ T.conj().T, T)) / s


def value(t, model):
    """Objective value only (used by derivative-free search)."""
    p = _probs(t, model.mats)
    floor = model.probability_floor
    pf = np.maximum(p, floor)
    if model.kind == "gaussian":
        r = (p - model.freqs) / np.sqrt(pf)
        return 0.5 * float(r @ r)
    return -float(model.freqs @ np.log(pf))


def residuals_gaussian(t, model):
    """Weighted residuals r_mu = (p_mu - f_mu) / sqrt(p_mu)."""
    if model.kind != "gaussian":
        raise ValueError("residuals are defined for the gaussian objective only")
    p = _probs(t, model.mats)
    return (p - model.freqs) / np.sqrt(np.maximum(p, model.probability_floor))


def residuals_and_jacobian(t, model):
    """Residual vector and its Jacobian (gaussian kind)."""
    if model.kind != "gaussian":
        raise ValueError("residuals are defined for the gaussian objective only")
    p, dp = _probs_and_derivs(t, model.mats)
    floor = model.probability_floor
    pf = np.maximum(p, floor)
    r = (p - model.freqs) / np.sqrt(pf)
    drdp = np.where(
        p > floor,
        (p + model.freqs) / (2.0 * pf**1.5),
        1.0 / np.sqrt(floor),
    )
    jac = drdp[:, None] * dp
    return r, jac, bool(np.any(p < floor))


def value_and_gradient(t, model):
    """Full evaluation: value, residuals, analytic gradient, Jacobian."""
    if model.kind == "gaussian":
        r, jac, floor_hit = residuals_and_jacobian(t, model)
        return ObjectiveEvaluation(
            value=0.5 * float(r @ r),
            residuals=r,
            gradient=jac.T @ r,
            jacobian=jac,
            floor_hit=floor_hit,
        )
    p, dp = _probs_and_derivs(t, model.mats)
    floor = model.probability_floor
    pf = np.maximum(p, floor)
    w = np.where(p > floor, model.freqs / pf, 0.0)
    return ObjectiveEvaluation(
        value=-float(model.freqs @ np.log(pf)),
        residuals=None,
        gradient=-(w[:, None] * dp).sum(axis=0),
        jacobian=None,
        floor_hit=bool(np.any(p < floor)),
    )


def value_on_state(rho, model):
    """Objective evaluated directly on a state (tr(O rho) in place of p_mu(t))."""
    p = np.array([born_probability(op, rho) for op in model.povm])
    floor = model.probability_floor
    pf = np.maximum(p, floor)
    if model.kind == "gaussian":
        r = (p - model.freqs) / np.sqrt(pf)
        return 0.5 * float(r @ r)
    return -float(model.freqs @ np.log(pf))


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
