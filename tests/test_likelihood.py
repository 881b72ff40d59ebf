import numpy as np
import pytest

from tomomle.errors import DimensionError
from tomomle.likelihood import (
    ObjectiveModel,
    finite_difference_gradient,
    residuals_and_jacobian,
    residuals_gaussian,
    value,
    value_and_gradient,
    value_on_state,
)
from tomomle.measurement import (
    born_probability,
    normalize,
    polarization_projectors,
    tensor_povm,
)
from tomomle.parameterize import build_T, param_layout, random_density, random_param, rho_of_t


def make_model(kind="gaussian", freqs=(0.999, 0.0002, 0.4995, 0.4994)):
    return ObjectiveModel(kind, polarization_projectors(), np.array(freqs))


def test_model_validation():
    with pytest.raises(ValueError):
        make_model(kind="chi2")
    with pytest.raises(DimensionError):
        ObjectiveModel("gaussian", polarization_projectors(), np.array([0.5, 0.5]))


def test_model_shape_properties():
    m = make_model()
    assert m.dim == 2
    assert m.n_params == 4


def test_gaussian_value_matches_manual(rng):
    m = make_model()
    t = random_param(rng, 2)
    rho = rho_of_t(t)
    p = np.array([np.real(np.trace(op.matrix @ rho)) for op in m.povm])
    manual = 0.5 * np.sum(((p - m.freqs) / np.sqrt(p)) ** 2)
    assert value(t, m) == pytest.approx(manual, rel=1e-12)
    assert value_on_state(rho, m) == pytest.approx(manual, rel=1e-12)


def test_multinomial_value_matches_manual(rng):
    m = make_model(kind="multinomial")
    t = random_param(rng, 2)
    rho = rho_of_t(t)
    p = np.array([np.real(np.trace(op.matrix @ rho)) for op in m.povm])
    manual = -np.sum(m.freqs * np.log(p))
    assert value(t, m) == pytest.approx(manual, rel=1e-12)


def test_value_is_scale_invariant(rng):
    m = make_model()
    t = random_param(rng, 2)
    for c in (-2.0, 0.5, 10.0):
        assert value(c * t, m) == pytest.approx(value(t, m), rel=1e-13)


def test_residuals_consistent_with_value(rng):
    m = make_model()
    t = random_param(rng, 2)
    r = residuals_gaussian(t, m)
    assert 0.5 * float(r @ r) == pytest.approx(value(t, m), rel=1e-12)


def test_gradient_matches_finite_difference(rng):
    for kind in ("gaussian", "multinomial"):
        m = make_model(kind=kind)
        for _ in range(10):
            t = random_param(rng, 2)
            ev = value_and_gradient(t, m)
            fd = finite_difference_gradient(t, m)
            assert np.max(np.abs(ev.gradient - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_jacobian_gradient_identity(rng):
    m = make_model()
    t = random_param(rng, 2)
    r, jac, floor_hit = residuals_and_jacobian(t, m)
    ev = value_and_gradient(t, m)
    assert np.allclose(jac.T @ r, ev.gradient)
    assert not floor_hit


def test_floor_flag_near_boundary():
    m = make_model()
    # t maps to a state with a vanishing V component, so p_V underflows the floor
    t = np.array([1.0, 1e-12, 0.0, 0.0])
    ev = value_and_gradient(t, m)
    assert ev.floor_hit
    assert np.isfinite(ev.value)
    assert np.all(np.isfinite(ev.gradient))


def test_multinomial_floor_is_finite():
    m = make_model(kind="multinomial", freqs=(0.9, 0.1, 0.5, 0.5))
    t = np.array([1e-12, 1.0, 0.0, 0.0])
    assert np.isfinite(value(t, m))
    ev = value_and_gradient(t, m)
    assert ev.floor_hit


def test_residuals_require_gaussian_kind(rng):
    m = make_model(kind="multinomial")
    with pytest.raises(ValueError):
        residuals_gaussian(random_param(rng, 2), m)


def _restacked_probs_and_derivs(t, model):
    """Reference: stacks the operators afresh on every call."""
    mats = np.stack([op.matrix for op in model.povm])
    rows, cols, coeffs = param_layout(model.dim)
    T = build_T(t)
    s = float(t @ t)
    a = mats @ T.conj().T
    p = np.real(np.einsum("mij,ji->m", a, T)) / s
    dq = 2.0 * np.real(coeffs[None, :] * a[:, cols, rows])
    return p, (dq - np.outer(p, 2.0 * t)) / s


def test_cached_stack_matches_restacked_reference(rng, example2):
    pol = polarization_projectors()
    povm3 = tensor_povm([pol, pol, pol])
    rho3 = random_density(rng, 8)
    freqs3 = np.array([born_probability(op, rho3) for op in povm3])
    cases = [(example2.operators, normalize(example2)), (povm3, freqs3)]
    for povm, freqs in cases:
        m = ObjectiveModel("gaussian", povm, freqs)
        floor = m.probability_floor
        for _ in range(3):
            t = random_param(rng, m.dim)
            p, dp = _restacked_probs_and_derivs(t, m)
            pf = np.maximum(p, floor)
            r = (p - m.freqs) / np.sqrt(pf)
            drdp = np.where(p > floor, (p + m.freqs) / (2.0 * pf**1.5), 1.0 / np.sqrt(floor))
            assert value(t, m) == 0.5 * float(r @ r)
            r_got, jac_got, _ = residuals_and_jacobian(t, m)
            assert np.array_equal(r_got, r)
            assert np.array_equal(jac_got, drdp[:, None] * dp)


def test_block_matches_row_by_row(rng, example1, example2, example3):
    # a (B, n) block gives the stacked 1-D results, up to summation order
    for record in (example1, example2, example3):
        m = ObjectiveModel("gaussian", record.operators, normalize(record))
        ts = np.stack([random_param(rng, m.dim) for _ in range(7)])
        r_block, jac_block, _ = residuals_and_jacobian(ts, m)
        assert r_block.shape == (7, len(m.povm))
        assert jac_block.shape == (7, len(m.povm), m.n_params)
        for t, r_b, jac_b in zip(ts, r_block, jac_block):
            r, jac, _ = residuals_and_jacobian(t, m)
            assert np.max(np.abs(r_b - r)) <= 1e-14 * max(1.0, np.max(np.abs(r)))
            assert np.max(np.abs(jac_b - jac)) <= 1e-14 * max(1.0, np.max(np.abs(jac)))
        assert np.array_equal(build_T(ts), np.stack([build_T(t) for t in ts]))
