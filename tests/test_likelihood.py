import numpy as np
import pytest

from tomomle.errors import DimensionError
from tomomle.likelihood import (
    PROBABILITY_FLOOR,
    ObjectiveModel,
    _probs_and_derivs,
    finite_difference_gradient,
    residuals_and_jacobian,
    value,
    value_and_gradient,
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
    p = np.array([np.real(np.trace(op @ rho)) for op in m.povm])
    manual = 0.5 * np.sum(((p - m.freqs) / np.sqrt(p)) ** 2)
    assert value(t, m) == pytest.approx(manual, rel=1e-12)
    # the same objective evaluated on the state, through Born probabilities
    p_born = np.array([born_probability(op, rho) for op in m.povm])
    on_state = 0.5 * np.sum(((p_born - m.freqs) / np.sqrt(p_born)) ** 2)
    assert on_state == pytest.approx(manual, rel=1e-12)


def test_multinomial_value_matches_manual(rng):
    m = make_model(kind="multinomial")
    t = random_param(rng, 2)
    rho = rho_of_t(t)
    p = np.array([np.real(np.trace(op @ rho)) for op in m.povm])
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
    r, _, _ = residuals_and_jacobian(t, m)
    assert 0.5 * float(r @ r) == pytest.approx(value(t, m), rel=1e-12)
    # r_mu = (p_mu - f_mu) / sqrt(p_mu), against the state's probabilities
    rho = rho_of_t(t)
    p = np.array([born_probability(op, rho) for op in m.povm])
    assert np.allclose(r, (p - m.freqs) / np.sqrt(p), rtol=1e-12, atol=1e-15)


def test_gradient_matches_finite_difference(rng):
    for kind in ("gaussian", "multinomial"):
        m = make_model(kind=kind)
        for _ in range(10):
            t = random_param(rng, 2)
            ev = value_and_gradient(t, m)
            fd = finite_difference_gradient(t, m)
            assert np.max(np.abs(ev.gradient - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


def _reference_gradient(t, m):
    """The gradient through the m x d^2 matrix of partials dp_mu/dt_k."""
    p, dp = _probs_and_derivs(t, m.povm)
    if m.kind == "gaussian":
        r, jac, _ = residuals_and_jacobian(t, m)
        return jac.T @ r
    floor = PROBABILITY_FLOOR
    w = np.where(p > floor, m.freqs / np.maximum(p, floor), 0.0)
    return -(w[:, None] * dp).sum(0)


def test_gradient_matches_partials_reference(rng):
    pol = polarization_projectors()
    for n_qubits in (1, 2, 3):
        povm = tensor_povm([pol] * n_qubits)
        freqs = np.array([born_probability(op, random_density(rng, 2**n_qubits)) for op in povm])
        for kind in ("gaussian", "multinomial"):
            m = ObjectiveModel(kind, povm, freqs)
            for _ in range(3):
                t = random_param(rng, m.dim)
                ev = value_and_gradient(t, m)
                ref = _reference_gradient(t, m)
                assert np.max(np.abs(ev.gradient - ref)) <= 1e-12 * np.max(np.abs(ref))
                assert ev.value == value(t, m)
    # p_V (first point) and p_H (second point) fall below the floor
    for kind, t in (("gaussian", [1.0, 1e-12, 0.0, 0.0]), ("multinomial", [1e-12, 1.0, 0.0, 0.0])):
        m = make_model(kind=kind, freqs=(0.9, 0.1, 0.5, 0.5))
        ev = value_and_gradient(np.array(t), m)
        ref = _reference_gradient(np.array(t), m)
        assert ev.floor_hit
        assert np.max(np.abs(ev.gradient - ref)) <= 1e-12 * np.max(np.abs(ref))


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
        residuals_and_jacobian(random_param(rng, 2), m)


def _restacked_probs_and_derivs(t, model):
    """Reference: copies the operator stack afresh on every call."""
    mats = np.array(model.povm)
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
        floor = PROBABILITY_FLOOR
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


def _previous_build_T(t):
    """T(t) as two fancy-index writes: the diagonal, then re + 1j im."""
    t = np.asarray(t, dtype=float)
    d = int(round(np.sqrt(t.shape[-1])))
    (diag_rows, diag_cols), (upper_rows, upper_cols) = np.diag_indices(d), np.triu_indices(d, 1)
    T = np.zeros(t.shape[:-1] + (d, d), dtype=complex)
    T[..., diag_rows, diag_cols] = t[..., :d]
    T[..., upper_rows, upper_cols] = t[..., d::2] + 1j * t[..., d + 1::2]
    return T


def _previous_value_and_gradient(t, m):
    """value and value_and_gradient as written before the single-vector fast
    path: np.real, swapaxes and np.tensordot."""
    d = m.dim
    T = _previous_build_T(t)
    a = (m.povm.reshape(-1, d) @ T.conj().swapaxes(-1, -2)).reshape(m.povm.shape)
    p = np.real(np.einsum("mij,ji->m", a, T)) / float(t @ t)
    floor = PROBABILITY_FLOOR
    pf = np.maximum(p, floor)
    if m.kind == "gaussian":
        r = (p - m.freqs) / np.sqrt(pf)
        f = 0.5 * float(r @ r)
        w = r * np.where(p > floor, (p + m.freqs) / (2.0 * pf**1.5), 1.0 / np.sqrt(floor))
    else:
        f = -float(m.freqs @ np.log(pf))
        w = np.where(p > floor, -m.freqs / pf, 0.0)
    rows, cols, coeffs = param_layout(d)
    imag = coeffs.imag != 0
    pos, factor = 2 * (cols * d + rows) + imag, np.where(imag, -2.0, 2.0)
    rt = np.tensordot(w, m.povm, axes=1) @ T.conj().T
    g = factor * rt.view(float).ravel()[pos] - (2.0 * float(w @ p)) * t
    return f, g / float(t @ t), bool(np.any(p < floor))


# Nelder-Mead's start on example1, which criterion 03 runs from
EXAMPLE1_START = np.array([-0.0001, 0.999, 0.001, 0.999])


def _floored_points(d):
    """Points at which some probability falls below the floor: |0><0| and
    |d-1><d-1|, exactly and up to 1e-12."""
    ts = np.zeros((4, d * d))
    ts[0, 0] = ts[1, d - 1] = ts[2, 0] = ts[3, d - 1] = 1.0
    ts[2, 1] = ts[3, 0] = 1e-12
    return ts


def test_single_vector_path_matches_previous_formulas_bitwise(rng):
    # the single-vector path writes T itself and takes every 1-D dot with
    # ndarray.dot; the previous formulas use build_T's old writes and @
    pol = polarization_projectors()
    for n_qubits in (1, 2, 3, 4):
        povm = tensor_povm([pol] * n_qubits)
        d = 2**n_qubits
        freqs = np.array([born_probability(op, random_density(rng, d)) for op in povm])
        ts = np.stack([random_param(rng, d) for _ in range(4)])
        if d == 2:
            ts = np.vstack([ts, EXAMPLE1_START])
        # points far out on the ray t -> c t, where Nelder-Mead drifts on
        # example1 and criterion 03 depends on the last bits of value
        ts = np.vstack([ts, ts[-2:] * 1e5, ts[-2:] * 1e11])
        floored = _floored_points(d) if d in (2, 4) else np.empty((0, d * d))
        assert np.array_equal(build_T(ts), _previous_build_T(ts))
        for kind in ("gaussian", "multinomial"):
            m = ObjectiveModel(kind, povm, freqs)
            for t in np.vstack([ts, floored]):
                f, g, floor_hit = _previous_value_and_gradient(t, m)
                ev = value_and_gradient(t, m)
                assert value(t, m) == f
                assert ev.value == f
                assert np.array_equal(ev.gradient, g)
                assert ev.floor_hit == floor_hit
            for t in floored:
                assert value_and_gradient(t, m).floor_hit
