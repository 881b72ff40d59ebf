import numpy as np
import pytest

from tomomle.errors import DimensionError
from tomomle.likelihood import (
    PROBABILITY_FLOOR,
    QUADRATIC_FORM_MAX_DIM,
    ObjectiveModel,
    _forms,
    _residuals,
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
from tomomle.parameterize import (
    build_T,
    param_layout,
    random_density,
    random_param,
    rho_of_t,
)


def make_model(freqs=(0.999, 0.0002, 0.4995, 0.4994)):
    return ObjectiveModel(polarization_projectors(), np.array(freqs))


def test_model_validation():
    with pytest.raises(DimensionError):
        ObjectiveModel(polarization_projectors(), np.array([0.5, 0.5]))


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
    m = make_model()
    for _ in range(10):
        t = random_param(rng, 2)
        ev = value_and_gradient(t, m)
        fd = finite_difference_gradient(t, m)
        assert np.max(np.abs(ev.gradient - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


def _reference_gradient(t, m):
    """The gradient J^T r through the m x d^2 Jacobian dr_mu/dt_k."""
    r, jac, _ = residuals_and_jacobian(t, m)
    return jac.T @ r


def test_gradient_matches_partials_reference(rng):
    pol = polarization_projectors()
    for n_qubits in (1, 2, 3):
        povm = tensor_povm([pol] * n_qubits)
        freqs = np.array([born_probability(op, random_density(rng, 2**n_qubits)) for op in povm])
        m = ObjectiveModel(povm, freqs)
        for _ in range(3):
            t = random_param(rng, m.dim)
            ev = value_and_gradient(t, m)
            ref = _reference_gradient(t, m)
            assert np.max(np.abs(ev.gradient - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert ev.value == value(t, m)
    # p_V falls below the floor
    m = make_model(freqs=(0.9, 0.1, 0.5, 0.5))
    t = np.array([1.0, 1e-12, 0.0, 0.0])
    ev = value_and_gradient(t, m)
    ref = _reference_gradient(t, m)
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


def _assert_close(got, want, rel=1e-14):
    assert np.max(np.abs(got - want)) <= rel * max(1.0, np.max(np.abs(want)))


# measured over 5,500 random t per dimension (d = 2, 4) and objective, the
# Gaussian and a since-deleted multinomial one: relative differences of f up
# to 1.6e-15, of g up to 5.0e-14 of its largest entry; at d = 8 and 16 (300
# and 40 random t per objective) up to 4.2e-16 and 2.0e-15
QUADRATIC_F_REL = 4e-15
QUADRATIC_G_REL = 1e-13


def test_cached_stack_matches_restacked_reference(rng, example2):
    # d = 4 (example2) and d = 8 equal the reference up to summation order
    pol = polarization_projectors()
    povm3 = tensor_povm([pol, pol, pol])
    rho3 = random_density(rng, 8)
    freqs3 = np.array([born_probability(op, rho3) for op in povm3])
    cases = [(example2.operators, normalize(example2)), (povm3, freqs3)]
    for povm, freqs in cases:
        m = ObjectiveModel(povm, freqs)
        floor = PROBABILITY_FLOOR
        for _ in range(3):
            t = random_param(rng, m.dim)
            p, dp = _restacked_probs_and_derivs(t, m)
            pf = np.maximum(p, floor)
            r = (p - m.freqs) / np.sqrt(pf)
            drdp = np.where(p > floor, (p + m.freqs) / (2.0 * pf**1.5), 1.0 / np.sqrt(floor))
            f = 0.5 * float(r @ r)
            assert abs(value(t, m) - f) <= QUADRATIC_F_REL * f
            r_got, jac_got, _ = residuals_and_jacobian(t, m)
            _assert_close(r_got, r)
            _assert_close(jac_got, drdp[:, None] * dp)


def _product_residuals_and_jacobian(t, m):
    """r, J and the floor flag through _previous_probs_and_derivs, the
    operator products as the likelihood took them before the quadratic
    forms' rows."""
    p, dp = _previous_probs_and_derivs(t, m.povm)
    r, drdp = _residuals(p, m)
    return r, dp * drdp[..., None], bool((p < PROBABILITY_FLOOR).any())


def _basis_and_random_model(rng, d):
    """The d projectors |i><i| and four random states as operators, with the
    frequencies of a random state: the point e_0 gives |0><0|, at which
    every |i><i| with i > 0 falls below the floor."""
    projectors = np.eye(d)[:, :, None] * np.eye(d)[:, None, :]
    povm = np.concatenate([projectors, [random_density(rng, d) for _ in range(4)]])
    rho = random_density(rng, d)
    return ObjectiveModel(povm, [born_probability(op, rho) for op in povm])


def test_quadratic_forms_match_operator_products(rng):
    for d in (1, 2, 3, 4):
        m = _basis_and_random_model(rng, d)
        ts = np.stack([random_param(rng, d) for _ in range(5)])
        floored = np.zeros((2, d * d))
        floored[:, 0] = 1.0
        floored[1, d:] = 1e-12  # |0><0| up to 1e-12 in the upper triangle
        for block in (ts, floored):
            for t in (block, *block):
                r, jac, floor_hit = residuals_and_jacobian(t, m)
                r_ref, jac_ref, floor_ref = _product_residuals_and_jacobian(t, m)
                _assert_close(r, r_ref)
                _assert_close(jac, jac_ref)
                assert floor_hit == floor_ref
                assert jac.flags.c_contiguous
        assert residuals_and_jacobian(floored, m)[2] == (d > 1)
        assert "quadratic_form" in vars(m)  # built on the first call, and kept


def test_quadratic_form_is_the_polarization_of_the_products(rng):
    # Q_mu[k, l] = (q(e_k + e_l) - q(e_k) - q(e_l)) / 2 with q(t) the
    # product path's p(t) ||t||^2
    for d in (1, 2, 3, 4):
        m = _basis_and_random_model(rng, d)
        n = d * d

        def q(ts):
            return _previous_probs_and_derivs(ts, m.povm)[0] * np.vecdot(ts, ts)[:, None]

        eye = np.eye(n)
        q_single = q(eye)  # (n, m)
        q_pair = q((eye[:, None, :] + eye[None, :, :]).reshape(-1, n)).reshape(n, n, -1)
        polar = 0.5 * (q_pair - q_single[:, None, :] - q_single[None, :, :])
        Q = m.quadratic_form.reshape(n, len(m.povm), n).transpose(1, 0, 2)
        assert np.max(np.abs(Q - polar.transpose(2, 0, 1))) <= 1e-15


def _three_qubit_model(rng):
    pol = polarization_projectors()
    povm = tensor_povm([pol] * 3)
    rho = random_density(rng, 8)
    return ObjectiveModel(povm, [born_probability(op, rho) for op in povm])


def test_dimension_eight_matches_the_operator_products(rng):
    # C-ordered, as LM's J^T J and J^T r take their BLAS calls, and so
    # their bits, from the Jacobian's layout
    m = _three_qubit_model(rng)
    ts = np.stack([random_param(rng, 8) for _ in range(3)])
    for t in (ts, ts[0], _floored_points(8)):
        got = residuals_and_jacobian(t, m)
        want = _product_residuals_and_jacobian(t, m)
        _assert_close(got[0], want[0])
        _assert_close(got[1], want[1])
        assert got[2] == want[2]
        assert got[1].flags.c_contiguous
    # above d = 4 the likelihood reads the operator stack itself: no Q and no
    # second copy of the stack is built
    assert set(vars(m)) == {"povm", "freqs"}


# measured over 2,000 random t at d = 8: y differs from t^T Q_mu by up to
# 2.4e-16 of its largest entry, p by up to 1.1e-16
PRODUCT_ROWS_REL = 1e-15


def test_operator_products_give_the_quadratic_forms_rows(rng):
    # above QUADRATIC_FORM_MAX_DIM, _forms reads y_mu = t^T Q_mu from the
    # products conj(O_mu) T^T at t; Q (2 MB here) is the same products
    # tabulated at the unit vectors, so this checks the rows at t against
    # their tabulation, and _previous_probs_and_derivs is the independent
    # statement (test_dimension_eight_matches_the_operator_products)
    m = _three_qubit_model(rng)
    assert m.dim > QUADRATIC_FORM_MAX_DIM
    ts = np.stack([random_param(rng, 8) for _ in range(5)])
    q = m.quadratic_form
    for t in (*ts, ts):
        y, p, s = _forms(t, m)
        y_ref = (t @ q).reshape(y.shape)
        p_ref = (y_ref @ t[..., None])[..., 0] / np.vecdot(t, t)[..., None]
        _assert_close(y, y_ref, PRODUCT_ROWS_REL)
        _assert_close(p, p_ref, PRODUCT_ROWS_REL)
        assert np.array_equal(s, np.vecdot(t, t)[..., None] if t.ndim > 1 else t.dot(t))


def test_block_matches_row_by_row(rng, example1, example2, example3):
    # a (B, n) block gives the stacked 1-D results, up to summation order
    for record in (example1, example2, example3):
        m = ObjectiveModel(record.operators, normalize(record))
        ts = np.stack([random_param(rng, m.dim) for _ in range(7)])
        r_block, jac_block, _ = residuals_and_jacobian(ts, m)
        assert r_block.shape == (7, len(m.povm))
        assert jac_block.shape == (7, len(m.povm), m.n_params)
        for t, r_b, jac_b in zip(ts, r_block, jac_block):
            r, jac, _ = residuals_and_jacobian(t, m)
            assert np.max(np.abs(r_b - r)) <= 1e-14 * max(1.0, np.max(np.abs(r)))
            assert np.max(np.abs(jac_b - jac)) <= 1e-14 * max(1.0, np.max(np.abs(jac)))
        assert np.array_equal(build_T(ts), np.stack([build_T(t) for t in ts]))


def _previous_probs_and_derivs(t, mats):
    """p_mu(t) and the partials dp_mu/dt_k through the operator products
    A_mu = O_mu T^dag, as the likelihood took them above d = 4 before it read
    the quadratic forms' rows: dq_mu/dt_k = 2 Re(c_k A_mu[col_k, row_k]),
    from A's float view at the transposed slot, times +2 or -2."""
    t = np.asarray(t, dtype=float)
    T = build_T(t)
    d = T.shape[-1]
    rows, cols, coeffs = param_layout(d)
    imag = coeffs.imag != 0
    pos, factor = 2 * (cols * d + rows) + imag, np.where(imag, -2.0, 2.0)
    a = (mats.reshape(-1, d) @ T.conj().swapaxes(-1, -2)).reshape(T.shape[:-2] + mats.shape)
    s = (t[..., None, :] @ t[..., :, None])[..., 0]
    p = np.real(np.einsum("...mij,...ji->...m", a, T)) / s
    dp = factor * np.take(a.view(float).reshape(a.shape[:-2] + (-1,)), pos, axis=-1)
    dp -= p[..., None] * (2.0 * t[..., None, :])
    dp /= s[..., None]
    return p, dp


def _previous_quadratic_form(povm):
    """Q as the model built it from param_layout's index formula before it
    tabulated the operator products at the unit vectors:
    Q_mu[k, l] = Re(conj(c_k) c_l O_mu[col_l, col_k]) when parameters k and
    l sit in the same row of T, and 0 otherwise."""
    m, d, _ = povm.shape
    rows, cols, coeffs = param_layout(d)
    q = np.real(coeffs.conj()[:, None] * coeffs * povm[:, cols[None, :], cols[:, None]])
    q *= rows[:, None] == rows
    return q.transpose(1, 0, 2).reshape(d * d, m * d * d)


def test_quadratic_form_matches_the_index_formula(rng, example1, example2, example3):
    # bit for bit (signs of zeros aside): each entry of a product at a unit
    # vector has at most one nonzero term
    models = [_basis_and_random_model(rng, d) for d in (1, 2, 3, 4)]
    models += [
        ObjectiveModel(record.operators, normalize(record))
        for record in (example1, example2, example3)
    ]
    for m in models:
        assert np.array_equal(m.quadratic_form, _previous_quadratic_form(m.povm))


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
    r = (p - m.freqs) / np.sqrt(pf)
    f = 0.5 * float(r @ r)
    w = r * np.where(p > floor, (p + m.freqs) / (2.0 * pf**1.5), 1.0 / np.sqrt(floor))
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


def test_single_vector_path_matches_previous_formulas(rng):
    # value and value_and_gradient agree with each other bit for bit and
    # with the previous formulas, which use build_T's old writes, np.tensordot
    # and the operator R, up to summation order
    pol = polarization_projectors()
    for n_qubits in (1, 2, 3, 4):
        povm = tensor_povm([pol] * n_qubits)
        d = 2**n_qubits
        freqs = np.array([born_probability(op, random_density(rng, d)) for op in povm])
        ts = np.stack([random_param(rng, d) for _ in range(4)])
        if d == 2:
            ts = np.vstack([ts, EXAMPLE1_START])
        # points far out on the ray t -> c t, where Nelder-Mead drifts on
        # example1
        ts = np.vstack([ts, ts[-2:] * 1e5, ts[-2:] * 1e11])
        floored = _floored_points(d) if d in (2, 4) else np.empty((0, d * d))
        assert np.array_equal(build_T(ts), _previous_build_T(ts))
        m = ObjectiveModel(povm, freqs)
        for t in np.vstack([ts, floored]):
            f, g, floor_hit = _previous_value_and_gradient(t, m)
            ev = value_and_gradient(t, m)
            assert value(t, m) == ev.value
            assert ev.floor_hit == floor_hit
            assert abs(ev.value - f) <= QUADRATIC_F_REL * abs(f)
            assert np.max(np.abs(ev.gradient - g)) <= QUADRATIC_G_REL * np.max(np.abs(g))
        for t in floored:
            assert value_and_gradient(t, m).floor_hit


def test_quadratic_form_value_is_exact_under_power_of_two_scaling(rng, example2):
    # t -> 2^k t scales every product and sum of the quadratic forms exactly,
    # so f is bit for bit the same and g scales by exactly 2^-k
    for model in (make_model(), ObjectiveModel(example2.operators, normalize(example2))):
        assert model.dim <= QUADRATIC_FORM_MAX_DIM
        for t in [random_param(rng, model.dim) for _ in range(5)]:
            f = value(t, model)
            g = value_and_gradient(t, model).gradient
            for k in range(-40, 40):
                assert value(2.0**k * t, model) == f
                assert np.array_equal(value_and_gradient(2.0**k * t, model).gradient * 2.0**k, g)
