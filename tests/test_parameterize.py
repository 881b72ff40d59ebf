import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tomomle.errors import (
    BoundaryStateError,
    DegenerateParameterError,
    DimensionError,
)
from tomomle.hermitian import eig_hermitian
from tomomle.parameterize import (
    all_sign_patterns,
    build_T,
    inverse_param,
    param_dim,
    param_layout,
    random_density,
    random_param,
    rho_of_t,
)


def test_param_dim():
    assert param_dim(4) == 2
    assert param_dim(16) == 4
    with pytest.raises(DimensionError):
        param_dim(5)


def test_build_T_layout():
    # d = 2: diagonal (t1, t2), then off-diagonal pair (t3 + i t4) at (0, 1)
    T = build_T([1.0, 2.0, 3.0, 4.0])
    assert T[0, 0] == 1.0
    assert T[1, 1] == 2.0
    assert T[0, 1] == 3.0 + 4.0j
    assert T[1, 0] == 0.0


def test_build_T_row_major_pairs():
    t = np.arange(1.0, 10.0)
    T = build_T(t)
    assert T[0, 1] == 4.0 + 5.0j
    assert T[0, 2] == 6.0 + 7.0j
    assert T[1, 2] == 8.0 + 9.0j
    assert np.allclose(np.tril(T, -1), 0.0)


def test_layout_matches_build(rng):
    for d in (2, 3, 4):
        rows, cols, coeffs = param_layout(d)
        t = rng.normal(size=d * d)
        T = np.zeros((d, d), dtype=complex)
        for k in range(d * d):
            T[rows[k], cols[k]] += coeffs[k] * t[k]
        assert np.allclose(T, build_T(t))


def test_rho_is_density_matrix(rng):
    for d in (2, 3, 4):
        for _ in range(50):
            t = rng.normal(size=d * d)
            rho = rho_of_t(t)
            assert np.abs(rho - rho.conj().T).max() <= 1e-12
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert eig_hermitian(rho)[0] >= -1e-10


def test_rho_scale_invariance(rng):
    t = rng.normal(size=9)
    for c in (-3.0, 0.25, 100.0):
        assert np.max(np.abs(rho_of_t(c * t) - rho_of_t(t))) < 1e-12


def test_rho_zero_guard():
    with pytest.raises(DegenerateParameterError):
        rho_of_t(np.zeros(4))
    with pytest.raises(DegenerateParameterError, match="= 0.0 is below"):
        rho_of_t(np.array([[1.0, 0.0, 0.0, 0.0], np.zeros(4)]))


def _previous_rho_of_t(t):
    # the one-vector formula rho_of_t had before it took blocks
    norm_sq = float(t @ t)
    T = build_T(t)
    rho = T.conj().T @ T / norm_sq
    return 0.5 * (rho + rho.conj().T)


def test_rho_of_t_block(rng):
    # each row of a block is bit for bit its state alone, and a single vector
    # keeps the bits of the previous formula
    for d in (1, 2, 3, 4):
        ts = rng.normal(size=(7, d * d)) * np.logspace(-3, 3, 7)[:, None]
        block = rho_of_t(ts)
        for t, rho in zip(ts, block):
            assert np.array_equal(rho, rho_of_t(t))
            assert np.array_equal(rho, _previous_rho_of_t(t))


def test_inverse_roundtrip_all_patterns(rng):
    for d in (2, 3):
        rho = random_density(rng, d)
        for pattern in all_sign_patterns(d):
            t = inverse_param(rho, pattern, alpha=1.0)
            assert np.sign(t[:d]) == pytest.approx(pattern)
            assert t @ t == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho_of_t(t) - rho)) < 1e-10


def test_inverse_alpha_sets_norm(rng):
    rho = random_density(rng, 2)
    t = inverse_param(rho, alpha=4.0)
    assert t @ t == pytest.approx(4.0, rel=1e-12)


def test_inverse_rejects_boundary_state():
    v = np.array([1, 0], dtype=complex)
    with pytest.raises(BoundaryStateError):
        inverse_param(np.outer(v, v))


def test_inverse_rejects_bad_pattern(rng):
    rho = random_density(rng, 2)
    with pytest.raises(DimensionError):
        inverse_param(rho, [1.0, 0.5])


def test_all_sign_patterns_complete():
    patterns = all_sign_patterns(3)
    assert len(patterns) == 8
    assert len({tuple(p) for p in patterns}) == 8


def test_random_param_respects_floor(rng):
    for _ in range(100):
        t = random_param(rng, 3)
        assert np.all(np.abs(t[:3]) >= 1e-3)
        assert np.all(np.abs(t) <= 1.0)


def test_build_T_block(rng):
    for d in (1, 2, 3):
        ts = rng.normal(size=(5, d * d))
        assert np.array_equal(build_T(ts), np.stack([build_T(t) for t in ts]))


# derandomized and without an example database: the same cases every run
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@PROPERTY
@given(st.data())
def test_build_T_block_matches_entrywise_reference(data):
    d = data.draw(st.integers(1, 5), label="d")
    shape = data.draw(st.sampled_from([(d * d,), (1, d * d), (3, d * d), (2, 2, d * d)]))
    ts = data.draw(arrays(float, shape, elements=st.floats(allow_nan=False, width=64)))
    ref = np.zeros(shape[:-1] + (d, d), dtype=complex)
    for idx in np.ndindex(shape[:-1]):
        t, k = ts[idx], d
        for i in range(d):
            ref[idx + (i, i)] = t[i]
            for j in range(i + 1, d):
                ref[idx + (i, j)] = complex(t[k], t[k + 1])
                k += 2
    T = build_T(ts)
    assert T.shape == ref.shape
    assert np.array_equal(T.view(float), ref.view(float))


@st.composite
def interior_params(draw):
    """t with off-diagonal entries in [-1, 1] and every diagonal entry at
    least 0.5 away from 0, with either sign."""
    d = draw(st.integers(1, 4))
    t = draw(arrays(float, d * d, elements=st.floats(-1.0, 1.0)))
    mags = draw(arrays(float, d, elements=st.floats(0.5, 1.0)))
    signs = draw(arrays(float, d, elements=st.sampled_from([-1.0, 1.0])))
    t[:d] = signs * mags
    return t


@PROPERTY
@given(interior_params())
def test_inverse_param_recovers_t(t):
    d = int(round(np.sqrt(t.size)))
    back = inverse_param(rho_of_t(t), np.sign(t[:d]), t @ t)
    assert np.max(np.abs(back - t)) <= 1e-10
