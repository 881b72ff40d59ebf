import numpy as np
import pytest

from tomomle.errors import (
    BoundaryStateError,
    DegenerateParameterError,
    DimensionError,
)
from tomomle.hermitian import eig_hermitian, is_hermitian
from tomomle.parameterize import (
    all_sign_patterns,
    build_T,
    in_r_star_star,
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
            assert is_hermitian(rho, tol=1e-12)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert eig_hermitian(rho)[0] >= -1e-10


def test_rho_scale_invariance(rng):
    t = rng.normal(size=9)
    for c in (-3.0, 0.25, 100.0):
        assert np.max(np.abs(rho_of_t(c * t) - rho_of_t(t))) < 1e-12


def test_rho_zero_guard():
    with pytest.raises(DegenerateParameterError):
        rho_of_t(np.zeros(4))


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


def test_in_r_star_star():
    assert in_r_star_star([0.5, -0.5, 0.0, 0.0])
    assert not in_r_star_star([0.5, 1e-12, 0.0, 0.0])


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
