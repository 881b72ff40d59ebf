import itertools
from functools import reduce

import numpy as np
import pytest

from tomomle import hermitian
from tomomle.errors import CapacityError, DimensionError, NumericalError
from tomomle.hermitian import (
    check_density_matrix,
    eig_hermitian,
    pauli_basis,
    purity,
)
from tomomle.measurement import polarization_projectors, tensor_povm
from tomomle.parameterize import random_density


def test_pauli_basis_orthonormal():
    for n in (1, 2):
        basis = pauli_basis(n)
        assert len(basis) == 4**n
        for i, gi in enumerate(basis):
            assert np.abs(gi - gi.conj().T).max() <= 1e-12
            for j, gj in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert abs(np.trace(gi @ gj) - want) < 1e-12


def test_pauli_basis_identity_first():
    basis = pauli_basis(1)
    assert np.allclose(basis[0], np.eye(2) / np.sqrt(2))


def test_pauli_basis_matches_kron_chain():
    # lexicographic over Pauli indices, first factor most significant: the
    # order of the Stokes coefficients
    sigma = (
        np.array([[1, 0], [0, 1]], dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    for n in (1, 2, 3):
        scale = 1.0 / np.sqrt(2.0**n)
        want = [
            scale * reduce(np.kron, [sigma[i] for i in idx])
            for idx in itertools.product(range(4), repeat=n)
        ]
        basis = pauli_basis(n)
        assert isinstance(basis, np.ndarray)
        assert len(basis) == len(want)
        # bit for bit, signed zeros included
        assert all(g.tobytes() == w.tobytes() for g, w in zip(basis, want))


def test_pauli_basis_qubit_cap():
    with pytest.raises(CapacityError):
        pauli_basis(9)
    with pytest.raises(ValueError):
        pauli_basis(0)


def test_one_cap_binds_both_tensor_builders(monkeypatch):
    monkeypatch.setattr(hermitian, "MAX_TENSOR_DIM", 2)
    pol = polarization_projectors()
    with pytest.raises(CapacityError, match=r"^tensor dimension 4 exceeds the cap 2$"):
        pauli_basis(2)
    with pytest.raises(CapacityError, match=r"^tensor dimension 4 exceeds the cap 2$"):
        tensor_povm([pol, pol])
    assert pauli_basis(1).shape == (4, 2, 2)


def test_stokes_roundtrip(rng):
    for d in (2, 4):
        basis = pauli_basis(int(np.log2(d)))
        rho = random_density(rng, d)
        coeffs = np.einsum("nij,ji->n", basis, rho)  # tr(G_n rho)
        assert np.abs(coeffs.imag).max() < 1e-12
        back = np.tensordot(coeffs.real, basis, axes=1)  # sum_n tr(G_n rho) G_n
        assert np.max(np.abs(back - rho)) < 1e-12


def test_check_density_matrix_rejections():
    with pytest.raises(DimensionError):
        check_density_matrix(np.ones((2, 3)))
    with pytest.raises(NumericalError):
        check_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(NumericalError):
        check_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(NumericalError):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        with pytest.raises(NumericalError):
            check_density_matrix(np.array([[0.5, bad], [np.conj(bad), 0.5]]))
        with pytest.raises(NumericalError):
            check_density_matrix(np.diag([bad, 0.5]))


def test_check_density_matrix_refuses_entries_that_are_not_numbers():
    for rho in ([["0.5", "0"], ["0", "0.5"]], [[True, False], [False, False]]):
        with pytest.raises(DimensionError, match="^operator entries must be numbers, not "):
            check_density_matrix(rho)


def test_purity_range(rng):
    assert purity(np.eye(2) / 2) == pytest.approx(0.5)
    v = np.array([1, 0], dtype=complex)
    assert purity(np.outer(v, v)) == pytest.approx(1.0)
    for _ in range(20):
        rho = random_density(rng, 4)
        assert 0.25 - 1e-12 <= purity(rho) <= 1.0 + 1e-10


def test_eig_hermitian_sorted(rng):
    rho = random_density(rng, 4)
    w = eig_hermitian(rho)
    assert np.all(np.diff(w) >= 0)
    assert w.sum() == pytest.approx(1.0)
