import numpy as np
import pytest

from tomomle.errors import IncompleteMeasurementsError, NumericalError
from tomomle.hermitian import pauli_basis
from tomomle.inversion import build_b_matrix, linear_invert
from tomomle.measurement import (
    born_probability,
    normalize,
    polarization_projectors,
    simulate_counts,
    tensor_povm,
)
from tomomle.parameterize import random_density


def test_b_matrix_shape_and_entries():
    pol = polarization_projectors()
    basis = pauli_basis(1)
    b = build_b_matrix(pol, basis)
    assert b.shape == (4, 4)
    # entry (nu, mu) = tr(O_mu G_nu)
    assert b[0, 0] == pytest.approx(np.real(np.trace(pol[0] @ basis[0])))
    assert b[3, 1] == pytest.approx(np.real(np.trace(pol[1] @ basis[3])))


def test_b_matrix_matches_per_element_traces(rng):
    for d, n in ((2, 1), (4, 2)):
        basis = pauli_basis(n)
        # random PSD operators that are not tensor products
        a = rng.normal(size=(d * d + 3, d, d)) + 1j * rng.normal(size=(d * d + 3, d, d))
        povm = a @ a.conj().swapaxes(1, 2)
        b = build_b_matrix(povm, basis)
        ref = np.array([[np.trace(o @ g).real for o in povm] for g in basis])
        assert b.shape == ref.shape
        assert np.max(np.abs(b - ref)) < 1e-12


def test_b_matrix_rejects_non_hermitian_array():
    # O_1 has an imaginary trace against G_2 (sigma_y) only, O_3 against
    # G_1 (sigma_x) only: the first offender in (mu, nu) order is (1, 2)
    povm = [np.eye(2), np.array([[0, 1], [0, 0]]), np.eye(2), np.array([[0, 1j], [0, 0]])]
    with pytest.raises(NumericalError, match=r"tr\(O_1 G_2\) has imaginary part"):
        build_b_matrix(povm, pauli_basis(1))


def test_exact_probabilities_roundtrip(rng):
    for d, n in ((2, 1), (4, 2)):
        pol = polarization_projectors()
        povm = pol if d == 2 else tensor_povm([pol, pol])
        basis = pauli_basis(n)
        rho = random_density(rng, d)
        freqs = np.array([born_probability(op, rho) for op in povm])
        report = linear_invert(freqs, povm, basis)
        assert np.max(np.abs(report.matrix - rho)) < 1e-12
        assert report.is_physical
        assert abs(report.trace - 1.0) < 1e-12
        assert report.condition_estimate >= 1.0


def test_rank_deficient_raises():
    pol = polarization_projectors()[:3]  # H, V, D only: no sigma_y information
    basis = pauli_basis(1)
    with pytest.raises(IncompleteMeasurementsError):
        linear_invert(np.array([0.9, 0.1, 0.5]), pol, basis)


def test_unphysical_result_flagged():
    # frequencies outside the Bloch ball force a negative eigenvalue
    pol = polarization_projectors()
    basis = pauli_basis(1)
    report = linear_invert(np.array([1.0, 0.0, 1.0, 1.0]), pol, basis)
    assert not report.is_physical
    assert report.min_eigenvalue < -1e-10


def test_noisy_counts_stay_close(rng):
    rho = random_density(rng, 2)
    pol = polarization_projectors()
    rec = simulate_counts(rho, pol, 10**6, noise="poisson", seed=1)
    report = linear_invert(normalize(rec), pol, pauli_basis(1))
    assert np.max(np.abs(report.matrix - rho)) < 5e-3
