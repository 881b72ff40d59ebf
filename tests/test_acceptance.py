"""End-to-end acceptance suite.

Each test prints exactly one pass/fail line for its criterion, independent of
how pytest renders the run.
"""

import contextlib
import time

import numpy as np
import pytest

from tomomle.hermitian import pauli_basis, purity
from tomomle.inversion import linear_invert
from tomomle.likelihood import ObjectiveModel, value, value_and_gradient
from tomomle.measurement import (
    born_probability,
    normalize,
    polarization_projectors,
    simulate_counts,
    tensor_povm,
)
from tomomle.optimizers import (
    StopConfig,
    StopReason,
    default_start,
    levenberg_marquardt,
    nelder_mead,
)
from tomomle.parameterize import (
    all_sign_patterns,
    inverse_param,
    random_density,
    random_param,
    rho_of_t,
)
from tomomle.verify import equivalence_check, gradient_check, multistart, orthant_multistart


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"\n[criterion {number:02d}] {name}: PASS")


EXAMPLE1_FREQS = np.array([0.9990, 0.0002, 0.4995, 0.4994])
EXAMPLE1_START = np.array([-0.0001, 0.999, 0.001, 0.999])
EXAMPLE3_FREQS = np.array([0.5, 0.5, 0.5, 1.0])


def single_qubit_model(freqs, kind="gaussian"):
    return ObjectiveModel(kind, polarization_projectors(), np.asarray(freqs))


def test_criterion_01_single_qubit_reconstruction():
    with criterion(1, "single-qubit reconstruction"):
        model = single_qubit_model(EXAMPLE1_FREQS)
        tic = time.perf_counter()
        res = levenberg_marquardt(model, EXAMPLE1_START)
        elapsed = time.perf_counter() - tic
        target = np.array(
            [[0.9998, -0.0005 + 0.0006j], [-0.0005 - 0.0006j, 0.0002]]
        )
        assert np.max(np.abs(res.rho_final - target)) < 2e-3
        assert res.f_final <= 1e-6
        assert res.grad_norm < 1e-6
        assert elapsed < 1.0


def test_criterion_02_sign_gauge_equivalence():
    with criterion(2, "sign-gauge equivalence"):
        model = single_qubit_model(EXAMPLE1_FREQS)
        tic = time.perf_counter()
        a = levenberg_marquardt(model, np.array([1.0, 0.001, 0.0, 0.0]))
        b = levenberg_marquardt(model, np.array([-1.0, -0.001, 0.0, 0.0]))
        elapsed = time.perf_counter() - tic
        assert np.linalg.norm(a.t_final - b.t_final) > 0.1
        assert np.linalg.norm(a.rho_final - b.rho_final) < 1e-3
        assert elapsed < 1.0


def test_criterion_03_stagnation_contrast():
    with criterion(3, "derivative-free stagnation contrast"):
        model = single_qubit_model(EXAMPLE1_FREQS)
        nm = nelder_mead(model, EXAMPLE1_START)
        lm = levenberg_marquardt(model, EXAMPLE1_START)
        assert nm.reason in (StopReason.StepStagnation, StopReason.MaxFunctionEvals)
        assert nm.grad_norm > 1e-4
        assert lm.grad_norm < 1e-6


def test_criterion_04_two_qubit_solver_contrast(example2):
    with criterion(4, "two-qubit solver contrast"):
        model = ObjectiveModel("gaussian", example2.operators, normalize(example2))
        start = default_start(4)
        lm = levenberg_marquardt(model, start)
        nm = nelder_mead(model, start)
        lm_purity = purity(lm.rho_final)
        nm_purity = purity(nm.rho_final)
        assert nm.reason is StopReason.MaxFunctionEvals
        assert nm.fevals == 6400
        assert 0.85 <= lm_purity <= 0.95
        assert lm_purity - nm_purity > 0.2


def test_criterion_05_boundary_state_sign_orthants():
    with criterion(5, "boundary state, one solution per sign orthant"):
        model = single_qubit_model(EXAMPLE3_FREQS)
        cfg = StopConfig(grad_tol=1e-9, step_tol=1e-12, fun_tol=1e-12)
        states = []
        for pattern in all_sign_patterns(2):
            report = orthant_multistart(
                model, [pattern], 23, seed=0, cfg=cfg, screen_tol=1e-6
            )[0]
            assert report.distinct_t_count == 1
            t = report.solutions[0].t_final
            assert abs(abs(t[0]) - 0.7071) < 5e-3
            assert abs(abs(t[3]) - 0.7071) < 5e-3
            assert abs(t[1]) < 5e-3
            assert abs(t[2]) < 5e-3
            # one column per orthant: diagonal signs follow the pattern, the
            # imaginary off-diagonal sign is locked to the first diagonal sign
            assert np.sign(t[0]) == pattern[0]
            assert np.sign(t[1]) == pattern[1]
            assert np.sign(t[3]) == np.sign(t[0])
            states.append(report.solutions[0].rho_final)
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                assert np.linalg.norm(states[i] - states[j]) < 1e-3


def test_criterion_06_all_minimizers_agree():
    with criterion(6, "all retained minimizers agree"):
        tic = time.perf_counter()
        pol = polarization_projectors()
        povms = {2: pol, 4: tensor_povm([pol, pol])}
        rng = np.random.default_rng(2026)
        cfg = StopConfig(grad_tol=1e-7)
        k = 0
        for d, n_targets in ((2, 20), (4, 5)):
            for _ in range(n_targets):
                rho = random_density(rng, d)
                rec = simulate_counts(rho, povms[d], 10**5, noise="gaussian", seed=k)
                model = ObjectiveModel("gaussian", povms[d], normalize(rec))
                report = multistart(model, 50, seed=1000 + k, cfg=cfg, screen_tol=1e-6)
                passed, summary = equivalence_check(
                    report.screened_results, rho_tol=1e-4, f_tol=1e-8
                )
                assert passed, summary
                k += 1
        assert time.perf_counter() - tic < 300.0


def test_criterion_07_gradient_correctness():
    with criterion(7, "analytic gradient correctness"):
        pol = polarization_projectors()
        rng = np.random.default_rng(7)
        for d, povm in ((2, pol), (4, tensor_povm([pol, pol]))):
            freqs = np.array(
                [born_probability(op, random_density(rng, d)) for op in povm]
            )
            for kind in ("gaussian", "multinomial"):
                model = ObjectiveModel(kind, povm, freqs)
                assert gradient_check(model, n_points=100, seed=11) < 1e-6


def test_criterion_08_homogeneity_and_false_stationarity():
    with criterion(8, "scale invariance and gradient shrinkage"):
        rng = np.random.default_rng(8)
        for kind in ("gaussian", "multinomial"):
            model = single_qubit_model(EXAMPLE1_FREQS, kind=kind)
            for _ in range(50):
                t = random_param(rng, 2)
                f = value(t, model)
                gnorm = np.linalg.norm(value_and_gradient(t, model).gradient)
                for c in (-2.0, 0.5, 10.0):
                    fc = value(c * t, model)
                    gc = np.linalg.norm(value_and_gradient(c * t, model).gradient)
                    assert abs(fc - f) <= 1e-12 * max(1.0, abs(f))
                    assert abs(gc * abs(c) - gnorm) <= 1e-10 * gnorm


def test_criterion_09_parameterization_invariants():
    with criterion(9, "parameterization invariants"):
        rng = np.random.default_rng(9)
        for d in (2, 4):
            for _ in range(10**4):
                rho = rho_of_t(rng.uniform(-1.0, 1.0, size=d * d))
                assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
                assert abs(np.trace(rho) - 1.0) <= 1e-12
                assert np.linalg.eigvalsh(rho)[0] >= -1e-10
            for _ in range(20):
                rho = random_density(rng, d)
                for pattern in all_sign_patterns(d):
                    t = inverse_param(rho, pattern)
                    assert np.max(np.abs(rho_of_t(t) - rho)) < 1e-10


def test_criterion_10_linear_inversion():
    with criterion(10, "linear inversion roundtrip and unphysical results"):
        pol = polarization_projectors()
        basis = pauli_basis(1)
        rng = np.random.default_rng(10)
        n_shots = 10**4
        for _ in range(20):
            rho = random_density(rng, 2)
            freqs = np.array([born_probability(op, rho) for op in pol])
            report = linear_invert(freqs, pol, basis)
            assert np.max(np.abs(report.matrix - rho)) <= 1 / (2 * n_shots) + 1e-10
            assert report.is_physical
        v = np.array([1, 0], dtype=complex)
        pure = np.outer(v, v.conj())
        unphysical = 0
        for seed in range(1000):
            rec = simulate_counts(pure, pol, 100, noise="gaussian", seed=seed)
            if not linear_invert(normalize(rec), pol, basis).is_physical:
                unphysical += 1
        assert unphysical >= 1
