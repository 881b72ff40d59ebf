import collections
import dataclasses
import importlib.util
import itertools
import math
import types
from pathlib import Path

import numpy as np
import pytest
import reference_mle

from tomomle import optimizers
from tomomle.errors import NumericalError
from tomomle.likelihood import ObjectiveEvaluation, ObjectiveModel
from tomomle.measurement import (
    normalize,
    polarization_projectors,
    povm_preset,
    record_from_dict,
    simulate_counts,
)
from tomomle.optimizers import (
    LM_LAMBDA_INIT,
    LM_LAMBDA_MAX,
    SOLVERS,
    OptimizationResult,
    StopConfig,
    StopReason,
    _damped_steps,
    constrained_sign_solve,
    default_start,
    gradient_descent,
    levenberg_marquardt,
    lm_block,
    nelder_mead,
    project_to_orthant,
)
from tomomle.parameterize import (
    all_sign_patterns,
    param_layout,
    random_density,
    random_param,
    rho_of_t,
)


class Quadratic:
    """0.5 * ||A t - b||^2; a convex sanity target with a known minimizer.

    Answers the objective's three methods with the engine's types;
    residuals_and_jacobian takes one vector or a (B, n) block of them.
    """

    def __init__(self):
        self.A = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        self.b = np.array([2.0, 1.0, 2.0])
        self.t_star, *_ = np.linalg.lstsq(self.A, self.b, rcond=None)

    def value(self, t):
        r = self.A @ t - self.b
        return 0.5 * float(r @ r)

    def value_and_gradient(self, t):
        r = self.A @ t - self.b
        return ObjectiveEvaluation(0.5 * float(r @ r), self.A.T @ r)

    def residuals_and_jacobian(self, t):
        r = t @ self.A.T - self.b
        return r, np.tile(self.A, r.shape[:-1] + (1, 1)), False


def example1_model():
    return ObjectiveModel(polarization_projectors(), np.array([0.999, 0.0002, 0.4995, 0.4994]))


def test_lm_quadratic():
    q = Quadratic()
    res = levenberg_marquardt(q, np.array([5.0, -5.0]))
    assert res.reason is StopReason.GradientTolerance
    assert np.max(np.abs(res.t_final - q.t_star)) < 1e-6
    assert res.rho_final is None


def test_gd_quadratic():
    q = Quadratic()
    res = gradient_descent(q, np.array([5.0, -5.0]))
    # the stagnation checks run in the same iteration as the gradient check,
    # so either reason is acceptable as long as the point is stationary
    assert res.grad_norm < 1e-6
    assert np.max(np.abs(res.t_final - q.t_star)) < 1e-5


def test_nm_quadratic():
    q = Quadratic()
    res = nelder_mead(q, np.array([5.0, -5.0]), StopConfig(step_tol=1e-9, fun_tol=1e-14))
    assert res.reason is StopReason.StepStagnation
    assert np.max(np.abs(res.t_final - q.t_star)) < 1e-6


def test_stop_config_defaults():
    # grad_tol**2 overflows a float above about 1.34e154: the stagnation
    # tolerances are then inf
    for grad_tol, tol in ((1e-6, 1e-12), (1e200, math.inf)):
        assert StopConfig(grad_tol=grad_tol).resolved(4) == (tol, tol, 1600, 1600)


def test_max_iteration_budget():
    res = levenberg_marquardt(Quadratic(), np.array([5.0, -5.0]), StopConfig(max_iters=1))
    assert res.reason is StopReason.MaxIterations
    assert res.iters == 1


def test_nm_feval_budget_exact():
    model = example1_model()
    res = nelder_mead(model, default_start(2), StopConfig(max_fevals=100))
    assert res.reason is StopReason.MaxFunctionEvals
    assert res.fevals == 100


def test_lm_monotone_trace():
    model = example1_model()
    res = levenberg_marquardt(model, default_start(2), trace=True)
    values = [entry[0] for entry in res.trace_log]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert res.reason is StopReason.GradientTolerance


def test_constrained_solve_on_sphere():
    model = example1_model()
    for pattern in ([1.0, 1.0], [-1.0, 1.0]):
        res = constrained_sign_solve(model, pattern, np.array([0.5, 0.5, 0.1, -0.1]))
        assert res.t_final @ res.t_final == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.sign(res.t_final[:2]) == np.sign(pattern))


def test_constrained_solves_agree_in_state():
    model = example1_model()
    states = []
    for pattern in ([1.0, 1.0], [-1.0, -1.0]):
        res = constrained_sign_solve(
            model, pattern, np.array([0.5, 0.5, 0.1, -0.1]), StopConfig(grad_tol=1e-8)
        )
        states.append(res.rho_final)
    assert np.max(np.abs(states[0] - states[1])) < 1e-6


def test_solver_table_dispatch():
    assert set(SOLVERS) == {"lm", "gd", "nelder-mead"}
    res = SOLVERS["lm"](example1_model(), default_start(2))
    assert res.reason is StopReason.GradientTolerance


def test_default_start_is_maximally_mixed():
    t = default_start(2)
    assert t == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2), 0.0, 0.0])


def record_model(record):
    return ObjectiveModel(record.operators, normalize(record))


def _q3_record():
    """tools/same_outputs.py's 3-qubit record: 64 listed H, V, D, R
    product projectors on a noisy GHZ state."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", tool)
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    return record_from_dict(same_outputs._hvdr_record(3))


def test_lm_reaches_the_rho_space_reference_minimum(example1, example2, example3):
    # reference_mle minimizes F over density matrices, not through rho(t),
    # to a gap of 1e-8: F_LM can undercut it by rounding only, and exceed it
    # by no more than the gap at LM's end point, which bounds F_LM - F*
    # (q3 at the default grad_tol, 1e-6)
    cases = [(rec, (1e-6, 1e-9)) for rec in (example1, example2, example3)]
    for record, grad_tols in [*cases, (_q3_record(), (1e-6,))]:
        model = record_model(record)
        _, f_ref, _, _ = reference_mle.minimize(model.povm, model.freqs)
        for grad_tol in grad_tols:
            res = levenberg_marquardt(model, default_start(model.dim), StopConfig(grad_tol))
            lm_gap = reference_mle.gap(model.povm, model.freqs, res.rho_final)
            assert -1e-12 <= res.f_final - f_ref <= lm_gap + 1e-12


def multistart_block(d, n, seed=0):
    return np.stack([random_param(np.random.default_rng(seed + i), d) for i in range(n)])


def reference_lm(model, t0, cfg, pattern=None):
    """The single-start algorithm, one branch at a time; the batched solver
    must take the same branches for every row.  Returns the stop reason,
    iters, fevals, the final point and the objective after every accepted
    step."""
    res_jac = lambda t: model.residuals_and_jacobian(t)[:2]  # noqa: E731
    project = (lambda t: t) if pattern is None else (lambda t: project_to_orthant(t, pattern))
    t = project(np.asarray(t0, dtype=float))
    step_tol, fun_tol, max_iters, max_fevals = cfg.resolved(t.size)
    r, jac = res_jac(t)
    fevals, iters, lam = 1, 0, LM_LAMBDA_INIT
    f, grad = 0.5 * (r @ r), jac.T @ r
    if not (np.isfinite(f) and np.all(np.isfinite(grad))):
        return StopReason.NumericalFailure, iters, fevals, t, []
    fs = [f]

    def done(reason):
        return reason, iters, fevals, t, fs

    while True:
        if np.linalg.norm(grad) < cfg.grad_tol:
            return done(StopReason.GradientTolerance)
        if iters >= max_iters:
            return done(StopReason.MaxIterations)
        if fevals >= max_fevals:
            return done(StopReason.MaxFunctionEvals)
        iters += 1
        while True:
            try:
                delta = np.linalg.solve(jac.T @ jac + lam * np.eye(t.size), -grad)
            except np.linalg.LinAlgError:
                delta = np.full(t.size, np.nan)
            if np.all(np.isfinite(delta)):
                trial = project(t + delta)
                r_new, jac_new = res_jac(trial)
                fevals += 1
                f_new = 0.5 * (r_new @ r_new)
                if np.all(np.isfinite(r_new)) and np.all(np.isfinite(jac_new)) and f_new < f:
                    break
            lam *= 2.0
            if lam > LM_LAMBDA_MAX:
                return done(StopReason.StepStagnation)
            if fevals >= max_fevals:
                return done(StopReason.MaxFunctionEvals)
        if (f - f_new) / max(0.5 * (lam * (delta @ delta) - grad @ delta), 1e-300) > 0.75:
            lam = max(lam * 0.5, 1e-15)
        step, df = np.linalg.norm(trial - t), f - f_new
        t, f, jac, grad = trial, f_new, jac_new, jac_new.T @ r_new
        fs.append(f)
        if np.linalg.norm(grad) < cfg.grad_tol:
            return done(StopReason.GradientTolerance)
        if step < step_tol:
            return done(StopReason.StepStagnation)
        if df < fun_tol:
            return done(StopReason.FunctionStagnation)


def assert_matches_reference(results, model, starts, cfg=None, patterns=None):
    cfg = cfg or StopConfig()
    if patterns is None:
        patterns = [None] * len(starts)
    assert len(results) == len(starts)
    for res, t0, pattern in zip(results, starts, patterns):
        reason, iters, fevals, t, fs = reference_lm(model, t0, cfg, pattern)
        assert (res.reason, res.iters, res.fevals) == (reason, iters, fevals)
        assert [entry[0] for entry in res.trace_log] == pytest.approx(fs, rel=1e-6, abs=1e-18)
        if np.all(np.isfinite(t)):
            assert np.max(np.abs(res.t_final - t)) < 1e-8 * max(1.0, np.max(np.abs(t)))
            if res.rho_final is not None:
                assert np.max(np.abs(res.rho_final - rho_of_t(t))) < 1e-10


def _finish(model, t, f, iters, fevals, reason, trace, grad=None):
    """The one-run result builder the references were written with, frozen
    with them."""
    if grad is None:
        grad = model.value_and_gradient(t).gradient
    rho = rho_of_t(t) if isinstance(model, ObjectiveModel) else None
    return OptimizationResult(
        t_final=np.array(t, dtype=float),
        rho_final=rho,
        f_final=float(f),
        grad_norm=float(np.linalg.norm(grad)),
        iters=int(iters),
        fevals=int(fevals),
        reason=reason,
        trace_log=trace,
    )


# the helpers of the previous batched loop, frozen with it
def _rowdot(a, b):
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _jt_r(jac, r):
    return (jac.swapaxes(1, 2) @ r[:, :, None])[:, :, 0]


def _finite_rows(r, jac):
    return np.isfinite(r).all(axis=1) & np.isfinite(jac).all(axis=(1, 2))


def reference_lm_chunk(model, t0, cfg, pattern):
    """The batched LM loop as it was written with the running Jacobian, the
    stacked stop checks and one trace append per accepted row per round.
    _lm_chunk must reproduce it bit for bit."""
    n = t0.shape[1]
    step_tol, fun_tol, max_iters, max_fevals = cfg.resolved(n)
    t = t0.copy() if pattern is None else project_to_orthant(t0, pattern)
    traces = [[] for _ in t]
    results = [None] * len(t)

    r, jac, _ = model.residuals_and_jacobian(t)
    # a start whose value or a gradient entry is not finite fails, with
    # its own f and ||J^T r|| and an empty trace
    f0, g0 = 0.5 * _rowdot(r, r), _jt_r(jac, r)
    finite = np.isfinite(f0) & np.isfinite(g0).all(axis=1)
    for i in np.flatnonzero(~finite):
        results[i] = _finish(
            model, t[i], f0[i], 0, 1, StopReason.NumericalFailure, traces[i], g0[i]
        )
    k = int(finite.sum())
    s = types.SimpleNamespace(
        rows=np.flatnonzero(finite),
        t=t[finite],
        jac=jac[finite],
        jtj=np.empty((k, n, n)),
        lam=np.full(k, LM_LAMBDA_INIT),
        iters=np.zeros(k, dtype=int),
        fevals=np.ones(k, dtype=int),
        accepted=np.ones(k, dtype=bool),
        step=np.full(k, np.inf),
        df=np.full(k, np.inf),
    )
    r = r[finite]
    s.f = 0.5 * _rowdot(r, r)
    s.grad = _jt_r(s.jac, r)
    s.gnorm = np.sqrt(_rowdot(s.grad, s.grad))
    for i, row in enumerate(s.rows):
        traces[row].append((float(s.f[i]), float(s.gnorm[i]), 0.0))

    while True:
        accepted, rejected = s.accepted, ~s.accepted
        checks = np.array(
            [
                accepted & (s.gnorm < cfg.grad_tol),
                accepted & (s.step < step_tol),
                accepted & (s.df < fun_tol),
                rejected & (s.lam > LM_LAMBDA_MAX),
                accepted & (s.iters >= max_iters),
                s.fevals >= max_fevals,
            ]
        )
        hit = checks.any(axis=0)
        if hit.any():
            for i, c in zip(np.flatnonzero(hit), checks[:, hit].argmax(axis=0)):
                row = s.rows[i]
                results[row] = _finish(
                    model, s.t[i], s.f[i], s.iters[i], s.fevals[i], REFERENCE_LM_STOPS[c],
                    traces[row], s.grad[i],
                )
            for name, value in vars(s).items():
                setattr(s, name, value[~hit])
        if len(s.rows) == 0:
            return results
        begin = s.accepted
        jb = s.jac[begin]
        s.jtj[begin] = jb.swapaxes(1, 2) @ jb
        s.iters += begin

        delta = _damped_steps(s.jtj.copy(), s.lam, s.grad)
        solved = np.isfinite(delta).all(axis=1)
        delta[~solved] = 0.0
        trial = s.t + delta
        if pattern is not None:
            trial = project_to_orthant(trial, pattern[s.rows])
        r_new, jac_new, _ = model.residuals_and_jacobian(trial)
        s.fevals += solved
        f_new = 0.5 * _rowdot(r_new, r_new)
        better = solved & _finite_rows(r_new, jac_new) & (f_new < s.f)

        pred = 0.5 * (s.lam * _rowdot(delta, delta) - _rowdot(s.grad, delta))
        strong = (s.f - f_new) / np.maximum(pred, 1e-300) > 0.75
        s.lam = np.where(
            better, np.where(strong, np.maximum(s.lam * 0.5, 1e-15), s.lam), s.lam * 2.0
        )
        moved = trial - s.t
        s.step = np.sqrt(_rowdot(moved, moved))
        s.df = s.f - f_new
        r_kept, jac_kept = r_new[better], jac_new[better]
        s.t[better], s.jac[better] = trial[better], jac_kept
        s.f = np.where(better, f_new, s.f)
        s.grad[better] = grad = _jt_r(jac_kept, r_kept)
        s.gnorm[better] = np.sqrt(_rowdot(grad, grad))
        for i in np.flatnonzero(better):
            traces[s.rows[i]].append((float(s.f[i]), float(s.gnorm[i]), float(s.step[i])))
        s.accepted = better


REFERENCE_LM_STOPS = (
    StopReason.GradientTolerance,
    StopReason.StepStagnation,
    StopReason.FunctionStagnation,
    StopReason.StepStagnation,
    StopReason.MaxIterations,
    StopReason.MaxFunctionEvals,
)


def reference_lm_block(model, t0, cfg=None, pattern=None):
    """lm_block's chunking around reference_lm_chunk."""
    cfg = cfg or StopConfig()
    t0 = np.atleast_2d(np.asarray(t0, dtype=float))
    if pattern is not None:
        pattern = np.asarray(pattern, dtype=float)
        pattern = np.broadcast_to(pattern, (len(t0), pattern.shape[-1]))
    size = optimizers._chunk_size(model, len(t0))
    results = []
    for lo in range(0, len(t0), size):
        rows = slice(lo, lo + size)
        results += reference_lm_chunk(
            model, t0[rows], cfg, None if pattern is None else pattern[rows]
        )
    return results


def assert_same_lm_block(model, starts, cfg=None, pattern=None):
    """lm_block, traced, and reference_lm_block agree bit for bit on every
    field of every row, every trace tuple included; returns the block."""
    block = lm_block(model, starts, cfg, pattern, trace=True)
    ref = reference_lm_block(model, starts, cfg, pattern)
    assert len(block) == len(ref)
    for got, want in zip(block, ref):
        assert_same_result(got, want)
        assert got.trace_log == want.trace_log
        if want.rho_final is None:
            assert got.rho_final is None
        else:
            np.testing.assert_array_equal(got.rho_final, want.rho_final)
    return block


def test_block_matches_reference_and_single_starts(example2):
    model = record_model(example2)
    starts = multistart_block(model.dim, 12)
    block = assert_same_lm_block(model, starts)
    assert_matches_reference(block, model, starts)
    for res, t0 in zip(block, starts):
        single = levenberg_marquardt(model, t0)
        assert (single.reason, single.iters, single.fevals) == (res.reason, res.iters, res.fevals)
        assert np.max(np.abs(single.rho_final - res.rho_final)) < 1e-10


def test_sign_block_matches_reference(example3):
    model = record_model(example3)
    starts = multistart_block(model.dim, 6, seed=500)
    cfg = StopConfig(grad_tol=1e-9, step_tol=1e-12, fun_tol=1e-12)
    patterns = all_sign_patterns(model.dim)
    for pattern in patterns:
        block = constrained_sign_solve(model, pattern, starts, cfg)
        traced = assert_same_lm_block(model, starts, cfg, pattern)
        assert_matches_reference(traced, model, starts, cfg, [pattern] * len(starts))
        for res in block:
            assert res.t_final @ res.t_final == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.sign(res.t_final[:2]) == pattern)
    # one block, one pattern per start
    mixed_starts = np.repeat(starts[:2], len(patterns), axis=0)
    mixed_patterns = np.tile(patterns, (2, 1))
    mixed = assert_same_lm_block(model, mixed_starts, cfg, mixed_patterns)
    assert_matches_reference(mixed, model, mixed_starts, cfg, mixed_patterns)


# rho_of_t of the NaN start warns, as it does for a single start
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_block_rows_stop_independently():
    model = example1_model()
    starts = np.array(
        [
            [2e3, 1.0, 0.0, 0.0],  # far out on the flat ray t -> c t
            [np.nan, 1.0, 0.0, 0.0],  # non-finite initial value and gradient
            default_start(2),
            [0.5, 0.5, 0.1, -0.1],
        ]
    )
    for cfg, far_end in (
        (StopConfig(), (StopReason.GradientTolerance, 14, 15)),
        (StopConfig(max_iters=1), (StopReason.MaxIterations, 1, 2)),
    ):
        block = assert_same_lm_block(model, starts, cfg)
        assert_matches_reference(block, model, starts, cfg)
        assert (block[0].reason, block[0].iters, block[0].fevals) == far_end
        assert block[1].reason is StopReason.NumericalFailure
        assert (block[1].iters, block[1].fevals, block[1].trace_log) == (0, 1, [])
        assert math.isnan(block[1].f_final) and math.isnan(block[1].grad_norm)
    assert [r.reason for r in lm_block(model, starts[2:])] == [StopReason.GradientTolerance] * 2
    assert {r.reason for r in lm_block(model, starts[2:], StopConfig(max_iters=1))} == {
        StopReason.MaxIterations
    }


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_all_non_finite_starts_end_on_numerical_failure():
    # every row fails check 0 at its start: the solver reports, it does not
    # raise, and each row reports its own f and ||J^T r||
    model = example1_model()
    nan_start = np.array([np.nan, 1.0, 0.0, 0.0])
    starts = np.array([nan_start, [1.0, np.inf, 0.0, 0.0], [np.nan] * 4])
    # frequencies near 1e302 leave the residuals finite and overflow f
    overflowing = ObjectiveModel(model.povm, model.freqs * 1e302)
    runs = [
        [levenberg_marquardt(model, nan_start)],
        assert_same_lm_block(model, starts),
        assert_same_lm_block(model, starts, StopConfig(max_iters=1)),
        assert_same_lm_block(model, starts, pattern=np.ones(2)),
        assert_same_lm_block(overflowing, [default_start(2)]),
    ]
    for results in runs:
        for res in results:
            assert res.reason is StopReason.NumericalFailure
            assert (res.iters, res.fevals, res.trace_log) == (0, 1, [])
            assert not (math.isfinite(res.f_final) or math.isfinite(res.grad_norm))
    assert_matches_reference(runs[1], model, starts, StopConfig())
    assert runs[-1][0].f_final == math.inf


class Walled(Quadratic):
    """The quadratic with minimizer (-1, -1), undefined where t[0] < 0: from
    (0, 0) every damped step crosses the wall and is rejected.  Where
    t[1] > 100 every Jacobian entry is 1e200, so J^T J overflows and no
    damped step can be solved for."""

    def __init__(self):
        self.A = np.eye(2)
        self.b = np.array([-1.0, -1.0])

    def residuals_and_jacobian(self, t):
        r, jac, floor_hit = super().residuals_and_jacobian(t)
        r[t[..., 0] < 0] = np.nan
        jac[t[..., 1] > 100] = 1e200
        return r, jac, floor_hit


class OverflowingGradient:
    """Residuals (1, 1) and Jacobian I at t = 0; every other point has the
    smaller residuals (0.95, 0.95) and a finite Jacobian of 1e308 entries,
    whose J^T r overflows."""

    def residuals_and_jacobian(self, t):
        at_start = (t == 0).all(axis=-1)[..., None]
        r = np.where(at_start, 1.0, 0.95) * np.ones(t.shape)
        jac = np.where(at_start[..., None], np.eye(2), 1e308)
        return r, jac, False


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_accepted_point_with_a_non_finite_gradient_fails():
    # check 0 binds every accepted point, not only the start: the run ends
    # there, reports that point's f and ||J^T r||, and leaves the point out
    # of its trace, as gradient descent does
    res = levenberg_marquardt(OverflowingGradient(), np.zeros(2), trace=True)
    assert (res.reason, res.iters, res.fevals) == (StopReason.NumericalFailure, 1, 2)
    assert res.f_final == 0.5 * (2 * 0.95**2)
    assert res.grad_norm == math.inf
    assert res.trace_log == [(1.0, math.sqrt(2.0), 0.0)]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_rejected_trials_stop_per_row():
    starts = np.array([[0.0, 0.0], [5.0, 5.0], [0.5, 3.0], [0.0, 200.0]])
    # from (0, 0) the 60th doubling of the damping passes LM_LAMBDA_MAX, with
    # the 61st evaluation; a budget of exactly 61 still stops on the damping
    for cfg, reason in (
        (StopConfig(), StopReason.StepStagnation),
        (StopConfig(max_fevals=61), StopReason.StepStagnation),
        (StopConfig(max_fevals=60), StopReason.MaxFunctionEvals),
    ):
        block = assert_same_lm_block(Walled(), starts, cfg)
        assert_matches_reference(block, Walled(), starts, cfg)
        assert (block[0].reason, block[0].iters) == (reason, 1)
        assert block[0].trace_log == [(1.0, np.sqrt(2.0), 0.0)]
        assert np.array_equal(block[0].t_final, [0.0, 0.0])
        # unsolvable steps are rejected without an evaluation
        assert (block[3].reason, block[3].iters, block[3].fevals) == (
            StopReason.StepStagnation, 1, 1
        )
    assert lm_block(Walled(), starts)[0].fevals == 61


def test_block_chunks_keep_row_order(example2, monkeypatch):
    model = record_model(example2)
    starts = multistart_block(model.dim, 5, seed=40)
    # room for two starts per chunk: chunks of 2, 2 and 1
    budget = 2 * optimizers.LM_START_PRODUCTS * model.povm.nbytes
    monkeypatch.setattr(optimizers, "LM_BLOCK_BYTES", budget)
    assert optimizers._chunk_size(model, len(starts)) == 2
    assert_matches_reference(assert_same_lm_block(model, starts), model, starts)


# every single budget from 1 to 40, then joint budgets, under which the
# iteration and evaluation counts can run out in the same step
BUDGETS = [
    StopConfig(**{budget: b}) for b in range(1, 41) for budget in ("max_fevals", "max_iters")
] + [StopConfig(max_iters=i, max_fevals=f) for i in range(1, 5) for f in range(2, 13)]


def test_block_matches_reference_at_every_budget(example1, example2, example3):
    for record in (example1, example2, example3):
        model = record_model(record)
        starts = np.vstack([default_start(model.dim), multistart_block(model.dim, 1, seed=70)])
        for cfg in BUDGETS:
            block = assert_same_lm_block(model, starts, cfg)
            assert_matches_reference(block, model, starts, cfg)
    # one sign-constrained block, one orthant per start, at tight
    # tolerances
    model = record_model(example3)
    patterns = np.array(all_sign_patterns(model.dim))
    starts = np.repeat(multistart_block(model.dim, 1, seed=90), len(patterns), axis=0)
    for budget in BUDGETS:
        cfg = dataclasses.replace(budget, grad_tol=1e-9, step_tol=1e-12, fun_tol=1e-12)
        block = assert_same_lm_block(model, starts, cfg, patterns)
        assert_matches_reference(block, model, starts, cfg, patterns)


def test_singular_damped_system_rejects_only_its_row():
    jtj = np.stack([np.zeros((2, 2)), np.eye(2)])
    delta = _damped_steps(jtj, np.array([0.0, 1.0]), np.array([[1.0, 1.0], [2.0, -4.0]]))
    assert np.all(np.isnan(delta[0]))
    assert delta[1] == pytest.approx([-1.0, 2.0])


class _Budget(Exception):
    pass


def reference_nelder_mead(model, t0, cfg=None):
    """The simplex search as it was written before the insertion-ordered
    bookkeeping: a full stable argsort of the simplex every iteration,
    np.mean for the centroid and the largest |f_i - f_best| as the spread.
    An ObjectiveModel's end point is scaled by 2^-round(log2 ||t||).
    nelder_mead must reproduce it bit for bit."""
    cfg = cfg or StopConfig()
    t0 = np.asarray(t0, dtype=float).copy()
    n = t0.size
    step_tol, fun_tol, max_iters, max_fevals = cfg.resolved(n)
    trace = []

    state = {"fevals": 0}

    def f(x):
        if state["fevals"] >= max_fevals:
            raise _Budget
        state["fevals"] += 1
        val = model.value(x)
        if not np.isfinite(val):
            raise NumericalError("non-finite objective value in simplex search")
        return val

    # fminsearch-style initial simplex: 5% relative perturbation per
    # coordinate, 0.00025 absolute where the coordinate is zero
    simplex = [t0]
    for i in range(n):
        v = t0.copy()
        v[i] = v[i] * 1.05 if v[i] != 0.0 else 0.00025
        simplex.append(v)
    simplex = np.array(simplex)

    iters = 0
    reason = None
    try:
        values = np.array([f(v) for v in simplex])
        while True:
            order = np.argsort(values, kind="stable")
            simplex = simplex[order]
            values = values[order]
            best, fbest = simplex[0], values[0]
            diameter = float(np.max(np.abs(simplex[1:] - best)))
            fspread = float(np.max(np.abs(values[1:] - fbest)))
            trace.append((fbest, np.nan, diameter))
            if diameter <= step_tol and fspread <= fun_tol:
                reason = StopReason.StepStagnation
                break
            if iters >= max_iters:
                reason = StopReason.MaxIterations
                break
            iters += 1

            centroid = simplex[:-1].mean(axis=0)
            worst, fworst = simplex[-1], values[-1]
            reflected = centroid + (centroid - worst)
            fr = f(reflected)
            if fr < fbest:
                expanded = centroid + 2.0 * (centroid - worst)
                fe = f(expanded)
                if fe < fr:
                    simplex[-1], values[-1] = expanded, fe
                else:
                    simplex[-1], values[-1] = reflected, fr
            elif fr < values[-2]:
                simplex[-1], values[-1] = reflected, fr
            else:
                if fr < fworst:
                    contracted = centroid + 0.5 * (reflected - centroid)
                    fc = f(contracted)
                    better_than = fr
                else:
                    contracted = centroid + 0.5 * (worst - centroid)
                    fc = f(contracted)
                    better_than = fworst
                if fc < better_than:
                    simplex[-1], values[-1] = contracted, fc
                else:
                    # shrink toward the best vertex
                    for i in range(1, n + 1):
                        simplex[i] = best + 0.5 * (simplex[i] - best)
                        values[i] = f(simplex[i])
    except _Budget:
        reason = StopReason.MaxFunctionEvals
    except NumericalError:
        reason = StopReason.NumericalFailure

    order = np.argsort(values, kind="stable")
    best, fbest = simplex[order[0]], values[order[0]]
    norm = np.linalg.norm(best)
    if isinstance(model, ObjectiveModel) and 0.0 < norm < np.inf:
        # an objective's end point is reported at unit scale
        best = best * 2.0 ** -round(np.log2(norm))
    return _finish(model, best, fbest, iters, state["fevals"], reason, trace)


def assert_same_result(got, ref):
    """Two results agree bit for bit (NaN matching NaN); returns ref."""
    assert (got.reason, got.iters, got.fevals) == (ref.reason, ref.iters, ref.fevals)
    np.testing.assert_array_equal(got.t_final, ref.t_final)
    np.testing.assert_array_equal(got.f_final, ref.f_final)
    np.testing.assert_array_equal(got.grad_norm, ref.grad_norm)
    np.testing.assert_array_equal(np.array(got.trace_log), np.array(ref.trace_log))
    return ref


def assert_same_simplex_run(model, t0, cfg=None):
    """nelder_mead, traced, and reference_nelder_mead agree bit for bit;
    returns the reference result."""
    got = nelder_mead(model, t0, cfg, trace=True)
    return assert_same_result(got, reference_nelder_mead(model, t0, cfg))


EXAMPLE1_START = np.array([-0.0001, 0.999, 0.001, 0.999])


def test_nelder_mead_matches_reference(example2):
    # the start scaled by 1 + k 1e-15 drifts along the flat ray t -> c t,
    # where criterion 03 depends on the last bits of each value
    for k in (-1, 0, 1, 2):
        assert_same_simplex_run(example1_model(), EXAMPLE1_START * (1 + k * 1e-15))
    ref = assert_same_simplex_run(record_model(example2), default_start(4))
    assert (ref.reason, ref.fevals) == (StopReason.MaxFunctionEvals, 6400)


class Delegate:
    """An objective's three methods, delegated to an ObjectiveModel: the same
    values, without the model's type."""

    def __init__(self, model):
        self.value = model.value
        self.value_and_gradient = model.value_and_gradient
        self.residuals_and_jacobian = model.residuals_and_jacobian


def test_nelder_mead_reports_an_objective_end_point_at_unit_scale(example2):
    # the same search on the model and on a Delegate of it; only the model's
    # end point is rescaled, by a power of two, which keeps f and rho bit for
    # bit
    for model, start in (
        *((example1_model(), EXAMPLE1_START * (1 + k * 1e-15)) for k in (-1, 0, 1, 2)),
        (record_model(example2), default_start(4)),
    ):
        res = nelder_mead(model, start)
        raw = nelder_mead(Delegate(model), start)
        assert (res.reason, res.iters, res.fevals, res.f_final) == (
            raw.reason, raw.iters, raw.fevals, raw.f_final
        )
        assert raw.rho_final is None
        assert np.array_equal(res.rho_final, rho_of_t(raw.t_final))
        e = round(math.log2(np.linalg.norm(raw.t_final)))
        assert np.array_equal(res.t_final, raw.t_final * 2.0**-e)
        assert 2**-0.5 <= np.linalg.norm(res.t_final) <= 2**0.5
        assert res.grad_norm == raw.grad_norm * 2.0**e  # g(c t) = g(t) / c, exactly here


def test_nelder_mead_matches_reference_through_shrinks():
    model, start = example1_model(), default_start(2)
    assert_same_simplex_run(model, start)  # stops on step-stagnation
    # every budget up to 60 evaluations; an iteration that shrinks makes
    # n + 2 = 6 evaluations, so six consecutive budgets end in it, four of
    # them after the reflection and contraction and before the last
    # shrink evaluation (mid-shrink)
    iters = [
        assert_same_simplex_run(model, start, StopConfig(max_fevals=budget)).iters
        for budget in range(model.n_params + 2, 60)
    ]
    assert max(len(list(run)) for _, run in itertools.groupby(iters)) == model.n_params + 2


class Flat(Quadratic):
    """A constant objective: every vertex value ties."""

    def value(self, t):
        return 1.0


def test_nelder_mead_reports_the_first_of_tied_vertices():
    # every iteration shrinks toward the start, which stays the first vertex
    # of the stable order and is the one reported
    res = assert_same_simplex_run(Flat(), np.array([5.0, -5.0]))
    assert res.reason is StopReason.StepStagnation
    assert np.array_equal(res.t_final, [5.0, -5.0])


class NaNBelow(Quadratic):
    """The quadratic, with a NaN value wherever t[1] < -5.1."""

    def value(self, t):
        return np.nan if t[1] < -5.1 else super().value(t)


def test_nelder_mead_stops_inside_initial_simplex():
    # the start is always evaluated; a budget that runs out, or a NaN met,
    # inside the initial simplex stops at the best vertex evaluated so far
    model = example1_model()
    vertices = [EXAMPLE1_START] + [EXAMPLE1_START * (1 + 0.05 * e) for e in np.eye(4)]
    values = [model.value(v) for v in vertices]
    for budget in (0, 1, 3, 4):
        res = nelder_mead(model, EXAMPLE1_START, StopConfig(max_fevals=budget))
        k = max(1, budget)
        best = int(np.argmin(values[:k]))
        assert (res.reason, res.fevals, res.iters) == (StopReason.MaxFunctionEvals, k, 0)
        assert np.array_equal(res.t_final, vertices[best])
        assert res.f_final == values[best]
    q = NaNBelow()
    res = nelder_mead(q, np.array([5.0, -5.0]))  # the second vertex is [5, -5.25]
    assert (res.reason, res.fevals) == (StopReason.NumericalFailure, 3)
    assert res.f_final == min(q.value(np.array([5.0, -5.0])), q.value(np.array([5.25, -5.0])))
    res = nelder_mead(q, np.array([5.0, -6.0]))
    assert (res.reason, res.fevals) == (StopReason.NumericalFailure, 1)
    assert np.array_equal(res.t_final, [5.0, -6.0])


def reference_gd(model, t0, cfg=None):
    """Gradient descent as it was written with two evaluation sites: the
    budget and gradient checks before an iteration, the stagnation checks
    after its accepted step.  gradient_descent must reproduce it bit for
    bit."""
    cfg = cfg or StopConfig()
    t = np.asarray(t0, dtype=float).copy()
    n = t.size
    step_tol, fun_tol, max_iters, max_fevals = cfg.resolved(n)
    trace = []

    ev = model.value_and_gradient(t)
    f, grad = ev.value, ev.gradient
    fevals = 1
    if not (math.isfinite(f) and np.isfinite(grad).all()):
        return _finish(model, t, f, 0, fevals, StopReason.NumericalFailure, trace)
    alpha = 1.0
    iters = 0
    gnorm = math.sqrt(grad @ grad)
    trace.append((f, gnorm, 0.0))

    while True:
        direction = -grad
        dnorm2 = float(direction @ direction)
        if gnorm < cfg.grad_tol:
            return _finish(model, t, f, iters, fevals, StopReason.GradientTolerance, trace, grad)
        if iters >= max_iters:
            return _finish(model, t, f, iters, fevals, StopReason.MaxIterations, trace, grad)
        if fevals >= max_fevals:
            return _finish(model, t, f, iters, fevals, StopReason.MaxFunctionEvals, trace, grad)
        iters += 1

        accepted = False
        a = alpha
        for _ in range(optimizers.MAX_BACKTRACKS):
            trial = t + a * direction
            f_trial = model.value(trial)
            fevals += 1
            if math.isfinite(f_trial) and f_trial <= f - optimizers.ARMIJO_C1 * a * dnorm2:
                accepted = True
                break
            if fevals >= max_fevals:
                return _finish(
                    model, t, f, iters, fevals, StopReason.MaxFunctionEvals, trace, grad
                )
            a *= 0.5
        if not accepted:
            return _finish(model, t, f, iters, fevals, StopReason.StepStagnation, trace, grad)

        moved = trial - t
        step = math.sqrt(moved @ moved)
        df = f - f_trial
        t = trial
        ev = model.value_and_gradient(t)
        f, grad = ev.value, ev.gradient
        fevals += 1
        if not (math.isfinite(f) and np.isfinite(grad).all()):
            return _finish(model, t, f, iters, fevals, StopReason.NumericalFailure, trace)
        alpha = min(a * 2.0, 1e6)
        gnorm = math.sqrt(grad @ grad)
        trace.append((f, gnorm, step))

        if step < step_tol:
            return _finish(model, t, f, iters, fevals, StopReason.StepStagnation, trace, grad)
        if df < fun_tol:
            return _finish(model, t, f, iters, fevals, StopReason.FunctionStagnation, trace, grad)


def assert_same_descent_run(model, t0, cfg=None):
    got = gradient_descent(model, t0, cfg, trace=True)
    return assert_same_result(got, reference_gd(model, t0, cfg))


def test_gradient_descent_matches_reference(example1, example2, example3):
    for record in (example1, example2, example3):
        model = record_model(record)
        start = default_start(model.dim)
        assert_same_descent_run(model, start)
        for cfg in BUDGETS:
            assert_same_descent_run(model, start, cfg)
    model = example1_model()
    assert_same_descent_run(model, EXAMPLE1_START)
    far = assert_same_descent_run(model, [2e3, 1.0, 0.0, 0.0])
    assert (far.reason, far.iters) == (StopReason.GradientTolerance, 21)


def test_solver_loops_match_references_on_a_two_qubit_record():
    # a pol4x4 record like the ones the compare benchmark simulates, at the
    # full default budget: 6400 evaluations for Nelder-Mead
    rho = random_density(np.random.default_rng(13), 4)
    model = record_model(simulate_counts(rho, povm_preset("pol4x4"), 10_000, "none", 13))
    start = default_start(model.dim)
    assert_same_descent_run(model, start)
    ref = assert_same_simplex_run(model, start)
    assert ref.fevals == 6400


def assert_untraced_runs_match(plain, traced):
    """Untraced results equal traced ones in every field but trace_log,
    which is empty."""
    for got, want in zip(plain, traced, strict=True):
        assert got.trace_log == []
        assert (got.reason, got.iters, got.fevals) == (want.reason, want.iters, want.fevals)
        for name in ("t_final", "rho_final", "f_final", "grad_norm"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


# the overflow record's solves overflow and rho_of_t of its NaN end points warns
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_untraced_runs_take_the_traced_steps(example1, example2, example3):
    overflow = dataclasses.replace(example1, normalization=1e-300)
    for record in (example1, example2, example3, overflow):
        model = record_model(record)
        for cfg in (None, StopConfig(max_fevals=4)):
            for solve in (levenberg_marquardt, gradient_descent, nelder_mead):
                traced = solve(model, default_start(model.dim), cfg, trace=True)
                if cfg is None:  # the overflow record fails at its start, untraced
                    assert bool(traced.trace_log) is (record is not overflow)
                assert_untraced_runs_match([solve(model, default_start(model.dim), cfg)], [traced])
    # a block of starts, one sign orthant per start
    model = record_model(example3)
    patterns = np.array(all_sign_patterns(model.dim))
    starts = np.repeat(multistart_block(model.dim, 1, seed=90), len(patterns), axis=0)
    traced = lm_block(model, starts, None, patterns, trace=True)
    assert all(res.trace_log for res in traced)
    assert_untraced_runs_match(lm_block(model, starts, None, patterns), traced)


class NoDescent(Quadratic):
    """The quadratic, with a NaN value at every trial point."""

    def value(self, t):
        return np.nan


class NaNGradientAbove(Quadratic):
    """The quadratic, with a NaN gradient wherever t[1] > -4.9."""

    def value_and_gradient(self, t):
        ev = super().value_and_gradient(t)
        return ev if t[1] <= -4.9 else ObjectiveEvaluation(ev.value, np.full(2, np.nan))


class HugeGradient(Quadratic):
    """The quadratic, with its gradient scaled by 1e200: every entry is
    finite, but g.g overflows to inf."""

    def value_and_gradient(self, t):
        ev = super().value_and_gradient(t)
        return ObjectiveEvaluation(ev.value, ev.gradient * 1e200)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_gradient_descent_matches_reference_on_failures():
    start = np.array([5.0, -5.0])
    # MAX_BACKTRACKS rejected trials, then a budget spent inside the search
    res = assert_same_descent_run(NoDescent(), start)
    assert (res.reason, res.fevals) == (StopReason.StepStagnation, 1 + optimizers.MAX_BACKTRACKS)
    res = assert_same_descent_run(NoDescent(), start, StopConfig(max_fevals=30))
    assert (res.reason, res.fevals) == (StopReason.MaxFunctionEvals, 30)
    # a non-finite gradient after the first step, and at the start
    res = assert_same_descent_run(NaNGradientAbove(), start)
    assert (res.reason, res.iters, len(res.trace_log)) == (StopReason.NumericalFailure, 1, 1)
    res = assert_same_descent_run(NaNGradientAbove(), np.array([5.0, 0.0]))
    assert (res.reason, res.iters, res.trace_log) == (StopReason.NumericalFailure, 0, [])
    # an overflowing ||g|| with finite entries is not a numerical failure;
    # every trial point then overflows the value
    res = assert_same_descent_run(HugeGradient(), start)
    assert (res.reason, res.fevals) == (StopReason.StepStagnation, 1 + optimizers.MAX_BACKTRACKS)
    assert res.trace_log[0][1] == math.inf


def test_gradient_descent_stops_at_the_loop_top():
    q = Quadratic()
    # at the minimizer, before any step
    res = gradient_descent(q, q.t_star, trace=True)
    assert (res.reason, res.iters, res.fevals, len(res.trace_log)) == (
        StopReason.GradientTolerance, 0, 1, 1
    )
    # after the first accepted step, which is shorter than step_tol
    res = gradient_descent(q, np.array([5.0, -5.0]), StopConfig(step_tol=1e3), trace=True)
    assert (res.reason, res.iters, len(res.trace_log)) == (StopReason.StepStagnation, 1, 2)
    assert 0 < res.trace_log[1][2] < 1e3


class CountedNaNGradientAbove(NaNGradientAbove):
    """NaNGradientAbove, counting its gradient evaluations."""

    gradient_calls = 0

    def value_and_gradient(self, t):
        self.gradient_calls += 1
        return super().value_and_gradient(t)


@pytest.mark.parametrize(
    "start, gradient_calls", [([np.nan, 0.0], 1), ([5.0, 0.0], 1), ([5.0, -5.0], 2)]
)
def test_gradient_descent_numerical_failure_reuses_its_gradient(start, gradient_calls):
    # the non-finite gradient that stops the run is the one reported
    model = CountedNaNGradientAbove()
    res = gradient_descent(model, np.array(start))
    assert res.reason is StopReason.NumericalFailure
    assert model.gradient_calls == gradient_calls
    assert math.isnan(res.grad_norm)


class CountedModel(ObjectiveModel):
    """An ObjectiveModel that counts the calls of each of its three methods."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "calls", collections.Counter())

    def value(self, t):
        self.calls["value"] += 1
        return super().value(t)

    def value_and_gradient(self, t):
        self.calls["value_and_gradient"] += 1
        return super().value_and_gradient(t)

    def residuals_and_jacobian(self, t):
        self.calls["residuals_and_jacobian"] += 1
        return super().residuals_and_jacobian(t)


def counted(record):
    return CountedModel(record.operators, normalize(record))


# rho_of_t of the NaN start warns
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nelder_mead_makes_one_uncounted_gradient_call(example1, example2):
    # fevals counts every value call; the one value_and_gradient call that
    # reports ||g|| is not counted, at every exit
    runs = [
        (example1, None, StopReason.StepStagnation),
        (example2, None, StopReason.MaxFunctionEvals),
        (example2, StopConfig(max_iters=3), StopReason.MaxIterations),
        (example1, StopConfig(max_fevals=2), StopReason.MaxFunctionEvals),
    ]
    for record, cfg, reason in runs:
        model = counted(record)
        res = nelder_mead(model, default_start(model.dim), cfg)
        assert res.reason is reason
        assert model.calls == {"value": res.fevals, "value_and_gradient": 1}
    model = counted(example1)
    res = nelder_mead(model, [np.nan, 1.0, 0.0, 0.0])
    assert (res.reason, res.fevals) == (StopReason.NumericalFailure, 1)
    assert model.calls == {"value": 1, "value_and_gradient": 1}


class RaisingGradient(Quadratic):
    """The quadratic, whose value_and_gradient raises."""

    def value_and_gradient(self, t):
        raise RuntimeError("gradient failed")


def test_nelder_mead_does_not_swallow_a_gradient_error():
    # the one value_and_gradient call that reports ||g|| raises to the caller
    with pytest.raises(RuntimeError, match="gradient failed"):
        nelder_mead(RaisingGradient(), np.array([5.0, -5.0]))


def test_gradient_descent_counts_every_call(example1, example2):
    # one value_and_gradient call per evaluated point, none after the stop:
    # iters + 1 of them, or iters when the run stops inside a line search
    extra = set()
    for record in (example1, example2):
        for cfg in [None] + [StopConfig(max_fevals=b) for b in range(1, 41)]:
            model = counted(record)
            res = gradient_descent(model, default_start(model.dim), cfg)
            gradients = model.calls["value_and_gradient"]
            assert model.calls["value"] + gradients == res.fevals
            assert "residuals_and_jacobian" not in model.calls
            extra.add(gradients - res.iters)
    assert extra == {0, 1}


# rho_of_t of the NaN start warns
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_lm_makes_no_uncounted_gradient_call(example1):
    # a non-finite start reports the gradient of its one Jacobian, with no
    # value_and_gradient call
    model = counted(example1)
    res = levenberg_marquardt(model, [np.nan] * 4)
    assert (res.reason, res.fevals) == (StopReason.NumericalFailure, 1)
    assert model.calls == {"residuals_and_jacobian": 1}
    assert math.isnan(res.grad_norm)
    # a finite start reports the gradient of its last Jacobian
    model = counted(example1)
    res = levenberg_marquardt(model, default_start(2))
    assert res.reason is StopReason.GradientTolerance
    assert set(model.calls) == {"residuals_and_jacobian"}


def hessian_min_eigenvalue(model, t, h=1e-5):
    """Smallest eigenvalue of the symmetrized central-difference Hessian of
    value_and_gradient's gradient at t."""
    steps = h * np.eye(len(t))
    hess = np.array(
        [
            model.value_and_gradient(t + e).gradient - model.value_and_gradient(t - e).gradient
            for e in steps
        ]
    ) / (2 * h)
    return np.linalg.eigvalsh(0.5 * (hess + hess.T))[0]


# The paper's theorem: every local minimizer gives the MLE, so a stationary
# point above f* is a saddle.  A row of T that is exactly 0 has zero gradient
# and Jacobian columns, so LM keeps it at 0 and ends at the best state of
# rank <= r.  Where the MLE has a larger rank, that end point is a saddle that
# still meets grad_tol; where it does not, it is the MLE.
@pytest.mark.parametrize(
    "name, r, excess",
    [("example1", 1, 1e-5), ("example2", 1, 1e-3), ("example2", 3, None), ("example3", 1, None)],
    ids=["example1-r1-saddle", "example2-r1-saddle", "example2-r3-mle", "example3-r1-mle"],
)
def test_zero_rows_of_T_end_at_a_saddle_or_the_mle(request, name, r, excess):
    model = record_model(request.getfixturevalue(name))
    d = model.dim
    f_star = levenberg_marquardt(model, default_start(d)).f_final
    zero = param_layout(d)[0] >= r  # the parameters of rows r..d-1 of T
    for seed in range(3):
        t0 = random_param(np.random.default_rng(seed), d)
        t0[zero] = 0.0
        res = levenberg_marquardt(model, t0)
        assert np.all(res.t_final[zero] == 0.0)
        if excess is None:
            assert abs(res.f_final - f_star) < 1e-7
        else:
            assert res.reason is StopReason.GradientTolerance
            assert res.f_final - f_star > excess
            assert hessian_min_eigenvalue(model, res.t_final) < -0.01
