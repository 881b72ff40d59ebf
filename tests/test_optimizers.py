import numpy as np
import pytest

from tomomle import optimizers
from tomomle.likelihood import ObjectiveModel, residuals_and_jacobian
from tomomle.measurement import normalize, polarization_projectors
from tomomle.optimizers import (
    LM_LAMBDA_INIT,
    LM_LAMBDA_MAX,
    SOLVERS,
    StopConfig,
    StopReason,
    _damped_steps,
    constrained_sign_solve,
    default_start,
    gradient_descent,
    levenberg_marquardt,
    lm_block,
    make_sign_projection,
    nelder_mead,
    run_solver,
)
from tomomle.parameterize import all_sign_patterns, random_param, rho_of_t


class Quadratic:
    """0.5 * ||A t - b||^2; a convex sanity target with a known minimizer."""

    def __init__(self):
        self.A = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        self.b = np.array([2.0, 1.0, 2.0])
        self.t_star, *_ = np.linalg.lstsq(self.A, self.b, rcond=None)

    def value(self, t):
        r = self.A @ t - self.b
        return 0.5 * float(r @ r)

    def value_and_gradient(self, t):
        r = self.A @ t - self.b
        return 0.5 * float(r @ r), self.A.T @ r

    def residuals_and_jacobian(self, t):
        return self.A @ t - self.b, self.A


def example1_model():
    return ObjectiveModel(
        "gaussian", polarization_projectors(), np.array([0.999, 0.0002, 0.4995, 0.4994])
    )


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
    cfg = StopConfig(grad_tol=1e-6)
    step_tol, fun_tol, max_iters, max_fevals = cfg.resolved(4)
    assert step_tol == 1e-12
    assert fun_tol == 1e-12
    assert max_iters == 1600
    assert max_fevals == 1600


def test_stop_config_warns_on_loose_stagnation():
    with pytest.warns(UserWarning):
        StopConfig(grad_tol=1e-6, step_tol=1e-3).resolved(4)


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
    res = levenberg_marquardt(model, default_start(2))
    values = [entry[0] for entry in res.trace_log]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert res.reason is StopReason.GradientTolerance


def test_param_bound_stop():
    model = example1_model()
    res = levenberg_marquardt(model, np.array([2e3, 1.0, 0.0, 0.0]), StopConfig())
    assert res.reason is StopReason.ParamBoundHit


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


def test_run_solver_dispatch():
    assert set(SOLVERS) == {"lm", "gd", "nelder-mead"}
    model = example1_model()
    res = run_solver("lm", model, default_start(2))
    assert res.reason is StopReason.GradientTolerance
    with pytest.raises(ValueError):
        run_solver("newton", model, default_start(2))


def test_default_start_is_maximally_mixed():
    t = default_start(2)
    assert t == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2), 0.0, 0.0])


def record_model(record):
    return ObjectiveModel("gaussian", record.operators, normalize(record))


def multistart_block(d, n, seed=0):
    return np.stack([random_param(np.random.default_rng(seed + i), d) for i in range(n)])


def reference_lm(model, t0, cfg, pattern=None):
    """The single-start algorithm, one branch at a time; the batched solver
    must take the same branches for every row.  Returns the stop reason,
    iters, fevals, the final point and the objective after every accepted
    step."""
    if isinstance(model, ObjectiveModel):
        res_jac = lambda t: residuals_and_jacobian(t, model)[:2]  # noqa: E731
    else:
        res_jac = model.residuals_and_jacobian
    project = (lambda t: t) if pattern is None else make_sign_projection(pattern)
    t = project(np.asarray(t0, dtype=float))
    step_tol, fun_tol, max_iters, max_fevals = cfg.resolved(t.size)
    r, jac = res_jac(t)
    fevals, iters, lam = 1, 0, LM_LAMBDA_INIT
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(jac))):
        return StopReason.NumericalFailure, iters, fevals, t, []
    f, grad = 0.5 * (r @ r), jac.T @ r
    fs = [f]

    def done(reason):
        return reason, iters, fevals, t, fs

    while True:
        if np.linalg.norm(grad) < cfg.grad_tol:
            return done(StopReason.GradientTolerance)
        if np.max(np.abs(t)) > cfg.param_bound:
            return done(StopReason.ParamBoundHit)
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


def test_block_matches_reference_and_single_starts(example2):
    model = record_model(example2)
    starts = multistart_block(model.dim, 12)
    block = lm_block(model, starts)
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
        assert_matches_reference(block, model, starts, cfg, [pattern] * len(starts))
        for res in block:
            assert res.t_final @ res.t_final == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.sign(res.t_final[:2]) == pattern)
    # one block, one pattern per start
    mixed_starts = np.repeat(starts[:2], len(patterns), axis=0)
    mixed_patterns = np.tile(patterns, (2, 1))
    mixed = lm_block(model, mixed_starts, cfg, pattern=mixed_patterns)
    assert_matches_reference(mixed, model, mixed_starts, cfg, mixed_patterns)


# rho_of_t of the NaN start warns, as it does for a single start
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_block_rows_stop_independently():
    model = example1_model()
    starts = np.array(
        [
            [2e3, 1.0, 0.0, 0.0],  # beyond the parameter bound
            [np.nan, 1.0, 0.0, 0.0],  # non-finite initial residuals
            default_start(2),
            [0.5, 0.5, 0.1, -0.1],
        ]
    )
    for cfg in (StopConfig(), StopConfig(max_iters=1)):
        block = lm_block(model, starts, cfg)
        assert_matches_reference(block, model, starts, cfg)
        assert block[0].reason is StopReason.ParamBoundHit
        assert block[1].reason is StopReason.NumericalFailure
        assert (block[1].iters, block[1].fevals, block[1].trace_log) == (0, 1, [])
    assert [r.reason for r in lm_block(model, starts[2:])] == [StopReason.GradientTolerance] * 2
    assert {r.reason for r in lm_block(model, starts[2:], StopConfig(max_iters=1))} == {
        StopReason.MaxIterations
    }


class Walled(Quadratic):
    """The quadratic with minimizer (-1, -1), undefined where t[0] < 0: from
    (0, 0) every damped step crosses the wall and is rejected.  Where
    t[1] > 100 every Jacobian entry is 1e200, so J^T J overflows and no
    damped step can be solved for."""

    def __init__(self):
        self.A = np.eye(2)
        self.b = np.array([-1.0, -1.0])

    def residuals_and_jacobian(self, t):
        if t[0] < 0:
            return np.full(2, np.nan), self.A
        r, jac = super().residuals_and_jacobian(t)
        return r, np.full((2, 2), 1e200) if t[1] > 100 else jac


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
        block = lm_block(Walled(), starts, cfg)
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
    budget = 2 * optimizers.LM_START_PRODUCTS * model.mats.nbytes
    monkeypatch.setattr(optimizers, "LM_BLOCK_BYTES", budget)
    assert optimizers._chunk_size(model, len(starts)) == 2
    assert_matches_reference(lm_block(model, starts), model, starts)


def test_singular_damped_system_rejects_only_its_row():
    jtj = np.stack([np.zeros((2, 2)), np.eye(2)])
    delta = _damped_steps(jtj, np.array([0.0, 1.0]), np.array([[1.0, 1.0], [2.0, -4.0]]))
    assert np.all(np.isnan(delta[0]))
    assert delta[1] == pytest.approx([-1.0, 2.0])
