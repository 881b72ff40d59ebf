"""Unconstrained minimizers over parameter vectors, with explicit stopping
diagnostics.

Every run ends in one _finish call, with one StopReason: _finish builds the
result of each row of a block of end points.  Gradient tolerance is the
preferred criterion; stagnation criteria (small step / small function change)
use tolerances that default to grad_tol**2, and a terminated run always
reports the final gradient norm so that a stagnation stop can be told apart
from true stationarity.  The objective is homogeneous of degree 0 in t, so
||g|| falls as 1/||t|| and the gradient test is not scale-free.  No solver
bounds ||t||: every start the CLI makes has ||t||_inf <= 1, and the
scale-free test is the optimality gap that ROADMAP item 1 plans.

The solvers call the objective's three methods, as likelihood.ObjectiveModel
defines them: value(t) returns a float, value_and_gradient(t) an
ObjectiveEvaluation, and the block-shaped residuals_and_jacobian(t) maps a
(B, n) block to (r, J, floor_hit) with (B, m) residuals and (B, m, n)
Jacobians.  Only an ObjectiveModel's results carry the state rho(t_final),
and only its operator stack bounds the chunks of a block of starts.

`fevals` counts the evaluations the search makes.  Nelder-Mead has no
gradient of its own, so just before its _finish call it makes one more
value_and_gradient call at the first best vertex, uncounted, to report
||g||.  Gradient descent and Levenberg-Marquardt report the ||g|| they have.

A solver keeps a per-iteration trace only when it is called with
trace=True; otherwise every result's trace_log is [], and the search takes
the same steps to the same result.  Untraced, gradient descent appends
nothing, Levenberg-Marquardt logs no accepted points, and Nelder-Mead
measures its simplex's diameter only where its stop test reads it: where
the value spread is within fun_tol.

Nelder-Mead can drift far out along the flat ray t -> c t.  On an
ObjectiveModel it reports its end point at unit scale: the first best
vertex times 2^-e, e = round(log2 ||t||), which keeps f and rho(t) bit for
bit, so ||g|| is that of the state reached and not of how far the simplex
drifted.
"""

import bisect
import enum
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .likelihood import ObjectiveModel
from .parameterize import rho_of_t

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
LM_LAMBDA_INIT = 1e-3
LM_LAMBDA_MAX = 1e15
# memory budget of one block of LM starts, solved together; a larger start
# block is solved chunk by chunk.  A start's working set is counted as
# LM_START_PRODUCTS of its (m, d, d) complex operator products (measured:
# 4.3 at d = 16).  The count stays an upper bound at d <= 4, where the
# Jacobian comes from the quadratic forms and a start's largest arrays are
# real (m, d^2), half the bytes of one product
LM_BLOCK_BYTES = 64 * 2**20
LM_START_PRODUCTS = 5
SIGN_MAG_FLOOR = 1e-10


class StopReason(enum.Enum):
    GradientTolerance = "gradient-tolerance"
    StepStagnation = "step-stagnation"
    FunctionStagnation = "function-stagnation"
    MaxIterations = "max-iterations"
    MaxFunctionEvals = "max-function-evals"
    NumericalFailure = "numerical-failure"


@dataclass
class StopConfig:
    grad_tol: float = 1e-6
    step_tol: float | None = None  # default grad_tol**2, inf where that overflows
    fun_tol: float | None = None  # default grad_tol**2, inf where that overflows
    max_iters: int | None = None  # default 2 * 200 * n
    max_fevals: int | None = None  # default 2 * 200 * n

    def resolved(self, n):
        try:
            tol = self.grad_tol**2
        except OverflowError:  # a float grad_tol above about 1.34e154
            tol = math.inf
        step_tol = tol if self.step_tol is None else self.step_tol
        fun_tol = tol if self.fun_tol is None else self.fun_tol
        max_iters = 2 * 200 * n if self.max_iters is None else self.max_iters
        max_fevals = 2 * 200 * n if self.max_fevals is None else self.max_fevals
        return step_tol, fun_tol, max_iters, max_fevals


@dataclass
class OptimizationResult:
    t_final: np.ndarray
    rho_final: np.ndarray
    f_final: float
    grad_norm: float
    iters: int
    fevals: int
    reason: StopReason
    trace_log: list = field(default_factory=list)


class _Stop(Exception):
    """Nelder-Mead's one stop signal from inside its search: args = (StopReason,)."""


def _finish(model, t, f, gnorm, iters, fevals, reasons, traces):
    """One OptimizationResult per row of the (k, n) block t of end points."""
    rhos = rho_of_t(t) if isinstance(model, ObjectiveModel) else [None] * len(t)
    columns = (np.asarray(column).tolist() for column in (f, gnorm, iters, fevals))
    return [OptimizationResult(*row) for row in zip(t, rhos, *columns, reasons, traces)]


def _jt_r(jac, r):
    # J^T r per row, bit for bit the 1-D jac.T @ r
    return (jac.swapaxes(1, 2) @ r[:, :, None])[:, :, 0]


def _damped_steps(a, lam, grad):
    """Row-wise solutions of (J^T J + lam I) delta = -g, given the (k, n, n)
    J^T J block `a`, which is overwritten.  A row whose matrix is singular
    comes back as NaN (a rejected step) without failing the others."""
    a.reshape(len(a), -1)[:, :: a.shape[-1] + 1] += lam[:, None]
    b = -grad[:, :, None]
    try:
        return np.linalg.solve(a, b)[:, :, 0]
    except np.linalg.LinAlgError:
        delta = np.full(grad.shape, np.nan)
        for i in range(len(a)):
            try:
                delta[i] = np.linalg.solve(a[i], b[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return delta


# LM's stop rule: one (reason, binds an accepted row, binds a rejected row)
# per check of _lm_chunk's `checks` tuple, in its order.  A round stops each
# running row on the first check that is true and binds it
_LM_STOPS = (
    (StopReason.NumericalFailure, True, False),
    (StopReason.GradientTolerance, True, False),
    (StopReason.StepStagnation, True, False),
    (StopReason.FunctionStagnation, True, False),
    (StopReason.StepStagnation, False, True),
    (StopReason.MaxIterations, True, False),
    (StopReason.MaxFunctionEvals, True, True),
)
_BINDS = np.array([binds for _, *binds in _LM_STOPS])


def _lm_chunk(model, t0, cfg, pattern, trace):
    """Levenberg-Marquardt on every row of t0 at once; with a (B, d) block
    `pattern`, row i's start and trial points are projected onto the sphere
    orthant of pattern[i].

    Each row follows the single-start algorithm step for step.  One update,
    `accept`, moves a set of rows to their accepted points: it sets t, f,
    J^T J, g and ||g||, and with `trace` appends each row's (f, ||g||,
    step) to its trace_log.  The start is accepted through it with step 0
    for the trace and step = df = inf for the stop checks, and so is every
    trial point that lowers f.  After each round, every running row makes
    one stop decision: _LM_STOPS gives each check's reason and the rows it
    binds, and the `checks` tuple, in the same order, its predicate.
    Stopped rows are dropped from the running state, and a row that stops
    on check 0 loses the trace entry of the point it fails at, as gradient
    descent traces no point it fails at.  The rows left that accepted
    their point begin an iteration (iters counts it); a round is then one
    batched damped solve for all running rows and one batched evaluation
    of their trial points, after which each row takes its own
    accept/reject branch.  Every row ends in one _finish call.
    """
    n = t0.shape[1]
    step_tol, fun_tol, max_iters, max_fevals = cfg.resolved(n)
    t = t0.copy() if pattern is None else project_to_orthant(t0, pattern)
    k = len(t)
    traces = [[] for _ in t]
    s = SimpleNamespace(  # running rows only; `rows` are their indices in t0
        rows=np.arange(k),
        t=t,
        jtj=np.empty((k, n, n)),
        lam=np.full(k, LM_LAMBDA_INIT),
        iters=np.zeros(k, dtype=int),
        fevals=np.ones(k, dtype=int),
        accepted=np.ones(k, dtype=bool),
        step=np.full(k, np.inf),
        df=np.full(k, np.inf),
        f=np.empty(k),
        grad=np.empty((k, n)),
        gnorm=np.empty(k),
    )

    def accept(kept, t_new, f, r, jac, step):
        s.t[kept], s.f[kept] = t_new, f
        s.jtj[kept] = jac.swapaxes(1, 2) @ jac
        s.grad[kept] = grad = _jt_r(jac, r)
        s.gnorm[kept] = gnorm = np.sqrt(np.vecdot(grad, grad))
        if trace:
            for row, *entry in zip(*(a.tolist() for a in (s.rows[kept], f, gnorm, step))):
                traces[row].append(tuple(entry))

    r, jac, _ = model.residuals_and_jacobian(t)
    accept(slice(None), t, 0.5 * np.vecdot(r, r), r, jac, np.zeros(k))
    # each row's (t, f, ||g||, iters, fevals, first binding check) where it stops
    ends = (np.empty_like(t), *np.empty((2, k)), *np.empty((3, k), dtype=int))

    while True:
        # f or an entry of g is not finite; an overflowing ||g|| alone is not
        failed = ~np.isfinite(s.f + s.gnorm)
        if failed.any():
            failed &= ~(np.isfinite(s.f) & np.isfinite(s.grad).all(axis=1))
        checks = (
            failed,
            s.gnorm < cfg.grad_tol,
            s.step < step_tol,
            s.df < fun_tol,
            s.lam > LM_LAMBDA_MAX,
            s.iters >= max_iters,
            s.fevals >= max_fevals,
        )
        binding = np.array(checks) & np.where(s.accepted, _BINDS[:, :1], _BINDS[:, 1:])
        hit = binding.any(axis=0)
        if hit.any():
            i = np.flatnonzero(hit)
            first = binding[:, i].argmax(axis=0)
            stopped = s.t[i], s.f[i], s.gnorm[i], s.iters[i], s.fevals[i], first
            for end, value in zip(ends, stopped):
                end[s.rows[i]] = value
            if trace:  # the point a row fails check 0 at is not traced
                for row in s.rows[i[first == 0]]:
                    traces[row].pop()
            running = ~hit
            for name, value in vars(s).items():
                setattr(s, name, value[running])
        if len(s.rows) == 0:
            break
        s.iters += s.accepted

        # identity damping: near-Newton steps survive in stiff directions
        # (12-orders curvature spread near the boundary would freeze them
        # under diag(J^T J) scaling)
        delta = _damped_steps(s.jtj.copy(), s.lam, s.grad)
        solved = np.isfinite(delta).all(axis=1)
        if not solved.all():
            delta[~solved] = 0.0  # such a row is evaluated at its own point and rejected
        trial = s.t + delta
        if pattern is not None:
            trial = project_to_orthant(trial, pattern[s.rows])
        r_new, jac_new, _ = model.residuals_and_jacobian(trial)
        s.fevals += solved
        f_new = 0.5 * np.vecdot(r_new, r_new)
        # a non-finite residual makes f_new inf or NaN, which f_new < f rejects
        better = solved & np.isfinite(jac_new).all(axis=(1, 2)) & (f_new < s.f)

        pred = 0.5 * (s.lam * np.vecdot(delta, delta) - np.vecdot(s.grad, delta))
        s.df = s.f - f_new
        strong = s.df / np.maximum(pred, 1e-300) > 0.75
        s.lam = np.where(
            better, np.where(strong, np.maximum(s.lam * 0.5, 1e-15), s.lam), s.lam * 2.0
        )
        moved = trial - s.t
        s.step = np.sqrt(np.vecdot(moved, moved))
        s.accepted = better
        if better.any():
            # a rejected row keeps its point, J^T J and gradient
            kept = slice(None) if better.all() else better
            accept(kept, trial[kept], f_new[kept], r_new[kept], jac_new[kept], s.step[kept])

    t, f, gnorm, iters, fevals, first = ends
    return _finish(model, t, f, gnorm, iters, fevals, [_LM_STOPS[c][0] for c in first], traces)


def _chunk_size(model, n_starts):
    if not isinstance(model, ObjectiveModel):
        return max(1, n_starts)
    return max(1, LM_BLOCK_BYTES // (LM_START_PRODUCTS * model.povm.nbytes))


def lm_block(model, t0, cfg=None, pattern=None, trace=False):
    """Damped least-squares minimization from every row of the (B, n) start
    block t0; one OptimizationResult per row, in row order.

    Identity damping with a gain-ratio update: a row's damping halves on a
    strong step and doubles on a rejected one.  `pattern` (one (d,) sign
    pattern, or a (B, d) block of them) maps each row's trial points onto
    its sphere orthant before evaluation; see project_to_orthant.  Rows
    are solved in chunks whose working set stays within LM_BLOCK_BYTES.
    With `trace`, each result's trace_log holds its accepted points as
    (f, ||g||, step) tuples, the start first with step 0.
    """
    cfg = cfg or StopConfig()
    t0 = np.atleast_2d(np.asarray(t0, dtype=float))
    if pattern is not None:
        pattern = np.asarray(pattern, dtype=float)
        pattern = np.broadcast_to(pattern, (len(t0), pattern.shape[-1]))
    size = _chunk_size(model, len(t0))
    results = []
    for lo in range(0, len(t0), size):
        rows = slice(lo, lo + size)
        chunk = None if pattern is None else pattern[rows]
        results += _lm_chunk(model, t0[rows], cfg, chunk, trace)
    return results


def levenberg_marquardt(model, t0, cfg=None, trace=False):
    """Damped least-squares minimization on the (residual, Jacobian) pair
    from one start: the one-row case of lm_block."""
    return lm_block(model, t0, cfg, trace=trace)[0]


def gradient_descent(model, t0, cfg=None, trace=False):
    """Steepest descent with Armijo backtracking (c1 = 1e-4, halving).

    Each pass of the one loop evaluates the value and gradient at the
    current point and makes one stop decision, on the first of: a
    non-finite value or gradient (numerical-failure), step < step_tol,
    df < fun_tol, ||g|| < grad_tol, iters >= max_iters, fevals >=
    max_fevals.  The start counts as reached with step = df = inf.
    Within a line search, a spent evaluation budget stops on
    max-function-evals and MAX_BACKTRACKS rejected trials on
    step-stagnation.  With `trace`, trace_log holds (f, ||g||, step) for
    each point reached that passes the non-finite check, step 0 at the
    start.
    """
    cfg = cfg or StopConfig()
    t = np.asarray(t0, dtype=float).copy()
    step_tol, fun_tol, max_iters, max_fevals = cfg.resolved(t.size)
    log = []
    iters = fevals = 0
    alpha = 1.0
    step = df = math.inf
    reason = None

    while reason is None:
        ev = model.value_and_gradient(t)
        f, grad = ev.value, ev.gradient
        fevals += 1
        # g.g, bit for bit (-g).(-g): ||g|| as np.linalg.norm computes it for
        # a real vector, and the squared length of the descent direction
        gg = grad.dot(grad)
        gnorm = math.sqrt(gg)
        # a non-finite entry makes ||g|| non-finite; an overflowing g.g alone
        # does not fail the run
        if not (math.isfinite(f) and (math.isfinite(gnorm) or np.isfinite(grad).all())):
            reason = StopReason.NumericalFailure
            break
        if trace:
            log.append((f, gnorm, step if iters else 0.0))
        if step < step_tol:
            reason = StopReason.StepStagnation
        elif df < fun_tol:
            reason = StopReason.FunctionStagnation
        elif gnorm < cfg.grad_tol:
            reason = StopReason.GradientTolerance
        elif iters >= max_iters:
            reason = StopReason.MaxIterations
        elif fevals >= max_fevals:
            reason = StopReason.MaxFunctionEvals
        if reason is not None:
            break
        iters += 1

        a = alpha
        for _ in range(MAX_BACKTRACKS):
            trial = t - a * grad  # bit for bit t + a * (-g)
            f_trial = model.value(trial)
            fevals += 1
            if math.isfinite(f_trial) and f_trial <= f - ARMIJO_C1 * a * gg:
                moved = trial - t
                step = math.sqrt(moved.dot(moved))
                df = f - f_trial
                t = trial
                alpha = min(a * 2.0, 1e6)
                break
            if fevals >= max_fevals:
                reason = StopReason.MaxFunctionEvals
                break
            a *= 0.5
        else:
            reason = StopReason.StepStagnation

    return _finish(model, t[None], [f], [gnorm], [iters], [fevals], [reason], [log])[0]


def nelder_mead(model, t0, cfg=None, trace=False):
    """Downhill simplex with standard coefficients (1, 2, 0.5, 0.5).

    Termination follows the simplex-stagnation rule: all function values
    within fun_tol of the best value and all vertices within step_tol of
    the best point (inf norm); the simplex is measured only where the
    first holds, or for the trace.  With `trace`, trace_log holds (best
    value, NaN, diameter) at the top of each iteration.  A spent budget or
    a non-finite value raises _Stop(reason), the search's one stop signal.
    The reported ||g|| is evaluated a posteriori at the first best vertex,
    by one uncounted value_and_gradient call, and plays no role in the
    search.  On an ObjectiveModel that vertex is first scaled by
    2^-round(log2 ||t||) (see the module docstring); a zero or non-finite
    one is kept.
    """
    cfg = cfg or StopConfig()
    t0 = np.asarray(t0, dtype=float).copy()
    n = t0.size
    step_tol, fun_tol, max_iters, max_fevals = cfg.resolved(n)
    log = []
    fevals = 0
    budget = max(max_fevals, 1)  # the start is always evaluated, as in LM and gradient descent

    def f(x):
        nonlocal fevals
        if fevals >= budget:
            raise _Stop(StopReason.MaxFunctionEvals)
        fevals += 1
        val = model.value(x)
        if not math.isfinite(val):
            raise _Stop(StopReason.NumericalFailure)
        return val

    # fminsearch-style initial simplex: 5% relative perturbation per
    # coordinate, 0.00025 absolute where the coordinate is zero
    simplex = [t0]
    for i in range(n):
        v = t0.copy()
        v[i] = v[i] * 1.05 if v[i] != 0.0 else 0.00025
        simplex.append(v)
    simplex = np.array(simplex)

    # the vertex values, kept in a list: a vertex not evaluated ranks last
    values = [math.inf] * (n + 1)
    iters = 0
    shrunk = True  # the simplex needs a full sort
    try:
        for i in range(n + 1):
            values[i] = f(simplex[i])
        while True:
            if shrunk:
                order = sorted(range(n + 1), key=values.__getitem__)  # stable
                simplex = simplex[order]
                values = [values[i] for i in order]
                shrunk = False
            else:
                # only the last vertex is new: insert it where the stable
                # sort would put it, after every vertex of equal value
                k = bisect.bisect_right(values, values[-1], 0, n)
                if k < n:
                    vertex = simplex[-1].copy()
                    simplex[k + 1:] = simplex[k:-1]
                    simplex[k] = vertex
                    values.insert(k, values.pop())
            best, fbest = simplex[0], values[0]
            fspread = float(values[-1] - fbest)  # values are sorted
            if trace or fspread <= fun_tol:
                diameter = float(np.abs(simplex[1:] - best).max())
            if trace:
                log.append((fbest, np.nan, diameter))
            if fspread <= fun_tol and diameter <= step_tol:
                reason = StopReason.StepStagnation
                break
            if iters >= max_iters:
                reason = StopReason.MaxIterations
                break
            iters += 1

            centroid = simplex[:-1].sum(axis=0) / n  # bit for bit mean(axis=0)
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
                    shrunk = True
                    for i in range(1, n + 1):
                        simplex[i] = best + 0.5 * (simplex[i] - best)
                        values[i] = f(simplex[i])
    except _Stop as stop:
        (reason,) = stop.args

    i = min(range(n + 1), key=values.__getitem__)  # the first best vertex
    best = simplex[i]
    norm = np.linalg.norm(best)
    if isinstance(model, ObjectiveModel) and 0.0 < norm < math.inf:
        best = np.ldexp(best, -round(math.log2(norm)))
    gnorm = np.linalg.norm(model.value_and_gradient(best).gradient)  # not counted
    end = [values[i]], [gnorm], [iters], [fevals], [reason], [log]
    return _finish(model, best[None], *end)[0]


def project_to_orthant(t, signs):
    """Projection of t onto {||t||_2 = 1, diagonal signs fixed by `signs`}.

    Diagonal entries with the wrong sign are clamped to a small magnitude of
    the right sign; the vector is then renormalized.  Renormalization does
    not change the objective (degree-zero homogeneity).  t is one vector or
    a (B, n) block; `signs` is one (d,) sign pattern or a (B, d) block,
    one pattern per row of t.
    """
    t = np.array(t, dtype=float)
    signs = np.asarray(signs, dtype=float)
    d = signs.shape[-1]
    t[..., :d] = signs * np.maximum(signs * t[..., :d], SIGN_MAG_FLOOR)
    return t / np.sqrt(np.vecdot(t, t))[..., None]


def constrained_sign_solve(model, pattern, t0, cfg=None):
    """Minimize on the unit sphere within one diagonal-sign orthant.

    Projected damped least squares: every trial point is clamped back into
    the requested orthant and renormalized.  The result satisfies
    ||t||_2 = 1 to machine precision and matches the sign pattern exactly.
    t0 is one start (one result) or a (B, n) block of starts, solved
    together (a list of B results); `pattern` is then one (d,) pattern for
    all of them or a (B, d) block, one per start.
    """
    t0 = np.asarray(t0, dtype=float)
    results = lm_block(model, t0, cfg, pattern)
    return results if t0.ndim == 2 else results[0]


def default_start(d):
    """Maximally mixed start: t_i = 1/sqrt(d) on the diagonal, 0 elsewhere."""
    t = np.zeros(d * d)
    t[:d] = 1.0 / np.sqrt(d)
    return t


SOLVERS = {
    "lm": levenberg_marquardt,
    "gd": gradient_descent,
    "nelder-mead": nelder_mead,
}
