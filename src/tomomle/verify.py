"""Multistart harness and minimizer-equivalence reporting.

Turns the local-equals-global claim into executable evidence: many random
starts, a first-order stationarity screen, deduplication in parameter space,
and a pairwise comparison of the reconstructed states.  Distinct retained
parameter vectors mapping to one state is the expected outcome, not a
failure.
"""

from dataclasses import dataclass, field

import numpy as np

from . import likelihood
from .errors import AllRunsFailedError, CapacityError
from .optimizers import StopConfig, constrained_sign_solve, lm_block
from .parameterize import random_param

DEDUP_TOL = 1e-2
PAIR_BLOCK = 16  # rows of the pairwise spreads formed at once in _worst_pairs
# LM runs of one multistart, starts times sign orthants; like
# parameterize.MAX_SIGN_PATTERNS, checked before anything is drawn
MAX_RUNS = 65_536


@dataclass
class MultistartReport:
    solutions: list  # deduplicated in t-space
    screened_results: list  # every run passing the stationarity screen
    distinct_t_count: int
    max_pairwise_rho_distance: float
    max_f_spread: float
    discarded_count: int
    discard_diagnostics: list = field(default_factory=list)
    sign_pattern: list | None = None  # the orthant's diagonal signs, as ints


def _worst_pairs(results):
    """(largest rho distance, pair) and (largest f spread, pair) over all
    pairs i < j; ties keep the first pair in (i, j) order, and the pair is
    None when no spread exceeds 0.  Rows i are taken PAIR_BLOCK at a time,
    each block against every j after its first row."""
    rhos = np.array([r.rho_final for r in results])
    fs = np.array([r.f_final for r in results])
    n = len(results)
    worst_rho = worst_f = (0.0, None)
    for start in range(0, n - 1, PAIR_BLOCK):
        rows = np.arange(start, min(start + PAIR_BLOCK, n - 1))
        later = np.arange(start + 1, n) > rows[:, None]
        dist = np.linalg.norm(rhos[start + 1:] - rhos[rows, None], axis=(2, 3))
        df = np.abs(fs[start + 1:] - fs[rows, None])
        worst_rho = _first_larger(np.where(later, dist, 0.0), rows, worst_rho)
        worst_f = _first_larger(np.where(later, df, 0.0), rows, worst_f)
    return worst_rho, worst_f


def _first_larger(spread, rows, worst):
    """`worst`, or else the block's first (spread, (i, j)) in (i, j) order
    that exceeds it, where spread[r, c] is pair (rows[r], rows[0] + 1 + c);
    as in a row-by-row scan, a row that holds a NaN counts for nothing."""
    spread = np.where(np.isnan(spread).any(axis=1, keepdims=True), -np.inf, spread)
    r, c = np.unravel_index(np.argmax(spread), spread.shape)
    if spread[r, c] > worst[0]:
        return float(spread[r, c]), (int(rows[r]), int(rows[0] + 1 + c))
    return worst


def _draw_starts(model, n_starts, seed, orthants=1):
    """n_starts uniform draws in [-1, 1]^{d^2}, start i from seed + i, to be
    solved in each of `orthants` sign orthants.

    Draws with a near-zero diagonal parameter are rejected and redrawn.
    More than MAX_RUNS runs raise CapacityError before any start is drawn.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    if n_starts * orthants > MAX_RUNS:
        where = f" in each of {orthants} sign orthants" if orthants > 1 else ""
        raise CapacityError(f"{n_starts} starts{where} exceed the cap of {MAX_RUNS} runs")
    return np.stack(
        [random_param(np.random.default_rng(seed + i), model.dim) for i in range(n_starts)]
    )


def _screen(results, screen, sign_pattern=None):
    """The report on one multistart's results: runs with gradient norm at or
    above `screen` are discarded, the rest deduplicated at DEDUP_TOL.  A
    sign pattern is named on the report and on each of its discards."""
    screened = []
    solutions = []
    kept = np.empty((len(results), len(results[0].t_final)))  # row j: solutions[j]'s t
    discards = []
    tag = {} if sign_pattern is None else {"sign_pattern": sign_pattern}
    for i, result in enumerate(results):
        if result.grad_norm < screen:
            screened.append(result)
            diff = result.t_final - kept[:len(solutions)]
            if (np.sqrt(np.vecdot(diff, diff)) > DEDUP_TOL).all():
                kept[len(solutions)] = result.t_final
                solutions.append(result)
        else:
            discards.append(
                {
                    **tag,
                    "start_index": i,
                    "reason": result.reason.value,
                    "grad_norm": result.grad_norm,
                    "f_final": result.f_final,
                }
            )

    (max_rho, _), (max_f, _) = _worst_pairs(screened)
    return MultistartReport(
        solutions=solutions,
        screened_results=screened,
        distinct_t_count=len(solutions),
        max_pairwise_rho_distance=max_rho,
        max_f_spread=max_f,
        discarded_count=len(discards),
        discard_diagnostics=discards,
        sign_pattern=sign_pattern,
    )


def multistart(model, n_starts, seed, cfg=None, screen_tol=None):
    """The LM multistart from n_starts uniform draws in [-1, 1]^{d^2}.

    Draws with a near-zero diagonal parameter are rejected and redrawn.
    Start i is drawn from its own seed (seed + i), so a start does not
    depend on the others or on the schedule.  Every start is drawn first,
    and LM solves them all as one block.  Runs with final gradient norm at
    or above `screen_tol` (default: cfg.grad_tol) are discarded; retained
    parameter vectors are deduplicated at DEDUP_TOL in the 2-norm.
    """
    cfg = cfg or StopConfig()
    results = lm_block(model, _draw_starts(model, n_starts, seed), cfg)
    screen = cfg.grad_tol if screen_tol is None else screen_tol
    report = _screen(results, screen)
    if not report.screened_results:
        raise AllRunsFailedError(
            f"all {n_starts} runs failed the stationarity screen at {screen}",
            diagnostics=report.discard_diagnostics,
        )
    return report


def orthant_multistart(model, patterns, n_starts, seed, cfg=None, screen_tol=None):
    """The LM multistart of each sign pattern in `patterns` on the unit
    sphere inside its diagonal-sign orthant: one report per pattern, in
    order, carrying the pattern as its sign_pattern.

    Every orthant starts from the same n_starts draws as multistart, and
    all (pattern, start) pairs are solved as one block of sign-constrained
    LM runs, so the slowest runs of different orthants share their rounds
    instead of each running alone.  If the screen discards every run of
    some orthant, the AllRunsFailedError lists the discarded runs of every
    orthant, each under its sign pattern.
    """
    cfg = cfg or StopConfig()
    patterns = np.asarray(patterns, dtype=float)
    starts = _draw_starts(model, n_starts, seed, len(patterns))
    results = constrained_sign_solve(
        model,
        np.repeat(patterns, n_starts, axis=0),
        np.tile(starts, (len(patterns), 1)),
        cfg,
    )
    screen = cfg.grad_tol if screen_tol is None else screen_tol
    reports = [
        _screen(results[k * n_starts:(k + 1) * n_starts], screen, [int(s) for s in pattern])
        for k, pattern in enumerate(patterns)
    ]
    failed = sum(not report.screened_results for report in reports)
    if failed:
        raise AllRunsFailedError(
            f"all {n_starts} runs of {failed} of {len(patterns)} sign orthants failed "
            f"the stationarity screen at {screen}",
            diagnostics=[diag for report in reports for diag in report.discard_diagnostics],
        )
    return reports


def equivalence_check(results, rho_tol, f_tol):
    """All results agree pairwise: state distances at most rho_tol and
    objective spreads at most f_tol.

    Returns (passed, report); the report names the worst pair.
    """
    if not results:
        raise ValueError("need at least one result")
    worst_rho, worst_f = _worst_pairs(results)
    passed = worst_rho[0] <= rho_tol and worst_f[0] <= f_tol
    report = {
        "passed": passed,
        "n_results": len(results),
        "max_rho_distance": worst_rho[0],
        "worst_rho_pair": worst_rho[1],
        "max_f_spread": worst_f[0],
        "worst_f_pair": worst_f[1],
        "rho_tol": rho_tol,
        "f_tol": f_tol,
    }
    return passed, report


def gradient_check(model, n_points=100, seed=0):
    """Worst analytic-vs-central-difference gradient error over random points.

    The analytic gradient is model.value_and_gradient's, as the solvers
    take it.  Relative to the finite-difference scale; falls back to an
    absolute comparison (1e-10 scale) where both gradients vanish.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = np.random.default_rng(seed)
    d = model.dim
    worst = 0.0
    for _ in range(n_points):
        t = random_param(rng, d)
        analytic = model.value_and_gradient(t).gradient
        fd = likelihood.finite_difference_gradient(t, model)
        scale = max(float(np.max(np.abs(fd))), 1e-10)
        err = float(np.max(np.abs(analytic - fd))) / scale
        worst = max(worst, err)
    return worst
