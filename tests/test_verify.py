from types import SimpleNamespace

import numpy as np
import pytest

from tomomle.errors import AllRunsFailedError
from tomomle.likelihood import ObjectiveModel
from tomomle.measurement import polarization_projectors
from tomomle.optimizers import StopConfig
from tomomle.parameterize import all_sign_patterns
from tomomle.verify import (
    DEDUP_TOL,
    PAIR_BLOCK,
    _screen,
    _worst_pairs,
    equivalence_check,
    gradient_check,
    multistart,
    orthant_multistart,
)


def make_model(freqs=(0.75, 0.25, 0.5, 0.5)):
    return ObjectiveModel("gaussian", polarization_projectors(), np.array(freqs))


def test_multistart_basic():
    model = make_model()
    report = multistart(model, 10, seed=0)
    assert len(report.screened_results) == 10
    assert report.discarded_count == 0
    assert report.sign_pattern is None
    # distinct parameter vectors all map to one state
    assert report.distinct_t_count >= 2
    assert report.max_pairwise_rho_distance < 1e-4
    assert report.max_f_spread < 1e-8


def test_multistart_deterministic():
    model = make_model()
    a = multistart(model, 5, seed=3)
    b = multistart(model, 5, seed=3)
    for ra, rb in zip(a.screened_results, b.screened_results):
        assert np.array_equal(ra.t_final, rb.t_final)


def test_multistart_screen_discards():
    model = make_model()
    # feval budget too small for any run to reach stationarity
    cfg = StopConfig(max_fevals=2)
    with pytest.raises(AllRunsFailedError) as err:
        multistart(model, 3, seed=0, cfg=cfg)
    assert len(err.value.diagnostics) == 3
    assert all(d["grad_norm"] >= 1e-6 for d in err.value.diagnostics)
    assert all("sign_pattern" not in d for d in err.value.diagnostics)


def test_orthant_multistart_matches_one_orthant_at_a_time():
    model = make_model((0.999, 0.0002, 0.4995, 0.4994))
    cfg = StopConfig(grad_tol=1e-9, step_tol=1e-12, fun_tol=1e-12)
    patterns = all_sign_patterns(2)
    together = orthant_multistart(model, patterns, 6, seed=7, cfg=cfg, screen_tol=1e-6)
    assert len(together) == len(patterns)
    for pattern, report in zip(patterns, together):
        alone = orthant_multistart(model, [pattern], 6, seed=7, cfg=cfg, screen_tol=1e-6)[0]
        assert report.sign_pattern == alone.sign_pattern == [int(s) for s in pattern]
        assert report.discarded_count == alone.discarded_count
        assert report.distinct_t_count == alone.distinct_t_count
        assert len(report.screened_results) == len(alone.screened_results)
        for a, b in zip(report.screened_results, alone.screened_results):
            assert (a.reason, a.iters, a.fevals) == (b.reason, b.iters, b.fevals)
            assert np.max(np.abs(a.rho_final - b.rho_final)) < 1e-10
            assert np.all(np.sign(a.t_final[:2]) == pattern)


def test_screen_deduplicates_as_pairwise_norms():
    # the kept solutions are those a loop of np.linalg.norm distances keeps
    rng = np.random.default_rng(5)
    ts = np.repeat(rng.uniform(-1.0, 1.0, size=(6, 4)), 5, axis=0)
    ts += rng.normal(scale=4e-3, size=ts.shape)
    results = [
        SimpleNamespace(t_final=t, grad_norm=0.0, rho_final=np.eye(2), f_final=0.0) for t in ts
    ]
    kept = []
    for i, t in enumerate(ts):
        if all(np.linalg.norm(t - ts[j]) > DEDUP_TOL for j in kept):
            kept.append(i)
    report = _screen(results, 1e-6)
    assert 6 <= report.distinct_t_count < len(ts)
    assert [id(s) for s in report.solutions] == [id(results[i]) for i in kept]


def test_multistart_rejects_bad_args():
    with pytest.raises(ValueError):
        multistart(make_model(), 0, seed=0)


def test_equivalence_check_passes_on_multistart():
    report = multistart(make_model(), 8, seed=1)
    passed, summary = equivalence_check(report.screened_results)
    assert passed
    assert summary["n_results"] == 8
    assert summary["max_rho_distance"] <= 1e-4


def test_equivalence_check_detects_disagreement():
    a = multistart(make_model((0.75, 0.25, 0.5, 0.5)), 2, seed=0).screened_results
    b = multistart(make_model((0.25, 0.75, 0.5, 0.5)), 2, seed=0).screened_results
    passed, summary = equivalence_check(a + b)
    assert not passed
    assert summary["max_rho_distance"] > 1e-4
    assert summary["worst_rho_pair"] is not None
    with pytest.raises(ValueError):
        equivalence_check([])


def test_equivalence_check_names_first_worst_pair():
    # three distinct states and f values, each repeated: the largest spreads
    # are tied between several pairs, and the first pair in (i, j) order wins
    rhos = [np.diag([1.0, 0.0]), np.diag([0.5, 0.5]), np.diag([0.0, 1.0])]
    fs = [0.0, 2.0, 1.0]
    results = [
        SimpleNamespace(rho_final=rhos[k].astype(complex), f_final=fs[k])
        for k in (1, 0, 2, 0, 2, 1)
    ]
    worst_rho, worst_f = (0.0, None), (0.0, None)
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            dist = float(np.linalg.norm(results[i].rho_final - results[j].rho_final))
            df = abs(results[i].f_final - results[j].f_final)
            if dist > worst_rho[0]:
                worst_rho = (dist, (i, j))
            if df > worst_f[0]:
                worst_f = (df, (i, j))
    _, summary = equivalence_check(results)
    assert summary["worst_rho_pair"] == worst_rho[1] == (1, 2)
    assert summary["worst_f_pair"] == worst_f[1] == (0, 1)
    assert summary["max_rho_distance"] == pytest.approx(worst_rho[0], rel=1e-15)
    assert summary["max_f_spread"] == worst_f[0]
    _, same = equivalence_check(results[:1] * 3)
    assert same["worst_rho_pair"] is None and same["worst_f_pair"] is None


def reference_worst_pairs(results):
    """The previous row-by-row scan: one norm call per row i over every j > i."""
    rhos = np.array([r.rho_final for r in results])
    fs = np.array([r.f_final for r in results])
    worst_rho = (0.0, None)
    worst_f = (0.0, None)
    for i in range(len(results) - 1):
        dist = np.linalg.norm(rhos[i + 1:] - rhos[i], axis=(1, 2))
        df = np.abs(fs[i + 1:] - fs[i])
        j, k = int(np.argmax(dist)), int(np.argmax(df))
        if dist[j] > worst_rho[0]:
            worst_rho = (float(dist[j]), (i, i + 1 + j))
        if df[k] > worst_f[0]:
            worst_f = (float(df[k]), (i, i + 1 + k))
    return worst_rho, worst_f


@pytest.mark.parametrize("n", [0, 1, 2, PAIR_BLOCK, PAIR_BLOCK + 1, 3 * PAIR_BLOCK + 5])
@pytest.mark.parametrize("kind", ["distinct", "ties", "nan"])
def test_worst_pairs_matches_row_by_row_scan(n, kind):
    """Row blocks give the row-by-row scan's maxima and pairs bit for bit,
    ties across block boundaries and rows holding NaN included."""
    rng = np.random.default_rng([n, len(kind)])
    for _ in range(20):
        if kind == "distinct":
            rhos = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
            fs = rng.normal(size=n)
        else:
            rhos = rng.choice([0.0, 0.5, 1.0], size=(n, 2, 2)).astype(complex)
            fs = rng.choice([0.0, 1.0, 3.0], size=n)
        if kind == "nan" and n:
            rhos[rng.integers(n), 0, 1] = np.nan
            fs[rng.integers(n)] = np.nan
        results = [SimpleNamespace(rho_final=r, f_final=float(f)) for r, f in zip(rhos, fs)]
        assert _worst_pairs(results) == reference_worst_pairs(results)


def test_gradient_check_passes():
    assert gradient_check(make_model(), n_points=20, seed=0) < 1e-6


def test_gradient_check_negative_control():
    # a deliberately wrong gradient must be flagged
    def broken(t, model):
        from tomomle.likelihood import value_and_gradient

        return 1.5 * value_and_gradient(t, model).gradient

    assert gradient_check(make_model(), n_points=5, seed=0, gradient_fn=broken) > 1e-2
    with pytest.raises(ValueError):
        gradient_check(make_model(), n_points=0)
