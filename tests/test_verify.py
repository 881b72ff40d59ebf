from types import SimpleNamespace

import numpy as np
import pytest

from tomomle.errors import AllRunsFailedError
from tomomle.likelihood import ObjectiveModel
from tomomle.measurement import polarization_projectors
from tomomle.optimizers import StopConfig
from tomomle.verify import equivalence_check, gradient_check, multistart


def make_model(freqs=(0.75, 0.25, 0.5, 0.5)):
    return ObjectiveModel("gaussian", polarization_projectors(), np.array(freqs))


def test_multistart_basic():
    model = make_model()
    report = multistart(model, 10, seed=0)
    assert len(report.screened_results) == 10
    assert report.discarded_count == 0
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
