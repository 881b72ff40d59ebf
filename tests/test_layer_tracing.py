"""The per-layer benchmark (perfbench/) wraps tomomle functions where their
callers look them up.  These checks keep every evaluation the solvers make
through ObjectiveModel's methods, every solver call, and every record read
and document written by the CLI, visible to it, and keep the benchmark's
density-matrix check, which decides whether a run counts as correct, in
step with `hermitian.check_density_matrix`."""

import importlib.resources
import json
import types
from pathlib import Path

import numpy as np

from tomomle import cli, errors, hermitian, inversion, likelihood, optimizers, parameterize, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OBJECTIVE_SPANS = (
    "likelihood.value",
    "likelihood.value_and_gradient",
    "likelihood.residuals_and_jacobian",
)
RECORD_IO_SPANS = ("measurement.read_record", "measurement.write_json_atomic")


def data_path(name):
    return str(importlib.resources.files("tomomle") / "data" / name)


def test_layer_tracer_sees_every_objective_evaluation(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    prog = types.SimpleNamespace(
        cli=cli,
        inversion=inversion,
        likelihood=likelihood,
        optimizers=optimizers,
        parameterize=parameterize,
        verify=verify,
    )
    tr = layers.make_tracer(prog)
    bindings = [(ns, key) for _, pairs, _ in tr._targets for ns, key in pairs]
    originals = [tracer._get(ns, key) for ns, key in bindings]
    with tr.installed():
        # installing resolves every binding; each now holds a wrapper
        for (ns, key), fn in zip(bindings, originals):
            assert tracer._get(ns, key) is not fn, key
        codes = [
            cli.main([
                "compare", data_path("example2.rec"), "--solver", "lm,gd,nelder-mead",
                "--out", str(tmp_path / "cmp.json"),
            ]),
            cli.main([
                "verify-minima", data_path("example3.rec"), "--constrain-signs",
                "--starts", "2", "--out", str(tmp_path / "ver.json"),
            ]),
            cli.main([
                "verify-minima", data_path("example2.rec"), "--starts", "2",
                "--out", str(tmp_path / "ver_free.json"),
            ]),
            *(
                cli.main([
                    "reconstruct", data_path("example1.rec"), "--method", method,
                    "--out", str(tmp_path / f"rec_{method}.json"),
                ])
                for method in ("mle", "linear")
            ),
        ]
    assert codes == [0, 0, 0, 0, 0]
    assert all(tracer._get(ns, key) is fn for (ns, key), fn in zip(bindings, originals))
    spans = tr.self_times()
    for name in OBJECTIVE_SPANS:
        assert spans.get(name, (0, 0.0))[0] > 0, name
    # every op reads one record and writes one document, each seen as one span
    for name in RECORD_IO_SPANS:
        assert spans.get(name, (0, 0.0))[0] == len(codes), name
    # the benchmark's solver spans and counters stay bound to the solvers
    for name in layers.SOLVER_SPANS:
        assert spans.get(name, (0, 0.0))[0] > 0, name
    assert tr.counters["optimizers.iters"] > 0
    assert tr.counters["optimizers.fevals"] > 0
    # the unconstrained verify-minima runs through the multistart span, whose
    # hook reads the report's discarded_count
    assert spans.get("verify.multistart", (0, 0.0))[0] == 1
    assert "verify.discarded" in tr.counters



def test_benchmark_state_check_agrees_with_density_matrix_check(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    prog = types.SimpleNamespace(hermitian=hermitian, errors=errors)
    out = tmp_path / "mle.json"
    assert cli.main(["reconstruct", data_path("example3.rec"), "--out", str(out)]) == 0
    mle = workloads.doc_matrix(json.loads(out.read_text())["matrix"])
    assert np.linalg.eigvalsh(mle)[0] < 1e-6  # the MLE is a boundary state; LM ends beside it
    findings = workloads.Findings()
    workloads._check_state(prog, findings, mle, "example3")
    assert findings.problems == []
    invalid = {
        "trace-0.7": np.diag([0.5, 0.2]),
        "indefinite": np.diag([2.0, -1.0]),
        "non-hermitian": np.array([[0.5, 0.3], [0.0, 0.5]]),
        "nan": np.diag([0.5, np.nan]),
    }
    for what, matrix in invalid.items():
        workloads._check_state(prog, findings, matrix, what)
    assert [p.split(":")[0] for p in findings.problems] == list(invalid)
