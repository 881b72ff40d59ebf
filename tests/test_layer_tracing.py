"""The per-layer benchmark (perfbench/) wraps tomomle functions where their
callers look them up.  These checks keep every evaluation the solvers make
through ObjectiveModel's methods, and every record read and document
written by the CLI, visible to it."""

import importlib.resources
import types
from pathlib import Path

from tomomle import cli, inversion, likelihood, optimizers, parameterize, verify

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
            *(
                cli.main([
                    "reconstruct", data_path("example1.rec"), "--method", method,
                    "--out", str(tmp_path / f"rec_{method}.json"),
                ])
                for method in ("mle", "linear")
            ),
        ]
    assert codes == [0, 0, 0, 0]
    assert all(tracer._get(ns, key) is fn for (ns, key), fn in zip(bindings, originals))
    spans = tr.self_times()
    for name in OBJECTIVE_SPANS:
        assert spans.get(name, (0, 0.0))[0] > 0, name
    # every op reads one record and writes one document, each seen as one span
    for name in RECORD_IO_SPANS:
        assert spans.get(name, (0, 0.0))[0] == len(codes), name
