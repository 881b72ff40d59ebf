import importlib.resources
import json

import numpy as np
import pytest

from tomomle.cli import main
from tomomle.measurement import (
    MeasurementRecord,
    polarization_projectors,
    read_record,
    write_record,
)


def data_path(name):
    return str(importlib.resources.files("tomomle") / "data" / name)


def run(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_simulate_then_reconstruct(tmp_path):
    rec = tmp_path / "sim.rec"
    out = tmp_path / "out.json"
    assert run(
        "simulate", "--state", "D", "--povm", "pol4", "--shots", "100000",
        "--noise", "poisson", "--seed", "4", "--out", str(rec),
    ) == 0
    assert run("reconstruct", str(rec), "--method", "mle", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["stop_reason"] == "gradient-tolerance"
    assert doc["purity"] > 0.99
    # diagonal close to the |D><D| projector
    assert doc["matrix"]["rounded_re"][0][0] == pytest.approx(0.5, abs=0.01)
    assert doc["matrix"]["rounded_re"][0][1] == pytest.approx(0.5, abs=0.01)
    assert doc["manifest"]["tool_version"]


def test_reconstruct_linear(tmp_path):
    out = tmp_path / "lin.json"
    assert run(
        "reconstruct", data_path("example1.rec"), "--method", "linear", "--out", str(out)
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "linear"
    assert len(doc["stokes"]) == 4


def test_reconstruct_output_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["reconstruct", data_path("example1.rec"), "--method", "mle"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_text().replace(str(a), "X") == b.read_text().replace(str(b), "X")


def test_compare_solvers(tmp_path):
    out = tmp_path / "cmp.json"
    assert run(
        "compare", data_path("example1.rec"), "--solver", "lm,gd", "--out", str(out)
    ) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["solver"] for r in rows] == ["lm", "gd"]
    assert rows[0]["reason"] == "gradient-tolerance"


def test_verify_minima_constrained(tmp_path):
    out = tmp_path / "v.json"
    assert run(
        "verify-minima", data_path("example3.rec"), "--constrain-signs",
        "--starts", "3", "--out", str(out),
    ) == 0
    doc = json.loads(out.read_text())
    assert len(doc["reports"]) == 4
    assert all(rep["distinct_t_count"] == 1 for rep in doc["reports"])
    assert doc["equivalence"]["passed"]


def test_exit_code_unknown_preset(tmp_path):
    assert run(
        "simulate", "--state", "H", "--povm", "pol9", "--shots", "10",
        "--out", str(tmp_path / "x.rec"),
    ) == 2


def test_exit_code_state_dim_mismatch(tmp_path):
    assert run(
        "simulate", "--state", "bell", "--povm", "pol4", "--shots", "10",
        "--out", str(tmp_path / "x.rec"),
    ) == 2


def _state_pairs(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


@pytest.mark.parametrize(
    "matrix",
    [
        np.diag([2.0, -1.0]),
        np.diag([0.5, 0.2]),
        np.array([[0.5, 0.3], [0.0, 0.5]]),
    ],
    ids=["indefinite", "trace-0.7", "non-hermitian"],
)
def test_exit_code_invalid_state_file(tmp_path, capsys, matrix):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"matrix": _state_pairs(matrix)}))
    rec = tmp_path / "x.rec"
    assert run(
        "simulate", "--state", str(state), "--povm", "pol4", "--shots", "100",
        "--out", str(rec),
    ) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not rec.exists()


def test_exit_code_missing_record(tmp_path):
    assert run("reconstruct", str(tmp_path / "none.rec"), "--out", str(tmp_path / "o")) == 2


def test_exit_code_unwritable(tmp_path):
    assert run(
        "reconstruct", data_path("example1.rec"),
        "--out", str(tmp_path / "no" / "such" / "dir" / "o.json"),
    ) == 3


def test_exit_code_incomplete_measurements(tmp_path):
    rec = MeasurementRecord(polarization_projectors()[:3], [9, 1, 5], 10.0)
    path = tmp_path / "partial.rec"
    write_record(path, rec)
    assert run(
        "reconstruct", str(path), "--method", "linear", "--out", str(tmp_path / "o.json")
    ) == 4


def _projector_pairs(d, k):
    m = np.zeros((d, d))
    m[k, k] = 1.0
    return [[[x, 0.0] for x in row] for row in m]


@pytest.mark.parametrize(
    "doc, method",
    [
        ({"dim": 2, "operators": "pol4", "counts": [9, 1, 5], "normalization": 10}, "mle"),
        ({"dim": 2, "operators": [], "counts": [], "normalization": 10}, "mle"),
        ({"dim": 2, "operators": "pol4", "counts": [0, 0, 0, 0], "normalization": 100}, "mle"),
        ({"dim": 2, "operators": "pol4", "counts": [0, 0, 0, 0], "normalization": 100}, "linear"),
        (
            {
                "dim": 3,
                "operators": [{"matrix": _projector_pairs(3, k)} for k in range(3)],
                "counts": [5, 3, 2],
                "normalization": 10,
            },
            "linear",
        ),
    ],
    ids=["count-mismatch", "no-operators", "zero-counts-mle", "zero-counts-linear", "linear-d3"],
)
def test_exit_code_unsupported_record(tmp_path, capsys, doc, method):
    path = tmp_path / "bad.rec"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    assert run("reconstruct", str(path), "--method", method, "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_exit_code_stagnation(tmp_path):
    out = tmp_path / "nm.json"
    code = run(
        "reconstruct", data_path("example1.rec"), "--solver", "nelder-mead",
        "--out", str(out),
    )
    assert code == 10
    assert json.loads(out.read_text())["stop_reason"] != "gradient-tolerance"


def test_exit_code_all_runs_failed(tmp_path):
    code = run(
        "verify-minima", data_path("example1.rec"), "--starts", "2",
        "--max-fevals", "2", "--out", str(tmp_path / "v.json"),
    )
    assert code == 11


def test_simulate_record_is_readable(tmp_path):
    rec = tmp_path / "sim.rec"
    assert run(
        "simulate", "--state", "mixed", "--povm", "pol4x4", "--shots", "1000",
        "--out", str(rec),
    ) == 0
    back = read_record(rec)
    assert back.dim == 4
    assert np.all(back.counts >= 0)


def test_verbose_trace_goes_to_stderr(tmp_path, capsys):
    out = tmp_path / "o.json"
    assert run(
        "reconstruct", data_path("example1.rec"), "--verbose", "--out", str(out)
    ) == 0
    err = capsys.readouterr().err
    assert "grad_norm=" in err
