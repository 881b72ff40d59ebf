import contextlib
import dataclasses
import importlib.resources
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomomle import cli, hermitian, parameterize, verify
from tomomle.cli import _matrix_fields, main
from tomomle.measurement import (
    MeasurementRecord,
    polarization_projectors,
    povm_preset,
    read_record,
    record_to_dict,
    write_record,
)
from tomomle.optimizers import SOLVERS, StopConfig, default_start


def data_path(name):
    return str(importlib.resources.files("tomomle") / "data" / name)


def run(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def run_python(*argv, **env):
    """`python *argv` in a subprocess that imports tomomle from this tree,
    with `env` added to the environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, **env, "PYTHONPATH": src},
        capture_output=True,
        encoding="utf-8",
        errors="replace",
        timeout=300,
    )


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
    # the manifest lists the tolerances as given: here the defaults
    assert doc["manifest"]["stop_config"] == dataclasses.asdict(StopConfig())


def test_verify_minima_constrained_solves_with_the_given_tolerances(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run(
        "verify-minima", data_path("example3.rec"), "--constrain-signs", "--starts", "2",
        "--grad-tol", "1e-5", "--fun-tol", "1e-9", "--out", str(out),
    ) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(out.read_text())
    given = StopConfig(grad_tol=1e-5, fun_tol=1e-9)
    assert doc["manifest"]["stop_config"] == dataclasses.asdict(given)
    # --grad-tol also screens: every listed solution is below it
    for rep in doc["reports"]:
        assert all(sol["grad_norm"] < 1e-5 for sol in rep["solutions"])


@pytest.mark.parametrize(
    "record, seed",
    [("example1.rec", 3), ("example1.rec", 1003), ("example1.rec", 2003),
     ("example3.rec", 500), ("example3.rec", 1500), ("example3.rec", 2500)],
)
def test_verify_minima_constrained_solutions_reach_the_gradient_tolerance(
    tmp_path, record, seed
):
    # at the default stop flags every orthant solve ends stationary
    out = tmp_path / "v.json"
    assert run(
        "verify-minima", data_path(record), "--constrain-signs", "--starts", "50",
        "--seed", str(seed), "--out", str(out),
    ) == 0
    for rep in json.loads(out.read_text())["reports"]:
        for sol in rep["solutions"]:
            assert sol["reason"] == "gradient-tolerance"
            assert sol["grad_norm"] < 1e-6


def test_verify_minima_constrained_honours_budget(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run(
        "verify-minima", data_path("example3.rec"), "--constrain-signs",
        "--starts", "2", "--max-fevals", "5", "--out", str(out),
    ) == 11
    # every orthant fails the screen; all 4 x 2 runs are listed, each under
    # its sign pattern
    discarded = _discarded(capsys.readouterr().err.splitlines()[1:])
    assert len(discarded) == 8
    assert all(diag["reason"] == "max-function-evals" for diag in discarded)
    for pattern in ([1, 1], [-1, 1], [1, -1], [-1, -1]):
        assert sum(diag["sign_pattern"] == pattern for diag in discarded) == 2
    assert not out.exists()


def _discarded(lines):
    """The JSON object of each `  discarded: ` line, parsed as strict JSON."""
    assert all(line.startswith("  discarded: ") for line in lines)
    return [
        json.loads(line.removeprefix("  discarded: "), parse_constant=_no_constant)
        for line in lines
    ]


def _matrix_fields_per_entry(m):
    """The per-entry formula the matrix fields were once built with."""
    m = np.asarray(m, dtype=complex)
    return {
        "re": [[x.real for x in row] for row in m],
        "im": [[x.imag for x in row] for row in m],
        "rounded_re": [[round(x.real, 4) for x in row] for row in m],
        "rounded_im": [[round(x.imag, 4) for x in row] for row in m],
    }


def _near_ties(rng, shape):
    """Values on and one ulp either side of x.xxxx5, small negatives that
    round to -0.0, and plain random values."""
    ties = rng.integers(-20000, 20000, size=shape) / 1e4 + 5e-5
    ties = np.nextafter(ties, ties + rng.choice([-1.0, 0.0, 1.0], size=shape))
    other = rng.choice([-1e-9, -0.0, 0.0, 1e-5, -5e-5], size=shape)
    return np.where(rng.random(shape) < 0.8, ties, np.where(rng.random(shape) < 0.5, other,
                                                            rng.normal(size=shape)))


@pytest.mark.parametrize("d", [2, 4, 16])
def test_matrix_fields_bytes_match_per_entry_formula(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        m = _near_ties(rng, (d, d)) + 1j * _near_ties(rng, (d, d))
        assert json.dumps(_matrix_fields(m), indent=2) == json.dumps(
            _matrix_fields_per_entry(m), indent=2
        )


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


def _with_entry(value):
    pairs = _state_pairs(np.eye(2) / 2)
    pairs[0][0][0] = value
    return {"matrix": pairs}


@pytest.mark.parametrize(
    "doc",
    [
        {"matrix": _state_pairs(np.diag([2.0, -1.0]))},
        {"matrix": _state_pairs(np.diag([0.5, 0.2]))},
        {"matrix": _state_pairs(np.array([[0.5, 0.3], [0.0, 0.5]]))},
        # read as 1 and 0, |H><H| would pass
        {"matrix": [[[True, False], [False, False]], [[False, False], [False, False]]]},
        _with_entry("0.5"),
        _with_entry(None),
        {"matrix": [[[0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
        {"rho": _state_pairs(np.eye(2) / 2)},
        [_state_pairs(np.eye(2) / 2)],
    ],
    ids=[
        "indefinite", "trace-0.7", "non-hermitian", "bool-entry", "string-entry",
        "null-entry", "ragged-row", "missing-matrix", "top-level-list",
    ],
)
def test_exit_code_invalid_state_file(tmp_path, capsys, doc):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(doc))
    rec = tmp_path / "x.rec"
    assert run(
        "simulate", "--state", str(state), "--povm", "pol4", "--shots", "100",
        "--out", str(rec),
    ) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not rec.exists()


NOISE_MODELS = ("none", "gaussian", "poisson")


@pytest.mark.parametrize("noise", NOISE_MODELS)
def test_simulate_at_the_shots_cap(tmp_path, noise):
    # 2^53 shots: every count a float64 holds exactly
    rec = tmp_path / "s.rec"
    assert run(
        "simulate", "--state", "H", "--shots", str(2**53), "--noise", noise, "--out", str(rec)
    ) == 0
    assert read_record(rec).normalization == 2**53


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--state", "H", "--shots", "0"],
        ["simulate", "--state", "H", "--shots", "-3"],
        *(
            ["simulate", "--state", "H", "--shots", str(2**53 + 1), "--noise", noise]
            for noise in NOISE_MODELS
        ),
        ["verify-minima", data_path("example1.rec"), "--starts", "0"],
    ],
    ids=["shots-0", "shots-negative", *(f"shots-2^53+1-{n}" for n in NOISE_MODELS), "starts-0"],
)
def test_exit_code_count_bounds(tmp_path, capsys, argv):
    out = tmp_path / "o.json"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "must be a positive integer" in err
    assert "Traceback" not in err
    assert not out.exists()


NEGATIVE_SEED = "argument --seed: must be an integer >= 0"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["simulate", "--state", "H", "--shots", "10", "--noise", "poisson", "--seed", "-1"],
            NEGATIVE_SEED,
        ),
        (
            ["verify-minima", data_path("example1.rec"), "--starts", "3", "--seed", "-5"],
            NEGATIVE_SEED,
        ),
        # compare always starts from default_start: it takes no seed
        (["compare", data_path("example1.rec"), "--seed", "0"], "unrecognized arguments"),
    ],
    ids=["simulate", "verify-minima", "compare-takes-no-seed"],
)
def test_exit_code_negative_seed(tmp_path, capsys, argv, message):
    out = tmp_path / "o.json"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("constrain", [[], ["--constrain-signs"]], ids=["free", "constrained"])
@pytest.mark.parametrize("solver", ["lm", "gd", "nelder-mead"])
def test_verify_minima_takes_no_solver_flag(tmp_path, capsys, monkeypatch, solver, constrain):
    # verify-minima solves with LM only, so argparse refuses --solver before any solve
    monkeypatch.setattr(cli, "multistart", lambda *a, **k: pytest.fail("solved"))
    monkeypatch.setattr(cli, "orthant_multistart", lambda *a, **k: pytest.fail("solved"))
    out = tmp_path / "v.json"
    assert run(
        "verify-minima", data_path("example1.rec"), *constrain, "--solver", solver,
        "--out", str(out),
    ) == 2
    assert "unrecognized arguments: --solver" in capsys.readouterr().err
    assert not out.exists()


STOP_FLAGS = {  # flag: the subcommand it is given to
    "--grad-tol": "reconstruct",
    "--step-tol": "reconstruct",
    "--fun-tol": "reconstruct",
    "--max-iters": "reconstruct",
    "--max-fevals": "reconstruct",
    "--rho-tol": "verify-minima",
    "--f-tol": "verify-minima",
}
BAD_FLAG_VALUES = [
    (flag, value) for flag in STOP_FLAGS for value in ("nan", "inf", "-inf", "-1", "-1e-300")
] + [("--grad-tol", "0"), ("--grad-tol", "1e400"), ("--max-fevals", "2.5")]


@pytest.mark.parametrize(
    "flag, value", BAD_FLAG_VALUES, ids=[f"{f[2:]}={v}" for f, v in BAD_FLAG_VALUES]
)
def test_exit_code_stop_flag_out_of_range(tmp_path, capsys, flag, value):
    # --grad-tol must be finite and > 0, the other tolerances finite and >= 0,
    # and the budgets integers >= 0
    out = tmp_path / "o.json"
    code = run(STOP_FLAGS[flag], data_path("example1.rec"), f"{flag}={value}", "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


def test_zero_tolerances_and_budgets_are_accepted(tmp_path, capsys):
    out = tmp_path / "o.json"
    code = run(
        "reconstruct", data_path("example1.rec"), "--step-tol", "0", "--fun-tol", "0",
        "--max-iters", "0", "--out", str(out),
    )
    assert code == 10
    doc = json.loads(out.read_text())
    assert (doc["stop_reason"], doc["iters"]) == ("max-iterations", 0)
    assert doc["manifest"]["stop_config"]["step_tol"] == 0.0
    out = tmp_path / "v.json"
    code = run(
        "verify-minima", data_path("example1.rec"), "--starts", "2", "--rho-tol", "0",
        "--f-tol", "0", "--out", str(out),
    )
    assert code == 1  # no two runs agree to the last bit
    assert json.loads(out.read_text())["equivalence"]
    assert capsys.readouterr().err == ""


def test_exit_code_missing_record(tmp_path):
    assert run("reconstruct", str(tmp_path / "none.rec"), "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "{dir}"],
        ["reconstruct", "{file}/x.rec"],
        ["simulate", "--state", "{dir}", "--shots", "10"],
        ["simulate", "--state", "{file}/x.json", "--shots", "10"],
    ],
    ids=["record-directory", "record-under-a-file", "state-directory", "state-under-a-file"],
)
def test_exit_code_unreadable_input(tmp_path, capsys, argv):
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("{}")
    out = tmp_path / "o.json"
    argv = [a.format(dir=tmp_path / "d", file=tmp_path / "f") for a in argv]
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("data", [b"{not json", b'\xff\xfe{"dim": 2}'], ids=["not-json", "not-utf8"])
def test_exit_code_undecodable_record(tmp_path, capsys, data):
    path = tmp_path / "bad.rec"
    path.write_bytes(data)
    assert run("reconstruct", str(path), "--out", str(tmp_path / "o.json")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: not valid JSON")


def test_record_files_are_utf8_under_an_ascii_locale(tmp_path):
    # JSON text is UTF-8 (RFC 8259, section 8.1), whatever the locale says
    labels = ("|H\u27e9", "|V\u27e9", "|D\u27e9", "|R\u27e9")
    example = read_record(data_path("example1.rec"))
    rec = MeasurementRecord(example.operators, example.counts, example.normalization, labels=labels)
    path = tmp_path / "labels.rec"
    path.write_text(json.dumps(record_to_dict(rec), ensure_ascii=False), encoding="utf-8")
    assert "\u27e9".encode() in path.read_bytes()
    ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    out = tmp_path / "o.json"
    proc = run_python(
        "-m", "tomomle.cli", "reconstruct", str(path), "--out", str(out), **ascii_locale
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    copy = tmp_path / "copy.rec"
    proc = run_python(
        "-c",
        "import sys; from tomomle.measurement import read_record, write_record; "
        "write_record(sys.argv[2], read_record(sys.argv[1]))",
        str(path),
        str(copy),
        **ascii_locale,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert read_record(copy).labels == labels


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--state", "D", "--shots", "100"],
        ["reconstruct", data_path("example1.rec")],
    ],
    ids=["simulate", "reconstruct"],
)
def test_text_files_open_with_an_explicit_encoding(tmp_path, argv):
    out = tmp_path / "o.json"
    proc = run_python(
        "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
        "-m", "tomomle.cli", *argv, "--out", str(out),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.exists()


def test_exit_code_unwritable(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "o.json"
    assert run("reconstruct", data_path("example1.rec"), "--out", str(out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")


def test_exit_code_output_is_a_directory(tmp_path, capsys):
    # the temporary file is written, the rename onto the directory fails,
    # and the temporary file is removed
    out = tmp_path / "taken"
    out.mkdir()
    assert run("reconstruct", data_path("example1.rec"), "--out", str(out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(out.iterdir()) == []


EMPTY_OUT_ARGS = {
    "simulate": ["--state", "H", "--shots", "10"],
    "reconstruct": [data_path("example1.rec")],
    "verify-minima": [data_path("example1.rec"), "--starts", "2"],
    "compare": [data_path("example1.rec")],
}


@pytest.mark.parametrize("command", EMPTY_OUT_ARGS)
def test_exit_code_empty_out(tmp_path, capsys, monkeypatch, command):
    # "" is refused as it is parsed; it would name the folder above the
    # working directory as the one to write the temporary file in
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run(command, *EMPTY_OUT_ARGS[command], "--out", "") == 2
    err = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(err) == 1 and err[0].endswith("argument --out: must be a non-empty path, got ''")
    assert list(tmp_path.iterdir()) == [work] and list(work.iterdir()) == []


def test_second_main_call_keeps_no_state_from_the_first(tmp_path):
    # the parser is built once per process; each call parses into a new namespace
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    args = ("verify-minima", data_path("example1.rec"), "--starts", "3")
    assert run(*args, "--seed", "7", "--out", str(first)) == 0
    assert run(*args, "--out", str(second)) == 0
    assert json.loads(first.read_text())["manifest"]["seed"] == 7
    assert json.loads(second.read_text())["manifest"]["seed"] == 0


def test_exit_code_incomplete_measurements(tmp_path, capsys):
    rec = MeasurementRecord(polarization_projectors()[:3], [9, 1, 5], 10.0)
    path = tmp_path / "partial.rec"
    write_record(path, rec)
    out = tmp_path / "o.json"
    assert run("reconstruct", str(path), "--method", "linear", "--out", str(out)) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: measurement set determines only ")
    assert not out.exists()


@pytest.mark.parametrize("d, m", [(2, 3), (16, 1)])
def test_incomplete_set_stops_before_the_pauli_basis(tmp_path, capsys, monkeypatch, d, m):
    ops = np.zeros((m, d, d), dtype=complex)
    ops[:, 0, 0] = 1.0
    path = tmp_path / "partial.rec"
    write_record(path, MeasurementRecord(ops, [5] * m, 10.0))

    def no_basis(n_qubits):
        raise AssertionError("pauli_basis built for an incomplete set")

    monkeypatch.setattr(cli, "pauli_basis", no_basis)
    out = tmp_path / "o.json"
    assert run("reconstruct", str(path), "--method", "linear", "--out", str(out)) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"error: measurement set determines only {m} or fewer of {d * d} coefficients, "
        f"as it has {m} settings"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--method", "mle"],
        ["reconstruct", "--method", "linear"],
        ["compare"],
        ["verify-minima"],
    ],
    ids=["mle", "linear", "compare", "verify-minima"],
)
def test_exit_code_past_qubit_cap(tmp_path, capsys, monkeypatch, argv):
    # a size past the capacity cap is unsupported input; the record lists its
    # operators, so the read builds no tensor product and the cap trips in the
    # read's operator check, before any model or basis
    rec = tmp_path / "pol4x4.rec"
    write_record(rec, MeasurementRecord(povm_preset("pol4x4"), [5] * 16, 10.0))
    monkeypatch.setattr(hermitian, "MAX_TENSOR_DIM", 2)
    out = tmp_path / "o.json"
    assert run(argv[0], str(rec), *argv[1:], "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == ["error: tensor dimension 4 exceeds the cap 2"]
    assert not out.exists()


def test_exit_code_past_sign_pattern_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(parameterize, "MAX_SIGN_PATTERNS", 2)
    out = tmp_path / "v.json"
    assert run(
        "verify-minima", data_path("example3.rec"), "--constrain-signs", "--out", str(out)
    ) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: 4 sign patterns at d = 2 exceed the cap 2"
    ]
    assert not out.exists()
    assert parameterize.all_sign_patterns(1).tolist() == [[1.0], [-1.0]]


@pytest.mark.parametrize(
    "record, flags, message",
    [
        ("example1.rec", ["--starts", "65537"], "65537 starts"),
        ("example1.rec", ["--starts", "1000000000000"], "1000000000000 starts"),
        (
            "example2.rec", ["--constrain-signs", "--starts", "4097"],
            "4097 starts in each of 16 sign orthants",
        ),
    ],
    ids=["starts", "huge", "orthants"],
)
def test_exit_code_past_run_cap(tmp_path, capsys, record, flags, message):
    # more runs than verify.MAX_RUNS = 65536, starts times orthants, exit 2
    # before a start is drawn
    out = tmp_path / "v.json"
    began = time.perf_counter()
    assert run("verify-minima", data_path(record), *flags, "--out", str(out)) == 2
    assert time.perf_counter() - began < 1.0
    assert capsys.readouterr().err.splitlines() == [
        f"error: {message} exceed the cap of 65536 runs"
    ]
    assert not out.exists()


def test_runs_up_to_the_cap_are_solved(tmp_path, capsys, monkeypatch):
    out = tmp_path / "v.json"
    argv = ["verify-minima", data_path("example1.rec"), "--out", str(out), "--starts"]
    assert run(*argv, "50") == 0
    document = out.read_text()
    monkeypatch.setattr(verify, "MAX_RUNS", 50)
    assert run(*argv, "50") == 0
    assert out.read_text() == document
    assert run(*argv, "51") == 2
    assert capsys.readouterr().err == "error: 51 starts exceed the cap of 50 runs\n"


_GIVEN_STOP_FLAGS = (
    "--grad-tol", "1e-5", "--step-tol", "1e-12", "--fun-tol", "1e-13",
    "--max-iters", "300", "--max-fevals", "700",
)


@pytest.mark.parametrize(
    "stop_flags, cfg",
    [((), StopConfig()), (_GIVEN_STOP_FLAGS, StopConfig(1e-5, 1e-12, 1e-13, 300, 700))],
    ids=["defaults", "given"],
)
@pytest.mark.parametrize(
    "command, flags, solver, seed",
    [
        ("reconstruct", (), "lm", None),
        ("compare", (), "lm,nelder-mead", None),
        ("verify-minima", ("--starts", "3", "--seed", "5"), "lm", 5),
    ],
    ids=["reconstruct", "compare", "verify-minima"],
)
def test_manifest_of_each_mle_command(tmp_path, command, flags, solver, seed, stop_flags, cfg):
    # one manifest for the three MLE commands: same keys in the same order, a
    # null seed where the command has no --seed, the stop flags as given
    rec = data_path("example1.rec")
    out = tmp_path / "o.json"
    assert run(command, rec, *flags, *stop_flags, "--out", str(out)) == 0
    assert list(json.loads(out.read_text())["manifest"].items()) == [
        ("command", command),
        ("input_path", rec),
        ("seed", seed),
        ("solver", solver),
        ("stop_config", dataclasses.asdict(cfg)),
        ("output_path", str(out)),
        ("tool_version", cli.__version__),
    ]


def test_compare_checks_solver_names_before_solving(tmp_path, capsys, monkeypatch):
    calls = []
    for name, solve in dict(cli.SOLVERS).items():
        monkeypatch.setitem(
            cli.SOLVERS, name, lambda *a, name=name, solve=solve: calls.append(name) or solve(*a)
        )
    out = tmp_path / "cmp.json"
    assert run(
        "compare", data_path("example1.rec"), "--solver", "lm,bogus", "--out", str(out)
    ) == 2
    assert capsys.readouterr().err.splitlines() == ["error: unknown solver 'bogus'"]
    assert calls == []
    assert not out.exists()


def _projector_pairs(d, k):
    m = np.zeros((d, d))
    m[k, k] = 1.0
    return [[[x, 0.0] for x in row] for row in m]


def _explicit_record(*matrices):
    return {
        "dim": 2,
        "operators": [{"matrix": m} for m in matrices],
        "counts": [5] * len(matrices),
        "normalization": 10,
    }


def _pol4_record_with(mu, i, j, pair):
    """The pol4 settings as an explicit record, entry (i, j) of operator mu
    replaced by the [re, im] pair."""
    matrices = [_state_pairs(o) for o in polarization_projectors()]
    matrices[mu][i][j] = pair
    return _explicit_record(*matrices)


def _pol4_record(**fields):
    doc = {"dim": 2, "operators": "pol4", "counts": [5, 5, 5, 5], "normalization": 10}
    return {**doc, **fields}


def _labelled_record(label):
    doc = _pol4_record_with(0, 0, 0, [1.0, 0.0])
    doc["operators"][1]["label"] = label
    return doc


def _grouped_record(basis_groups):
    return {
        "dim": 2,
        "operators": "pol4",
        "counts": [5, 5, 5, 5],
        "normalization": "per-basis-group",
        "basis_groups": basis_groups,
    }


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
        (_explicit_record(_state_pairs(np.diag([1.0, -0.5])), _projector_pairs(2, 1)), "mle"),
        (_explicit_record([[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]], _projector_pairs(2, 1)), "mle"),
        (_explicit_record(_projector_pairs(2, 0), _projector_pairs(3, 1)), "linear"),
        ({"dim": 2, "operators": "pol4", "counts": [5, "a", 5, 5], "normalization": 10}, "mle"),
        ({"dim": 2, "operators": "pol4", "counts": [10**20, 1, 1, 1], "normalization": 10}, "mle"),
        ({"dim": 2, "operators": [{"label": "H"}], "counts": [5], "normalization": 10}, "mle"),
        ({"dim": 2, "operators": [1, 2], "counts": [5, 5], "normalization": 10}, "mle"),
        ({"dim": 2, "operators": 5, "counts": [5], "normalization": 10}, "mle"),
        (_grouped_record(5), "mle"),
        (_grouped_record([[0, 1], [2, 9]]), "mle"),
        (_grouped_record([[0, 1], [1, 2, 3]]), "mle"),
        (_grouped_record([[0, 0, 1], [2, 3]]), "mle"),
        (_grouped_record([[], [0, 1, 2, 3]]), "mle"),
        (_pol4_record_with(2, 0, 1, [float("nan"), float("inf")]), "mle"),
        (_pol4_record_with(2, 0, 1, [float("nan"), float("inf")]), "linear"),
        (_pol4_record_with(0, 0, 1, [5.0, 0.0]), "mle"),
        (_pol4_record_with(0, 0, 1, [5.0, 0.0]), "linear"),
        (_pol4_record(normalization=None), "mle"),
        (_pol4_record(normalization=[1]), "mle"),
        (_pol4_record(normalization={}), "mle"),
        (_pol4_record(normalization=True), "mle"),
        (_pol4_record(normalization=True), "linear"),
        (_pol4_record(normalization=10**400), "mle"),
        (_pol4_record(seed="abc"), "mle"),
        (_pol4_record(seed=1.5), "mle"),
        (_labelled_record(5), "mle"),
        (_labelled_record(None), "linear"),
        (_pol4_record_with(1, 1, 1, [True, 0]), "mle"),
        (_pol4_record_with(1, 1, 1, [True, 0]), "linear"),
        (_pol4_record_with(1, 1, 1, ["1", 0]), "mle"),
        (_pol4_record_with(1, 1, 1, [None, 0]), "mle"),
        (_pol4_record_with(1, 1, 1, [[1.0], 0]), "mle"),
        (_pol4_record_with(1, 1, 1, [10**400, 0]), "mle"),
        (_explicit_record([], []), "mle"),
        (_explicit_record({"0": [[1, 0], [0, 0]]}, _projector_pairs(2, 1)), "mle"),
        (_pol4_record(counts=[2.7, 5, 5, 5]), "mle"),
        (_pol4_record(counts=[5, 5, 5, True]), "mle"),
        (_pol4_record(counts=[5, 5, 5, True]), "linear"),
        (_pol4_record(counts=5), "mle"),
        (_pol4_record(dim="2"), "mle"),
        (_pol4_record(dim=2.0), "linear"),
        (_pol4_record(dim=True), "mle"),
    ],
    ids=[
        "count-mismatch",
        "no-operators",
        "zero-counts-mle",
        "zero-counts-linear",
        "linear-d3",
        "non-psd-operator",
        "non-square-operator",
        "mixed-operator-shapes",
        "non-integer-count",
        "count-overflow",
        "operator-without-matrix",
        "operator-not-an-object",
        "operators-not-a-list",
        "basis-groups-not-a-list",
        "basis-group-index-out-of-range",
        "basis-groups-overlap",
        "basis-group-repeats-a-setting",
        "basis-group-empty",
        "nan-operator-entry-mle",
        "nan-operator-entry-linear",
        "non-hermitian-operator-mle",
        "non-hermitian-operator-linear",
        "normalization-null",
        "normalization-list",
        "normalization-object",
        "normalization-bool-mle",
        "normalization-bool-linear",
        "normalization-overflow",
        "seed-string",
        "seed-float",
        "label-number",
        "label-null",
        "bool-operator-entry-mle",
        "bool-operator-entry-linear",
        "string-operator-entry",
        "null-operator-entry",
        "nested-operator-entry",
        "operator-entry-overflow",
        "empty-operator-matrix",
        "operator-matrix-not-a-list",
        "float-count",
        "bool-count-mle",
        "bool-count-linear",
        "counts-not-a-list",
        "dim-string",
        "dim-float",
        "dim-bool",
    ],
)
def test_exit_code_unsupported_record(tmp_path, capsys, doc, method):
    path = tmp_path / "bad.rec"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    assert run("reconstruct", str(path), "--method", method, "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def record_documents(draw):
    """Record documents whose fields are each missing (1 in 6), any JSON
    value (1 in 6) or valid or nearly so."""
    preset = draw(st.sampled_from(["pol4", "pol4x4"]))
    ops = povm_preset(preset)
    m, d = ops.shape[:2]
    explicit = [{"label": "", "matrix": _state_pairs(o)} for o in ops]
    fields = {
        "dim": st.sampled_from([d, d, 3, "2"]),
        "operators": st.sampled_from([preset, explicit, "nope"]),
        "counts": st.lists(st.integers(0, 10**4), min_size=m, max_size=m),
        "normalization": st.floats(1, 1e5) | st.sampled_from(["per-basis-group", 0]),
        "basis_groups": st.lists(st.lists(st.integers(0, m - 1), min_size=1), max_size=4),
        "seed": st.none() | st.integers(),
    }
    doc = {}
    for key, values in fields.items():
        kind = draw(st.integers(0, 5))
        if kind:
            doc[key] = draw(JSON_VALUES if kind == 1 else values)
    return doc


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(record_documents(), st.sampled_from(["mle", "linear"]))
def test_reconstruct_on_fuzzed_records_keeps_exit_contract(tmp_path_factory, doc, method):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "r.rec"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run("reconstruct", str(path), "--method", method, "--out", str(work / "o.json"))
    lines = err.getvalue().splitlines()
    assert code in {0, 2, 3, 4, 10, 11}, lines
    assert "Traceback" not in err.getvalue()
    if code in {2, 4}:
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "flags, code",
    [(["--grad-tol", "2"], 0), (["--step-tol", "1e-3"], 10), (["--grad-tol", "1e200"], 0)],
)
def test_stagnation_tolerances_above_grad_tol_print_nothing(tmp_path, capsys, flags, code):
    out = tmp_path / "o.json"
    assert run("reconstruct", data_path("example1.rec"), *flags, "--out", str(out)) == code
    assert capsys.readouterr().err == ""
    assert out.exists()


def test_exit_code_stagnation(tmp_path):
    out = tmp_path / "nm.json"
    code = run(
        "reconstruct", data_path("example1.rec"), "--solver", "nelder-mead",
        "--out", str(out),
    )
    assert code == 10
    assert json.loads(out.read_text())["stop_reason"] != "gradient-tolerance"


@pytest.mark.parametrize("budget", [0, 1, 3, 4])
def test_nelder_mead_budget_inside_initial_simplex(tmp_path, capsys, budget):
    out = tmp_path / "nm.json"
    code = run(
        "reconstruct", data_path("example1.rec"), "--solver", "nelder-mead",
        "--max-fevals", str(budget), "--out", str(out),
    )
    assert code == 10
    doc = json.loads(out.read_text())
    assert (doc["stop_reason"], doc["fevals"]) == ("max-function-evals", max(1, budget))
    assert capsys.readouterr().err == ""


def test_exit_code_all_runs_failed(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = run(
        "verify-minima", data_path("example1.rec"), "--starts", "2",
        "--max-fevals", "2", "--out", str(out),
    )
    assert code == 11
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: all 2 runs failed the stationarity screen")
    assert len(err) == 3
    discarded = _discarded(err[1:])
    assert [(diag["start_index"], diag["reason"]) for diag in discarded] == [
        (0, "max-function-evals"), (1, "max-function-evals")
    ]
    assert not out.exists()


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
    # one iter= line per entry of the trace a traced library run returns
    out = tmp_path / "o.json"
    rec = data_path("example1.rec")
    model = cli._build_model(read_record(rec))
    for solver, max_fevals, code in (("lm", None, 0), ("gd", 200, 10), ("nelder-mead", 200, 10)):
        budget = [] if max_fevals is None else ["--max-fevals", str(max_fevals)]
        argv = ["--solver", solver, *budget, "--verbose", "--out", str(out)]
        assert run("reconstruct", rec, *argv) == code
        lines = capsys.readouterr().err.splitlines()
        cfg = StopConfig(max_fevals=max_fevals)
        trace = SOLVERS[solver](model, default_start(model.dim), cfg, trace=True).trace_log
        assert len(lines) == len(trace) > 0
        assert all(line.startswith(f"iter={i} f=") for i, line in enumerate(lines))


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _overflow_record(tmp_path):
    """example1's counts over a normalization of 1e-300, which overflow
    every solver."""
    rec = tmp_path / "tiny.rec"
    doc = json.loads(Path(data_path("example1.rec")).read_text())
    rec.write_text(json.dumps({**doc, "normalization": 1e-300}))
    return rec


# the overflow record ends every solver run, with no numpy warning on stderr
@pytest.mark.parametrize(
    "argv, code, rows",
    [
        (["compare", "--solver", "lm,gd,nelder-mead"], 0, lambda doc: doc["rows"]),
        (["reconstruct"], 10, lambda doc: [doc]),
    ],
    ids=["compare", "reconstruct"],
)
def test_non_finite_results_are_written_as_null(tmp_path, capsys, argv, code, rows):
    rec = _overflow_record(tmp_path)
    out = tmp_path / "out.json"
    assert run(argv[0], str(rec), *argv[1:], "--out", str(out)) == code
    assert capsys.readouterr().err == ""
    doc = json.loads(out.read_text(), parse_constant=_no_constant)
    assert all(row["f_final"] is None for row in rows(doc))
    assert all(row["grad_norm"] is None for row in rows(doc))
    reasons = [row.get("reason", row.get("stop_reason")) for row in rows(doc)]
    assert reasons == ["numerical-failure"] * len(rows(doc))


def test_non_finite_discards_are_printed_as_null(tmp_path, capsys):
    out = tmp_path / "v.json"
    argv = ["--starts", "2", "--out", str(out)]
    assert run("verify-minima", str(_overflow_record(tmp_path)), *argv) == 11
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    for line in err[1:]:
        assert '"grad_norm": null' in line and '"f_final": null' in line
    assert [diag["reason"] for diag in _discarded(err[1:])] == ["numerical-failure"] * 2
    assert not out.exists()
