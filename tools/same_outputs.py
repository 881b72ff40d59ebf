"""Run one fixed list of CLI cases on two source trees and report every case
whose exit code, stdout, stderr or output document differs between them.

    python tools/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout root holding `src/tomomle`.  A case runs as
`python -m tomomle.cli ARGS` with the tree's `src` first on PYTHONPATH, in a
fresh directory that holds a copy of the tree's bundled records and those
of the inputs this tool writes (`_inputs`) that the case names, so inputs
and outputs have the same relative names on both sides.  The manifest's
`output_path` is blanked before two documents are compared.  Prints one
line per case, and exits 1 if any case differs other than as EXPECTED
names (DIFF), or if a case that EXPECTED names comes out the same (STALE).
EXPECTED lists only the differences that the change under test makes on
purpose, so it is empty for a change that keeps every output, and is reset
for each change.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

OUT = "out.json"
FIELDS = ("exit", "stdout", "stderr", "document")
# example1's counts over a normalization of 1e-300: every solver overflows
OVERFLOW_REC = "overflow1.rec"
# 64 listed 3-qubit operators (d = 8): the d > 4 Jacobian and a 3-qubit Pauli basis
QUBIT3_REC = "q3.rec"
# 256 listed 4-qubit operators (d = 16): mle_4q's kernel and the d > 4 block path
QUBIT4_REC = "q4.rec"
# a 2-qubit record that names the pol4x4 preset
POL4X4_REC = "pol4x4.rec"
# a one-qubit state file for `simulate --state`
STATE_FILE = "state.json"
# {case as a tuple: the fields in which the change under test alters it on purpose}
EXPECTED = {
    # the --verbose help text names the per-iteration trace
    ("reconstruct", "--help"): {"stdout"},
}


def _hvdr_record(n_qubits, preset=None):
    """A record of 10,000 shots per setting on the n-qubit GHZ state mixed
    with 30% white noise, under every n-fold product of the H, V, D, R
    projectors, first factor most significant as `pol4x4` orders them; the
    operators are listed, or named by `preset`."""
    kets = [np.array(k) / np.linalg.norm(k) for k in ((1, 0), (0, 1), (1, 1), (1, -1j))]
    ops = [np.ones((1, 1))]
    for _ in range(n_qubits):
        ops = [np.kron(op, np.outer(k, k.conj())) for op in ops for k in kets]
    d = 2**n_qubits
    ghz = np.zeros(d)
    ghz[[0, -1]] = 2**-0.5
    rho = 0.7 * np.outer(ghz, ghz) + 0.3 * np.eye(d) / d
    return {
        "dim": d,
        "operators": preset
        or [{"matrix": np.stack([op.real, op.imag], axis=-1).tolist()} for op in ops],
        "counts": [int(np.rint(1e4 * np.trace(op @ rho).real)) for op in ops],
        "normalization": 1e4,
    }


def _inputs(src):
    """{file name: function giving its JSON document} of the inputs this tool
    writes; a case gets those it names."""

    def overflow():
        doc = json.loads((src / "tomomle" / "data" / "example1.rec").read_text(encoding="utf-8"))
        doc["normalization"] = 1e-300
        return doc

    def state():
        r = np.array([1, -1j]) / np.sqrt(2)
        rho = 0.8 * np.outer(r, r.conj()) + 0.1 * np.eye(2)
        return {"matrix": np.stack([rho.real, rho.imag], axis=-1).tolist()}

    return {
        OVERFLOW_REC: overflow,
        QUBIT3_REC: lambda: _hvdr_record(3),
        QUBIT4_REC: lambda: _hvdr_record(4),
        POL4X4_REC: lambda: _hvdr_record(2, "pol4x4"),
        STATE_FILE: state,
    }


def _cases():
    examples = [f"example{i}.rec" for i in (1, 2, 3)]
    for rec in examples:
        yield ["reconstruct", rec, "--method", "linear"]
        yield ["reconstruct", rec, "--method", "mle"]
        yield ["reconstruct", rec, "--verbose", "--max-iters", "3"]
    # Levenberg-Marquardt's other stop checks that a flag reaches: lambda
    # past LM_LAMBDA_MAX on a rejected trial, step, df and the evaluation budget
    for rec in examples[:2]:
        for flag, value in (
            ("--grad-tol", "1e-15"), ("--step-tol", "1e-2"), ("--fun-tol", "1e-2"),
            ("--max-fevals", "4"),
        ):
            yield ["reconstruct", rec, "--verbose", flag, value]
    for rec in examples:
        yield ["compare", rec, "--solver", "lm,gd,nelder-mead"]
    # a document's t_final and grad_norm from the two solvers other than LM
    yield ["reconstruct", "example1.rec", "--solver", "nelder-mead"]
    yield ["reconstruct", "example2.rec", "--solver", "gd"]
    # Nelder-Mead's and gradient descent's --verbose traces
    for solver in ("nelder-mead", "gd"):
        yield ["reconstruct", "example2.rec", "--solver", solver, "--verbose", "--max-fevals", "300"]
    yield ["verify-minima", "example2.rec", "--seed", "0"]
    yield ["verify-minima", "example2.rec", "--seed", "13000"]
    yield ["verify-minima", "example3.rec", "--constrain-signs", "--seed", "500"]
    for state in ("H", "D", "R", "mixed"):
        yield [
            "simulate", "--state", state, "--povm", "pol4", "--noise", "poisson",
            "--shots", "1001",
        ]
    for noise in ("none", "gaussian"):
        for state in (["--state", STATE_FILE], ["--state", "bell", "--povm", "pol4x4"]):
            yield ["simulate", *state, "--noise", noise, "--shots", "1000"]
    yield ["reconstruct", QUBIT3_REC, "--method", "mle"]
    yield ["reconstruct", QUBIT3_REC, "--method", "linear"]
    yield ["verify-minima", QUBIT3_REC, "--starts", "3"]
    # value and value_and_gradient above d = 4
    yield ["compare", QUBIT3_REC, "--solver", "lm,gd,nelder-mead", "--max-fevals", "400"]
    yield ["reconstruct", QUBIT4_REC, "--method", "mle"]
    yield ["verify-minima", QUBIT4_REC, "--starts", "2"]
    yield ["reconstruct", POL4X4_REC]
    yield ["compare", POL4X4_REC, "--solver", "lm,gd,nelder-mead"]
    # past fixes: numpy warnings kept off stderr, shots past 2^53 (exit 2), a
    # grad_tol whose square overflows, exit 11's discarded runs as JSON objects
    yield ["reconstruct", OVERFLOW_REC]
    yield ["compare", OVERFLOW_REC, "--solver", "lm,gd,nelder-mead"]
    yield ["reconstruct", "example1.rec", "--grad-tol", "1e200"]
    yield ["compare", "example2.rec", "--solver", "lm,gd,nelder-mead", "--grad-tol", "1e200"]
    yield ["verify-minima", "example1.rec", "--starts", "2", "--max-fevals", "2"]
    yield [
        "verify-minima", "example3.rec", "--constrain-signs", "--starts", "2",
        "--max-fevals", "5",
    ]
    yield ["verify-minima", OVERFLOW_REC, "--starts", "2"]
    yield ["simulate", "--state", "H", "--shots", str(2**53 + 1), "--noise", "poisson"]
    yield ["simulate", "--state", "H", "--shots", str(10**20), "--noise", "poisson"]
    for command in ("simulate", "reconstruct", "verify-minima", "compare"):
        yield [command, "--help"]


def _run(tree, argv):
    """(exit code, stdout, stderr, document or None) of one case on one tree."""
    src = Path(tree).resolve() / "src"
    with tempfile.TemporaryDirectory() as work:
        for rec in (src / "tomomle" / "data").glob("*.rec"):
            shutil.copy(rec, work)
        for name, make in _inputs(src).items():
            if name in argv:
                (Path(work) / name).write_text(json.dumps(make()), encoding="utf-8")
        if "--help" not in argv:
            argv = [*argv, "--out", OUT]
        proc = subprocess.run(
            [sys.executable, "-m", "tomomle.cli", *argv],
            cwd=work,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            encoding="utf-8",
            errors="replace",
        )
        out = Path(work) / OUT
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    if isinstance(doc, dict) and isinstance(doc.get("manifest"), dict):
        doc["manifest"]["output_path"] = None
    return proc.returncode, proc.stdout, proc.stderr, doc


def verdict(fields, expected):
    """"same", "EXPECTED", "STALE" or "DIFF" for a case whose differing
    fields are `fields` and whose EXPECTED entry is `expected` (None if it
    has none): a difference passes only as exactly the expected fields, and
    an expected difference that did not happen is stale."""
    if not fields:
        return "STALE" if expected else "same"
    return "EXPECTED" if set(fields) == expected else "DIFF"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = argv
    cases = list(_cases())
    counts = dict.fromkeys(("same", "EXPECTED", "STALE", "DIFF"), 0)
    for case in cases:
        before, after = _run(parent, case), _run(change, case)
        fields = [name for name, a, b in zip(FIELDS, before, after) if a != b]
        expected = EXPECTED.get(tuple(case))
        word = verdict(fields, expected)
        counts[word] += 1
        shown = fields or sorted(expected or ())
        label = f"{word} ({', '.join(shown)})" if shown else word
        print(f"{label:<8} exit {before[0]}->{after[0]}  {' '.join(case)}", flush=True)
    print(
        f"{counts['DIFF']} of {len(cases)} cases differ, {counts['EXPECTED']} more as expected,"
        f" {counts['STALE']} expected but the same"
    )
    return 1 if counts["DIFF"] or counts["STALE"] else 0


if __name__ == "__main__":
    sys.exit(main())
