"""Run one fixed list of CLI cases on two source trees and report every case
whose exit code, stdout, stderr or output document differs between them.

    python tools/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout root holding `src/tomomle`.  A case runs as
`python -m tomomle.cli ARGS` with the tree's `src` first on PYTHONPATH, in a
fresh directory that holds a copy of the tree's bundled records and
OVERFLOW_REC, so inputs and outputs have the same relative names on both
sides.  The manifest's `output_path` is blanked before two documents are
compared.  Prints one line per case, and exits 1 if any case differs other
than as EXPECTED names.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

OUT = "out.json"
FIELDS = ("exit", "stdout", "stderr", "document")
# example1's counts over a normalization of 1e-300: every solver overflows
OVERFLOW_REC = "overflow1.rec"
# the fields in which a case may differ from a tree that predates a bugfix:
# numpy warnings no longer reach stderr; shots past 2^53 exit 2, where
# 2^53 + 1 wrote a record and 10^20 failed with a traceback; a grad_tol whose
# square overflows runs, where it failed with a traceback; and exit 11 prints
# each discarded run as a JSON object, where it printed a Python dict
EXPECTED = {
    ("reconstruct", OVERFLOW_REC): {"stderr"},
    ("compare", OVERFLOW_REC, "--solver", "lm,gd,nelder-mead"): {"stderr"},
    ("reconstruct", "example1.rec", "--grad-tol", "1e200"): {"exit", "stderr", "document"},
    ("compare", "example2.rec", "--solver", "lm,gd,nelder-mead", "--grad-tol", "1e200"): {
        "exit", "stderr", "document"
    },
    ("verify-minima", "example1.rec", "--starts", "2", "--max-fevals", "2"): {"stderr"},
    (
        "verify-minima", "example3.rec", "--constrain-signs", "--starts", "2",
        "--max-fevals", "5",
    ): {"stderr"},
    ("verify-minima", OVERFLOW_REC, "--solver", "nelder-mead", "--starts", "2"): {"stderr"},
    ("simulate", "--state", "H", "--shots", str(2**53 + 1), "--noise", "poisson"): {
        "exit", "stderr", "document"
    },
    ("simulate", "--state", "H", "--shots", str(10**20), "--noise", "poisson"): {
        "exit", "stderr"
    },
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
    yield ["verify-minima", "example2.rec", "--seed", "0"]
    yield ["verify-minima", "example2.rec", "--seed", "13000"]
    yield ["verify-minima", "example3.rec", "--constrain-signs", "--seed", "500"]
    yield ["verify-minima", "example1.rec", "--solver", "gd", "--starts", "5", "--grad-tol", "1e-5"]
    yield ["verify-minima", "example3.rec", "--solver", "nelder-mead", "--starts", "3"]
    for state in ("H", "D", "R", "mixed"):
        yield [
            "simulate", "--state", state, "--povm", "pol4", "--noise", "poisson",
            "--shots", "1001",
        ]
    for command in ("simulate", "reconstruct", "verify-minima", "compare"):
        yield [command, "--help"]
    yield from map(list, EXPECTED)


def _run(tree, argv):
    """(exit code, stdout, stderr, document or None) of one case on one tree."""
    src = Path(tree).resolve() / "src"
    with tempfile.TemporaryDirectory() as work:
        for rec in (src / "tomomle" / "data").glob("*.rec"):
            shutil.copy(rec, work)
        doc = json.loads((src / "tomomle" / "data" / "example1.rec").read_text(encoding="utf-8"))
        doc["normalization"] = 1e-300
        (Path(work) / OVERFLOW_REC).write_text(json.dumps(doc), encoding="utf-8")
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


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = argv
    cases = list(_cases())
    differing = expected = 0
    for case in cases:
        before, after = _run(parent, case), _run(change, case)
        fields = [name for name, a, b in zip(FIELDS, before, after) if a != b]
        known = bool(fields) and set(fields) == EXPECTED.get(tuple(case))
        expected += known
        differing += bool(fields) and not known
        verdict = f"{'EXPECTED' if known else 'DIFF'} ({', '.join(fields)})" if fields else "same"
        print(f"{verdict:<8} exit {before[0]}->{after[0]}  {' '.join(case)}", flush=True)
    print(f"{differing} of {len(cases)} cases differ, {expected} more as expected")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
