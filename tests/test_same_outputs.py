"""The verdict rule of tools/same_outputs.py; the tool's own runs are not
part of the test suite."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def test_a_difference_passes_only_as_exactly_the_expected_fields():
    assert same_outputs.verdict([], None) == "same"
    assert same_outputs.verdict(["document"], {"document"}) == "EXPECTED"
    assert same_outputs.verdict(["document"], None) == "DIFF"
    assert same_outputs.verdict(["stdout", "document"], {"document"}) == "DIFF"
    assert same_outputs.verdict(["document"], {"stdout", "document"}) == "DIFF"


def test_an_expected_case_that_comes_out_the_same_is_stale():
    assert same_outputs.verdict([], {"document"}) == "STALE"


def test_every_expected_case_is_run():
    cases = {tuple(case) for case in same_outputs._cases()}
    assert set(same_outputs.EXPECTED) <= cases
    assert all(set(fields) <= set(same_outputs.FIELDS) for fields in same_outputs.EXPECTED.values())


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_a_case_runs_on_one_blas_thread(monkeypatch):
    # the last bits of q4's f_final differ between one and two OpenBLAS
    # threads, so both trees run each case on one, whatever the caller's
    # environment says
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(name, "2")
    seen = []

    def run(argv, **kwargs):
        seen.append(kwargs["env"])
        return SimpleNamespace(returncode=0, stdout="", stderr="")

    monkeypatch.setattr(same_outputs.subprocess, "run", run)
    tree = Path(__file__).resolve().parent.parent
    assert same_outputs._run(tree, ["simulate", "--help"]) == (0, "", "", None)
    assert [seen[0][name] for name in BLAS_THREAD_VARIABLES] == ["1", "1", "1"]
