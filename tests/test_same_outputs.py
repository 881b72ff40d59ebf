"""The verdict rule of tools/same_outputs.py; the tool's own runs are not
part of the test suite."""

import importlib.util
from pathlib import Path

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
