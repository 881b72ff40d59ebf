"""The summary arithmetic and JSON entries of tools/ab_bench.py; the tool's
own runs are not part of the test suite."""

import importlib.util
import json
import statistics
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


def test_quartiles_interpolate_inclusively():
    assert ab_bench.quartiles([5.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.5)
    assert ab_bench.quartiles([4.0]) == (4.0, 4.0, 4.0)
    values = [0.9, 0.1, 0.4, 0.7, 0.3, 0.8, 0.2]
    assert ab_bench.quartiles(values)[1] == statistics.median(values)


@pytest.mark.parametrize("better, wins", [("lower", 2), ("higher", 1)])
def test_summarize_counts_strict_wins_in_the_better_direction(better, wins):
    pairs = [(1.0, 2.0), (3.0, 1.0), (2.0, 2.0), (5.0, 4.0)]  # (parent, change); one tie
    summary = ab_bench.summarize(pairs, better)
    assert summary == {
        "parent": ab_bench.quartiles([1.0, 3.0, 2.0, 5.0]),
        "change": ab_bench.quartiles([2.0, 1.0, 2.0, 4.0]),
        "wins": wins,
    }


def _summary(parent, change, wins):
    return {"parent": parent, "change": change, "wins": wins}


def test_claim_rule_needs_nine_wins_in_ten_and_a_gain_past_the_parent_spread():
    parent = (0.6, 0.7, 0.8)  # interquartile distance 0.2 (up to rounding)
    holds, gain, iqr = ab_bench.claim_holds(_summary(parent, (0.3, 0.45, 0.5), 9), "lower", 10)
    assert holds and gain == pytest.approx(0.25) and iqr == pytest.approx(0.2)
    # 8 of 10 wins, or 9 of 10 when an eleventh pair was run but failed
    assert not ab_bench.claim_holds(_summary(parent, (0.3, 0.45, 0.5), 8), "lower", 10)[0]
    assert not ab_bench.claim_holds(_summary(parent, (0.3, 0.45, 0.5), 9), "lower", 11)[0]
    assert ab_bench.claim_holds(_summary(parent, (0.3, 0.45, 0.5), 18), "lower", 20)[0]
    # a median gain that does not pass the interquartile distance
    exact = (0.5, 0.75, 1.0)  # distance 0.5, exact in binary
    assert not ab_bench.claim_holds(_summary(exact, (0.1, 0.25, 0.3), 10), "lower", 10)[0]
    assert ab_bench.claim_holds(_summary(exact, (0.1, 0.125, 0.3), 10), "lower", 10)[0]
    # the direction comes from `better`: a lower median is a loss for "higher"
    holds, gain, _ = ab_bench.claim_holds(_summary(parent, (0.3, 0.45, 0.5), 10), "higher", 10)
    assert not holds and gain == pytest.approx(-0.25)
    assert ab_bench.claim_holds(_summary(parent, (1.0, 1.1, 1.2), 10), "higher", 10)[0]


def _proc(lines, returncode=0, stderr=""):
    return SimpleNamespace(stdout="\n".join(lines), returncode=returncode, stderr=stderr)


def test_outcome_reads_the_result_line_and_names_each_problem():
    def result(correct=True, failed=0):
        metrics = {"wall_s": {"value": 0.5, "unit": "s"}}
        line = {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics}
        return _proc(['{"report": {}}', json.dumps(line)])

    assert ab_bench.outcome(result()) == ({"wall_s": 0.5}, None)
    assert ab_bench.outcome(result(correct=False)) == ({"wall_s": 0.5}, "incorrect outputs")
    assert ab_bench.outcome(result(failed=1)) == ({"wall_s": 0.5}, "1 of 4 ops failed")
    crashed = _proc([], returncode=1, stderr="Traceback\nValueError: boom\n")
    assert ab_bench.outcome(crashed) == (None, "failed (exit 1): ValueError: boom")


def test_copies_have_paths_of_equal_length_and_no_byte_code(tmp_path):
    tree = tmp_path / "tree"
    for part in ("src/pkg/__pycache__", "perfbench/__pycache__"):
        (tree / part).mkdir(parents=True)
        (tree / part / "m.pyc").write_bytes(b"")
    (tree / "src" / "pkg" / "m.py").write_text("")
    (tree / ".perfbench_work").mkdir()
    parent, change = ab_bench.copy_trees((tree, tree), tmp_path / "scratch")
    assert parent.parent == change.parent and len(str(parent)) == len(str(change))
    for copy in (parent, change):
        assert sorted(p.relative_to(copy).as_posix() for p in copy.rglob("*")) == [
            "perfbench", "src", "src/pkg", "src/pkg/m.py",
        ]


def _run(wall_s, problem=None, iters=7):
    """One side's (values, problem, report) as main collects them."""
    values = None if wall_s is None else {"wall_s": wall_s, "ok_frac": 1.0}
    report = None if wall_s is None else {
        "machine": {"cores": 4, "blas": "openblas 0.3"},
        "from_output_documents": {"iters": iters, "stop_reasons": {"gradient-tolerance": 2}},
    }
    return values, problem, report


def test_json_entry_round_trips_and_the_printout_is_rendered_from_it(tmp_path):
    bench = {
        "run_seconds": 10,
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower"},
            {"name": "ok_frac", "unit": "frac", "better": "higher"},
        ],
    }
    runs = [
        (_run(0.5), _run(0.25)),
        (_run(None, "failed (exit 1): boom"), _run(0.75)),  # left out of the summary
        (_run(1.0), _run(0.5, "incorrect outputs", iters=8)),
        (_run(0.75), _run(0.5)),
    ]
    trees = {side: {"tree": f"../{side}", "digest": "ab" * 32} for side in ab_bench.SIDES}
    path = tmp_path / "BENCH.json"
    docs = {}
    for workload in ("mle_4q", "verify_2q"):
        args = SimpleNamespace(
            parent="../parent", change="../change", workload=workload, seed=13, pairs=4
        )
        docs[workload] = ab_bench.entry(args, bench, trees, runs)
        ab_bench.write_entry(path, workload, docs[workload])
    back = json.loads(path.read_text(encoding="utf-8"))
    assert back == docs  # merged by workload, and equal after the round trip

    doc = back["mle_4q"]
    assert doc["problems"] == [
        "pair 1: parent run failed (exit 1): boom", "pair 2: change run incorrect outputs",
    ]
    # each side's report is its first run's that left one
    assert doc["change"]["from_output_documents"]["iters"] == 7
    assert doc["parent"]["machine"] == {"cores": 4, "blas": "openblas 0.3"}
    wall = doc["metrics"]["wall_s"]
    summary = ab_bench.summarize([(0.5, 0.25), (1.0, 0.5), (0.75, 0.5)], "lower")
    assert wall["parent"] == {"median": 0.75, "quartiles": [0.625, 0.875]}
    assert wall["change"] == {"median": 0.5, "quartiles": [0.375, 0.5]}
    assert wall["wins"] == summary["wins"] == 3
    holds, gain, iqr = ab_bench.claim_holds(summary, "lower", 4)
    assert wall["claim"] == {"holds": holds, "median_gain": gain, "parent_iqr": iqr}
    assert [p["pair"] for p in wall["pairs"]] == [0, 2, 3]

    text = ab_bench.render("mle_4q", doc)
    assert text == ab_bench.render("mle_4q", docs["mle_4q"])
    for line in (
        "tools/ab_bench.py ../parent ../change --workload mle_4q --seed 13 --pairs 4",
        "  parent  median 0.75  quartiles 0.625 0.875",
        "  change  median 0.5  quartiles 0.375 0.5",
        "  change wins 3 of 3 pairs",
        "  pair 2 (parent first): 1 0.5",
        "pair 1: parent run failed (exit 1): boom",
    ):
        assert line in text.splitlines()
    # a value changed in the file changes the printout
    doc["metrics"]["wall_s"]["parent"]["median"] = 0.8
    assert "  parent  median 0.8  quartiles 0.625 0.875" in ab_bench.render("mle_4q", doc)
