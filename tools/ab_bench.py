"""Run one perfbench workload in alternated pairs on two source trees and
summarize each end-to-end metric.

    python tools/ab_bench.py PARENT_TREE CHANGE_TREE --workload W [--seed 13] [--pairs 10]

Each tree is a checkout root holding `src/tomomle` and `perfbench/`.  Only
their `src/` and `perfbench/` are copied, without `__pycache__` (and so
without `.perfbench_work`), to two sibling directories whose paths have the
same length, since a byte code cache or a longer path moves setup_s and
peak_rss_mb.  Each pair runs `perfbench/run.py --trace 0` once in each
copy, under PYTHONDONTWRITEBYTECODE=1, for the `run_seconds` of the
BENCHMARK.json next to this tool; the parent runs first in even pairs
(counted from 0), the change in odd ones.  Copies go under the temporary
directory, which TMPDIR sets.
Given one tree twice, the tool makes an A/A run, whose spread is the noise
that a claimed gain has to clear.

For each end-to-end metric of BENCHMARK.json it prints both medians, both
quartiles, the number of pairs the change wins (a tie counts for neither;
the metric's `better` gives the direction), whether the claim rule holds
(see claim_holds) and every pair's values.  It
names each run that failed (no result line), reported incorrect outputs
or had ops end with an unexpected exit code, and exits 1 if there was
one.  A pair with a failed run is left out of the summary.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")  # also the copies' names, of equal length
SIGN = {"lower": 1, "higher": -1}  # sign of parent - change where the change is better


def quartiles(values):
    """(first quartile, median, third quartile), interpolated inclusively."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, better):
    """Quartiles of each side and the change's wins over (parent, change)
    value pairs; the change wins a pair where it is strictly `better`
    ("lower" or "higher")."""
    sign = SIGN[better]
    return {
        "parent": quartiles([p for p, _ in pairs]),
        "change": quartiles([c for _, c in pairs]),
        "wins": sum(sign * (p - c) > 0 for p, c in pairs),
    }


def claim_holds(summary, better, pairs_run):
    """(holds, median gain, parent interquartile distance) of the claim rule
    on a summary: the change wins at least 9 of every 10 pairs run, and its
    median is better than the parent's by more than the parent's
    interquartile distance."""
    q1, median, q3 = summary["parent"]
    gain = SIGN[better] * (median - summary["change"][1])
    return 10 * summary["wins"] >= 9 * pairs_run and gain > q3 - q1, gain, q3 - q1


def outcome(proc):
    """(metric values or None, problem or None) of one finished run.py
    process; the values are None when the run left no result line."""
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        values = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"failed (exit {proc.returncode}): {tail[0]}"
    if not result["correct"]:
        return values, "incorrect outputs"
    if result["failed"]:
        return values, f"{result['failed']} of {result['attempted']} ops failed"
    return values, None


def copy_trees(trees, scratch):
    """Copies of each tree's src/ and perfbench/ under scratch/<side>."""
    copies = []
    for side, tree in zip(SIDES, trees):
        for part in ("src", "perfbench"):
            shutil.copytree(
                Path(tree) / part, scratch / side / part,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        copies.append(scratch / side)
    return copies


def run_once(copy, args, seconds):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=copy,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        encoding="utf-8",
        errors="replace",
    )


def report(args, bench, runs):
    """Print the summary of runs[i] = ((parent values, problem), (change
    values, problem)); returns the number of runs with a problem."""
    print(
        f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
        f"{bench['run_seconds']} s runs\nparent: {Path(args.parent).resolve()}\n"
        f"change: {Path(args.change).resolve()}"
    )
    problems = 0
    for i, pair in enumerate(runs):
        for side, (_, problem) in zip(SIDES, pair):
            if problem:
                problems += 1
                print(f"pair {i}: {side} run {problem}")
    kept = [(i, p, c) for i, ((p, _), (c, _)) in enumerate(runs) if None not in (p, c)]
    for metric in bench["end_to_end"]:
        name = metric["name"]
        pairs = [(p[name], c[name]) for _, p, c in kept]
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better)")
        if not pairs:
            print("  no pair without a failed run")
            continue
        summary = summarize(pairs, metric["better"])
        for side in SIDES:
            q1, median, q3 = summary[side]
            print(f"  {side}  median {median:.6g}  quartiles {q1:.6g} {q3:.6g}")
        print(f"  change wins {summary['wins']} of {len(pairs)} pairs")
        holds, gain, iqr = claim_holds(summary, metric["better"], len(runs))
        print(
            f"  claim rule {'holds' if holds else 'fails'}: {summary['wins']} wins of "
            f"{len(runs)} pairs run (9/10 needed), median gain {gain:.6g} against "
            f"parent interquartile distance {iqr:.6g}"
        )
        for (i, _, _), (p, c) in zip(kept, pairs):
            print(f"  pair {i} ({SIDES[i % 2]} first): {p:.6g} {c:.6g}")
    return problems


def parse_args(argv, bench):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.seed < 0 or args.pairs < 1:
        p.error("--seed must be >= 0 and --pairs >= 1")
    return args


def main(argv=None):
    bench = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    args = parse_args(argv, bench)
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as scratch:
        copies = copy_trees((args.parent, args.change), Path(scratch))
        runs = []
        for i in range(args.pairs):
            order = copies if i % 2 == 0 else copies[::-1]
            procs = {copy: run_once(copy, args, bench["run_seconds"]) for copy in order}
            runs.append(tuple(outcome(procs[copy]) for copy in copies))
            print(f"pair {i} of {args.pairs} done", file=sys.stderr, flush=True)
    return 1 if report(args, bench, runs) else 0


if __name__ == "__main__":
    sys.exit(main())
