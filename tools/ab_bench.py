"""Run one perfbench workload in alternated pairs on two source trees and
summarize each end-to-end metric.

    python tools/ab_bench.py PARENT_TREE CHANGE_TREE --workload W [--seed 13] [--pairs 10]
        [--json PATH]

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

The printout is rendered from one JSON entry (see entry), which also holds
each tree's content digest and, from run.py's report line of its first run
that left one, the `machine` block and `from_output_documents` counts, and
the load average after the last pair.  With --json PATH the entry is
written to PATH under the workload's name, merged into the entries that the
file already holds, so one file can collect every workload of a change.
"""

import argparse
import hashlib
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


def run_report(proc):
    """run.py's report (the line before the result line) of one finished
    process, or None if it left none."""
    try:
        return json.loads(proc.stdout.splitlines()[-2])["report"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None


def tree_digest(copy):
    """The sha256 of a copy's files, their relative paths and bytes in path
    order: the same for two trees with the same src/ and perfbench/."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(copy).rglob("*") if p.is_file()):
        h.update(path.relative_to(copy).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


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


def entry(args, bench, trees, runs):
    """The JSON entry of one workload's runs, runs[i] = ((parent values,
    problem, report), (change values, problem, report)); trees maps each
    side to its tree as given and its copy's digest."""
    problems = [
        f"pair {i}: {side} run {problem}"
        for i, pair in enumerate(runs)
        for side, (_, problem, _) in zip(SIDES, pair)
        if problem
    ]
    sides = {}
    for k, side in enumerate(SIDES):
        report = next((pair[k][2] for pair in runs if pair[k][2] is not None), {})
        sides[side] = {
            **trees[side],
            "machine": report.get("machine"),
            "from_output_documents": report.get("from_output_documents"),
        }
    kept = [(i, p, c) for i, ((p, _, _), (c, _, _)) in enumerate(runs) if None not in (p, c)]
    metrics = {}
    for metric in bench["end_to_end"]:
        name, better = metric["name"], metric["better"]
        pairs = [(p[name], c[name]) for _, p, c in kept]
        m = metrics[name] = {"unit": metric["unit"], "better": better}
        if pairs:
            summary = summarize(pairs, better)
            holds, gain, iqr = claim_holds(summary, better, len(runs))
            for side in SIDES:
                q1, median, q3 = summary[side]
                m[side] = {"median": median, "quartiles": [q1, q3]}
            m["wins"] = summary["wins"]
            m["claim"] = {"holds": holds, "median_gain": gain, "parent_iqr": iqr}
        m["pairs"] = [
            {"pair": i, "first": SIDES[i % 2], "parent": p, "change": c}
            for (i, _, _), (p, c) in zip(kept, pairs)
        ]
    return {
        "command": (
            f"tools/ab_bench.py {args.parent} {args.change} --workload {args.workload}"
            f" --seed {args.seed} --pairs {args.pairs}"
        ),
        "seed": args.seed,
        "pairs": len(runs),
        "run_seconds": bench["run_seconds"],
        **sides,
        "load_average": list(os.getloadavg()),
        "problems": problems,
        "metrics": metrics,
    }


def render(workload, doc):
    """The printed summary of one workload's JSON entry."""
    lines = [
        doc["command"],
        f"{workload}, seed {doc['seed']}, {doc['pairs']} pairs of {doc['run_seconds']} s runs",
        *(f"{side}: {doc[side]['tree']} (sha256 {doc[side]['digest'][:12]})" for side in SIDES),
        *(f"{side} machine: {json.dumps(doc[side]['machine'])}" for side in SIDES),
        *(
            f"{side} from_output_documents: {json.dumps(doc[side]['from_output_documents'])}"
            for side in SIDES
        ),
        f"load average: {' '.join(f'{x:.2f}' for x in doc['load_average'])}",
        *doc["problems"],
    ]
    for name, m in doc["metrics"].items():
        lines.append(f"\n{name} ({m['unit']}, {m['better']} is better)")
        if not m["pairs"]:
            lines.append("  no pair without a failed run")
            continue
        for side in SIDES:
            q1, q3 = m[side]["quartiles"]
            lines.append(f"  {side}  median {m[side]['median']:.6g}  quartiles {q1:.6g} {q3:.6g}")
        claim = m["claim"]
        lines += [
            f"  change wins {m['wins']} of {len(m['pairs'])} pairs",
            f"  claim rule {'holds' if claim['holds'] else 'fails'}: {m['wins']} wins of "
            f"{doc['pairs']} pairs run (9/10 needed), median gain "
            f"{claim['median_gain']:.6g} against parent interquartile distance "
            f"{claim['parent_iqr']:.6g}",
        ]
        lines += [
            f"  pair {p['pair']} ({p['first']} first): {p['parent']:.6g} {p['change']:.6g}"
            for p in m["pairs"]
        ]
    return "\n".join(lines)


def write_entry(path, workload, doc):
    """Write doc under `workload` into the JSON file at path, keeping the
    file's other entries."""
    path = Path(path)
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    entries[workload] = doc
    path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


def parse_args(argv, bench):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--json", metavar="PATH", help="merge the summary into this JSON file")
    args = p.parse_args(argv)
    if args.seed < 0 or args.pairs < 1:
        p.error("--seed must be >= 0 and --pairs >= 1")
    return args


def main(argv=None):
    bench = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    args = parse_args(argv, bench)
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as scratch:
        copies = copy_trees((args.parent, args.change), Path(scratch))
        trees = {
            side: {"tree": tree, "digest": tree_digest(copy)}
            for side, tree, copy in zip(SIDES, (args.parent, args.change), copies)
        }
        runs = []
        for i in range(args.pairs):
            order = copies if i % 2 == 0 else copies[::-1]
            procs = {copy: run_once(copy, args, bench["run_seconds"]) for copy in order}
            runs.append(tuple((*outcome(procs[copy]), run_report(procs[copy])) for copy in copies))
            print(f"pair {i} of {args.pairs} done", file=sys.stderr, flush=True)
    doc = entry(args, bench, trees, runs)
    print(render(args.workload, doc))
    if args.json:
        write_entry(args.json, args.workload, doc)
    return 1 if doc["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
