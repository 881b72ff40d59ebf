"""Outside-in benchmark of the tomomle command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs `tomomle.cli.main(argv)` in this process, closed loop, one op at a
time, on the program under `src/` of the checkout this file sits in.  Each
workload is a fixed batch of ops (see workloads.py); the run repeats the
batch for S seconds and reports the median batch time.

With --trace 0 the last stdout line carries the end-to-end metrics:
setup_s (median of SETUP_REPS rounds of importing tomomle, writing the
inputs and one untimed warm-up op), wall_s, peak_rss_mb and ok_frac (ops
that ended with an expected exit code / ops attempted).  With --trace 1
untraced and traced batches alternate; the traced ones wrap each layer's
functions (layers.py) and the last line carries the per-layer metrics.

The line before the last is a JSON report: machine, per-batch samples,
stop reasons, iteration and evaluation counts, quality figures and every
problem the output checks found.  A run whose outputs fail a check prints
"correct": false.
"""

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

import layers
from workloads import WORKLOADS, Findings

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3
MIN_BATCHES = 3
PROGRAM_MODULES = (
    "cli", "errors", "hermitian", "inversion", "likelihood", "measurement",
    "optimizers", "parameterize", "verify",
)


def import_program():
    """Import tomomle afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "tomomle" or m.startswith("tomomle.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    prog = types.SimpleNamespace(
        **{m: importlib.import_module(f"tomomle.{m}") for m in PROGRAM_MODULES}
    )
    package = Path(sys.modules["tomomle"].__file__).resolve().parent
    if package != SRC / "tomomle":
        raise SystemExit(f"error: imported tomomle from {package}, not from {SRC}")
    prog.data_dir = package / "data"
    return prog


def call_cli(main, argv):
    """Run one CLI op; returns (exit code or None if it raised, first stderr line)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is scored, and the run goes on
        return None, f"{type(exc).__name__}: {exc}"
    lines = err.getvalue().splitlines()
    return code, lines[0] if lines else ""


class Runner:
    """Runs ops and batches of one plan and keeps the failure tally."""

    def __init__(self, prog, plan):
        self.main = prog.cli.main
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.errors = {}
        self.digests = None
        self.mismatched_batches = 0

    def run_op(self, op, tracer=None):
        if tracer is None:
            code, line = call_cli(self.main, op.argv)
        else:
            with tracer.span("cli"):
                code, line = call_cli(self.main, op.argv)
        if code not in op.expected_codes:
            self.errors.setdefault(f"{op.argv[0]} {op.out.name}: exit {code}", line)
        return code

    def batch(self, tracer=None):
        """Time one batch; returns (seconds, exit codes)."""
        start = time.perf_counter()
        codes = [self.run_op(op, tracer) for op in self.plan.ops]
        seconds = time.perf_counter() - start
        self.attempted += len(codes)
        self.failed += sum(c not in op.expected_codes for c, op in zip(codes, self.plan.ops))
        self._compare_outputs()
        return seconds, codes

    def _compare_outputs(self):
        """Every batch, traced or not, must write the same documents."""
        digests = [
            hashlib.sha256(op.out.read_bytes()).hexdigest() if op.out.exists() else None
            for op in self.plan.ops
        ]
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.mismatched_batches += 1


def read_doc(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def check_outputs(runner, codes):
    plan = runner.plan
    findings = Findings()
    ref_codes = [runner.run_op(op) for op in plan.reference_ops]
    results = [(c, read_doc(op.out)) for c, op in zip(codes, plan.ops)]
    references = [(c, read_doc(op.out)) for c, op in zip(ref_codes, plan.reference_ops)]
    ok = all(
        c in op.expected_codes and doc is not None
        for (c, doc), op in zip(results + references, plan.ops + plan.reference_ops)
    )
    if not ok:
        findings.problems.append("an op ended with an unexpected exit code or no output")
    else:
        try:
            plan.check(findings, results, references)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            findings.problems.append(f"malformed output document: {exc!r}")
    if runner.mismatched_batches:
        findings.problems.append(
            f"{runner.mismatched_batches} batches wrote documents that differ from the first"
        )
    return findings


def quality(findings):
    return {
        "stationary_frac": (
            findings.stationary_runs / findings.solver_runs if findings.solver_runs else 0.0
        ),
        "rho_err_max": max(findings.rho_errs, default=0.0),
        "equiv_margin": max(findings.equiv_margins, default=0.0),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def measure(args, work):
    setup_samples = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        prog = import_program()
        plan = WORKLOADS[args.workload](prog, work, args.seed)
        Runner(prog, plan).run_op(plan.ops[0])
        setup_samples.append(time.perf_counter() - start)

    runner = Runner(prog, plan)
    tracer = layers.make_tracer(prog) if args.trace else None
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(untraced) < MIN_BATCHES:
        seconds, codes = runner.batch()
        untraced.append(seconds)
        if tracer is not None:
            with tracer.installed():
                seconds, codes = runner.batch(tracer)
            traced.append(seconds)

    findings = check_outputs(runner, codes)
    qual = quality(findings)
    wall_s = statistics.median(untraced)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "ops_per_batch": len(plan.ops),
        "setup_s_samples": setup_samples,
        "wall_s_samples": untraced,
        "traced_wall_s_samples": traced,
        "from_output_documents": {
            "solver_runs": findings.solver_runs,
            "stationary_runs": findings.stationary_runs,
            "stop_reasons": findings.stop_reasons,
            "iters": findings.iters,
            "fevals": findings.fevals,
            "verdicts_failed": findings.verdicts_failed,
            **qual,
        },
        "op_errors": runner.errors,
        "problems": findings.problems,
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": ((runner.attempted - runner.failed) / runner.attempted, "frac"),
        }
    else:
        metrics = layers.layer_metrics(
            tracer, len(traced), statistics.median(traced), wall_s, sum(traced), qual
        )
    result = {
        "correct": not findings.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tomomle" / "cli.py").is_file():
        print(f"error: no tomomle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report, result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
