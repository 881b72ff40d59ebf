"""Command-line driver: simulate counts, reconstruct states, compare solvers,
and verify minimizer equivalence.

Every output document embeds the run manifest (command, inputs, seed, solver
settings, tool version), so a run can be reproduced byte-for-byte from its
output.  Exit codes are part of the contract:

    0   success (for `reconstruct --method mle`: first-order stationarity)
    1   verify-minima equivalence check failed; also any other internal
        error, such as a raised numerical error
    2   unknown preset / malformed, unsupported or unreadable input, an
        option value out of its range, or a size past a capacity cap (an
        operator stack's dimension, the number of sign orthants, or
        verify-minima's starts times sign orthants, verify.MAX_RUNS)
    3   output path not writable
    4   measurement set not informationally complete (linear inversion)
    10  MLE run stopped before `--grad-tol`: stagnation, the parameter
        bound, an iteration or evaluation budget, or a `numerical-failure`
        stop
    11  every multistart run was discarded by the stationarity screen

A command returns 0, 1 or 10 or raises; `main` maps the error to its code
through EXIT_FOR_ERROR and prints one `error:` line, followed for exit 11
by one `  discarded: {...}` line per discarded run, whose JSON object
follows the documents' rule: a non-finite value is `null`.  `main` runs
the command with numpy's floating-point warnings off: a run that
overflows shows it in its document, as a `numerical-failure` stop and
`null` values.  An error the objective raises is not caught: it
propagates out of the command, and the process exits 1.
"""

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import __version__
from .errors import (
    AllRunsFailedError,
    CapacityError,
    IncompleteMeasurementsError,
    SchemaError,
    TomographyError,
)
from .hermitian import eig_hermitian, pauli_basis, purity
from .inversion import linear_invert
from .likelihood import ObjectiveModel
from .measurement import (
    normalize,
    povm_preset,
    read_record,
    read_state,
    simulate_counts,
    strict_json,
    write_json_atomic,
    write_record,
)
from .optimizers import SOLVERS, StopConfig, StopReason, default_start
from .parameterize import all_sign_patterns
from .verify import equivalence_check, multistart, orthant_multistart

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_SCHEMA = 2
EXIT_UNWRITABLE = 3
EXIT_INCOMPLETE = 4
EXIT_STAGNATION = 10
EXIT_ALL_RUNS_FAILED = 11

# the one map from a raised error to its exit code, first match first; an OSError
# comes from writing the output, as reads turn theirs into SchemaError
EXIT_FOR_ERROR = (
    (SchemaError, EXIT_SCHEMA),
    (CapacityError, EXIT_SCHEMA),
    (OSError, EXIT_UNWRITABLE),
    (IncompleteMeasurementsError, EXIT_INCOMPLETE),
    (AllRunsFailedError, EXIT_ALL_RUNS_FAILED),
    (TomographyError, EXIT_NOT_EQUIVALENT),
)


def _state_preset(name, dim):
    kets = {
        "H": np.array([1, 0], dtype=complex),
        "V": np.array([0, 1], dtype=complex),
        "D": np.array([1, 1], dtype=complex) / np.sqrt(2),
        "R": np.array([1, -1j], dtype=complex) / np.sqrt(2),
    }
    if name in kets:
        v = kets[name]
        return np.outer(v, v.conj())
    if name == "mixed":
        return np.eye(dim, dtype=complex) / dim
    if name == "bell":
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        return np.outer(v, v.conj())
    return None


def _load_state(spec, dim):
    rho = _state_preset(spec, dim)
    if rho is None:
        try:
            rho = read_state(spec)
        except SchemaError as exc:
            raise SchemaError(
                f"--state {spec!r} is neither a state preset nor a valid state file: {exc}"
            ) from exc
    if rho.shape[0] != dim:
        raise SchemaError(f"state {spec!r} has dimension {rho.shape[0]}, POVM needs {dim}")
    return rho


def _matrix_fields(m):
    m = np.asarray(m, dtype=complex)
    return {
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
        "rounded_re": np.round(m.real, 4).tolist(),
        "rounded_im": np.round(m.imag, 4).tolist(),
    }


def cmd_simulate(args):
    povm = povm_preset(args.povm)
    rho = _load_state(args.state, povm.shape[1])
    record = simulate_counts(rho, povm, args.shots, args.noise, args.seed)
    write_record(args.out, record, preset=args.povm)
    return EXIT_OK


def _build_model(record):
    return ObjectiveModel("gaussian", record.operators, normalize(record))


def _inputs(args, command):
    """(record, StopConfig, run manifest) of an MLE command, from its flags."""
    record = read_record(args.record)
    cfg = StopConfig(args.grad_tol, args.step_tol, args.fun_tol, args.max_iters, args.max_fevals)
    manifest = {
        "command": command,
        "input_path": args.record,
        "seed": args.seed,
        "solver": args.solver,
        "stop_config": dataclasses.asdict(cfg),
        "output_path": args.out,
        "tool_version": __version__,
    }
    return record, cfg, manifest


def cmd_reconstruct(args):
    record, cfg, manifest = _inputs(args, "reconstruct")
    d = record.dim
    if args.method == "linear":
        n_qubits = int(round(np.log2(d)))
        if n_qubits < 1 or 2**n_qubits != d:
            raise SchemaError(f"linear inversion needs d = 2^n with n >= 1, got d = {d}")
        m = len(record.operators)
        if m < d * d:  # rank <= m: settle it before building the 16 d^4-byte basis
            raise IncompleteMeasurementsError(
                f"measurement set determines only {m} or fewer of {d * d} coefficients, "
                f"as it has {m} settings"
            )
        basis = pauli_basis(n_qubits)
        report = linear_invert(normalize(record), record.operators, basis)
        doc = {
            "manifest": manifest,
            "method": "linear",
            "matrix": _matrix_fields(report.matrix),
            "stokes": list(report.stokes),
            "is_physical": report.is_physical,
            "min_eigenvalue": report.min_eigenvalue,
            "trace": report.trace,
            "condition_estimate": report.condition_estimate,
            "purity": float(np.real(np.trace(report.matrix @ report.matrix))),
        }
        write_json_atomic(args.out, doc)
        return EXIT_OK

    model = _build_model(record)
    result = SOLVERS[args.solver](model, default_start(d), cfg, trace=args.verbose)
    if args.verbose:
        for i, (f, gnorm, step) in enumerate(result.trace_log):
            print(f"iter={i} f={f:.6e} grad_norm={gnorm:.3e} step={step:.3e}", file=sys.stderr)
    doc = {
        "manifest": manifest,
        "method": "mle",
        "solver": args.solver,
        "matrix": _matrix_fields(result.rho_final),
        "purity": purity(result.rho_final),
        "min_eigenvalue": float(eig_hermitian(result.rho_final)[0]),
        "f_final": result.f_final,
        "grad_norm": result.grad_norm,
        "stop_reason": result.reason.value,
        "iters": result.iters,
        "fevals": result.fevals,
        "t_final": list(result.t_final),
    }
    write_json_atomic(args.out, doc)
    return EXIT_OK if result.reason is StopReason.GradientTolerance else EXIT_STAGNATION


def _solution_fields(res):
    return {
        "t": list(res.t_final),
        "f_final": res.f_final,
        "grad_norm": res.grad_norm,
        "reason": res.reason.value,
        "iters": res.iters,
        "fevals": res.fevals,
    }


def cmd_verify_minima(args):
    record, cfg, manifest = _inputs(args, "verify-minima")
    model = _build_model(record)
    if args.constrain_signs:
        reports = orthant_multistart(
            model, all_sign_patterns(record.dim), args.starts, args.seed, cfg=cfg
        )
    else:
        reports = [multistart(model, args.starts, args.seed, cfg=cfg)]
    pooled = [res for rep in reports for res in rep.screened_results]

    passed, eq = equivalence_check(pooled, args.rho_tol, args.f_tol)
    doc = {
        "manifest": manifest,
        "constrain_signs": bool(args.constrain_signs),
        "reports": [
            {
                "sign_pattern": rep.sign_pattern,
                "n_starts": args.starts,
                "distinct_t_count": rep.distinct_t_count,
                "max_pairwise_rho_distance": rep.max_pairwise_rho_distance,
                "max_f_spread": rep.max_f_spread,
                "discarded_count": rep.discarded_count,
                "solutions": [_solution_fields(s) for s in rep.solutions],
            }
            for rep in reports
        ],
        "equivalence": eq,
    }
    write_json_atomic(args.out, doc)
    return EXIT_OK if passed else EXIT_NOT_EQUIVALENT


def cmd_compare(args):
    record, cfg, manifest = _inputs(args, "compare")
    model = _build_model(record)
    names = [name.strip() for name in args.solver.split(",")]
    for name in names:
        if name not in SOLVERS:
            raise SchemaError(f"unknown solver {name!r}")
    rows = []
    for name in names:
        res = SOLVERS[name](model, default_start(record.dim), cfg)
        rows.append(
            {
                "solver": name,
                "f_final": res.f_final,
                "grad_norm": res.grad_norm,
                "purity": purity(res.rho_final),
                "iters": res.iters,
                "fevals": res.fevals,
                "reason": res.reason.value,
            }
        )
    write_json_atomic(args.out, {"manifest": manifest, "rows": rows})
    return EXIT_OK


def _checked(kind, ok, rule):
    """An argparse type: `kind` of the text, which `ok` must accept."""

    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: 'x'" names it
    return parse


positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
# float64, in which the counts are drawn, holds every integer up to 2^53 exactly
shots_int = _checked(int, lambda v: 1 <= v <= 2**53, "a positive integer <= 2^53")
nonnegative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
positive_float = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
nonnegative_float = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
# "" would name the directory above the working one as the output's folder
out_path = _checked(str, bool, "a non-empty path")


# built once per process and shared: parse_args leaves it as it was, so a
# caller must not change it either
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="tomomle",
        description="Quantum state tomography: simulation, reconstruction, "
        "solver comparison, and minimizer-equivalence verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stop_flags(p):
        p.add_argument(
            "--grad-tol", type=positive_float, default=StopConfig.grad_tol,
            help="gradient-norm tolerance (default %(default)g)",
        )
        p.add_argument(
            "--step-tol", type=nonnegative_float, default=None, help="default: grad-tol^2"
        )
        p.add_argument(
            "--fun-tol", type=nonnegative_float, default=None, help="default: grad-tol^2"
        )
        p.add_argument("--max-iters", type=nonnegative_int, default=None)
        p.add_argument("--max-fevals", type=nonnegative_int, default=None)

    p = sub.add_parser("simulate", help="simulate measurement counts")
    p.add_argument("--state", required=True, help="preset (H,V,D,R,mixed,bell) or matrix file")
    p.add_argument("--povm", default="pol4", help="POVM preset (pol4, pol4x4)")
    p.add_argument("--shots", type=shots_int, required=True)
    p.add_argument("--noise", choices=["none", "gaussian", "poisson"], default="none")
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--out", type=out_path, required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct a state from a record")
    p.add_argument("record")
    p.add_argument("--method", choices=["linear", "mle"], default="mle")
    p.add_argument("--solver", choices=sorted(SOLVERS), default="lm")
    add_stop_flags(p)
    p.add_argument(
        "--verbose", action="store_true",
        help="print the solver's per-iteration trace to stderr, one iter= line each",
    )
    p.add_argument("--out", type=out_path, required=True)
    p.set_defaults(func=cmd_reconstruct, seed=None)  # no --seed: the manifest's is null

    p = sub.add_parser("verify-minima", help="multistart equivalence verification")
    p.add_argument("record")
    p.add_argument("--starts", type=positive_int, default=50)
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument(
        "--constrain-signs",
        action="store_true",
        help="solve on the unit sphere once per diagonal sign orthant",
    )
    p.add_argument("--rho-tol", type=nonnegative_float, default=1e-3)
    p.add_argument("--f-tol", type=nonnegative_float, default=1e-6)
    add_stop_flags(p)
    p.add_argument("--out", type=out_path, required=True)
    p.set_defaults(func=cmd_verify_minima, solver="lm")  # LM only: the manifest names it

    p = sub.add_parser("compare", help="run several solvers on one record")
    p.add_argument("record")
    p.add_argument("--solver", default="lm,nelder-mead", help="comma-separated solver list")
    add_stop_flags(p)
    p.add_argument("--out", type=out_path, required=True)
    p.set_defaults(func=cmd_compare, seed=None)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # an overflow shows in the documents as numerical-failure and null
        with np.errstate(all="ignore"):
            return args.func(args)
    except (OSError, TomographyError) as exc:
        code = next(code for kind, code in EXIT_FOR_ERROR if isinstance(exc, kind))
        message = f"cannot write {args.out}: {exc}" if code == EXIT_UNWRITABLE else exc
        print(f"error: {message}", file=sys.stderr)
        if isinstance(exc, AllRunsFailedError):
            for diag in exc.diagnostics:
                print(f"  discarded: {strict_json(diag)}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
