"""Which tomomle functions the traced run wraps, and the per-layer metrics
made from their spans and return values."""

from tracer import Tracer

# Span names whose calls, self time and self time per call are reported.
TIMED = (
    "likelihood.residuals_and_jacobian",
    "likelihood.value",
    "likelihood.value_and_gradient",
    "parameterize.build_T",
    "parameterize.rho_of_t",
    "verify.multistart",
    "inversion.build_b_matrix",
    "measurement.read_record",
    "measurement.write_json_atomic",
)
# Span names whose self time alone is reported.
SELF_ONLY = (
    "optimizers.levenberg_marquardt",
    "optimizers.gradient_descent",
    "optimizers.nelder_mead",
    "verify.equivalence_check",
    "inversion.linear_invert",
    "hermitian.pauli_basis",
    "cli",
)
SOLVER_SPANS = (
    "optimizers.levenberg_marquardt",
    "optimizers.gradient_descent",
    "optimizers.nelder_mead",
    "optimizers.constrained_sign_solve",
)
STOP_REASONS = (
    "gradient-tolerance",
    "step-stagnation",
    "function-stagnation",
    "max-iterations",
    "max-function-evals",
    "param-bound-hit",
    "numerical-failure",
)
COUNTERS = (
    "optimizers.iters",
    "optimizers.fevals",
    *(f"optimizers.stop.{reason}" for reason in STOP_REASONS),
    "verify.equivalence_check.pairs",
    "verify.discarded",
)
QUALITY_UNITS = {"stationary_frac": "frac", "rho_err_max": "frobenius", "equiv_margin": "ratio"}


def _solver_done(counters, args, result):
    counters["optimizers.iters"] += result.iters
    counters["optimizers.fevals"] += result.fevals
    counters["optimizers.stop." + result.reason.value] += 1


def _jacobian_done(counters, args, result):
    t, model = args
    # A_mu = O_mu T^dag for every operator: m complex d x d products
    counters["jacobian.flops"] += 8 * len(model.povm) * model.dim**3


def _multistart_done(counters, args, report):
    counters["verify.discarded"] += report.discarded_count


def _equivalence_done(counters, args, result):
    n = len(args[0])
    counters["verify.equivalence_check.pairs"] += n * (n - 1) // 2


def make_tracer(prog):
    """A tracer with every wrap target bound in the given program modules."""
    cli, lik, opt, par = prog.cli, prog.likelihood, prog.optimizers, prog.parameterize
    tr = Tracer()
    tr.add_target(
        "likelihood.residuals_and_jacobian", [(lik, "residuals_and_jacobian")], _jacobian_done
    )
    tr.add_target("likelihood.value", [(lik, "value")])
    tr.add_target("likelihood.value_and_gradient", [(lik, "value_and_gradient")])
    tr.add_target("parameterize.build_T", [(lik, "build_T"), (par, "build_T")])
    tr.add_target("parameterize.rho_of_t", [(opt, "rho_of_t")])
    tr.add_target(
        "optimizers.levenberg_marquardt",
        [(opt.SOLVERS, "lm"), (opt, "levenberg_marquardt")],
        _solver_done,
    )
    tr.add_target("optimizers.gradient_descent", [(opt.SOLVERS, "gd")], _solver_done)
    tr.add_target("optimizers.nelder_mead", [(opt.SOLVERS, "nelder-mead")], _solver_done)
    tr.add_target("optimizers.constrained_sign_solve", [(prog.verify, "constrained_sign_solve")])
    tr.add_target("verify.multistart", [(cli, "multistart")], _multistart_done)
    tr.add_target("verify.equivalence_check", [(cli, "equivalence_check")], _equivalence_done)
    tr.add_target("inversion.linear_invert", [(cli, "linear_invert")])
    tr.add_target("inversion.build_b_matrix", [(prog.inversion, "build_b_matrix")])
    tr.add_target("hermitian.pauli_basis", [(cli, "pauli_basis")])
    tr.add_target("measurement.read_record", [(cli, "read_record")])
    tr.add_target("measurement.write_json_atomic", [(cli, "write_json_atomic")])
    return tr


def layer_metrics(tracer, batches, traced_wall_s, untraced_wall_s, traced_batch_s, quality):
    """{name: (value per traced batch, unit)} for every per-layer metric.

    traced_wall_s / untraced_wall_s are the median batch times of the two
    kinds; traced_batch_s is the summed time of all traced batches.
    """
    per = tracer.self_times()
    counters = tracer.counters
    m = {}
    for name in TIMED:
        calls, self_s = per.get(name, (0, 0.0))
        m[f"{name}.calls"] = (calls / batches, "count")
        m[f"{name}.self_s"] = (self_s / batches, "s")
        m[f"{name}.us_per_call"] = (1e6 * self_s / calls if calls else 0.0, "us")
    jac_s = per.get("likelihood.residuals_and_jacobian", (0, 0.0))[1]
    m["likelihood.residuals_and_jacobian.gflops_computed"] = (
        counters["jacobian.flops"] / jac_s / 1e9 if jac_s else 0.0, "GFLOP/s"
    )
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (per.get(name, (0, 0.0))[1] / batches, "s")
    for name in SOLVER_SPANS:
        m[f"{name}.calls"] = (per.get(name, (0, 0.0))[0] / batches, "count")
    for key in COUNTERS:
        m[key] = (counters[key] / batches, "count")
    for key, unit in QUALITY_UNITS.items():
        m[f"quality.{key}"] = (quality[key], unit)
    m["trace.overhead_frac"] = (traced_wall_s / untraced_wall_s - 1.0, "frac")
    m["trace.accounted_frac"] = (tracer.root_seconds() / traced_batch_s, "frac")
    m["trace.spans"] = (len(tracer.start) / batches, "count")
    return m
