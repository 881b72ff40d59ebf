"""Quantum state tomography: linear inversion and Cholesky-parameterized MLE."""

__version__ = "0.1.0"

from .hermitian import (
    eig_hermitian,
    fidelity,
    pauli_basis,
    purity,
    stokes_decompose,
    stokes_reconstruct,
)
from .inversion import InversionReport, build_b_matrix, linear_invert
from .likelihood import ObjectiveEvaluation, ObjectiveModel, value_and_gradient
from .measurement import (
    MeasurementOperator,
    MeasurementRecord,
    born_probability,
    normalize,
    polarization_projectors,
    read_record,
    simulate_counts,
    tensor_povm,
    write_record,
)
from .optimizers import (
    OptimizationResult,
    StopConfig,
    StopReason,
    constrained_sign_solve,
    gradient_descent,
    levenberg_marquardt,
    lm_block,
    nelder_mead,
)
from .parameterize import build_T, in_r_star_star, inverse_param, rho_of_t
from .verify import (
    MultistartReport,
    equivalence_check,
    gradient_check,
    multistart,
    orthant_multistart,
)
