"""Measurement operators, Born probabilities, synthetic counts, and record files.

The four polarization projectors |H>, |V>, |D>, |R> are the single-qubit
workhorse set; multi-qubit setups are built with `tensor_povm`.  The four
projectors do not form a single POVM (they do not sum to the identity): each
is treated as an independent measurement setting, and informational
completeness is checked downstream via the rank of the linear-inversion
system.
"""

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError, NumericalError, SchemaError

MAX_TENSOR_DIM = 256


@dataclass(frozen=True)
class MeasurementOperator:
    """A labelled positive-semidefinite operator."""

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if np.linalg.eigvalsh(m)[0] < -1e-10:
            raise NumericalError(f"operator {self.label!r} is not positive semidefinite")


@dataclass
class MeasurementRecord:
    """Raw counts for a list of measurement settings.

    `normalization` is either a positive number N (counts[i]/N are the
    frequencies) or the policy string "per-basis-group", in which case
    `basis_groups` partitions the settings and each group is normalized by
    its own count sum.
    """

    operators: list
    counts: np.ndarray
    normalization: object
    basis_groups: list = field(default_factory=list)
    seed: int | None = None

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.counts) != len(self.operators):
            raise DimensionError(
                f"{len(self.counts)} counts for {len(self.operators)} operators"
            )
        if np.any(self.counts < 0):
            raise SchemaError("counts must be nonnegative")
        if isinstance(self.normalization, str):
            if self.normalization != "per-basis-group":
                raise SchemaError(f"unknown normalization policy {self.normalization!r}")
            if not self.basis_groups:
                raise SchemaError("per-basis-group normalization requires basis_groups")
        elif not self.normalization > 0:
            raise SchemaError("normalization must be positive")

    @property
    def dim(self):
        return self.operators[0].matrix.shape[0]


def _ket_projector(label, vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return MeasurementOperator(label, np.outer(v, v.conj()))


def polarization_projectors():
    """Rank-1 projectors onto |H>, |V>, |D>, |R>, in that order."""
    return [
        _ket_projector("H", [1, 0]),
        _ket_projector("V", [0, 1]),
        _ket_projector("D", [1 / np.sqrt(2), 1 / np.sqrt(2)]),
        _ket_projector("R", [1 / np.sqrt(2), -1j / np.sqrt(2)]),
    ]


def tensor_povm(sets, max_dim=MAX_TENSOR_DIM):
    """All Kronecker products across the given operator lists, lexicographic order."""
    if any(len(s) == 0 for s in sets):
        raise DimensionError("every factor set must be nonempty")
    dim = 1
    for s in sets:
        dim *= s[0].matrix.shape[0]
    if dim > max_dim:
        raise CapacityError(f"tensor dimension {dim} exceeds the cap {max_dim}")
    out = [MeasurementOperator("", np.ones((1, 1), dtype=complex))]
    for s in sets:
        out = [
            MeasurementOperator(a.label + b.label, np.kron(a.matrix, b.matrix))
            for a in out
            for b in s
        ]
    return out


def born_probability(op, rho):
    """tr(O rho); real within numerical noise, raised if not."""
    m = op.matrix if isinstance(op, MeasurementOperator) else np.asarray(op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if m.shape != rho.shape:
        raise DimensionError(f"operator {m.shape} vs state {rho.shape}")
    val = np.trace(m @ rho)
    if abs(val.imag) >= 1e-10:
        raise NumericalError(f"Born probability has imaginary part {val.imag}")
    return float(val.real)


def simulate_counts(rho, povm, n_per_setting, noise="none", seed=0):
    """Synthetic counts: n_per_setting shots per setting.

    noise="gaussian" draws round(Normal(n_bar, sqrt(n_bar))) per setting,
    clamped at zero; "poisson" draws Poisson(n_bar); "none" rounds the
    expected counts.  Deterministic given the seed.
    """
    if n_per_setting < 1:
        raise ValueError("n_per_setting must be >= 1")
    probs = np.array([born_probability(op, rho) for op in povm])
    expected = n_per_setting * np.clip(probs, 0.0, None)
    rng = np.random.default_rng(seed)
    if noise == "none":
        counts = np.rint(expected)
    elif noise == "gaussian":
        counts = np.rint(rng.normal(expected, np.sqrt(expected)))
    elif noise == "poisson":
        counts = rng.poisson(expected).astype(float)
    else:
        raise ValueError(f"unknown noise model {noise!r}")
    counts = np.clip(counts, 0, None).astype(np.int64)
    return MeasurementRecord(
        operators=list(povm),
        counts=counts,
        normalization=float(n_per_setting),
        seed=seed,
    )


def normalize(record):
    """Normalized frequencies n_mu / N under the record's normalization policy."""
    counts = record.counts.astype(float)
    if isinstance(record.normalization, str):
        freqs = np.empty_like(counts)
        seen = np.zeros(len(counts), dtype=bool)
        for group in record.basis_groups:
            total = counts[list(group)].sum()
            if total <= 0:
                raise SchemaError(f"basis group {group} has zero total counts")
            freqs[list(group)] = counts[list(group)] / total
            seen[list(group)] = True
        if not seen.all():
            raise SchemaError("basis_groups do not cover every setting")
        return freqs
    if counts.sum() <= 0:
        raise SchemaError("record has zero total counts")
    return counts / float(record.normalization)


# --- record files -----------------------------------------------------------

_PRESETS = {
    "pol4": lambda: polarization_projectors(),
    "pol4x4": lambda: tensor_povm([polarization_projectors(), polarization_projectors()]),
}


def povm_preset(name):
    try:
        return _PRESETS[name]()
    except KeyError:
        raise SchemaError(f"unknown POVM preset {name!r}") from None


def _matrix_to_pairs(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_pairs(pairs):
    try:
        return np.array([[complex(re, im) for re, im in row] for row in pairs])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed matrix entry: {exc}") from exc


def record_to_dict(record, preset=None):
    doc = {
        "dim": int(record.dim),
        "operators": preset
        if preset
        else [
            {"label": op.label, "matrix": _matrix_to_pairs(op.matrix)}
            for op in record.operators
        ],
        "counts": [int(c) for c in record.counts],
        "normalization": record.normalization,
    }
    if record.basis_groups:
        doc["basis_groups"] = [list(map(int, g)) for g in record.basis_groups]
    if record.seed is not None:
        doc["seed"] = int(record.seed)
    return doc


def record_from_dict(doc):
    try:
        dim = int(doc["dim"])
        ops_spec = doc["operators"]
        counts = doc["counts"]
        n_counts = len(counts)
        normalization = doc["normalization"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"record is missing or has a malformed field: {exc}") from exc
    if isinstance(ops_spec, str):
        operators = povm_preset(ops_spec)
    else:
        operators = [
            MeasurementOperator(entry.get("label", ""), _matrix_from_pairs(entry["matrix"]))
            for entry in ops_spec
        ]
    if not operators:
        raise SchemaError("record lists no operators")
    if n_counts != len(operators):
        raise SchemaError(f"{n_counts} counts for {len(operators)} operators")
    if operators[0].matrix.shape[0] != dim:
        raise SchemaError(
            f"declared dim {dim} does not match operator dimension "
            f"{operators[0].matrix.shape[0]}"
        )
    return MeasurementRecord(
        operators=operators,
        counts=np.asarray(counts),
        normalization=normalization,
        basis_groups=[tuple(g) for g in doc.get("basis_groups", [])],
        seed=doc.get("seed"),
    )


def write_json_atomic(path, doc):
    """Serialize to JSON via a temp file + rename; no partial output on failure."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_record(path, record, preset=None):
    write_json_atomic(path, record_to_dict(record, preset=preset))


def read_record(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    return record_from_dict(doc)
