"""Measurement operators, Born probabilities, synthetic counts, and record files.

An operator set is one complex (m, d, d) array, O_mu = ops[mu], from the
record file to the likelihood kernels.  The four polarization projectors
|H>, |V>, |D>, |R> are the single-qubit workhorse set; multi-qubit setups
are built with `tensor_povm`, which lives in `hermitian` beside the one
tensor-size cap and is re-exported here.  The four projectors do not form a
single POVM (they do not sum to the identity): each is treated as an
independent measurement setting, and informational completeness is checked
downstream via the rank of the linear-inversion system.
"""

import gc
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DimensionError, NumericalError, SchemaError
from .hermitian import REAL_TRACE_TOL, check_density_matrix, check_psd_stack, tensor_povm


@dataclass
class MeasurementRecord:
    """Raw counts for a stack of measurement settings.

    Construction is the one check of every field's values, for a record
    made in Python and one read from a file alike (record_from_dict checks
    only the JSON shape): `operators` is a finite, Hermitian, positive-
    semidefinite complex (m, d, d) stack; `counts` m nonnegative integers
    (not bools or floats) within int64; `labels` m strings naming the
    settings, or none; `seed` an integer or None.  `normalization` is a
    positive finite int or float N, not a bool (counts[i]/N are the
    frequencies), or the policy "per-basis-group", in which case
    `basis_groups`, lists of setting indices in [0, m), must partition the
    settings (normalize checks it) and each group is normalized by its own
    count sum.
    """

    operators: np.ndarray
    counts: np.ndarray
    normalization: object
    basis_groups: list = field(default_factory=list)
    seed: int | None = None
    labels: tuple = ()

    def __post_init__(self):
        self.operators = check_psd_stack(self.operators)
        m = len(self.operators)
        counts = self.counts.tolist() if isinstance(self.counts, np.ndarray) else self.counts
        if not isinstance(counts, (list, tuple)) or not all(map(_is_int, counts)):
            raise SchemaError("counts must be a list of integers")
        try:
            self.counts = np.asarray(counts, dtype=np.int64)
        except OverflowError as exc:
            raise SchemaError(f"a count is out of range: {exc}") from exc
        if len(self.counts) != m:
            raise DimensionError(f"{len(self.counts)} counts for {m} operators")
        self.labels = tuple(self.labels)
        if self.labels and len(self.labels) != m:
            raise DimensionError(f"{len(self.labels)} labels for {m} operators")
        if not all(isinstance(label, str) for label in self.labels):
            raise SchemaError("operator labels must be strings")
        if self.seed is not None and not _is_int(self.seed):
            raise SchemaError(f"seed must be an integer or null, not {self.seed!r}")
        groups = self.basis_groups
        if not isinstance(groups, (list, tuple)) or not all(
            isinstance(group, (list, tuple)) and all(_is_int(i) and 0 <= i < m for i in group)
            for group in groups
        ):
            raise SchemaError(
                f"basis_groups must be a list of lists of setting indices in [0, {m})"
            )
        self.basis_groups = [tuple(group) for group in groups]
        if np.any(self.counts < 0):
            raise SchemaError("counts must be nonnegative")
        n = self.normalization
        if isinstance(n, str):
            if n != "per-basis-group":
                raise SchemaError(f"unknown normalization policy {n!r}")
            if not self.basis_groups:
                raise SchemaError("per-basis-group normalization requires basis_groups")
        elif isinstance(n, bool) or not isinstance(n, (int, float)):
            raise SchemaError(
                f"normalization must be a number or 'per-basis-group', not {n!r}"
            )
        elif not 0 < n <= sys.float_info.max:
            raise SchemaError(f"normalization must be positive and finite, not {n!r}")

    @property
    def dim(self):
        return self.operators.shape[1]


def _is_int(value):
    """An integer, Python's or numpy's, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _ket_projector(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def polarization_projectors():
    """Stack of the rank-1 projectors onto |H>, |V>, |D>, |R>, in that order."""
    return np.stack(
        [
            _ket_projector([1, 0]),
            _ket_projector([0, 1]),
            _ket_projector([1 / np.sqrt(2), 1 / np.sqrt(2)]),
            _ket_projector([1 / np.sqrt(2), -1j / np.sqrt(2)]),
        ]
    )


def born_probability(op, rho):
    """tr(O rho); real within numerical noise, raised if not."""
    m = np.asarray(op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if m.shape != rho.shape:
        raise DimensionError(f"operator {m.shape} vs state {rho.shape}")
    val = np.trace(m @ rho)
    if abs(val.imag) >= REAL_TRACE_TOL:
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
        operators=povm,
        counts=counts,
        normalization=float(n_per_setting),
        seed=seed,
    )


def normalize(record):
    """Normalized frequencies n_mu / N under the record's normalization policy.

    Under "per-basis-group" every setting must be in exactly one group.
    """
    counts = record.counts.astype(float)
    if isinstance(record.normalization, str):
        freqs = np.empty_like(counts)
        for group in record.basis_groups:
            total = counts[list(group)].sum()
            if total <= 0:
                raise SchemaError(f"basis group {group} has zero total counts")
            freqs[list(group)] = counts[list(group)] / total
        memberships = np.bincount(list(chain(*record.basis_groups)), minlength=len(counts))
        stray = np.flatnonzero(memberships != 1)
        if len(stray):
            raise SchemaError(
                f"setting {stray[0]} is in {memberships[stray[0]]} basis groups, not exactly one"
            )
        return freqs
    if counts.sum() <= 0:
        raise SchemaError("record has zero total counts")
    return counts / float(record.normalization)


# --- record files -----------------------------------------------------------

_PRESETS = {
    "pol4": polarization_projectors,
    "pol4x4": lambda: tensor_povm([polarization_projectors()] * 2),
}


def povm_preset(name):
    try:
        return _PRESETS[name]()
    except KeyError:
        raise SchemaError(f"unknown POVM preset {name!r}") from None


def _operator_entries(record):
    """The explicit operator list: each matrix as rows of [re, im] pairs."""
    ops = record.operators
    labels = record.labels or ("",) * len(ops)
    pairs = np.stack([ops.real, ops.imag], axis=-1).tolist()
    return [{"label": label, "matrix": m} for label, m in zip(labels, pairs)]


def record_to_dict(record, preset=None):
    doc = {
        "dim": int(record.dim),
        "operators": preset or _operator_entries(record),
        "counts": [int(c) for c in record.counts],
        "normalization": record.normalization,
    }
    if record.basis_groups:
        doc["basis_groups"] = [list(map(int, g)) for g in record.basis_groups]
    if record.seed is not None:
        doc["seed"] = int(record.seed)
    return doc


def _operators_from_list(entries):
    """The operator stack and the labels of an explicit operator list."""
    if not entries:
        raise SchemaError("record lists no operators")
    try:
        labels = tuple(entry.get("label", "") for entry in entries)
        matrices = [entry["matrix"] for entry in entries]
    except (AttributeError, KeyError) as exc:
        raise SchemaError("an operator entry is not an object with a matrix") from exc
    return _matrices_from_pairs(matrices), labels


def _matrices_from_pairs(matrices):
    """One complex (m, d, d) stack from a nonempty list of m matrices, each d
    rows of d [re, im] pairs of JSON numbers (int or float, not bool), as
    JSON decoding gives them; all are checked and converted in one flat
    pass."""
    d = len(matrices[0]) if type(matrices[0]) is list else 0
    if d == 0:
        raise SchemaError("matrices must be nonempty lists of rows")
    rows = _chained(matrices, d, f"matrix must be a list of {d} rows")
    pairs = _chained(rows, d, f"matrix row must be a list of {d} [re, im] pairs")
    # In decoded JSON, an entry of length 2 that flattens into numbers is a
    # list: a 2-character string or a 2-key object flattens into strings.
    # So the per-entry type check runs only to word the error.
    try:
        numbers = list(chain.from_iterable(pairs)) if set(map(len, pairs)) == {2} else ()
    except TypeError:
        numbers = ()
    if not numbers or not set(map(type, numbers)) <= {int, float}:
        _chained(pairs, 2, "matrix entry must be a [re, im] pair")
        raise SchemaError("every matrix entry must be a pair of numbers")
    try:
        flat = np.array(numbers, dtype=float)
    except OverflowError as exc:
        raise SchemaError(f"malformed matrix: {exc}") from exc
    return flat.view(complex).reshape(len(matrices), d, d)


def _chained(items, n, rule):
    """The elements of `items`, one flat list, after checking that every item
    is a list of length n."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {n}:
        raise SchemaError(f"every {rule}")
    return list(chain.from_iterable(items))


def record_from_dict(doc):
    """The record a decoded JSON document holds, or SchemaError; only the
    JSON shape is checked here, and MeasurementRecord checks the values."""
    try:
        dim = doc["dim"]
        ops_spec = doc["operators"]
        counts = doc["counts"]
        normalization = doc["normalization"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"record is missing or has a malformed field: {exc}") from exc
    if type(dim) is not int:
        raise SchemaError(f"dim must be an integer, not {dim!r}")
    if type(counts) is not list:
        raise SchemaError("counts must be a list of integers")
    if isinstance(ops_spec, str):
        operators, labels = povm_preset(ops_spec), ()
    elif isinstance(ops_spec, list):
        operators, labels = _operators_from_list(ops_spec)
    else:
        raise SchemaError("operators must be a preset name or a list of operator objects")
    if operators.shape[1] != dim:
        raise SchemaError(
            f"declared dim {dim} does not match operator dimension {operators.shape[1]}"
        )
    try:
        return MeasurementRecord(
            operators=operators,
            counts=counts,
            normalization=normalization,
            basis_groups=doc.get("basis_groups", []),
            seed=doc.get("seed"),
            labels=labels,
        )
    except (DimensionError, NumericalError) as exc:
        raise SchemaError(str(exc)) from exc


def _nulled(obj):
    """obj with every non-finite float in it replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _nulled(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulled(value) for value in obj]
    return obj


def strict_json(obj, indent=None):
    """obj as strict JSON text: a non-finite float (inf, -inf, nan), which
    JSON cannot hold, is written as null."""
    return json.dumps(_nulled(obj), indent=indent, allow_nan=False)


def write_json_atomic(path, doc):
    """Serialize to strict JSON (see strict_json) via a temp file + rename;
    no partial output on failure."""
    text = strict_json(doc, indent=2)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_record(path, record, preset=None):
    write_json_atomic(path, record_to_dict(record, preset=preset))


@contextmanager
def _collector_paused():
    """Cyclic garbage collection off for the block, then back as it was.

    Decoding a record allocates one list per matrix row and per [re, im]
    pair, about 70,000 for a 4-qubit record, none of them in a reference
    cycle; with the collector on, that burst sets off collections that
    rescan the growing tree."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _read_json(path, decode):
    """decode(doc) for the JSON document in the file at `path`, decoded with
    the cyclic collector paused; a file that cannot be opened or read, or
    holds no valid JSON, raises SchemaError, as `decode` must on a bad doc."""
    with _collector_paused():
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise SchemaError(str(exc)) from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
        value = decode(doc)
        del doc  # the parse tree goes before the collector resumes
    return value


def read_record(path):
    """The record in the JSON file at `path`; a file that cannot be opened or
    read raises SchemaError, as does one that holds no valid record."""
    return _read_json(path, record_from_dict)


def _state_from_dict(doc):
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise SchemaError('a state file must be an object with a "matrix" field')
    try:
        return check_density_matrix(_matrices_from_pairs([doc["matrix"]])[0])
    except NumericalError as exc:
        raise SchemaError(f"not a density matrix: {exc}") from exc


def read_state(path):
    """The density matrix in the JSON state file {"matrix": rows of [re, im]
    pairs} at `path`, under the record matrix rules, or SchemaError."""
    return _read_json(path, _state_from_dict)
