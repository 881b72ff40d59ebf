import gc
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tomomle import measurement
from tomomle.errors import CapacityError, DimensionError, NumericalError, SchemaError
from tomomle.measurement import (
    MeasurementRecord,
    born_probability,
    normalize,
    polarization_projectors,
    povm_preset,
    read_record,
    read_state,
    record_from_dict,
    record_to_dict,
    simulate_counts,
    strict_json,
    tensor_povm,
    write_record,
)


def test_polarization_projectors():
    ops = polarization_projectors()
    assert ops.shape == (4, 2, 2)
    for op in ops:
        assert np.trace(op) == pytest.approx(1.0)
        assert np.allclose(op @ op, op)
    # circular projector uses the (1, -i)/sqrt(2) ket
    R = ops[3]
    assert R[0, 1] == pytest.approx(0.5j)
    assert R[1, 0] == pytest.approx(-0.5j)


def test_operator_rejects_indefinite():
    pol = polarization_projectors()
    with pytest.raises(NumericalError):
        MeasurementRecord([np.diag([1.0, -1.0])], [1], 1.0)
    with pytest.raises(DimensionError):
        MeasurementRecord(np.ones((2, 2, 3)), [1, 1], 1.0)  # non-square
    with pytest.raises(DimensionError):
        MeasurementRecord([np.eye(2), np.eye(3)], [1, 1], 1.0)  # ragged
    with pytest.raises(DimensionError):
        MeasurementRecord(np.zeros((1, 0, 0)), [1], 1.0)  # d = 0
    with pytest.raises(DimensionError):
        MeasurementRecord(pol, [1, 1, 1, 1], 1.0, labels=("H", "V"))
    # PSD is checked to 1e-10, Hermiticity to 1e-12, and only finite entries pass
    MeasurementRecord([np.diag([1.0, -1e-11])], [1], 1.0)
    for bad in (np.diag([1.0, -1e-9]), [[1, 1e-11], [0, 0]], [[1, 0], [0, np.nan]]):
        with pytest.raises(NumericalError):
            MeasurementRecord([bad], [1], 1.0)


def test_tensor_povm_order_and_dim():
    H, V = polarization_projectors()[:2]
    ops = tensor_povm([polarization_projectors(), polarization_projectors()])
    assert ops.shape == (16, 4, 4)
    assert (ops[0] == np.kron(H, H)).all()
    assert (ops[1] == np.kron(H, V)).all()
    assert (ops[4] == np.kron(V, H)).all()


def test_tensor_povm_capacity():
    pol = polarization_projectors()
    with pytest.raises(CapacityError):
        tensor_povm([pol] * 9)


def test_born_probability():
    rho = np.diag([0.75, 0.25]).astype(complex)
    ops = polarization_projectors()
    assert born_probability(ops[0], rho) == pytest.approx(0.75)
    assert born_probability(ops[2], rho) == pytest.approx(0.5)
    with pytest.raises(DimensionError):
        born_probability(ops[0], np.eye(4) / 4)


def test_simulate_counts_deterministic():
    rho = np.diag([0.6, 0.4]).astype(complex)
    pol = polarization_projectors()
    a = simulate_counts(rho, pol, 1000, noise="poisson", seed=5)
    b = simulate_counts(rho, pol, 1000, noise="poisson", seed=5)
    c = simulate_counts(rho, pol, 1000, noise="poisson", seed=6)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_simulate_counts_noiseless_rounds():
    rho = np.diag([0.6, 0.4]).astype(complex)
    rec = simulate_counts(rho, polarization_projectors(), 1000, noise="none")
    assert list(rec.counts) == [600, 400, 500, 500]
    with pytest.raises(ValueError):
        simulate_counts(rho, polarization_projectors(), 1000, noise="bogus")
    with pytest.raises(ValueError):
        simulate_counts(rho, polarization_projectors(), 0)


def test_record_validation():
    pol = polarization_projectors()
    with pytest.raises(DimensionError):
        MeasurementRecord(pol, [1, 2, 3], 10.0)
    with pytest.raises(SchemaError):
        MeasurementRecord(pol, [1, 2, 3, -1], 10.0)
    with pytest.raises(SchemaError):
        MeasurementRecord(pol, [1, 2, 3, 4], 0.0)
    with pytest.raises(SchemaError):
        MeasurementRecord(pol, [1, 2, 3, 4], "per-basis-group")
    with pytest.raises(SchemaError):
        MeasurementRecord(pol, [1, 2, 3, 4], "bogus-policy")


@pytest.mark.parametrize(
    "normalization",
    [None, [1], {}, True, False, -1, 0, float("nan"), float("inf"), 10**400, "10"],
)
def test_record_rejects_normalization_of_wrong_type_or_range(normalization):
    with pytest.raises(SchemaError):
        MeasurementRecord(polarization_projectors(), [1, 2, 3, 4], normalization)


@pytest.mark.parametrize("normalization", [1, 10**6, 1e-300, 2.5, np.float64(4.0)])
def test_record_accepts_positive_finite_normalization(normalization):
    rec = MeasurementRecord(polarization_projectors(), [1, 2, 3, 4], normalization)
    assert rec.normalization == normalization


def _pol4_doc(**fields):
    doc = {"dim": 2, "operators": "pol4", "counts": [1, 2, 3, 4], "normalization": 10}
    return {**doc, **fields}


def _pol4_matrices():
    """The pol4 settings as explicit matrices of [re, im] pairs."""
    return [np.stack([m.real, m.imag], axis=-1).tolist() for m in polarization_projectors()]


@pytest.mark.parametrize("seed", ["abc", True, 1.5, [1], {}])
def test_record_from_dict_rejects_non_integer_seed(seed):
    with pytest.raises(SchemaError):
        record_from_dict(_pol4_doc(seed=seed))


@pytest.mark.parametrize("seed", [None, 0, -3, 2**70])
def test_record_from_dict_reads_integer_or_null_seed(seed):
    assert record_from_dict(_pol4_doc(seed=seed)).seed == seed


@pytest.mark.parametrize("label", [5, 1.5, None, True, ["H"]])
def test_record_from_dict_rejects_non_string_label(label):
    operators = [{"label": "", "matrix": m} for m in _pol4_matrices()]
    operators[2]["label"] = label
    with pytest.raises(SchemaError):
        record_from_dict(_pol4_doc(operators=operators))


# one bad field value each, as MeasurementRecord keywords; a record made in
# Python and one read from a file must refuse it with one message
BAD_FIELDS = {
    "negative-group-index": {"basis_groups": [(0, 1), (2, -1)]},
    "group-index-m": {"basis_groups": [(0, 1), (2, 5)], "normalization": "per-basis-group"},
    "group-index-bool": {"basis_groups": [(0, 1), (2, True)]},
    "groups-not-a-list": {"basis_groups": "0123"},
    "number-labels": {"labels": (1, 2, 3, 4)},
    "null-label": {"labels": ("H", None, "D", "R")},
    "float-seed": {"seed": 1.5},
    "bool-seed": {"seed": True},
    "string-seed": {"seed": "1"},
    "count-2^63": {"counts": [2**63, 2, 3, 4]},
    "float-count": {"counts": [1.9, 2, 3, 4]},
    "integral-float-count": {"counts": [1.0, 2, 3, 4]},
    "bool-count": {"counts": [True, 2, 3, 4]},
}


def _explicit_pol4_doc(fields):
    """The JSON document of a pol4 record with listed operators and the given
    MeasurementRecord fields, passed through JSON text."""
    labels = fields.get("labels", ("",) * 4)
    doc = {
        "dim": 2,
        "operators": [{"label": label, "matrix": m} for label, m in zip(labels, _pol4_matrices())],
        "counts": [1, 2, 3, 4],
        "normalization": 10,
        **{k: v for k, v in fields.items() if k != "labels"},
    }
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("fields", BAD_FIELDS.values(), ids=BAD_FIELDS)
def test_record_and_file_refuse_a_bad_field_with_one_message(fields):
    with pytest.raises(SchemaError) as made:
        MeasurementRecord(
            **{"operators": polarization_projectors(), "counts": [1, 2, 3, 4],
               "normalization": 10, **fields}
        )
    with pytest.raises(SchemaError) as read:
        record_from_dict(_explicit_pol4_doc(fields))
    assert str(made.value) == str(read.value)


# operator entries that a record file refuses ("every matrix entry must be a
# pair of numbers"): a record made in Python refuses them too, by dtype,
# before it converts them
NOT_NUMBER_OPERATORS = {"string": [[["1"]]], "bool": [[[True]]], "object": [[[{}]]]}


@pytest.mark.parametrize("operators", NOT_NUMBER_OPERATORS.values(), ids=NOT_NUMBER_OPERATORS)
def test_record_refuses_operator_entries_that_are_not_numbers(operators):
    with pytest.raises(DimensionError, match="^operator entries must be numbers, not "):
        MeasurementRecord(operators=operators, counts=[1], normalization=1)


def test_record_accepts_integer_float_and_complex_operators():
    for operators in ([[[1]]], [[[np.uint8(1)]]], [[[np.float32(1)]]], [[[1 + 0j]]]):
        rec = MeasurementRecord(operators=operators, counts=[1], normalization=1)
        assert rec.operators.dtype == complex and rec.operators.tolist() == [[[1]]]


def test_record_accepts_numpy_integers():
    rec = MeasurementRecord(
        polarization_projectors(), [np.int64(1), np.uint64(2), 3, 4], 10,
        basis_groups=[(np.int64(0), 1), (2, 3)], seed=np.int64(7),
    )
    assert rec.counts.tolist() == [1, 2, 3, 4]
    assert record_from_dict(json.loads(strict_json(record_to_dict(rec)))).seed == 7


def test_normalize_single_constant():
    rec = MeasurementRecord(polarization_projectors(), [600, 400, 500, 500], 1000.0)
    assert normalize(rec) == pytest.approx([0.6, 0.4, 0.5, 0.5])


def test_normalize_per_basis_group():
    rec = MeasurementRecord(
        polarization_projectors(),
        [30, 10, 25, 75],
        "per-basis-group",
        basis_groups=[(0, 1), (2, 3)],
    )
    assert normalize(rec) == pytest.approx([0.75, 0.25, 0.25, 0.75])


def test_normalize_incomplete_groups():
    # groups must partition the settings: none left out, none counted twice
    for groups in ([(0, 1)], [(0, 1), (1, 2, 3)], [(0, 0, 1), (2, 3)]):
        rec = MeasurementRecord(
            polarization_projectors(),
            [30, 10, 25, 75],
            "per-basis-group",
            basis_groups=groups,
        )
        with pytest.raises(SchemaError, match="not exactly one"):
            normalize(rec)


def test_record_file_roundtrip(tmp_path):
    rec = MeasurementRecord(polarization_projectors(), [9, 1, 5, 5], 10.0, seed=3)
    path = tmp_path / "r.rec"
    write_record(path, rec, preset="pol4")
    back = read_record(path)
    assert np.array_equal(back.counts, rec.counts)
    assert back.normalization == 10.0
    assert back.seed == 3
    assert np.array_equal(back.operators, rec.operators)
    # preset name stored instead of explicit matrices
    doc = json.loads(path.read_text())
    assert doc["operators"] == "pol4"


def test_record_explicit_matrices_roundtrip(tmp_path):
    rec = MeasurementRecord(polarization_projectors(), [9, 1, 5, 5], 10.0)
    path = tmp_path / "r.rec"
    write_record(path, rec)
    back = read_record(path)
    assert np.array_equal(back.operators, rec.operators)
    assert back.labels == ("",) * 4


def test_record_schema_errors(tmp_path):
    bad = tmp_path / "bad.rec"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        read_record(bad)
    with pytest.raises(SchemaError):
        record_from_dict({"dim": 2})
    with pytest.raises(SchemaError):
        record_from_dict(
            {"dim": 4, "operators": "pol4", "counts": [1, 1, 1, 1], "normalization": 4}
        )
    with pytest.raises(SchemaError):
        record_from_dict(
            {"dim": 2, "operators": "pol4", "counts": [1, 1, 1], "normalization": 4}
        )
    with pytest.raises(SchemaError):
        record_from_dict({"dim": 2, "operators": [], "counts": [], "normalization": 4})
    with pytest.raises(SchemaError):
        povm_preset("nope")


def test_atomic_write_leaves_no_temp(tmp_path):
    rec = MeasurementRecord(polarization_projectors(), [9, 1, 5, 5], 10.0)
    path = tmp_path / "r.rec"
    write_record(path, rec, preset="pol4")
    assert sorted(os.listdir(tmp_path)) == ["r.rec"]


def test_atomic_write_bytes_match_json_dump(tmp_path):
    rec = MeasurementRecord(polarization_projectors(), [9, 1, 5, 5], 10.0, seed=3)
    doc = record_to_dict(rec)
    path = tmp_path / "r.rec"
    write_record(path, rec)
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def json_trees(floats):
    """Nested dicts, lists and tuples whose float leaves are drawn from
    `floats`, as Python or numpy floats."""
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=3),
        floats, floats.map(np.float64),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=3), inner, max_size=4),
        ),
        max_leaves=20,
    )


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _nonfinite_as_none(obj):
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {key: _nonfinite_as_none(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nonfinite_as_none(value) for value in obj]
    return obj


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(json_trees(st.floats(allow_nan=False, allow_infinity=False)))
def test_strict_json_of_finite_values_is_json_dumps(obj):
    for indent in (None, 2):
        assert strict_json(obj, indent=indent) == json.dumps(obj, indent=indent)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(json_trees(st.floats()))
def test_strict_json_writes_non_finite_floats_as_null(obj):
    for indent in (None, 2):
        text = strict_json(obj, indent=indent)
        assert json.loads(text, parse_constant=_refuse_constant) == _nonfinite_as_none(obj)


def test_strict_json_nulls_non_finite_floats_at_any_depth():
    obj = {"a": [1.5, (float("nan"), {"b": np.float64("-inf")})], "c": float("inf")}
    text = strict_json(obj)
    assert text == '{"a": [1.5, [null, {"b": null}]], "c": null}'
    assert json.loads(text, parse_constant=_refuse_constant)["c"] is None


def test_record_to_dict_counts_are_plain_ints():
    rec = MeasurementRecord(polarization_projectors(), [9, 1, 5, 5], 10.0)
    doc = record_to_dict(rec, preset="pol4")
    assert all(type(c) is int for c in doc["counts"])


@st.composite
def records(draw):
    """Records with a random PSD stack A A^dag (d <= 4), labels, counts,
    normalization, basis_groups and seed."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    parts = draw(arrays(float, (2, m, d, d), elements=st.floats(-1.0, 1.0)))
    a = parts[0] + 1j * parts[1]
    index = st.integers(0, m - 1)
    groups = draw(st.lists(st.lists(index, min_size=1, max_size=m), max_size=3))
    normalization = draw(
        st.one_of(
            st.floats(1e-300, 1e300),
            st.integers(1, 10**6),
            st.just("per-basis-group") if groups else st.nothing(),
        )
    )
    return MeasurementRecord(
        a @ a.conj().swapaxes(1, 2),
        draw(st.lists(st.integers(0, 2**63 - 1), min_size=m, max_size=m)),
        normalization,
        basis_groups=[tuple(g) for g in groups],
        seed=draw(st.none() | st.integers(0, 2**32)),
        labels=draw(st.lists(st.text(max_size=4), min_size=m, max_size=m)),
    )


def _per_entry_operators(entries):
    """The per-entry conversion that explicit operator lists once went through."""
    return np.array(
        [[[complex(re, im) for re, im in row] for row in e["matrix"]] for e in entries],
        dtype=complex,
    )


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(records())
def test_record_roundtrip_is_exact(rec):
    doc = json.loads(json.dumps(record_to_dict(rec)))
    back = record_from_dict(doc)
    assert back.operators.tobytes() == rec.operators.tobytes()
    assert back.operators.tobytes() == _per_entry_operators(doc["operators"]).tobytes()
    assert back.labels == rec.labels
    assert back.counts.tobytes() == rec.counts.tobytes()
    assert type(back.normalization) is type(rec.normalization)
    assert back.normalization == rec.normalization
    assert back.basis_groups == rec.basis_groups
    assert back.seed == rec.seed


@st.composite
def record_fields(draw):
    """MeasurementRecord fields over a random PSD stack (d <= 4), each drawn
    from values a record accepts and, less often, values it refuses."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    parts = draw(arrays(float, (2, m, d, d), elements=st.floats(-1.0, 1.0)))
    a = parts[0] + 1j * parts[1]

    def mostly(good, *bad):
        return draw(st.one_of(good, good, good, st.sampled_from(bad)))

    count = st.integers(0, 2**63 - 1) | st.sampled_from([0, 2**63 - 1, np.int64(7)])
    counts = mostly(st.lists(count, min_size=m, max_size=m), [2**63] * m, [-1] * m, [1.0] * m)
    index = st.integers(0, m - 1) | st.sampled_from([np.int64(0)])
    groups = mostly(
        st.lists(st.lists(index, max_size=m).map(tuple), max_size=3),
        [(m,)], [(-1,)], [(True,)], [[0.0]],
    )
    normalization = draw(
        st.floats(1e-300, 1e300) | st.integers(1, 10**6) | st.just("per-basis-group")
    )
    return {
        "operators": a @ a.conj().swapaxes(1, 2),
        "counts": counts,
        "normalization": normalization,
        "basis_groups": groups,
        "seed": mostly(st.none() | st.integers(-(2**70), 2**70), 1.5, True, "1", np.int64(3)),
        "labels": mostly(
            st.just(()) | st.lists(st.text(max_size=4), min_size=m, max_size=m),
            (None,) * m, (1,) * m,
        ),
    }


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(record_fields())
def test_every_record_that_constructs_reads_back_from_its_file(tmp_path_factory, fields):
    try:
        rec = MeasurementRecord(**fields)
    except SchemaError:
        return
    path = tmp_path_factory.mktemp("record") / "r.rec"
    write_record(path, rec)
    back = read_record(path)
    # a record made without labels is written with empty ones
    want = {**vars(rec), "labels": rec.labels or ("",) * len(rec.counts)}
    for name, value in vars(back).items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == want[name].tobytes(), name
        else:
            assert value == want[name], name
    assert type(back.normalization) is type(rec.normalization)


NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, -0.0, 2**53 + 1, 0.1]),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=d, max_size=d),
             min_size=d, max_size=d),
    min_size=1, max_size=3,
)))
def test_operator_conversion_reads_ints_and_floats_like_complex(matrices):
    """JSON ints and floats, huge ints and -0.0 included, convert to the bits
    complex(re, im) gives them."""
    entries = [{"matrix": m} for m in matrices]
    ops, labels = measurement._operators_from_list(entries)
    assert ops.tobytes() == _per_entry_operators(entries).tobytes()
    assert labels == ("",) * len(matrices)


NOT_A_LIST = st.one_of(
    st.text(max_size=3),
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
NOT_A_NUMBER = st.one_of(
    st.text(max_size=3),
    st.sampled_from(["0.5", "1", "NaN"]),
    st.none(),
    st.booleans(),
    st.lists(st.floats(0, 1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@st.composite
def malformed_operator_lists(draw):
    """The pol4 settings as an explicit list with one defect: a ragged matrix
    or row, a pair of the wrong length, a non-number entry, one nesting level
    too many, or a non-list in place of a matrix, row or pair."""
    mats = _pol4_matrices()
    mu, i, j, k = (draw(st.integers(0, n)) for n in (3, 1, 1, 1))
    kind = draw(st.sampled_from([
        "entry", "pair-length", "pair", "row-length", "row", "matrix-length", "matrix",
        "nested-matrix", "nested-pair",
    ]))
    if kind == "entry":
        mats[mu][i][j][k] = draw(NOT_A_NUMBER)
    elif kind == "pair-length":
        mats[mu][i][j] = draw(st.sampled_from([[], [0.5], [0.5, 0.0, 0.0]]))
    elif kind == "pair":
        mats[mu][i][j] = draw(NOT_A_LIST)
    elif kind == "row-length":
        mats[mu][i] = mats[mu][i][:1] if draw(st.booleans()) else mats[mu][i] + [[0.0, 0.0]]
    elif kind == "row":
        mats[mu][i] = draw(NOT_A_LIST)
    elif kind == "matrix-length":
        mats[mu] = mats[mu][:1] if draw(st.booleans()) else mats[mu] + [[[0.0, 0.0]] * 2]
    elif kind == "matrix":
        mats[mu] = draw(NOT_A_LIST)
    elif kind == "nested-matrix":
        mats[mu] = [mats[mu]]
    else:
        mats[mu][i][j] = [mats[mu][i][j]]
    return [{"label": "", "matrix": m} for m in mats]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(malformed_operator_lists())
def test_malformed_operator_lists_raise_schema_error(operators):
    doc = json.loads(json.dumps(_pol4_doc(operators=operators)))
    with pytest.raises(SchemaError):
        record_from_dict(doc)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(malformed_operator_lists())
def test_malformed_matrices_in_state_files_raise_schema_error(tmp_path_factory, operators):
    """State files follow the record matrix rules: the defective matrix of
    each malformed operator list, alone in a state file, is rejected."""
    pristine = [json.dumps(m) for m in _pol4_matrices()]
    defective = [e["matrix"] for e, m in zip(operators, pristine) if json.dumps(e["matrix"]) != m]
    assert len(defective) == 1
    path = tmp_path_factory.getbasetemp() / "state.json"
    path.write_text(json.dumps({"matrix": defective[0]}))
    with pytest.raises(SchemaError):
        read_state(path)


def _set_collector(enabled):
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "text, ok",
    [
        (json.dumps(_pol4_doc()), True),
        ("{not json", False),
        (json.dumps(_pol4_doc(normalization=None)), False),
    ],
    ids=["valid", "bad-json", "bad-schema"],
)
def test_read_record_restores_collector_state(tmp_path, monkeypatch, enabled, text, ok):
    path = tmp_path / "r.rec"
    path.write_text(text)
    seen = []
    decode = measurement.record_from_dict

    def spy(doc):
        seen.append(gc.isenabled())
        return decode(doc)

    monkeypatch.setattr(measurement, "record_from_dict", spy)
    was_enabled = gc.isenabled()
    try:
        _set_collector(enabled)
        if ok:
            read_record(path)
        else:
            with pytest.raises(SchemaError):
                read_record(path)
        assert gc.isenabled() is enabled
    finally:
        _set_collector(was_enabled)
    # the collector is paused while the decoded document is alive
    assert seen == ([] if text.startswith("{not") else [False])


def test_read_record_starts_no_collection(tmp_path):
    """The collector resumes only after the decoded document is released, so
    no collection walks the parse tree of a record of the 4-qubit
    benchmark's shape: 256 explicit 16 x 16 operators."""
    ops = tensor_povm([polarization_projectors()] * 4)
    path = tmp_path / "q4.rec"
    write_record(path, MeasurementRecord(ops, np.ones(len(ops), dtype=int), 256.0))
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was_enabled = gc.isenabled()
    _set_collector(True)
    gc.collect()
    gc.callbacks.append(hook)
    try:
        read_record(path)
    finally:
        gc.callbacks.remove(hook)
        _set_collector(was_enabled)
    assert started == []


NOT_A_PAIR = "every matrix entry must be a [re, im] pair"
NOT_NUMBERS = "every matrix entry must be a pair of numbers"
MALFORMED_PAIRS = [
    ([], NOT_A_PAIR),
    ([0.5], NOT_A_PAIR),
    ([0.5, 0, 0], NOT_A_PAIR),
    ("ab", NOT_A_PAIR),
    ({"a": 1, "b": 2}, NOT_A_PAIR),
    (5, NOT_A_PAIR),
    (None, NOT_A_PAIR),
    ([True, 0], NOT_NUMBERS),
    (["0.5", 0], NOT_NUMBERS),
    ([[0.5], 0], NOT_NUMBERS),
]
PAIR_IDS = ["empty", "one", "three", "string", "object", "number", "null",
            "bool-entry", "string-entry", "list-entry"]


@pytest.mark.parametrize("pair, message", MALFORMED_PAIRS, ids=PAIR_IDS)
def test_malformed_pair_in_record_file_names_its_rule(tmp_path, pair, message):
    mats = _pol4_matrices()
    mats[2][1][0] = pair
    path = tmp_path / "r.rec"
    path.write_text(json.dumps(_pol4_doc(operators=[{"matrix": m} for m in mats])))
    with pytest.raises(SchemaError) as exc:
        read_record(path)
    assert str(exc.value) == message


@pytest.mark.parametrize("pair, message", MALFORMED_PAIRS, ids=PAIR_IDS)
def test_malformed_pair_in_state_file_names_its_rule(tmp_path, pair, message):
    matrix = _pol4_matrices()[0]
    matrix[1][0] = pair
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"matrix": matrix}))
    with pytest.raises(SchemaError) as exc:
        read_state(path)
    assert str(exc.value) == message
