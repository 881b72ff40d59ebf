import json
import os

import numpy as np
import pytest

from tomomle.errors import CapacityError, DimensionError, NumericalError, SchemaError
from tomomle.measurement import (
    MeasurementOperator,
    MeasurementRecord,
    born_probability,
    normalize,
    polarization_projectors,
    povm_preset,
    read_record,
    record_from_dict,
    record_to_dict,
    simulate_counts,
    tensor_povm,
    write_record,
)


def test_polarization_projectors():
    ops = polarization_projectors()
    assert [op.label for op in ops] == ["H", "V", "D", "R"]
    for op in ops:
        assert np.trace(op.matrix) == pytest.approx(1.0)
        assert np.allclose(op.matrix @ op.matrix, op.matrix)
    # circular projector uses the (1, -i)/sqrt(2) ket
    R = ops[3].matrix
    assert R[0, 1] == pytest.approx(0.5j)
    assert R[1, 0] == pytest.approx(-0.5j)


def test_operator_rejects_indefinite():
    with pytest.raises(NumericalError):
        MeasurementOperator("bad", np.diag([1.0, -1.0]))


def test_tensor_povm_order_and_dim():
    ops = tensor_povm([polarization_projectors(), polarization_projectors()])
    assert len(ops) == 16
    assert ops[0].label == "HH"
    assert ops[1].label == "HV"
    assert ops[4].label == "VH"
    assert ops[0].matrix.shape == (4, 4)
    hh = np.kron(polarization_projectors()[0].matrix, polarization_projectors()[0].matrix)
    assert np.allclose(ops[0].matrix, hh)


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
    rec = MeasurementRecord(
        polarization_projectors(),
        [30, 10, 25, 75],
        "per-basis-group",
        basis_groups=[(0, 1)],
    )
    with pytest.raises(SchemaError):
        normalize(rec)


def test_record_file_roundtrip(tmp_path):
    rec = MeasurementRecord(polarization_projectors(), [9, 1, 5, 5], 10.0, seed=3)
    path = tmp_path / "r.rec"
    write_record(path, rec, preset="pol4")
    back = read_record(path)
    assert np.array_equal(back.counts, rec.counts)
    assert back.normalization == 10.0
    assert back.seed == 3
    assert [op.label for op in back.operators] == ["H", "V", "D", "R"]
    # preset name stored instead of explicit matrices
    doc = json.loads(path.read_text())
    assert doc["operators"] == "pol4"


def test_record_explicit_matrices_roundtrip(tmp_path):
    rec = MeasurementRecord(polarization_projectors(), [9, 1, 5, 5], 10.0)
    path = tmp_path / "r.rec"
    write_record(path, rec)
    back = read_record(path)
    for a, b in zip(back.operators, rec.operators):
        assert np.allclose(a.matrix, b.matrix)


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


def test_record_to_dict_counts_are_plain_ints():
    rec = MeasurementRecord(polarization_projectors(), [9, 1, 5, 5], 10.0)
    doc = record_to_dict(rec, preset="pol4")
    assert all(type(c) is int for c in doc["counts"])
