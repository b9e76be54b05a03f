import json
import math

import numpy as np
import pytest

from probranch import cli
from probranch.branching import Calibration, load_calibration, save_calibration
from probranch.model import (
    FORMAT_VERSION,
    InvariantViolationError,
    LinearRow,
    MalformedDocumentError,
    MipInstance,
    check_feasible,
    deserialize,
    serialize,
)
from probranch.generators import (
    gen_ca,
    gen_knapsack_uniform,
    gen_mkp,
    gen_scp,
    read_family,
    write_family,
)
from probranch.predict import (
    LogisticModel,
    Prediction,
    load_model,
    load_prediction,
    save_model,
    save_prediction,
)


def simple_instance():
    return MipInstance(
        name="pair",
        sense="maximize",
        num_binary=2,
        num_continuous=0,
        objective=[(0, 1.0), (1, 1.0)],
        rows=[LinearRow(coeffs=[(0, 1.0), (1, 1.0)], sense="<=", rhs=1.0)],
    )


class TestSerialization:
    def test_single_variable_empty_objective_round_trip(self):
        inst = MipInstance(
            name="one",
            sense="minimize",
            num_binary=1,
            num_continuous=0,
            objective=[],
            rows=[LinearRow(coeffs=[(0, 1.0)], sense="<=", rhs=1.0)],
        )
        inst.validate()
        assert deserialize(serialize(inst)) == inst

    def test_generated_family_round_trip(self):
        fam = gen_mkp(2, 4, 3, seed=7)
        for _, inst in fam.instances:
            assert deserialize(serialize(inst)) == inst

    def test_infinite_bound_sentinel(self):
        inst = MipInstance(
            name="mixed",
            sense="minimize",
            num_binary=1,
            num_continuous=1,
            objective=[(1, 2.0)],
            rows=[LinearRow(coeffs=[(0, 1.0), (1, 1.0)], sense="<=", rhs=4.0)],
            continuous_bounds=[(0.0, math.inf)],
        )
        inst.validate()
        data = serialize(inst)
        assert b'"inf"' in data
        assert deserialize(data) == inst

    def test_round_trip_over_generator_seeds(self):
        for seed in range(5):
            for fam in (
                gen_mkp(2, 6, 2, seed),
                gen_scp(5, 8, 0.3, 2, seed),
                gen_ca(5, 8, 2, seed),
            ):
                for _, inst in fam.instances:
                    assert deserialize(serialize(inst)) == inst
            uk = gen_knapsack_uniform(12, 0.3, seed)
            assert deserialize(serialize(uk.instance)) == uk.instance

    def test_truncated_document_is_malformed(self):
        data = serialize(simple_instance())
        with pytest.raises(MalformedDocumentError) as err:
            deserialize(data[: len(data) // 2])
        assert err.value.position is not None

    def test_out_of_range_index_is_invariant_violation(self):
        doc = json.loads(serialize(simple_instance()).decode())
        doc["rows"][0]["coeffs"] = [[2, 1.0]]  # index n+d is out of range
        with pytest.raises(InvariantViolationError):
            deserialize(json.dumps(doc).encode())

    def test_duplicate_index_rejected(self):
        doc = json.loads(serialize(simple_instance()).decode())
        doc["rows"][0]["coeffs"] = [[0, 1.0], [0, 2.0]]
        with pytest.raises(InvariantViolationError):
            deserialize(json.dumps(doc).encode())

    def test_bad_format_version(self):
        doc = json.loads(serialize(simple_instance()).decode())
        doc["format_version"] = 99
        with pytest.raises(MalformedDocumentError):
            deserialize(json.dumps(doc).encode())

    def test_missing_field(self):
        doc = json.loads(serialize(simple_instance()).decode())
        del doc["rows"]
        with pytest.raises(MalformedDocumentError):
            deserialize(json.dumps(doc).encode())


def write_document(kind, root):
    """One valid document of ``kind`` under ``root``, written by its own writer.

    Returns its path, the loader that reads it, one of its required
    fields, and the CLI arguments whose command reads it through that
    loader.
    """
    inst_path = root / "pair.json"
    inst_path.write_bytes(serialize(simple_instance()))
    exact = ["solve", "--instance", str(inst_path), "--mode", "exact"]
    if kind == "instance":
        return (inst_path, lambda p: deserialize(p.read_bytes()), "rows",
                ["solve", "--instance", str(inst_path), "--mode", "plain"])
    if kind == "prediction":
        path = root / "preds" / "pair.pred.json"
        path.parent.mkdir()
        save_prediction(Prediction(np.array([0.2, 0.9]), source="external"), path)
        return (path, lambda p: load_prediction(p, 2), "predictions",
                exact + ["--predictor", f"file:{path.parent}"])
    if kind == "model":
        path = root / "model.json"
        save_model(LogisticModel(np.zeros((2, 1)), np.zeros(2), np.zeros(1), np.ones(1), 1e-4),
                   path)
        return path, load_model, "weights", exact + ["--predictor", "logistic", "--model", str(path)]
    if kind == "calibration":
        path = root / "calib.json"
        save_calibration(Calibration(tau_star=0.9, sigma=0.0, delta=0.05), path)
        return path, load_calibration, "tau_star", exact + ["--calibration", str(path)]
    family = write_family(gen_mkp(2, 4, 3, seed=1), root / "family")
    return (family / "manifest.json", lambda p: read_family(p.parent), "instances",
            ["train", "--family", str(family), "--out", str(root / "model_out.json")])


@pytest.mark.parametrize("kind", ["instance", "prediction", "model", "calibration", "manifest"])
def test_every_loader_rejects_a_malformed_document(tmp_path, capsys, kind):
    path, load, field, argv = write_document(kind, tmp_path)
    valid = path.read_bytes()
    load(path)
    doc = json.loads(valid)
    assert doc["format_version"] == FORMAT_VERSION
    wrong_version = dict(doc, format_version=99)
    missing = {k: v for k, v in doc.items() if k != field}
    mistyped = dict(doc, **{field: [["abc"]]})
    for data, message in (
        (valid[:-1], "Expecting"),
        (json.dumps(wrong_version).encode(), "unsupported format_version 99"),
        (json.dumps(missing).encode(), f"missing field '{field}'"),
        (json.dumps(mistyped).encode(), "bad document structure"),
    ):
        path.write_bytes(data)
        with pytest.raises(MalformedDocumentError, match=message):
            load(path)
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "model_out.json").exists()


class TestValidation:
    def test_empty_row_rejected(self):
        inst = simple_instance()
        inst.rows.append(LinearRow(coeffs=[], sense="<=", rhs=0.0))
        with pytest.raises(InvariantViolationError):
            inst.validate()

    def test_nonfinite_coefficient_rejected(self):
        inst = simple_instance()
        inst.objective = [(0, math.inf)]
        with pytest.raises(InvariantViolationError):
            inst.validate()

    def test_needs_a_variable(self):
        inst = MipInstance("none", "minimize", 0, 0, [], [])
        with pytest.raises(InvariantViolationError):
            inst.validate()


class TestCheckFeasible:
    def test_feasible_point(self):
        ok, violated = check_feasible(simple_instance(), [1.0, 0.0])
        assert ok and violated == []

    def test_violated_row_reported(self):
        ok, violated = check_feasible(simple_instance(), [1.0, 1.0])
        assert not ok and violated == [0]

    def test_boundary_residual_is_feasible(self):
        tol = 1e-6
        ok, violated = check_feasible(simple_instance(), [1.0, tol], tol=tol)
        assert ok and violated == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_feasible(simple_instance(), [1.0])

    def test_agrees_with_dense_evaluation(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            fam = gen_scp(6, 9, 0.3, 1, seed)
            _, inst = fam.instances[0]
            a, senses, b = inst.constraint_arrays()
            values = rng.random(inst.num_vars)
            ok, violated = check_feasible(inst, values)
            lhs = a @ values
            expected = [
                r
                for r in range(len(senses))
                if (lhs[r] - b[r] if senses[r] == "<=" else b[r] - lhs[r]) > 1e-6
            ]
            assert violated == expected
            assert ok == (not expected)
