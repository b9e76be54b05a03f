"""The calibration's accuracy curves against a one-instance-at-a-time
oracle, and the calibration file's bytes."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from oracles import reference_accuracy_curves
from probranch import branching, cli
from probranch.branching import (
    AccuracyStats,
    Calibration,
    accuracy_curves,
    calibrate,
    load_calibration,
    save_calibration,
)
from probranch.generators import gen_mkp, write_family
from probranch.model import MalformedDocumentError

NAN = math.nan


def random_pairs(rng, kind):
    """2-30 (prediction, label) pairs over 1-40 variables; labels follow
    the probabilities loosely, so accuracies spread over [0, 1]."""
    m, n = int(rng.integers(2, 31)), int(rng.integers(1, 41))
    if kind == "uniform":
        p = rng.random((m, n))
    elif kind == "two-decimals":  # ties with grid points such as 0.9 and 0.1
        p = np.round(rng.random((m, n)), 2)
    else:  # few distinct values: whole sides stay empty
        p = rng.choice([0.0, 0.05, 0.5, 0.95, 1.0], size=(m, n))
    y = (rng.random((m, n)) < np.clip(p + rng.normal(0.0, 0.2, (m, n)), 0, 1)).astype(float)
    return list(zip(p, y))


def calibrated(pairs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cal = calibrate(pairs)
    return cal.tau_star, cal.sigma, cal.stats is None, [str(w.message) for w in caught]


@pytest.mark.parametrize("kind", ["uniform", "two-decimals", "few-values"])
def test_accuracy_curves_equal_the_per_instance_oracle(monkeypatch, kind):
    rng = np.random.default_rng(["uniform", "two-decimals", "few-values"].index(kind))
    for _ in range(100):
        pairs = random_pairs(rng, kind)
        got, want = accuracy_curves(pairs), reference_accuracy_curves(pairs)
        for f in dataclasses.fields(AccuracyStats):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), f.name
        fast = calibrated(pairs)
        with monkeypatch.context() as m:
            m.setattr(branching, "accuracy_curves", lambda _: want)
            assert calibrated(pairs) == fast


PINNED = Calibration(tau_star=0.9, sigma=0.125, delta=0.05, stats=AccuracyStats(
    tau_grid=np.array([0.8, 0.9, 1.0]),
    mean_alpha_l=np.array([0.75, 1.0, NAN]),
    var_alpha_l=np.array([0.0625, 0.0, NAN]),
    mean_alpha_u=np.array([0.5, 0.875, 1.0]),
    var_alpha_u=np.array([0.25, 0.015625, 0.0]),
    mean_size_l=np.array([2.0, 0.5, 0.0]),
    mean_size_u=np.array([3.0, 2.0, 0.5]),
    num_valid_l=np.array([2, 1, 0]),
    num_valid_u=np.array([2, 2, 1]),
))
PINNED_BYTES = (
    b'{"format_version": 1, "tau_star": 0.9, "sigma": 0.125, "delta": 0.05, "stats": '
    b'{"tau_grid": [0.8, 0.9, 1.0], "mean_alpha_l": [0.75, 1.0, null], '
    b'"var_alpha_l": [0.0625, 0.0, null], "mean_alpha_u": [0.5, 0.875, 1.0], '
    b'"var_alpha_u": [0.25, 0.015625, 0.0], "mean_size_l": [2.0, 0.5, 0.0], '
    b'"mean_size_u": [3.0, 2.0, 0.5], "num_valid_l": [2, 1, 0], "num_valid_u": [2, 2, 1]}}'
)


def test_a_calibration_file_has_pinned_bytes(tmp_path):
    path = tmp_path / "c.json"
    save_calibration(PINNED, path)
    assert path.read_bytes() == PINNED_BYTES
    save_calibration(dataclasses.replace(PINNED, stats=None), path)
    assert path.read_bytes() == (
        b'{"format_version": 1, "tau_star": 0.9, "sigma": 0.125, "delta": 0.05, "stats": null}')


def test_load_then_save_keeps_the_bytes(tmp_path):
    path, again = tmp_path / "c.json", tmp_path / "again.json"
    path.write_bytes(PINNED_BYTES)
    back = load_calibration(path)
    assert back.stats.num_valid_u.dtype.kind == "i" and math.isnan(back.stats.mean_alpha_l[2])
    save_calibration(back, again)
    assert again.read_bytes() == PINNED_BYTES
    rng = np.random.default_rng(7)
    for t in range(50):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            save_calibration(calibrate(random_pairs(rng, ("uniform", "two-decimals",
                                                          "few-values")[t % 3])), path)
        save_calibration(load_calibration(path), again)
        assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("column", ["mean_alpha_u", "var_alpha_l", "num_valid_u"])
def test_a_stats_column_off_the_grid_length_is_rejected(tmp_path, capsys, column):
    stats = accuracy_curves([
        (np.array([0.95, 0.92, 0.03, 0.6]), np.array([1.0, 0.0, 0.0, 1.0])),
        (np.array([0.91, 0.05, 0.08, 0.5]), np.array([1.0, 1.0, 0.0, 0.0])),
    ])
    bad = tmp_path / "bad.json"
    save_calibration(Calibration(0.9, 0.25, 0.05, stats), bad)
    doc = json.loads(bad.read_text())
    doc["stats"][column] = doc["stats"][column][:3]
    bad.write_text(json.dumps(doc))
    message = f"stats column {column} has 3 entries for 50 grid points"
    with pytest.raises(ValueError, match=message):
        load_calibration(bad)
    family = write_family(gen_mkp(2, 6, 1, seed=1), tmp_path / "mkp")
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--instance", str(family / "instance_0000.json"),
                     "--calibration", str(bad), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_calibration_file_with_a_nan_or_infinite_sigma_is_rejected(tmp_path):
    # json reads NaN and Infinity as floats, and NaN passes sigma < 0
    path = tmp_path / "c.json"
    for value in ("NaN", "Infinity"):
        path.write_text('{"format_version": 1, "tau_star": 0.9, "sigma": %s, "delta": 0.05, '
                        '"stats": null}' % value)
        with pytest.raises(ValueError, match="sigma must be finite and non-negative"):
            load_calibration(path)


def test_a_calibration_field_holding_a_string_boolean_or_null_is_rejected_naming_it(tmp_path):
    stats = accuracy_curves([
        (np.array([0.95, 0.92, 0.03, 0.6]), np.array([1.0, 0.0, 0.0, 1.0])),
        (np.array([0.91, 0.05, 0.08, 0.5]), np.array([1.0, 1.0, 0.0, 0.0])),
    ])
    path, bad = tmp_path / "c.json", tmp_path / "bad.json"
    save_calibration(Calibration(0.9, 0.25, 0.05, stats), path)
    doc = json.loads(path.read_text())
    for field, value in (("tau_star", "0.9"), ("sigma", "0.5"), ("sigma", True),
                         ("delta", None), ("delta", [0.05])):
        bad.write_text(json.dumps(dict(doc, **{field: value})))
        with pytest.raises(MalformedDocumentError, match=f"{field}: .* is not a number"):
            load_calibration(bad)
    # a count column takes integers only: 2.5 is not truncated to 2
    number, integer = "a number", "an integer"
    for column, value, kind in (("var_alpha_l", "0.01", number), ("mean_size_u", False, number),
                                ("num_valid_l", None, integer), ("num_valid_u", "2", integer),
                                ("num_valid_l", 2.5, integer)):
        stats_doc = dict(doc["stats"])
        stats_doc[column] = [value] + stats_doc[column][1:]
        bad.write_text(json.dumps(dict(doc, stats=stats_doc)))
        with pytest.raises(MalformedDocumentError, match=f"column {column}: .* is not {kind}"):
            load_calibration(bad)
    # a float column still reads null as NaN
    stats_doc = dict(doc["stats"], var_alpha_l=[None] + doc["stats"]["var_alpha_l"][1:])
    bad.write_text(json.dumps(dict(doc, stats=stats_doc)))
    assert math.isnan(load_calibration(bad).stats.var_alpha_l[0])
