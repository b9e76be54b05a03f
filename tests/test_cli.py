import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import binary_enumeration
from probranch import bench, cli
from probranch.bench import LemmaReport
from probranch.bnb import solve_mip
from probranch.branching import Calibration, accuracy_curves, save_calibration, sigma_from_stats
from probranch.generators import InstanceFamily, gen_mkp, write_family
from probranch.model import LinearRow, MipInstance, deserialize
from probranch.predict import load_model, lp_root_predict, save_prediction


@pytest.fixture(scope="module")
def family_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("clifam") / "scp"
    code = cli.main([
        "generate", "--kind", "scp", "--m", "8", "--n", "12",
        "--density", "0.3", "--count", "16", "--seed", "3",
        "--out", str(path),
    ])
    assert code == 0
    return path


def test_generate_writes_manifest(family_dir):
    manifest = json.loads((family_dir / "manifest.json").read_text())
    assert manifest["kind"] == "scp"
    assert len(manifest["instances"]) == 16


def test_generate_knapsack_instance(tmp_path):
    out = tmp_path / "knap.json"
    assert cli.main([
        "generate", "--kind", "knapsack", "--n", "30", "--gamma", "0.3",
        "--seed", "2", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["num_binary"] == 30


def test_train_calibrate_solve_pipeline(tmp_path):
    # auction labels vary from instance to instance, so train fits real models
    family = tmp_path / "ca"
    assert cli.main([
        "generate", "--kind", "ca", "--items", "8", "--bids", "16",
        "--count", "16", "--seed", "1", "--out", str(family),
    ]) == 0
    model = tmp_path / "model.json"
    assert cli.main([
        "train", "--family", str(family), "--train-count", "12",
        "--out", str(model),
    ]) == 0
    assert sum(k > 0 for k in json.loads(model.read_text())["iterations"]) > 0
    calib = tmp_path / "calib.json"
    assert cli.main([
        "calibrate", "--family", str(family), "--model", str(model),
        "--train-count", "12", "--out", str(calib),
    ]) == 0
    report = tmp_path / "sol.json"
    assert cli.main([
        "solve", "--instance", str(family / "instance_0014.json"),
        "--predictor", "logistic", "--model", str(model),
        "--calibration", str(calib), "--mode", "exact", "--out", str(report),
    ]) == 0
    doc = json.loads(report.read_text())
    assert doc["status"] == "optimal"
    assert doc["mode"] == "exact"
    assert len(doc["regions"]) >= 1


@pytest.mark.parametrize("fraction", ["1.5", "0", "-0.2"])
def test_calibrate_rejects_a_fraction_outside_zero_one(tmp_path, capsys, family_dir, fraction):
    # the held-out share is fixed (bench.CALIB_FRACTION), as in bench, so
    # --calib-fraction is a usage error whatever its value
    model, calib = tmp_path / "model.json", tmp_path / "calib.json"
    assert cli.main(["train", "--family", str(family_dir), "--train-count", "12",
                     "--out", str(model)]) == 0
    assert cli.main(["calibrate", "--family", str(family_dir), "--model", str(model),
                     "--train-count", "12", "--calib-fraction", fraction,
                     "--out", str(calib)]) == 1
    assert "--calib-fraction" in capsys.readouterr().err
    assert not calib.exists()


def test_cli_and_bench_fit_and_calibrate_alike(tmp_path, monkeypatch):
    # the CI walkthrough family: train and calibrate, then bench on the
    # same 12 training instances, fit on 10 and calibrated on the last 2
    family = tmp_path / "ca"
    assert cli.main([
        "generate", "--kind", "ca", "--items", "8", "--bids", "16",
        "--count", "16", "--seed", "1", "--out", str(family),
    ]) == 0
    model, calib = tmp_path / "model.json", tmp_path / "calib.json"
    common = ["--family", str(family), "--train-count", "12"]
    assert cli.main(["train", *common, "--out", str(model)]) == 0
    assert cli.main(["calibrate", *common, "--model", str(model), "--out", str(calib)]) == 0

    fitted = []
    fit_model = bench.fit_model

    def spy(*args, **kwargs):
        fitted.append(fit_model(*args, **kwargs))
        return fitted[-1]

    monkeypatch.setattr(bench, "fit_model", spy)
    prefix = tmp_path / "bench"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(["bench", "--family", str(family), "--predictor", "logistic",
                         "--test-count", "4", "--out", str(prefix)]) == 0
    config = json.loads(prefix.with_suffix(".json").read_text())["config"]
    assert config["train_count"] == 12

    (bench_model, _), = fitted
    cli_model = load_model(model)
    for name in ("weights", "intercepts", "feature_mean", "feature_std"):
        assert np.array_equal(getattr(cli_model, name), getattr(bench_model, name)), name
    cal = json.loads(calib.read_text())
    assert (config["tau"], config["sigma"], config["delta"]) == (
        cal["tau_star"], cal["sigma"], cal["delta"])


def test_calibrate_rejects_held_out_instances_the_model_was_fitted_on(tmp_path, capsys):
    # the CI walkthrough family: train on 12 fits instances 0-9, so a
    # calibrate on 10 would hold out 8 and 9
    family = tmp_path / "ca"
    assert cli.main(["generate", "--kind", "ca", "--items", "8", "--bids", "16",
                     "--count", "16", "--seed", "1", "--out", str(family)]) == 0
    model = tmp_path / "model.json"
    assert cli.main(["train", "--family", str(family), "--train-count", "12",
                     "--out", str(model)]) == 0
    assert load_model(model).fitted_on == [f"ca_8x16_{k:03d}" for k in range(10)]
    calib = tmp_path / "calib.json"
    args = ["calibrate", "--family", str(family), "--model", str(model), "--out", str(calib)]
    assert cli.main([*args, "--train-count", "10"]) == 1
    assert ("held-out instances ca_8x16_008, ca_8x16_009 are in the model's fit part"
            in capsys.readouterr().err)
    assert not calib.exists()
    assert cli.main([*args, "--train-count", "12"]) == 0
    assert json.loads(calib.read_text())["tau_star"] == 0.94
    # a model file without the field calibrates as before the field existed
    doc = json.loads(model.read_text())
    del doc["fitted_on"]
    model.write_text(json.dumps(doc))
    assert cli.main([*args, "--train-count", "10"]) == 0
    assert json.loads(calib.read_text())["tau_star"] == 0.99


def test_calibrate_falls_back_on_a_label_constant_family(tmp_path):
    # every optimum takes every item (the one row never binds), so the
    # models predict all ones and every rounded-down set is empty
    rng = np.random.default_rng(2)
    template = MipInstance(
        name="all_ones", sense="maximize", num_binary=4, num_continuous=0,
        objective=[(j, 1.0) for j in range(4)],
        rows=[LinearRow([(j, 1.0) for j in range(4)], "<=", 4.0)],
    )
    instances = []
    for i in range(8):
        c = rng.uniform(1.0, 2.0, 4)
        instances.append((c, replace(
            template, name=f"all_ones_{i}", objective=[(j, float(v)) for j, v in enumerate(c)],
            param_tag=[float(v) for v in c],
        )))
    family = tmp_path / "ones"
    write_family(InstanceFamily(template, "cost_c", instances, seed=2), family)
    model, calib = tmp_path / "model.json", tmp_path / "calib.json"
    assert cli.main(["train", "--family", str(family), "--train-count", "8",
                     "--out", str(model)]) == 0
    with pytest.warns(UserWarning, match="one-sidedly"):
        assert cli.main(["calibrate", "--family", str(family), "--model", str(model),
                         "--train-count", "8", "--out", str(calib)]) == 0
    assert 0.5 < json.loads(calib.read_text())["tau_star"] <= 1.0


def test_user_sigma_replaces_the_measured_one(tmp_path):
    # a measured sigma > 0 at tau*, overridden by sigma = 0
    stats = accuracy_curves([
        (np.array([0.95, 0.92, 0.03, 0.6]), np.array([1.0, 0.0, 0.0, 1.0])),
        (np.array([0.91, 0.05, 0.08, 0.5]), np.array([1.0, 1.0, 0.0, 0.0])),
    ])
    calib = tmp_path / "calib.json"
    save_calibration(Calibration(0.9, sigma_from_stats(stats, 0.9), 0.05, stats), calib)
    family = tmp_path / "mkp"
    write_family(gen_mkp(5, 15, 40, seed=3), family)
    out = tmp_path / "sol.json"
    assert cli.main([
        "solve", "--instance", str(family / "instance_0039.json"),
        "--predictor", "lp-root-simplex", "--calibration", str(calib),
        "--sigma", "0", "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["sigma"] == 0.0
    prefix = tmp_path / "bench"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main([
            "bench", "--family", str(family), "--predictor", "logistic",
            "--sigma", "0", "--test-count", "5", "--out", str(prefix),
        ]) == 0
    assert json.loads(prefix.with_suffix(".json").read_text())["config"]["sigma"] == 0.0


@pytest.mark.parametrize("overrides", [[], ["--tau", "0.8", "--delta", "0.1", "--sigma", "0.01"]])
@pytest.mark.parametrize("predictor", ["lp-root-simplex", "lp-root-ipm", "file"])
def test_solve_and_bench_share_cut_defaults(tmp_path, family_dir, predictor, overrides):
    if predictor == "file":
        predictor = f"file:{tmp_path / 'preds'}"
        (tmp_path / "preds").mkdir()
        for i in (14, 15):
            inst = deserialize((family_dir / f"instance_{i:04d}.json").read_bytes())
            save_prediction(lp_root_predict(inst), tmp_path / "preds" / f"{inst.name}.pred.json")
    out, prefix = tmp_path / "sol.json", tmp_path / "bench"
    assert cli.main([
        "solve", "--instance", str(family_dir / "instance_0015.json"),
        "--predictor", predictor, *overrides, "--out", str(out),
    ]) == 0
    assert cli.main([
        "bench", "--family", str(family_dir), "--predictor", predictor,
        "--test-count", "2", *overrides, "--out", str(prefix),
    ]) == 0
    keys = ("tau", "sigma", "delta", "tightened")
    solved = json.loads(out.read_text())
    config = json.loads(prefix.with_suffix(".json").read_text())["config"]
    assert {k: solved[k] for k in keys} == {k: config[k] for k in keys}
    data_free = predictor.startswith("lp-root")
    expected = (0.8, 0.01, 0.1) if overrides else (0.9, 0.0, 1e-8 if data_free else 0.05)
    assert [solved[k] for k in keys] == [*expected, data_free]


@pytest.mark.parametrize("max_iters, reg", [(3, 1e-4), (6, 0.1)])
def test_train_reports_models_stopped_at_the_cap(tmp_path, capsys, max_iters, reg):
    # auction labels vary from instance to instance; the scp family's do not
    family = tmp_path / "ca"
    assert cli.main([
        "generate", "--kind", "ca", "--items", "8", "--bids", "16",
        "--count", "12", "--seed", "1", "--out", str(family),
    ]) == 0
    model = tmp_path / "model.json"
    capsys.readouterr()
    assert cli.main([  # fits on the first 10, holding the last 2 out
        "train", "--family", str(family), "--train-count", "12",
        "--max-iters", str(max_iters), "--reg", str(reg), "--out", str(model),
    ]) == 0
    iterations = json.loads(model.read_text())["iterations"]
    fitted = sum(k > 0 for k in iterations)
    at_cap = iterations.count(max_iters)
    if max_iters == 3:
        assert at_cap == fitted > 0
    else:  # under the stronger penalty most Newton fits meet --tol in 5 steps
        assert 0 < at_cap < fitted
    assert capsys.readouterr().out.strip() == (
        f"trained {len(iterations)} per-variable models on 10 instances "
        f"({fitted} fitted, {at_cap} at --max-iters) -> {model}"
    )


def test_solve_plain_and_data_free(tmp_path, family_dir):
    inst = str(family_dir / "instance_0000.json")
    plain = tmp_path / "plain.json"
    assert cli.main([
        "solve", "--instance", inst, "--mode", "plain", "--out", str(plain),
    ]) == 0
    exact = tmp_path / "datafree.json"
    assert cli.main([
        "solve", "--instance", inst, "--predictor", "lp-root-ipm",
        "--mode", "exact", "--out", str(exact),
    ]) == 0
    a = json.loads(plain.read_text())
    b = json.loads(exact.read_text())
    assert a["objective"] == pytest.approx(b["objective"], abs=1e-9)


def test_solve_with_prediction_directory(tmp_path, family_dir):
    inst_path = family_dir / "instance_0003.json"
    inst = deserialize(inst_path.read_bytes())
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    save_prediction(lp_root_predict(inst), pred_dir / f"{inst.name}.pred.json")
    out = tmp_path / "sol.json"
    assert cli.main([
        "solve", "--instance", str(inst_path), "--predictor", f"file:{pred_dir}",
        "--mode", "exact", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "optimal"
    assert doc["objective"] == pytest.approx(binary_enumeration(inst).objective, abs=1e-9)
    assert doc["best_region"] in [r["label"] for r in doc["regions"]]
    assert sum(r["nodes"] for r in doc["regions"]) == doc["nodes"]


def test_bench_subcommand(tmp_path, family_dir):
    prefix = tmp_path / "bench"
    assert cli.main([
        "bench", "--family", str(family_dir), "--predictor", "lp-root-simplex",
        "--mode", "heuristic", "--test-count", "4", "--out", str(prefix),
    ]) == 0
    summary = json.loads(prefix.with_suffix(".json").read_text())
    assert "speedup" in summary


def test_verify_pass_exit_zero(capsys):
    assert cli.main([
        "verify", "--check", "hoeffding", "--trials", "20000", "--seed", "4",
    ]) == 0
    # the exact tail is scipy's binom.sf, imported when verify runs
    assert capsys.readouterr().out == (
        "hoeffding: empirical=0.0311 bound=0.1353 exact=0.02844 -> pass\n")


# Runs CLI commands (a JSON list of argv lists) with scipy blocked: after
# checking that importing the CLI loaded no scipy module, every later
# scipy import raises ImportError.  Exits nonzero at the first failure.
_WITHOUT_SCIPY = """
import json, sys
from probranch import cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "importing the CLI loaded scipy"
sys.modules["scipy"] = None
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code:
        sys.exit(f"exit {code}: {argv}")
"""


def run_python(code, *args, cwd=None):
    """``python -c code *args`` in a fresh interpreter on this checkout's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=600,
    )


def run_without_scipy(commands, cwd):
    return run_python(_WITHOUT_SCIPY, json.dumps(commands), cwd=cwd)


def test_commands_other_than_verify_and_the_ipm_run_without_scipy(tmp_path):
    family, model, calib, preds = (tmp_path / name for name in ("ca", "m.json", "c.json", "p"))
    inst = str(family / "instance_0007.json")
    common = ["--family", str(family), "--train-count", "6"]
    proc = run_without_scipy([
        ["generate", "--kind", "ca", "--items", "6", "--bids", "12", "--count", "8",
         "--seed", "1", "--out", str(family)],
        ["train", *common, "--out", str(model)],
        ["calibrate", *common, "--model", str(model), "--out", str(calib)],
        ["solve", "--instance", inst, "--mode", "plain"],
        ["solve", "--instance", inst, "--predictor", "lp-root-simplex", "--mode", "exact"],
        ["solve", "--instance", inst, "--predictor", "logistic", "--model", str(model),
         "--calibration", str(calib), "--mode", "exact"],
        ["bench", *common, "--predictor", "logistic", "--test-count", "2",
         "--out", str(tmp_path / "bench")],
    ], tmp_path)
    assert proc.returncode == 0, proc.stderr
    preds.mkdir()
    instance = deserialize(Path(inst).read_bytes())
    save_prediction(lp_root_predict(instance), preds / f"{instance.name}.pred.json")
    proc = run_without_scipy(
        [["solve", "--instance", inst, "--predictor", f"file:{preds}", "--mode", "exact"]],
        tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_the_ipm_predictor_loads_scipy_when_it_runs(family_dir):
    inst = str(family_dir / "instance_0000.json")
    code = ("import sys; from probranch import cli; sys.exit(cli.main(sys.argv[1:]) or "
            "'scipy.linalg' not in sys.modules)")
    proc = run_python(code, "solve", "--instance", inst, "--predictor", "lp-root-ipm",
                      "--mode", "exact")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["status"], doc["nodes"]) == ("optimal", 1)
    plain = solve_mip(deserialize(Path(inst).read_bytes()))
    assert doc["objective"] == pytest.approx(plain.objective, abs=1e-9)


def test_verify_knapsack_rounding(capsys):
    assert cli.main([
        "verify", "--check", "knapsack-rounding", "--n-list", "40",
        "--kr-trials", "2", "--seed", "5",
    ]) == 0
    assert "knapsack-rounding n=40: violations=0+0 margin=90.0 (vacuous) median" in (
        capsys.readouterr().out
    )


def test_verify_prints_vacuity_per_side(monkeypatch, capsys):
    def fake(n_list, gamma, trials, seed):
        rows = [
            bench.KnapsackRoundingRow(n, trials, 10.0, up, down, 0, 0, [0])
            for n, up, down in ((1, True, True), (2, True, False), (3, False, True), (4, False, False))
        ]
        return bench.KnapsackRoundingReport(gamma=gamma, rows=rows)

    monkeypatch.setattr(cli.bench_mod, "verify_knapsack_rounding", fake)
    assert cli.main(["verify", "--check", "knapsack-rounding", "--n-list", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" median")[0] for line in lines[:4]] == [
        "knapsack-rounding n=1: violations=0+0 margin=10.0 (vacuous)",
        "knapsack-rounding n=2: violations=0+0 margin=10.0 (vacuous up)",
        "knapsack-rounding n=3: violations=0+0 margin=10.0 (vacuous down)",
        "knapsack-rounding n=4: violations=0+0 margin=10.0",
    ]


def test_verify_failure_exits_two(monkeypatch):
    def fake(which, params, trials, seed):
        return LemmaReport(
            name=which, params=params, trials=trials,
            empirical=1.0, bound=0.1, stderr=0.0, passed=False,
        )

    monkeypatch.setattr(cli.bench_mod, "verify_lemma", fake)
    assert cli.main(["verify", "--check", "hoeffding", "--trials", "10000"]) == 2


def test_usage_error_exits_one():
    assert cli.main(["solve"]) == 1  # missing required --instance


def test_usage_error_names_the_wrong_argument(capsys):
    assert cli.main(["solve", "--instance", "x.json", "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: probranch")
    assert "probranch: error: unrecognized arguments: --seed 3" in err


def test_cached_parser_gives_each_call_its_own_namespace(monkeypatch, capsys):
    seen = []

    def record(args):
        seen.append(vars(args).copy())
        return 0

    monkeypatch.setattr(cli, "_cmd_solve", record)
    monkeypatch.setattr(cli, "_cmd_verify", record)
    assert cli.main(["solve", "--instance", "a.json", "--mode", "plain", "--tightened"]) == 0
    assert cli.main(["solve", "--mode", "nonsense"]) == 1
    assert "usage:" in capsys.readouterr().err
    assert cli.main(["solve", "--instance", "a.json", "--seed", "5"]) == 1  # solve seeds nothing
    assert cli.main(["verify", "--check", "hoeffding", "--trials", "10", "--seed", "5"]) == 0
    assert cli.main(["solve", "--instance", "b.json"]) == 0
    assert cli.build_parser() is cli.build_parser()

    first, second, third = seen
    assert (first["command"], first["instance"], first["mode"]) == ("solve", "a.json", "plain")
    assert first["tightened"] is True and "seed" not in first
    assert (second["command"], second["check"], second["trials"]) == ("verify", "hoeffding", 10)
    assert second["seed"] == 5 and "instance" not in second and "mode" not in second
    assert (third["command"], third["instance"], third["mode"]) == ("solve", "b.json", "exact")
    assert third["tightened"] is None and "seed" not in third  # unset: the predictor decides


def test_runtime_error_exits_one(tmp_path):
    assert cli.main([
        "solve", "--instance", str(tmp_path / "missing.json"),
    ]) == 1


@pytest.fixture(scope="module")
def mkp_calibration(tmp_path_factory):
    """An MKP family and a calibration file at tau* = 0.9 whose stats give sigma 0.25 there."""
    root = tmp_path_factory.mktemp("mkpcal")
    stats = accuracy_curves([
        (np.array([0.95, 0.92, 0.03, 0.6]), np.array([1.0, 0.0, 0.0, 1.0])),
        (np.array([0.91, 0.05, 0.08, 0.5]), np.array([1.0, 1.0, 0.0, 0.0])),
    ])
    calib = root / "calib.json"
    save_calibration(Calibration(0.9, sigma_from_stats(stats, 0.9), 0.05, stats), calib)
    family = root / "mkp"
    write_family(gen_mkp(5, 15, 40, seed=3), family)
    return family, calib, stats


def test_solve_with_calibration_takes_the_given_tau_and_delta(tmp_path, mkp_calibration):
    family, calib, stats = mkp_calibration
    out = tmp_path / "sol.json"
    assert cli.main([
        "solve", "--instance", str(family / "instance_0039.json"),
        "--predictor", "lp-root-simplex", "--calibration", str(calib),
        "--tau", "0.93", "--delta", "0.2", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert (doc["tau"], doc["delta"]) == (0.93, 0.2)
    # sigma comes from the file's stats at the new tau, not from tau* = 0.9
    assert doc["sigma"] == sigma_from_stats(stats, 0.93) == 0.5
    assert doc["status"] == "optimal"


def test_tau_off_the_grid_is_an_error(tmp_path, capsys, mkp_calibration):
    family, calib, _ = mkp_calibration
    for tau, code in (("0.83", 0), ("0.835", 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main([
                "bench", "--family", str(family), "--predictor", "logistic",
                "--tau", tau, "--test-count", "5", "--out", str(tmp_path / f"b{tau}"),
            ]) == code
        assert cli.main([
            "solve", "--instance", str(family / "instance_0039.json"),
            "--predictor", "lp-root-simplex", "--calibration", str(calib), "--tau", tau,
        ]) == code
    err = capsys.readouterr().err
    assert err.count("tau=0.835 is not on the calibration grid (0.51, 0.52, ..., 1)") == 2
    assert "--sigma" in err
    # a user sigma needs no measured variance, so any tau in (0.5, 1] is accepted
    assert cli.main([
        "solve", "--instance", str(family / "instance_0039.json"), "--predictor",
        "lp-root-simplex", "--calibration", str(calib), "--tau", "0.835", "--sigma", "0.1",
    ]) == 0


def test_solve_reports_the_fixed_binaries(tmp_path, mkp_calibration):
    family, _, _ = mkp_calibration
    inst = family / "instance_0001.json"
    for mode in ("plain", "exact"):
        out = tmp_path / f"{mode}.json"
        assert cli.main(["solve", "--instance", str(inst), "--mode", mode,
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        if mode == "plain":
            assert doc["fixed"] == solve_mip(deserialize(inst.read_bytes())).fixed > 0
        assert isinstance(doc["fixed"], int) and doc["fixed"] >= 0
