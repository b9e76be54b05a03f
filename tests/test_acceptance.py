"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its elapsed time (run with -s to see them live).

Criterion 1 checks solver exactness across families and predictor
sources against independent oracles: exhaustive enumeration for the
multi-knapsack families and exact mask DPs for set covering / packing
(2^30 enumeration does not fit the runtime budget; the DP oracles are
checked against exhaustive enumeration by
tests/test_generators.py::test_mask_dps_match_binary_enumeration).
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy import stats as spstats

from oracles import binary_enumeration, holding_regions, set_cover_dp, set_packing_dp
from probranch.bench import (
    BenchConfig,
    run_benchmark,
    sgm,
    verify_knapsack_rounding,
    verify_lemma,
)
from probranch.bnb import SolveOptions, solve_mip
from probranch.branching import (
    Calibration,
    build_hyperplanes,
    partition_solve,
)
from probranch.generators import gen_ca, gen_mkp, gen_scp, write_family
from probranch.predict import (
    load_prediction,
    logistic_gradient,
    logistic_loss,
    logistic_predict,
    logistic_train,
    lp_root_predict,
    save_prediction,
    Prediction,
)

EXACT = dict(rel_gap=0.0, abs_gap=1e-9)


def report(name: str, started: float, detail: str = "") -> None:
    elapsed = time.time() - started
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: PASS in {elapsed:.1f}s{suffix}")


def train_logistic_on(instances):
    data = []
    for xi, inst in instances:
        rep = solve_mip(inst, options=SolveOptions())
        if rep.best_solution is not None:
            data.append((xi, np.round(rep.best_solution.binary_part(inst))))
    return logistic_train(data)


def test_criterion_1_exactness_across_families_and_sources(tmp_path):
    started = time.time()
    families = [
        ("mkp_3x12", gen_mkp(3, 12, 37, seed=1001), "brute"),
        ("mkp_5x16", gen_mkp(5, 16, 37, seed=1002), "brute"),
        ("scp_20x30", gen_scp(20, 30, 0.2, 37, seed=1003), "cover_dp"),
        ("ca_10x24", gen_ca(10, 24, 37, seed=1004), "packing_dp"),
    ]
    sources = ("logistic", "lp-root-simplex", "lp-root-ipm", "external")
    cal = Calibration(tau_star=0.9, sigma=0.01, delta=0.05)
    opts = SolveOptions(**EXACT)
    checked = 0
    for name, family, oracle_kind in families:
        train, test = family.instances[25:], family.instances[:25]
        model = train_logistic_on(train)
        for i, (xi, inst) in enumerate(test):
            source = sources[i % len(sources)]
            if source == "logistic":
                pred = logistic_predict(model, xi)
            elif source == "lp-root-simplex":
                pred = lp_root_predict(inst, backend="simplex")
            elif source == "lp-root-ipm":
                pred = lp_root_predict(inst, backend="ipm")
            else:
                base = lp_root_predict(inst, backend="simplex").probabilities
                path = tmp_path / f"{inst.name}.pred.json"
                save_prediction(
                    Prediction(np.clip(0.85 * base + 0.05, 0, 1)), path
                )
                pred = load_prediction(path, inst.num_binary)
            part = partition_solve(inst, pred, cal, options=opts, mode="exact")
            if oracle_kind == "brute":
                expected = binary_enumeration(inst).objective
            elif oracle_kind == "cover_dp":
                expected = set_cover_dp(inst)
            else:
                expected = set_packing_dp(inst)
            assert part.best.status == "optimal", (name, inst.name, source)
            assert abs(part.best.objective - expected) <= 1e-9, (
                name, inst.name, source, part.best.objective, expected,
            )
            checked += 1
    assert checked == 100
    elapsed = time.time() - started
    assert elapsed <= 120.0, f"criterion 1 exceeded its budget: {elapsed:.1f}s"
    report("criterion 1 (exactness, 100 instances x all sources)", started)


def test_criterion_2_worked_example_intercept():
    started = time.time()
    p = np.full(100, 0.95)
    cut_up, cut_down = build_hyperplanes(p, tau=0.9, sigma=0.025, delta=0.05)
    assert cut_down is None
    assert cut_up.sense == ">="
    assert len(cut_up.indices) == 100
    assert cut_up.rhs_int == 78
    report("criterion 2 (cardinality intercept rounds to 78)", started)


def test_criterion_3_sgm_formula():
    started = time.time()
    assert sgm([0.0]) == 0.0
    assert abs(sgm([10.0, 90.0]) - 34.7214) <= 1e-3
    for t in (0.0, 1.0, 100.0):
        assert sgm([t, t]) == t
    report("criterion 3 (shifted geometric mean)", started)


def test_criterion_4_concentration_validators():
    started = time.time()
    trials = 100_000
    hoeff = verify_lemma("hoeffding", {"n": 100, "p": 0.5, "t": 10}, trials, seed=41)
    assert hoeff.empirical <= 0.1353 + 3 * hoeff.stderr
    exact = float(spstats.binom.sf(59, 100, 0.5))
    assert abs(exact - 0.0284) <= 5e-5
    assert abs(hoeff.empirical - exact) <= 3 * hoeff.stderr
    assert hoeff.passed

    bern = verify_lemma("bernstein", {"n": 100, "p": 0.5, "t": 10}, trials, seed=42)
    assert bern.passed
    assert abs(bern.empirical - exact) <= 3 * bern.stderr

    cheb = verify_lemma("chebyshev", {"t": 0.5}, trials, seed=43)
    assert cheb.passed
    assert cheb.empirical == 0.0
    assert cheb.bound == pytest.approx(1.0 / 3.0)

    bins = verify_lemma("uniform_bins", {"n": 400, "delta": 0.05}, 10_000, seed=44)
    assert bins.passed
    assert bins.empirical <= bins.bound  # failure share within the stated bound
    assert bins.bound == pytest.approx(20 * math.exp(-5.0))

    elapsed = time.time() - started
    assert elapsed <= 60.0, f"criterion 4 exceeded its budget: {elapsed:.1f}s"
    report("criterion 4 (concentration validators)", started,
           f"hoeffding emp={hoeff.empirical:.4f} exact={exact:.4f}")


def test_criterion_5_data_free_knapsack_bounds():
    started = time.time()
    ns = [100, 200, 400]
    rep = verify_knapsack_rounding(ns, gamma=0.3, trials=50, seed=45)
    details = []
    for row in rep.rows:
        assert row.violations_up == 0 and row.violations_down == 0
        # 4*sqrt(2)*n^(3/4) >= n >= |U|, |L| for n <= 1024: neither side can fail
        assert row.margin >= row.n and row.vacuous_up and row.vacuous_down
        assert all(m <= row.margin for m in row.mispicks)
        assert not math.isnan(row.median_mispick)
        details.append(f"n={row.n} median|U\\U*|={row.median_mispick:g}")
    # 4*sqrt(2)*16384^(3/4) = 8192 is below |U| (about 9800): the up side can fail
    (row,) = verify_knapsack_rounding([16384], gamma=0.3, trials=3, seed=45).rows
    assert not row.vacuous_up
    assert row.violations_up == 0 and row.violations_down == 0
    details.append(f"n={row.n} max|U\\U*|={max(row.mispicks)}")
    elapsed = time.time() - started
    assert elapsed <= 300.0, f"criterion 5 exceeded its budget: {elapsed:.1f}s"
    report("criterion 5 (data-free knapsack bounds, 153 trials)", started,
           "; ".join(details))


def test_criterion_6_partition_coverage():
    started = time.time()
    rng = np.random.default_rng(46)
    for _ in range(10_000):
        n = int(rng.integers(2, 30))
        p = rng.random(n)
        tau = float(rng.uniform(0.55, 1.0))
        sigma = float(rng.uniform(0.0, 0.3))
        delta = float(rng.uniform(0.01, 0.9))
        cut_up, cut_down = build_hyperplanes(p, tau, sigma, delta)
        y = rng.integers(0, 2, n).astype(float)
        assert len(holding_regions(cut_up, cut_down, y)) == 1
    report("criterion 6 (partition coverage, 10^4 draws)", started)


@pytest.fixture(scope="module")
def mkp_5x20_family(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "mkp_5x20"
    family = gen_mkp(5, 20, 220, seed=1007)
    write_family(family, path)
    return path, family


def test_criterion_7_benchmark_pipeline_smoke(mkp_5x20_family):
    started = time.time()
    path, family = mkp_5x20_family
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_benchmark(
            BenchConfig(
                family_dir=path,
                predictor="logistic",
                mode="heuristic",
                train_count=200,
                test_count=20,
            )
        )
    assert rep.failed == 0
    assert rep.speedup is not None
    assert math.isfinite(rep.speedup) and rep.speedup > 0
    good = 0
    for row, (_, inst) in zip(rep.rows, family.instances[-20:]):
        true_opt = binary_enumeration(inst).objective
        if abs(row.objective - true_opt) <= 0.01 * abs(true_opt) + 1e-9:
            good += 1
    assert good >= 18, f"only {good}/20 first-region optima within 1%"
    report("criterion 7 (benchmark pipeline smoke)", started,
           f"speedup={rep.speedup:.3f} good={good}/20 tau={rep.config['tau']}")


def test_criterion_8_data_free_exactness(mkp_5x20_family):
    started = time.time()
    _, family = mkp_5x20_family
    cal = Calibration(0.9, 0.0, 1e-8)
    opts = SolveOptions(**EXACT)
    for _, inst in family.instances[-20:]:
        pred = lp_root_predict(inst, backend="ipm")
        part = partition_solve(inst, pred, cal, options=opts, mode="exact",
                               tightened=True)
        expected = binary_enumeration(inst).objective
        assert part.best.status == "optimal"
        assert abs(part.best.objective - expected) <= 1e-9
    report("criterion 8 (data-free exact mode on 20 instances)", started)


def test_criterion_9_gradient_check():
    started = time.time()
    rng = np.random.default_rng(47)
    for _ in range(20):
        n, p = int(rng.integers(4, 12)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, p))
        y = (rng.random(n) > 0.5).astype(float)
        w = rng.normal(size=p)
        b = float(rng.normal())
        reg = 10.0 ** rng.uniform(-5, -2)
        gw, gb = logistic_gradient(w, b, x, y, reg)
        h = 1e-6
        num_w = np.empty(p)
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            num_w[j] = (
                logistic_loss(w + e, b, x, y, reg)
                - logistic_loss(w - e, b, x, y, reg)
            ) / (2 * h)
        num_b = (
            logistic_loss(w, b + h, x, y, reg) - logistic_loss(w, b - h, x, y, reg)
        ) / (2 * h)
        analytic = np.append(gw, gb)
        numeric = np.append(num_w, num_b)
        rel = np.linalg.norm(numeric - analytic) / max(1.0, np.linalg.norm(analytic))
        assert rel <= 1e-5
    report("criterion 9 (logistic gradient vs central differences)", started)
