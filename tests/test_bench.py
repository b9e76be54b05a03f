import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats as spstats

from oracles import binary_enumeration, knapsack_arrays, multinomial_max_tail
from probranch import bench
from probranch.bench import (
    BenchConfig,
    BenchReport,
    BenchRow,
    _binom_sf,
    _overfull_trials,
    default_test_count,
    fit_model,
    paired_sgms,
    report_emit,
    run_benchmark,
    sgm,
    split,
    time_to_target,
    verify_knapsack_rounding,
    verify_lemma,
)
from probranch.bnb import SolveOptions, solve_mip
from probranch.lp import fractional_knapsack
from probranch.generators import (
    gen_knapsack_uniform,
    gen_scp,
    read_family,
    stream_rng,
    write_family,
)


class TestSgm:
    def test_zero_is_exact(self):
        assert sgm([0.0]) == 0.0

    def test_two_point_value(self):
        assert sgm([10.0, 90.0]) == pytest.approx(math.sqrt(2000.0) - 10.0, abs=1e-9)

    def test_equal_inputs_are_exact(self):
        for t in (0.0, 1.0, 100.0):
            assert sgm([t, t]) == t

    def test_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.uniform(0, 50, 6)
            bump = a + rng.uniform(0, 5, 6)
            assert sgm(bump) >= sgm(a) - 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 100, 7)
        assert sgm(a) == pytest.approx(sgm(a[::-1]), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            sgm([])
        with pytest.raises(ValueError):
            sgm([-1.0])
        with pytest.raises(ValueError):
            sgm([math.inf])


class TestTimeToTarget:
    def test_first_crossing(self):
        assert time_to_target([(1.0, 10.0), (5.0, 7.0)], 8.0, "minimize") == 5.0

    def test_not_reached(self):
        assert time_to_target([(1.0, 10.0), (5.0, 7.0)], 1.0, "minimize") is None

    def test_equality_within_tolerance(self):
        log = [(2.0, 5.0 + 5e-7)]
        assert time_to_target(log, 5.0, "minimize") == 2.0

    def test_maximize_sense(self):
        log = [(1.0, 3.0), (4.0, 9.0)]
        assert time_to_target(log, 8.0, "maximize") == 4.0

    def test_unordered_log_rejected(self):
        with pytest.raises(ValueError):
            time_to_target([(5.0, 1.0), (1.0, 0.5)], 0.7, "minimize")


@pytest.fixture(scope="module")
def scp_family_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fam") / "scp"
    write_family(gen_scp(8, 12, 0.3, 30, seed=81), path)
    return path


class TestCalibrationSplit:
    def test_holds_out_the_last_fifth_and_at_least_two(self):
        for n in range(41):
            items = [f"instance_{i}" for i in range(n)]
            fit, held_out, test = split(items, test_count=0)
            assert fit + held_out == items and test == []  # disjoint, covering, in order
            assert len(held_out) == min(n, max(2, round(0.2 * n)))
            fit, held_out, test = split(items)  # the default test split
            assert fit + held_out + test == items
            assert len(test) == min(n, default_test_count(n))

    def test_fit_needs_two_solved_instances(self, scp_family_dir):
        instances = read_family(scp_family_dir).instances
        with pytest.raises(ValueError, match="not enough solved"):
            fit_model(instances[:1])
        model, n_labeled = fit_model(instances[:2])
        assert n_labeled == 2 and model.num_vars == instances[0][1].num_binary

    def test_a_short_fit_part_fails_before_any_solve_and_names_train_count(
            self, scp_family_dir, monkeypatch):
        solves = []
        monkeypatch.setattr(bench, "solve_labels", lambda fit, time_limit: solves.append(fit) or [])
        instances = read_family(scp_family_dir).instances
        for short in (0, 1):
            with pytest.raises(ValueError, match=f"fit part holds {short} .*--train-count"):
                fit_model(instances[:short])
        assert solves == []
        # a fit part large enough whose solves find no solution fails on its own message
        with pytest.raises(ValueError, match="0 of the fit part's 3 solves found a solution"):
            fit_model(instances[:3])
        assert len(solves) == 1


class TestRunBenchmark:
    def test_plain_mode_self_comparison_is_unity(self, scp_family_dir):
        report = run_benchmark(
            BenchConfig(family_dir=scp_family_dir, mode="plain", test_count=5)
        )
        assert report.speedup == 1.0 and report.node_ratio == 1.0
        assert report.not_reached == 0

    def test_logistic_heuristic_pipeline(self, scp_family_dir):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_benchmark(
                BenchConfig(
                    family_dir=scp_family_dir,
                    predictor="logistic",
                    mode="heuristic",
                    test_count=5,
                )
            )
        assert len(report.rows) == 5
        assert report.failed == 0
        for row in report.rows:
            assert math.isfinite(row.objective)
            assert row.t_method >= 0.0
        assert report.config["tau"] is not None

    def test_exact_mode_rows_hit_the_plain_optimum(self, scp_family_dir):
        exact = run_benchmark(
            BenchConfig(
                family_dir=scp_family_dir,
                predictor="lp-root-simplex",
                mode="exact",
                test_count=3,
            )
        )
        plain = run_benchmark(
            BenchConfig(family_dir=scp_family_dir, mode="plain", test_count=3)
        )
        for a, b in zip(exact.rows, plain.rows):
            assert a.objective == pytest.approx(b.objective, abs=1e-6)
            assert a.status_method == "optimal"

    def test_data_free_defaults(self, scp_family_dir):
        report = run_benchmark(
            BenchConfig(
                family_dir=scp_family_dir,
                predictor="lp-root-simplex",
                mode="heuristic",
                test_count=4,
            )
        )
        assert report.config["delta"] is None  # sigma 0 and no calibration: no claim
        assert report.config["tau"] == pytest.approx(0.9)
        assert report.config["tightened"] is True

    def test_empty_test_split_rejected(self, scp_family_dir):
        with pytest.raises(ValueError):
            run_benchmark(
                BenchConfig(family_dir=scp_family_dir, mode="plain", test_count=30)
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(family_dir=".", mode="warp").validate()
        with pytest.raises(ValueError):
            BenchConfig(family_dir=".", tau=0.4).validate()

    def test_perfect_file_predictions_fix_the_optimum(self, tmp_path):
        # with p equal to the true optimum and tau=1, the tightened cuts fix
        # every variable, so the cut run reaches the optimum immediately
        from probranch.predict import Prediction, save_prediction
        from probranch.generators import gen_mkp

        family = gen_mkp(5, 20, 8, seed=91)
        fam_dir = tmp_path / "fam"
        write_family(family, fam_dir)
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        optima = {}
        for _, inst in family.instances:
            sol = binary_enumeration(inst)
            optima[inst.name] = sol.objective
            save_prediction(
                Prediction(np.round(sol.values)),
                pred_dir / f"{inst.name}.pred.json",
            )
        report = run_benchmark(
            BenchConfig(
                family_dir=fam_dir,
                predictor=f"file:{pred_dir}",
                mode="heuristic",
                tau=1.0,
                sigma=0.0,
                tightened=True,
                test_count=6,
            )
        )
        assert report.failed == 0 and report.not_reached == 0
        for row in report.rows:
            assert row.objective == pytest.approx(optima[row.instance], abs=1e-9)
        # the fully fixed region is at worst comparable to the plain solve
        assert report.sgm_method <= report.sgm_original + 0.05


class TestReportEmit:
    def test_header_only_for_empty_rows(self, tmp_path):
        report = BenchReport(
            rows=[], sgm_method=None, sgm_original=None, speedup=None,
            not_reached=0, failed=0,
        )
        csv_path, json_path = report_emit(report, tmp_path / "out")
        with open(csv_path) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("instance,")

    def test_node_sgms_over_the_paired_rows(self, tmp_path):
        def row(name, t_orig, nodes_method, nodes_plain, status="optimal"):
            return BenchRow(name, 1.0, 1.0, t_orig, nodes_method, nodes_plain, status, "optimal")

        rows = [
            row("a", 2.0, 0, 90),
            row("b", 2.0, 90, 90),
            row("unreached", None, 5000, 7),  # in no SGM
            BenchRow("failed", math.nan, math.nan, None, 3, 3000, "limit", "optimal"),
        ]
        report = BenchReport(rows=rows, **paired_sgms(rows), not_reached=1, failed=1)
        # shift 10 nodes: sqrt((0 + 10) (90 + 10)) - 10
        assert report.sgm_nodes_method == pytest.approx(math.sqrt(1000.0) - 10.0, abs=1e-12)
        assert report.sgm_nodes_original == 90.0
        assert report.node_ratio == pytest.approx((math.sqrt(1000.0) - 10.0) / 90.0, abs=1e-12)
        assert (report.sgm_method, report.sgm_original, report.speedup) == (1.0, 2.0, 2.0)
        summary = json.loads(report_emit(report, tmp_path / "hand")[1].read_text())
        for key in ("sgm_nodes_method", "sgm_nodes_original", "node_ratio"):
            assert summary[key] == getattr(report, key)
        assert set(paired_sgms(rows[2:]).values()) == {None}

    def test_summary_round_trip_and_stability(self, tmp_path, scp_family_dir):
        report = run_benchmark(
            BenchConfig(family_dir=scp_family_dir, mode="plain", test_count=3)
        )
        p1 = report_emit(report, tmp_path / "one")
        p2 = report_emit(report, tmp_path / "two")
        assert p1[0].read_bytes() == p2[0].read_bytes()
        assert p1[1].read_bytes() == p2[1].read_bytes()
        summary = json.loads(p1[1].read_text())
        assert "speedup" in summary
        assert summary["rows"] == 3


class TestVerifyLemma:
    def test_hoeffding_with_exact_oracle(self):
        rep = verify_lemma("hoeffding", {"n": 100, "p": 0.5, "t": 10}, 20_000, seed=5)
        assert rep.passed
        exact = float(spstats.binom.sf(59, 100, 0.5))
        assert rep.exact == pytest.approx(exact, abs=1e-12)
        assert abs(rep.empirical - exact) <= 4 * rep.stderr + 1e-3

    def test_bernstein(self):
        rep = verify_lemma("bernstein", {"n": 100, "p": 0.5, "t": 10}, 20_000, seed=6)
        assert rep.passed
        assert rep.bound == pytest.approx(
            math.exp(-100.0 / (2 * (50 + 10 / 3.0))), abs=1e-12
        )

    def test_chebyshev_uniform_support(self):
        rep = verify_lemma("chebyshev", {"t": 0.5}, 20_000, seed=7)
        assert rep.passed
        assert rep.empirical == 0.0
        assert rep.bound == pytest.approx(1.0 / 3.0)

    def test_uniform_bins(self):
        rep = verify_lemma("uniform_bins", {"n": 400, "delta": 0.05}, 10_000, seed=8)
        assert rep.passed
        assert rep.bound == pytest.approx(20 * math.exp(-5.0))
        assert rep.empirical <= rep.bound

    @pytest.mark.parametrize("n, delta, widths, tail", [
        (60, 0.1, [0.1] * 10, 0.05648),
        (10, 0.3, [0.3, 0.3, 0.3, 0.1], 0.03179),  # the last bin is 0.1 wide
        (400, 0.05, [0.05] * 20, 2.834e-4),  # verify's own size
        # a high tail: a pair of bins holds about 2 n delta = 10 points, so
        # about half the pairs are split, and one trial in five is a hit
        (100, 0.05, [0.05] * 20, 0.2150),
    ])
    def test_uniform_bins_matches_the_exact_multinomial_tail(self, n, delta, widths, tail):
        trials = 100_000
        exact = multinomial_max_tail(n, widths, 2 * n * delta)
        assert exact == pytest.approx(tail, rel=1e-3)
        rep = verify_lemma("uniform_bins", {"n": n, "delta": delta}, trials, seed=11)
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(rep.empirical - exact) <= 4 * se, (rep.empirical, exact, se)

    @pytest.mark.parametrize("n_bins, trials, sizes, depth", [
        (1000, 2_500, [1000, 1000, 500], 9),  # delta = 0.001: 1000 -> 500 -> ... -> 2 -> 1
        (20, 123_456, [50_000, 50_000, 23_456], 4),  # delta = 0.05: 20 -> 10 -> 4 -> 2 -> 1
    ])
    def test_overfull_trials_draws_every_trial_in_bounded_batches(
        self, n_bins, trials, sizes, depth
    ):
        drawn = []

        class Recorder:
            def binomial(self, count, share):
                drawn.append(len(count))
                return count  # every point goes left, so bin 0 overflows in every trial

        pvals = np.full(n_bins, 1.0 / n_bins)
        assert _overfull_trials(Recorder(), 40, pvals, 39.5, trials) == trials
        assert drawn == [size for size in sizes for _ in range(depth)]
        assert max(drawn) * n_bins <= 10**6

    @pytest.mark.parametrize("n, pvals, cap, every", [
        (40, [0.05] * 20, 40.0, False),  # cap >= n: no bin can overflow
        (40, [0.05] * 20, -0.5, True),  # cap < 0: even an empty bin is over it
        (7, [1.0], 6.5, True),  # one bin holds every point
        (7, [1.0], 7.0, False),
        # zero-width bins hold nothing, and a cumulative sum past 1 still
        # sends every point to the one bin of positive width
        (7, [0.0, 1.0 + 2**-52, 0.0], 6.5, True),
        (7, [0.0, 1.0 + 2**-52, 0.0], 7.0, False),
    ])
    def test_overfull_trials_edge_cases(self, n, pvals, cap, every):
        rng = np.random.default_rng(3)
        for trials in (1, 1000):
            hits = _overfull_trials(rng, n, np.array(pvals), cap, trials)
            assert hits == (trials if every else 0)

    def test_binomial_tail_matches_scipy(self):
        for n in (1, 2, 7, 40, 100, 400):
            for p in (1e-3, 0.01, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999):
                for k in sorted({-1, 0, 1, n // 4, n // 2, int(n * p), int(2 * n * p), n - 1, n}):
                    ref = float(spstats.binom.sf(k, n, p))
                    assert _binom_sf(k, n, p) == pytest.approx(ref, rel=1e-12, abs=1e-300), (k, n, p)
        assert (_binom_sf(0, 10, 0.0), _binom_sf(-1, 10, 0.0)) == (0.0, 1.0)
        assert (_binom_sf(9, 10, 1.0), _binom_sf(10, 10, 1.0)) == (1.0, 0.0)

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            verify_lemma("hoeffding", {"n": 10, "p": 0.5, "t": 1}, 100, seed=1)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            verify_lemma("hoeffding", {"n": 0, "p": 0.5, "t": 1}, 10_000, seed=1)
        with pytest.raises(ValueError):
            verify_lemma("nonsense", {}, 10_000, seed=1)

    def test_seed_matrix_never_beats_the_bounds(self):
        # proven bounds: empirical above bound + 3 stderr on any seed is a bug
        for seed in range(5):
            for which, params in (
                ("hoeffding", {"n": 60, "p": 0.4, "t": 6}),
                ("bernstein", {"n": 60, "p": 0.4, "t": 6}),
                ("uniform_bins", {"n": 200, "delta": 0.1}),
            ):
                rep = verify_lemma(which, params, 10_000, seed=seed)
                assert rep.passed, (which, seed, rep.empirical, rep.bound)


class TestVerifyKnapsackRounding:
    def test_small_run_has_no_violations(self):
        rep = verify_knapsack_rounding([60], 0.3, trials=4, seed=9)
        row = rep.rows[0]
        assert row.violations_up == 0 and row.violations_down == 0
        assert row.vacuous_up and row.vacuous_down  # 4*sqrt(2)*60^0.75 > 60 >= |U|, |L|
        assert len(row.mispicks) == 4

    def test_mispicks_match_direct_set_difference(self):
        # replay the validator's seed derivation and recompute |U \ U*|
        # from the raw solver outputs
        seed, trials, n, gamma = 10, 3, 50, 0.3
        rep = verify_knapsack_rounding([n], gamma, trials=trials, seed=seed)
        master = stream_rng(seed, 0)
        sizes = []
        for t in range(trials):
            sub_seed = int(master.integers(0, 2**62))
            uk = gen_knapsack_uniform(n, gamma, seed=sub_seed)
            y_lp, _, _ = fractional_knapsack(*knapsack_arrays(uk.instance))
            up = set(np.nonzero(y_lp == 1.0)[0].tolist())
            sizes.append((len(up), int(np.sum(y_lp == 0.0))))
            sol = solve_mip(uk.instance, options=SolveOptions(rel_gap=0.0))
            chosen = set(
                np.nonzero(np.round(sol.best_solution.values[:n]) == 1.0)[0].tolist()
            )
            assert rep.rows[0].mispicks[t] == len(up - chosen)
        margin = rep.rows[0].margin
        assert rep.rows[0].vacuous_up == all(margin >= u for u, _ in sizes)
        assert rep.rows[0].vacuous_down == all(margin >= d for _, d in sizes)

    def test_both_sides_vacuous_below_n_at_2048(self):
        # the margin 4*sqrt(2)*2048^0.75 ~ 1722 is below n, yet it covers
        # both |U| (about 1230) and |L| (about 816), so neither side can fail
        rep = verify_knapsack_rounding([2048], 0.3, trials=1, seed=12)
        row = rep.rows[0]
        assert row.margin < row.n
        assert row.vacuous_up and row.vacuous_down
        assert row.violations_up == row.violations_down == 0

    def test_median_property(self):
        rep = verify_knapsack_rounding([40], 0.3, trials=5, seed=11)
        row = rep.rows[0]
        assert row.median_mispick == float(np.median(row.mispicks))
