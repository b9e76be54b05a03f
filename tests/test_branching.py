import math
import warnings

import numpy as np
import pytest

from oracles import binary_enumeration, holding_regions
from probranch.bnb import SolveOptions
from probranch.branching import (
    AccuracyStats,
    Calibration,
    DEFAULT_TAU_GRID,
    NoFeasibleThresholdError,
    accuracy_curves,
    build_hyperplanes,
    calibrate,
    calibration_at,
    load_calibration,
    partition_regions,
    partition_solve,
    round_prediction,
    save_calibration,
    select_tau,
    sigma_from_stats,
)
from probranch.generators import gen_ca, gen_mkp, gen_scp
from probranch.predict import Prediction, lp_root_predict

EXACT = dict(rel_gap=0.0, abs_gap=1e-9)


def flat_stats(mean_l, mean_u, var_l=0.0, var_u=0.0, grid=None):
    grid = DEFAULT_TAU_GRID if grid is None else np.asarray(grid, dtype=float)
    k = len(grid)
    return AccuracyStats(
        tau_grid=grid,
        mean_alpha_l=np.full(k, mean_l),
        var_alpha_l=np.full(k, var_l),
        mean_alpha_u=np.full(k, mean_u),
        var_alpha_u=np.full(k, var_u),
        mean_size_l=np.full(k, 3.0),
        mean_size_u=np.full(k, 3.0),
        num_valid_l=np.full(k, 5, dtype=int),
        num_valid_u=np.full(k, 5, dtype=int),
    )


class TestRoundPrediction:
    def test_basic_split(self):
        up, down, rest = round_prediction(np.array([0.95, 0.03, 0.5]), 0.9)
        assert up.tolist() == [0]
        assert down.tolist() == [1]
        assert rest.tolist() == [2]

    def test_tau_one_with_no_exact_values(self):
        up, down, rest = round_prediction(np.array([0.99, 0.01]), 1.0)
        assert len(up) == 0 and len(down) == 0 and len(rest) == 2

    def test_threshold_is_inclusive(self):
        up, _, _ = round_prediction(np.array([0.9]), 0.9)
        assert up.tolist() == [0]

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            round_prediction(np.array([0.5]), 0.5)
        with pytest.raises(ValueError):
            round_prediction(np.array([0.5]), 1.1)

    def test_sets_disjoint_and_monotone_in_tau(self):
        rng = np.random.default_rng(4)
        p = rng.random(60)
        sizes_u, sizes_l = [], []
        for tau in DEFAULT_TAU_GRID:
            up, down, _ = round_prediction(p, float(tau))
            assert not set(up.tolist()) & set(down.tolist())
            sizes_u.append(len(up))
            sizes_l.append(len(down))
        assert all(b <= a for a, b in zip(sizes_u, sizes_u[1:]))
        assert all(b <= a for a, b in zip(sizes_l, sizes_l[1:]))


class TestAccuracyCurves:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(5)
        pairs = []
        for _ in range(4):
            y = (rng.random(30) > 0.5).astype(float)
            pairs.append((y.copy(), y))
        stats = accuracy_curves(pairs)
        valid = stats.num_valid_u > 0
        assert np.all(stats.mean_alpha_u[valid] == 1.0)
        assert np.all(stats.var_alpha_u[valid] == 0.0)
        valid = stats.num_valid_l > 0
        assert np.all(stats.mean_alpha_l[valid] == 1.0)

    def test_hand_computed_two_instances(self):
        # instance 1 at tau=0.9: up={0,1} one wrong -> 1/2; down={2} -> 1
        # instance 2: up={0} -> 1; down={1,2} one wrong -> 1/2
        pairs = [
            (np.array([0.95, 0.92, 0.03, 0.6]), np.array([1.0, 0.0, 0.0, 1.0])),
            (np.array([0.91, 0.05, 0.08, 0.5]), np.array([1.0, 1.0, 0.0, 0.0])),
        ]
        stats = accuracy_curves(pairs, tau_grid=np.array([0.9]))
        assert stats.mean_alpha_u[0] == pytest.approx(0.75)
        assert stats.var_alpha_u[0] == pytest.approx(0.0625)
        assert stats.mean_alpha_l[0] == pytest.approx(0.75)
        assert stats.var_alpha_l[0] == pytest.approx(0.0625)
        assert stats.mean_size_u[0] == pytest.approx(1.5)
        assert stats.mean_size_l[0] == pytest.approx(1.5)
        assert stats.num_valid_u[0] == 2 and stats.num_valid_l[0] == 2
        # independent tally over the raw pairs
        for tau in (0.9,):
            au = []
            for p, y in pairs:
                hits = [y[j] == 1.0 for j in range(4) if p[j] >= tau]
                au.append(sum(hits) / len(hits))
            assert stats.mean_alpha_u[0] == pytest.approx(np.mean(au))
            assert stats.var_alpha_u[0] == pytest.approx(np.var(au))

    def test_all_sets_empty_reports_invalid(self):
        pairs = [
            (np.full(6, 0.5), np.zeros(6)),
            (np.full(6, 0.5), np.ones(6)),
        ]
        stats = accuracy_curves(pairs, tau_grid=np.array([0.99]))
        assert stats.num_valid_u[0] == 0 and stats.num_valid_l[0] == 0
        assert math.isnan(stats.mean_alpha_u[0])

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            accuracy_curves([(np.array([0.5]), np.array([0.0]))])

    def test_inconsistent_lengths(self):
        with pytest.raises(ValueError):
            accuracy_curves([
                (np.array([0.5]), np.array([0.0])),
                (np.array([0.5, 0.5]), np.array([0.0, 1.0])),
            ])


class TestSelectTau:
    def test_constant_095_curves(self):
        stats = flat_stats(0.95, 0.95)
        assert select_tau(stats) == pytest.approx(0.95)

    def test_perfect_curves_hit_grid_top(self):
        stats = flat_stats(1.0, 1.0)
        assert select_tau(stats) == pytest.approx(1.0)

    def test_hopeless_curves_raise(self):
        stats = flat_stats(0.4, 0.4)
        with pytest.raises(NoFeasibleThresholdError):
            select_tau(stats)

    def test_requires_valid_instances_on_both_sides(self):
        stats = flat_stats(1.0, 1.0)
        stats.num_valid_u[:] = 0
        with pytest.raises(NoFeasibleThresholdError):
            select_tau(stats)


class TestSigmaFromStats:
    def test_worked_variances(self):
        stats = flat_stats(0.95, 0.95, var_l=0.000625, var_u=0.0004)
        assert sigma_from_stats(stats, 0.9) == pytest.approx(0.025)

    def test_zero_variances(self):
        stats = flat_stats(0.95, 0.95)
        assert sigma_from_stats(stats, 0.9) == 0.0

    def test_max_rule(self):
        stats = flat_stats(0.95, 0.95, var_l=0.01, var_u=0.002)
        assert sigma_from_stats(stats, 0.95) == pytest.approx(0.1)

    def test_off_grid_tau_rejected(self):
        stats = flat_stats(0.95, 0.95)
        with pytest.raises(ValueError):
            sigma_from_stats(stats, 0.905)


class TestBuildHyperplanes:
    def test_worked_example_rounds_to_78(self):
        p = np.full(100, 0.95)
        cu, cl = build_hyperplanes(p, 0.9, 0.025, 0.05)
        assert cl is None
        assert cu.sense == ">="
        assert cu.zeta == pytest.approx(90 - 100 * 0.025 / math.sqrt(0.05), abs=1e-9)
        assert cu.rhs_int == 78

    def test_zero_sigma_integral_intercept(self):
        p = np.full(10, 0.95)
        cu, _ = build_hyperplanes(p, 0.9, 0.0, 0.05)
        assert cu.zeta == pytest.approx(9.0)
        assert cu.rhs_int == 9

    def test_tightened_full_fixing(self):
        p = np.ones(7)
        cu, _ = build_hyperplanes(p, 0.9, 0.0, 0.05, tightened=True)
        assert cu.rhs_int == 7

    def test_down_side(self):
        p = np.full(4, 0.02)
        _, cl = build_hyperplanes(p, 0.9, 0.025, 0.05)
        assert cl.sense == "<="
        assert cl.zeta == pytest.approx(0.4 + 4 * 0.025 / math.sqrt(0.05))
        assert cl.rhs_int == math.ceil(cl.zeta)

    def test_rhs_clamped_to_set_size(self):
        p = np.full(3, 0.02)
        _, cl = build_hyperplanes(p, 0.9, 1.0, 0.05)
        assert cl.rhs_int == 3  # huge margin clamps to |set|

    def test_parameter_validation(self):
        p = np.full(3, 0.9)
        with pytest.raises(ValueError):
            build_hyperplanes(p, 0.4, 0.0, 0.05)
        with pytest.raises(ValueError):
            build_hyperplanes(p, 0.9, -0.1, 0.05)
        with pytest.raises(ValueError):
            build_hyperplanes(p, 0.9, 0.0, 1.5)

    def test_conservative_rounding_is_a_relaxation(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            idx = np.arange(n)
            zeta = float(rng.uniform(-1, n + 1))
            for sense in (">=", "<="):
                from probranch.branching import _make_hyperplane

                h = _make_hyperplane(idx, sense, zeta)
                for _ in range(20):
                    y = rng.integers(0, 2, n)
                    s = int(y.sum())
                    if sense == ">=" and s >= zeta:
                        assert s >= h.rhs_int
                    if sense == "<=" and s <= zeta:
                        assert s <= h.rhs_int


class TestPartition:
    def test_four_regions(self):
        p = np.concatenate([np.full(5, 0.95), np.full(5, 0.05)])
        cu, cl = build_hyperplanes(p, 0.9, 0.0, 0.05)
        assert [label for label, _ in partition_regions(cu, cl)] == [
            "keep_keep", "keep_flip", "flip_keep", "flip_flip",
        ]

    def test_single_hyperplane_two_regions(self):
        p = np.full(5, 0.95)
        cu, cl = build_hyperplanes(p, 0.9, 0.0, 0.05)
        assert len(partition_regions(cu, cl)) == 2

    def test_zero_rhs_complement_left_out(self):
        p = np.full(5, 0.95)
        cu, _ = build_hyperplanes(p, 0.9, 10.0, 0.05)  # margin pushes rhs to 0
        assert cu.rhs_int == 0
        assert [label for label, _ in partition_regions(cu, None)] == ["keep"]

    def test_coverage_property(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(4, 25))
            p = rng.random(n)
            tau = float(rng.uniform(0.55, 1.0))
            cu, cl = build_hyperplanes(p, tau, float(rng.uniform(0, 0.2)),
                                       float(rng.uniform(0.01, 0.9)))
            y = rng.integers(0, 2, n).astype(float)
            assert len(holding_regions(cu, cl, y)) == 1


class TestPartitionSolve:
    def test_exact_mode_matches_brute_force_and_names_the_regions(self):
        _, inst = gen_mkp(3, 12, 1, seed=61).instances[0]
        bf = binary_enumeration(inst)
        pred = lp_root_predict(inst, backend="simplex")
        cal = Calibration(0.9, 0.0, 1e-8)
        rep = partition_solve(inst, pred, cal, options=SolveOptions(**EXACT),
                              mode="exact", tightened=True, gate=None)
        assert rep.best.status == "optimal"
        assert rep.best.objective == pytest.approx(bf.objective, abs=1e-9)
        first = rep.regions[0]
        assert first.label in ("keep_keep", "keep", "all")
        assert first.nodes >= 1  # the first region's root LP is always solved
        assert rep.best_region in [r.label for r in rep.regions]

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_a_prediction_of_another_length_is_rejected_naming_both_counts(self, mode):
        _, inst = gen_mkp(5, 20, 1, seed=61).instances[0]
        for k in (18, 22):  # 22 would put index 20 on a count column and 21 past the end
            with pytest.raises(ValueError, match=f"{k} probabilities for the instance's 20 binaries"):
                partition_solve(inst, Prediction(np.full(k, 0.95)), Calibration(0.9, 0.0, 0.05),
                                options=SolveOptions(**EXACT), mode=mode)

    def test_perfect_prediction_heuristic(self):
        _, inst = gen_ca(7, 12, 1, seed=63).instances[0]
        bf = binary_enumeration(inst)
        pred = Prediction(np.round(bf.values))
        cal = Calibration(tau_star=1.0, sigma=0.0, delta=0.05)
        rep = partition_solve(inst, pred, cal, options=SolveOptions(**EXACT),
                              mode="heuristic", tightened=True)
        assert rep.best.status == "feasible"
        assert rep.best.objective == pytest.approx(bf.objective, abs=1e-9)
        assert len(rep.regions) == 1

    def test_adversarial_prediction_still_exact(self):
        for seed in (65, 66, 67):
            _, inst = gen_scp(7, 11, 0.35, 1, seed=seed).instances[0]
            bf = binary_enumeration(inst)
            adversarial = np.clip(1.0 - np.round(bf.values) * 0.96 - 0.02, 0.0, 1.0)
            pred = Prediction(adversarial)
            cal = Calibration(tau_star=0.9, sigma=0.0, delta=0.05)
            rep = partition_solve(inst, pred, cal, options=SolveOptions(**EXACT),
                                  mode="exact")
            assert rep.best.objective == pytest.approx(bf.objective, abs=1e-9)

    def test_exactness_across_sources_and_families(self):
        fams = [gen_mkp(2, 10, 2, seed=71), gen_scp(6, 10, 0.3, 2, seed=72),
                gen_ca(6, 10, 2, seed=73)]
        for fam in fams:
            for _, inst in fam.instances:
                bf = binary_enumeration(inst)
                for backend in ("simplex", "ipm"):
                    pred = lp_root_predict(inst, backend=backend)
                    cal = Calibration(tau_star=0.9, sigma=0.01, delta=0.05)
                    rep = partition_solve(inst, pred, cal,
                                          options=SolveOptions(**EXACT), mode="exact")
                    assert rep.best.objective == pytest.approx(bf.objective, abs=1e-9)

    def test_merged_report_accounting(self):
        _, inst = gen_mkp(2, 10, 1, seed=75).instances[0]
        pred = lp_root_predict(inst, backend="simplex")
        cal = Calibration(tau_star=0.9, sigma=0.0, delta=0.05)
        rep = partition_solve(inst, pred, cal, options=SolveOptions(**EXACT),
                              mode="exact")
        assert rep.best.nodes == sum(r.nodes for r in rep.regions)
        objs = [o for _, o in rep.best.incumbent_log]
        assert objs == sorted(objs)  # maximize: improving upward

    def test_flip_noise_violation_rate_within_delta(self):
        # synthetic predictions flip the truth with rate 1 - tau; the
        # up-cut must hold except with probability at most delta
        rng = np.random.default_rng(8)
        tau, delta = 0.9, 0.05
        n = 200
        y_true = (rng.random(n) < 0.5).astype(float)
        sigma = math.sqrt(tau * (1 - tau) / 80.0)
        trials = 10_000
        violations = 0
        for _ in range(trials):
            flips = rng.random(n) < (1 - tau)
            y_pred = np.where(flips, 1 - y_true, y_true)
            up = np.nonzero(y_pred == 1.0)[0]
            if not len(up):
                continue
            zeta = tau * len(up) - sigma * len(up) / math.sqrt(delta)
            rhs = min(max(math.floor(zeta + 1e-9), 0), len(up))
            if y_true[up].sum() < rhs:
                violations += 1
        rate = violations / trials
        stderr = math.sqrt(max(rate * (1 - rate), 1 / trials) / trials)
        assert rate <= delta + 3 * stderr

    def test_mode_validation(self):
        _, inst = gen_mkp(2, 8, 1, seed=77).instances[0]
        pred = lp_root_predict(inst)
        cal = Calibration(tau_star=0.9, sigma=0.0, delta=0.05)
        with pytest.raises(ValueError):
            partition_solve(inst, pred, cal, mode="fastest")


class TestCalibration:
    def test_calibrate_on_clean_pairs(self):
        rng = np.random.default_rng(9)
        pairs = []
        for _ in range(10):
            y = (rng.random(40) > 0.5).astype(float)
            noise = rng.uniform(0.0, 0.08, 40)
            p = np.clip(np.where(y == 1.0, 1.0 - noise, noise), 0, 1)
            pairs.append((p, y))
        cal = calibrate(pairs, delta=0.05)
        assert 0.5 < cal.tau_star <= 1.0
        assert cal.sigma >= 0.0
        assert cal.stats is not None

    # two 2-variable predictions in [0.96, 0.99]: the down-sets are always empty
    CONFIDENT = [np.array([0.96, 0.99]), np.array([0.97, 0.98])]

    def test_always_empty_side_selects_tau_one_sidedly(self):
        pairs = [(p, np.ones(2)) for p in self.CONFIDENT]
        with pytest.raises(NoFeasibleThresholdError):
            select_tau(accuracy_curves(pairs))
        with pytest.warns(UserWarning, match="one-sidedly"):
            cal = calibrate(pairs, delta=0.05)
        # at 0.99 only the first instance's up-set {1} is non-empty, and it is right
        assert cal.tau_star == pytest.approx(0.99)
        assert cal.sigma == 0.0 and cal.delta == 0.05
        assert cal.stats.num_valid_l.sum() == 0

    def test_no_usable_curve_falls_back_to_tau_0_9(self):
        pairs = [(p, np.zeros(2)) for p in self.CONFIDENT]  # every up-set is wrong
        with pytest.warns(UserWarning, match="no usable accuracy curve"):
            cal = calibrate(pairs, delta=0.1)
        assert (cal.tau_star, cal.sigma, cal.delta, cal.stats) == (0.9, 0.0, 0.1, None)

    def test_explicit_tau_takes_sigma_from_the_stats_at_tau(self):
        pairs = [
            (np.array([0.95, 0.92, 0.03, 0.6]), np.array([1.0, 0.0, 0.0, 1.0])),
            (np.array([0.91, 0.05, 0.08, 0.5]), np.array([1.0, 1.0, 0.0, 0.0])),
        ]
        stats = accuracy_curves(pairs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cal = calibration_at(stats, 0.9, 0.05)
            # no instance has a non-empty set at 0.99
            empty = calibration_at(stats, 0.99, 0.05)
        assert cal.tau_star == 0.9 and cal.stats is None
        assert cal.sigma == pytest.approx(sigma_from_stats(stats, 0.9)) == pytest.approx(0.25)
        assert (empty.tau_star, empty.sigma) == (0.99, 0.0)
        # 0.935 is off the grid: no variance measures its sigma
        with pytest.raises(ValueError, match=r"not on the calibration grid \(0.51, 0.52, .*--sigma"):
            calibration_at(stats, 0.935, 0.05)

    def test_save_load_round_trip(self, tmp_path):
        stats = flat_stats(0.95, 0.95, var_l=0.0004, var_u=0.0001)
        cal = Calibration(tau_star=0.95, sigma=0.02, delta=0.05, stats=stats)
        cal.validate()
        save_calibration(cal, tmp_path / "c.json")
        back = load_calibration(tmp_path / "c.json")
        assert back.tau_star == cal.tau_star
        assert back.sigma == cal.sigma
        assert np.allclose(back.stats.tau_grid, stats.tau_grid)

    def test_sigma_below_variance_rejected(self):
        stats = flat_stats(0.95, 0.95, var_l=0.01, var_u=0.0)
        cal = Calibration(tau_star=0.95, sigma=0.01, delta=0.05, stats=stats)
        with pytest.raises(ValueError):
            cal.validate()
