"""Reduced-cost fixing in branch and bound.

A node below a root fixes every free binary whose parent's reduced cost
already exceeds the gap between the cutoff and the parent's bound.  These
tests hold the fixing rule to its definition on a hand-made LP state,
show it firing on a hand-built instance, and hold plain, exact and
heuristic solves with fixing to independent oracles on seeded random
tight multi-knapsacks and auctions, with and without continuous columns.
"""

import numpy as np
import pytest

from oracles import binary_enumeration, highs_optimum, region_rows, set_packing_dp, with_rows
from probranch import _simplex, bnb
from probranch.bnb import SolveOptions, solve_mip
from probranch.branching import Calibration, build_hyperplanes, partition_solve
from probranch.generators import gen_ca
from probranch.lp import relaxation_arrays
from probranch.model import MAXIMIZE, LinearRow, MipInstance, check_feasible
from probranch.predict import Prediction, lp_root_predict
from test_warm_start import flipped, tight_mkp, with_continuous

EXACT = dict(rel_gap=0.0, abs_gap=1e-9)


def hand_knapsack() -> MipInstance:
    """Two rows; items 0-3 are worth taking, item 4 is heavy and nearly worthless."""
    w1, w2, v = [4, 5, 6, 3, 9], [5, 4, 3, 6, 9], [8, 9, 10, 7, 2]
    return MipInstance(
        "hand", "maximize", 5, 0,
        objective=[(j, float(x)) for j, x in enumerate(v)],
        rows=[LinearRow([(j, float(x)) for j, x in enumerate(w)], "<=", 10.0)
              for w in (w1, w2)],
    )


def test_fixing_fires_on_a_hand_built_instance():
    inst = hand_knapsack()
    rep = solve_mip(inst, options=SolveOptions(**EXACT))
    assert rep.fixed > 0
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(binary_enumeration(inst).objective, abs=1e-9)
    assert check_feasible(inst, rep.best_solution.values)[0]


def test_fixing_rule_follows_the_parent_reduced_costs():
    inst = tight_mkp(3, 12, 4)
    c, a, senses, b, lb, ub = relaxation_arrays(inst)
    state = _simplex.solve_bounded_lp(-c, a, senses, b, lb, ub).state
    n = inst.num_binary
    d, x = state.d[:n], state.x[:n]
    at_lb = ~state.is_basic[:n] & (x == 0.0)
    at_ub = ~state.is_basic[:n] & (x == 1.0)
    assert at_lb.any() and at_ub.any()
    gap = float(np.median(np.abs(d[at_lb | at_ub])))
    lb_before, ub_before = lb.copy(), ub.copy()
    new_lb, new_ub, count = bnb._fix_by_reduced_costs(state, lb, ub, n, gap, 0.0)
    down, up = at_lb & (d > gap), at_ub & (-d > gap)
    assert count == np.count_nonzero(down) + np.count_nonzero(up) > 0
    assert np.array_equal(new_ub[:n], np.where(down, 0.0, 1.0))
    assert np.array_equal(new_lb[:n], np.where(up, 1.0, 0.0))
    # siblings share box arrays: the caller's arrays are left as they were
    assert np.array_equal(lb, lb_before) and np.array_equal(ub, ub_before)
    # a fixed binary of the parent is not free, so it is not counted again
    _, _, again = bnb._fix_by_reduced_costs(state, new_lb, new_ub, n, gap, 0.0)
    assert again == 0


@pytest.mark.parametrize("seed", range(12))
def test_fixing_solves_match_oracles_on_random_instances(seed):
    rng = np.random.default_rng([seed, 8])
    if seed % 2:
        inst = tight_mkp(int(rng.integers(2, 6)), int(rng.integers(12, 17)), 100 + seed)
        expected = binary_enumeration(inst).objective
    else:
        items, bids = int(rng.integers(12, 17)), int(rng.integers(60, 101))
        inst = gen_ca(items, bids, 1, seed=100 + seed).instances[0][1]
        expected = set_packing_dp(inst)
    mixed = seed % 4 < 2
    if mixed:
        inst = with_continuous(inst, rng)
    if rng.integers(2):
        inst, expected = flipped(inst), -expected
    if mixed:
        expected = highs_optimum(inst)
    tol = dict(rel=1e-7, abs=1e-7) if mixed else dict(rel=0, abs=1e-9)

    plain = solve_mip(inst, options=SolveOptions(**EXACT))
    assert plain.status == "optimal"
    assert plain.objective == pytest.approx(expected, **tol)
    assert check_feasible(inst, plain.best_solution.values)[0]

    if rng.integers(2):
        pred = lp_root_predict(inst)
    else:
        pred = Prediction(rng.random(inst.num_binary), "external")
    cal = Calibration(tau_star=float(rng.choice([0.6, 0.75])), sigma=0.0, delta=0.05)
    exact = partition_solve(inst, pred, cal, SolveOptions(**EXACT), mode="exact")
    assert exact.best.status == "optimal"
    assert exact.best.objective == pytest.approx(expected, **tol)
    assert check_feasible(inst, exact.best.best_solution.values)[0]

    heuristic = partition_solve(inst, pred, cal, SolveOptions(**EXACT), mode="heuristic")
    _, first = region_rows(*build_hyperplanes(pred, cal.tau_star, cal.sigma, cal.delta))[0]
    first_opt = highs_optimum(with_rows(inst, first))
    if np.isnan(first_opt):
        assert heuristic.best.status == "infeasible"
    else:
        assert heuristic.best.status == "feasible"
        assert heuristic.best.objective == pytest.approx(first_opt, rel=1e-7, abs=1e-7)
        sign = 1.0 if inst.sense == MAXIMIZE else -1.0
        assert sign * heuristic.best.objective <= sign * expected + 1e-7 * (1 + abs(expected))
    # the root's rounding finds an incumbent on these instances, so every
    # plain tree that grows past its root fixes binaries
    assert plain.nodes == 1 or plain.fixed > 0
