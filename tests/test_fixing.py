"""Reduced-cost fixing in branch and bound.

A node fixes every free binary whose parent's reduced cost already
exceeds the gap between the cutoff and the parent's bound; a root box's
parent is the LP over the instance's own box.  These tests hold the
fixing rule to its definition on a hand-made LP state, show it firing on
a hand-built instance, and hold plain, exact and heuristic solves with
fixing to independent oracles on seeded random tight multi-knapsacks and
auctions, with and without continuous columns.
The closed-form knapsack relaxation's state (d = c + lambda w) is held
to the bound it claims at every point of a node box, also when the row
rules an item out, and knapsack solves, with root boxes fixed from that
LP, to exhaustive enumeration.
"""

import numpy as np
import pytest

from oracles import (
    binary_enumeration, highs_optimum, knapsack_arrays, reference_fix_by_reduced_costs, region_rows,
    set_packing_dp, with_rows,
)
from probranch import _simplex, bnb
from probranch.bnb import SolveOptions, solve_mip
from probranch.branching import Calibration, build_hyperplanes, partition_solve
from probranch.generators import gen_ca, gen_knapsack_uniform
from probranch.lp import relaxation_arrays
from probranch.model import MAXIMIZE, LinearRow, MipInstance, check_feasible
from probranch.predict import Prediction, lp_root_predict
from test_warm_start import flipped, tight_mkp, with_continuous

EXACT = dict(rel_gap=0.0, abs_gap=1e-9)


def hand_knapsack() -> MipInstance:
    """Two rows; items 0-3 are worth taking, item 4 is heavy and nearly worthless.

    At capacity 11 no pair of items 0-3 conflicts, so no clique cut
    closes the root and the tree branches.
    """
    w1, w2, v = [4, 5, 6, 3, 9], [5, 4, 3, 6, 9], [8, 9, 10, 7, 2]
    return MipInstance(
        "hand", "maximize", 5, 0,
        objective=[(j, float(x)) for j, x in enumerate(v)],
        rows=[LinearRow([(j, float(x)) for j, x in enumerate(w)], "<=", 11.0)
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


def test_fixing_matches_the_mask_form_on_random_states():
    # d on a grid that puts some reduced costs exactly on the threshold
    # and some at 0; h of either sign, 0 and -0.0; binaries fixed in the
    # box, continuous columns past n_bin, and knapsack states (d, h only)
    rng = np.random.default_rng(31)
    fixings = unchanged = 0
    for trial in range(4000):
        n_bin = int(rng.integers(1, 15))
        n = n_bin + int(rng.integers(0, 5))
        gap, tol = float(rng.choice([0.5, 1.0, 2.0])), float(rng.choice([0.0, 1e-9, 0.5]))
        d = rng.choice([0.0, gap, gap + tol, 1.0, 2.5, 4.0], n) * rng.choice([-1.0, 1.0], n)
        h = rng.choice([-1.0, -0.0, 0.0, 1.0], n)
        lb = np.where(rng.random(n) < 0.2, 1.0, 0.0)
        ub = np.where(rng.random(n) < 0.2, lb, 1.0)
        state = bnb._KnapsackState(d, h)
        lb_before, ub_before = lb.copy(), ub.copy()
        got = bnb._fix_by_reduced_costs(state, lb, ub, n_bin, gap, tol)
        want = reference_fix_by_reduced_costs(state, lb, ub, n_bin, gap, tol)
        assert got[2] == want[2], trial
        for new, ref, given in zip(got[:2], want[:2], (lb, ub)):
            assert np.array_equal(new, ref) and (new is given) == (ref is given), trial
        assert np.array_equal(lb, lb_before) and np.array_equal(ub, ub_before)
        fixings += got[2] > 0
        unchanged += got[2] == 0
    assert fixings >= 1000 and unchanged >= 500


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
        pred = Prediction(rng.random(inst.num_binary))
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


def knapsack(w, f, cap) -> MipInstance:
    """max (f w).y s.t. w.y <= cap: a uniform knapsack under its own capacity."""
    return MipInstance(
        "knapsack", "maximize", len(w), 0,
        objective=[(j, float(f[j] * w[j])) for j in range(len(w))],
        rows=[LinearRow([(j, float(x)) for j, x in enumerate(w)], "<=", float(cap))],
    )


def knapsack_case(seed: int):
    """(instance, root box or None, rows the box stands for) for one fuzz seed.

    Case seed % 4: the generator's knapsack; every item fits (lambda = 0);
    integer weights and capacity, so many node LPs fill it exactly with
    whole items; ratios tied in threes.  Odd seed // 4 adds a root box that
    fixes items to 1 and to 0.
    """
    rng = np.random.default_rng([seed, 15])
    n = int(rng.integers(8, 17))
    uk = gen_knapsack_uniform(n, 0.3, 120_000 + seed)
    w, f, _ = knapsack_arrays(uk.instance)
    case = seed % 4
    if case == 0:
        inst = uk.instance
    elif case == 1:
        inst = knapsack(w, f, w.sum())
    elif case == 2:
        w = rng.integers(1, 6, n).astype(float)
        inst = knapsack(w, f, np.floor(0.3 * w.sum()))
    else:
        inst = knapsack(w, np.repeat(rng.random(n // 3 + 1), 3)[:n], 0.3 * n)
    if (seed // 4) % 2 == 0:
        return inst, None, []
    lo, hi = np.zeros(n), np.ones(n)
    ones, zeros = np.split(rng.permutation(n)[:4], 2)
    lo[ones], hi[zeros] = 1.0, 0.0
    rows = ([LinearRow([(int(j), 1.0)], ">=", 1.0) for j in ones]
            + [LinearRow([(int(j), 1.0)], "<=", 0.0) for j in zeros])
    return inst, [(lo, hi)], rows


def test_knapsack_fixing_matches_enumeration():
    fired = 0
    for seed in range(40):
        inst, roots, rows = knapsack_case(seed)
        rep = solve_mip(inst, options=SolveOptions(**EXACT), roots=roots)
        expected = binary_enumeration(with_rows(inst, rows))
        if expected.status == "infeasible":
            assert rep.status == "infeasible", seed
            continue
        assert rep.status == "optimal", seed
        assert rep.objective == pytest.approx(expected.objective, rel=0, abs=1e-9), seed
        assert check_feasible(with_rows(inst, rows), rep.best_solution.values)[0], seed
        fired += rep.fixed > 0
    assert fired >= 5


def box_rows(lo, hi) -> list[LinearRow]:
    """The rows that fix the binaries a root box fixes."""
    return ([LinearRow([(int(j), 1.0)], ">=", 1.0) for j in np.flatnonzero(lo == 1.0)]
            + [LinearRow([(int(j), 1.0)], "<=", 0.0) for j in np.flatnonzero(hi == 0.0)])


@pytest.mark.parametrize("lp", ["knapsack", "simplex"])
def test_root_boxes_are_fixed_from_the_hull(lp):
    fired = 0
    for seed in range(40):
        inst, roots, _ = knapsack_case(seed)
        if roots is None:
            continue
        (lo, hi), = roots
        boxes = [(lo, hi), (1.0 - hi, 1.0 - lo)]  # and its mirror, each item fixed the other way
        if lp == "simplex":  # a redundant second row leaves the closed form
            n = inst.num_binary
            inst = with_rows(inst, [LinearRow([(j, 1.0) for j in range(n)], "<=", float(n))])
        # the roots are the first two nodes, so a fixing here is a root's
        roots_only = solve_mip(inst, options=SolveOptions(node_limit=2, **EXACT), roots=boxes)
        assert roots_only.root_nodes == [1, 1], seed
        fired += roots_only.fixed > 0

        rep = solve_mip(inst, options=SolveOptions(**EXACT), roots=boxes)
        found = [binary_enumeration(with_rows(inst, box_rows(*box))) for box in boxes]
        found = [f.objective for f in found if f.status == "optimal"]
        assert rep.status == "optimal", seed
        assert rep.objective == pytest.approx(max(found), rel=0, abs=1e-9), seed
        box_lb, box_ub = boxes[rep.best_root]
        assert np.all((box_lb <= rep.best_solution.values) & (rep.best_solution.values <= box_ub))
    assert fired >= 5


@pytest.mark.parametrize("case", ["fractional", "all_fit", "exact_fill", "tied", "excluded"])
def test_knapsack_state_bounds_every_point_of_the_box(case):
    rng = np.random.default_rng([len(case), 15])
    n = 12
    w, f = rng.uniform(0.1, 1.0, n), rng.random(n)
    cap = 0.3 * n
    if case == "all_fit":
        cap = w.sum()
    elif case == "exact_fill":
        w = rng.integers(1, 6, n).astype(float)
        cap = np.cumsum(w[np.argsort(-f, kind="stable")])[4]
    elif case == "tied":
        f = np.repeat(rng.random(4), 3)
    elif case == "excluded":  # x2, the best ratio, is heavier than the room x0 leaves
        w[2], f[2] = cap, 1.0
    c = -f * w  # the solver minimizes
    kn = bnb._Knapsack(c, w, float(cap))
    lb, ub = np.zeros(n), np.ones(n)
    lb[0], ub[1] = 1.0, 0.0  # a node box, after its own fixings
    status, x, bound, state = kn(lb, ub)
    assert status == _simplex.STATUS_OPTIMAL
    # the items the row rules out are held at 0 and count as fixed (h = 0)
    held = (lb < ub) & (w > cap - w @ lb + bnb.PROPAGATION_TOL * max(1.0, cap))
    assert np.flatnonzero(held).tolist() == ([2] if case == "excluded" else [])
    assert (x[held] == 0.0).all() and (state.h[held] == 0.0).all()
    critical = np.flatnonzero((state.h == 0) & (lb < ub) & ~held)
    assert len(critical) == (0 if case == "all_fit" else 1)
    if case == "exact_fill":
        assert x[critical[0]] == 0.0 and w @ x == cap
    pts = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    pts = pts[(pts >= lb).all(axis=1) & (pts <= ub).all(axis=1) & (pts @ w <= cap)]
    assert len(pts) > 1
    assert (pts @ c >= bound + (pts - x) @ state.d - 1e-9).all()
    # the fixing rule reads it as: moving a nonbasic binary costs at least |d_j|
    free = state.h != 0
    assert (pts @ c >= bound + np.abs(pts - x)[:, free] @ np.abs(state.d[free]) - 1e-9).all()

    # with a negative gap every free nonbasic binary with d_j != 0 is fixed,
    # but never the critical item or a held one, and the caller's box is
    # left as it was
    lb_before, ub_before = lb.copy(), ub.copy()
    new_lb, new_ub, count = bnb._fix_by_reduced_costs(state, lb, ub, n, -1.0, 0.0)
    assert count > 0
    assert np.array_equal(lb, lb_before) and np.array_equal(ub, ub_before)
    kept = (state.h == 0) & (lb < ub)
    assert (new_lb[kept] == lb[kept]).all() and (new_ub[kept] == ub[kept]).all()
