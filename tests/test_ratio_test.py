"""The dual simplex's bound rule and its one bound-flipping ratio test.

Every nonbasic column of a dual simplex state sits exactly on one of its
bounds, so the returned point lies in its box, also when the bounds are
not dyadic and a flip's span would not add up exactly.  The first-step
gain a branching candidate is scored by is the dual's own first step:
one iteration of the child's dual raises c.x by exactly that gain, and
an infinite gain is an infeasible first iteration.  The ratio test and
the gains are held bit for bit to their plain forms in ``oracles``.
"""

import math

import numpy as np
import pytest

from oracles import reference_first_step_gains, reference_ratio_test
from probranch import _simplex
from probranch.generators import gen_ca, gen_mkp
from probranch.lp import relaxation_arrays
from probranch.model import MAXIMIZE


def far_bounded_lp(seed: int):
    """A random 3x6 LP with <= rows and continuous bounds that are not dyadic, up to about 1e9."""
    rng = np.random.default_rng([seed, 24])
    a = rng.uniform(-1.0, 1.0, (3, 6))
    b = rng.uniform(0.0, 1e9, 3)  # 0 lies in the box, so the LP is feasible
    c = rng.uniform(-1.0, 1.0, 6)
    lb = rng.uniform(-1e8, 0.0, 6) - 0.123
    ub = rng.uniform(0.0, 1e9, 6) + 0.987
    return rng, c, a, b, lb, ub


def test_every_nonbasic_column_sits_on_a_bound_cold_and_warm():
    checked = warm_checked = 0
    for seed in range(200):
        rng, c, a, b, lb, ub = far_bounded_lp(seed)
        senses = ["<="] * 3
        cold = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub)
        assert cold.status == _simplex.STATUS_OPTIMAL, seed
        # a child box: one bound of a column branched inside its box, not dyadic
        j = int(rng.integers(6))
        child_lb, child_ub = lb.copy(), ub.copy()
        if rng.integers(2):
            child_ub[j] = lb[j] + 0.37 * (cold.x[j] - lb[j]) + 0.1
        else:
            child_lb[j] = ub[j] - 0.37 * (ub[j] - cold.x[j]) - 0.1
        warm = _simplex.solve_bounded_lp(c, a, senses, b, child_lb, child_ub, warm=cold.state)
        for res, box_lb, box_ub in ((cold, lb, ub), (warm, child_lb, child_ub)):
            if res.state is None:
                continue
            ws = res.state
            movable = ~ws.is_basic & (ws.ub - ws.lb > 0.0)
            on_bound = (ws.x == ws.lb) | (ws.x == ws.ub)
            assert on_bound[movable].all(), seed
            assert ((box_lb <= res.x) & (res.x <= box_ub)).all(), seed
            checked += 1
            warm_checked += res is warm
    assert checked >= 350 and warm_checked >= 150


def fractional_roots():
    """(binaries, c of the minimized LP over every column, root state) of each root.

    The roots are those of one CA and one MKP family, and one cover whose
    down child is infeasible.
    """
    for family in (gen_ca(20, 60, 10, seed=3), gen_mkp(5, 25, 10, seed=7)):
        for _, inst in family.instances:
            c, a, senses, b, lb, ub = relaxation_arrays(inst)
            if inst.sense == MAXIMIZE:
                c = -c
            root = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub)
            assert root.status == _simplex.STATUS_OPTIMAL
            yield inst.num_binary, np.concatenate([c, np.zeros(len(b))]), root.state
    # min x0 + 2 x1 s.t. x0 + x1 >= 1.5: x1 = 0.5, and its child x1 = 0 is infeasible
    c = np.array([1.0, 2.0])
    root = _simplex.solve_bounded_lp(c, np.ones((1, 2)), [">="], np.array([1.5]),
                                     np.zeros(2), np.ones(2))
    yield 2, np.append(c, 0.0), root.state


def test_a_first_step_gain_is_the_childs_first_dual_iteration():
    pairs = infinite = 0
    for n_bin, c_full, state in fractional_roots():
        x = state.x[:n_bin]
        fractional = np.flatnonzero(state.is_basic[:n_bin] & (np.abs(x - np.rint(x)) > 1e-6))
        for j in fractional:
            gains = state.first_step_gains([j], (0.0, 1.0))[0]
            for target, gain in zip((0.0, 1.0), gains):
                lb, ub = state.lb[: state.n].copy(), state.ub[: state.n].copy()
                lb[j] = ub[j] = target  # a binary's child fixes it
                child = state.child(lb, ub)
                before = float(c_full @ child.x)
                status = child.dual(1)
                pairs += 1
                if math.isinf(gain):
                    assert status == _simplex.STATUS_INFEASIBLE
                    infinite += 1
                    continue
                assert status != _simplex.STATUS_INFEASIBLE
                rise = float(c_full @ child.x) - before
                assert rise == pytest.approx(gain, rel=0, abs=1e-12 * max(1.0, abs(before)))
    assert pairs >= 400 and infinite >= 1


def same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def random_row(rng):
    """(alpha, d, h, span, gap, rises, bland): one tableau row and its columns.

    Half the rows draw alpha, d and the spans from small dyadic grids, so
    that breakpoints tie exactly and many reduced costs are 0; spans
    include 0 (fixed columns) and inf (slacks without an upper bound).
    """
    n = int(rng.integers(1, 13))
    if rng.integers(2):
        alpha = rng.choice([-2.0, -1.0, -0.5, -1e-11, 0.0, 0.5, 1.0, 2.0, 4.0], n)
        d = rng.choice([0.0, 0.0, 0.5, 1.0, 2.0], n) * rng.choice([-1.0, 1.0], n)
        span = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, np.inf], n)
        gap = float(rng.choice([1e-8, 0.25, 1.0, 2.0, 5.0, 20.0]))
    else:
        alpha = rng.normal(size=n) * (rng.random(n) < 0.85)
        d = rng.exponential(size=n) * (rng.random(n) < 0.7) * rng.choice([-1.0, 1.0], n)
        span = np.where(rng.random(n) < 0.15, 0.0, rng.exponential(2.0, n))
        gap = float(rng.exponential(3.0))
    h = rng.choice([-1.0, 0.0, 1.0], n) * (span > 0.0)
    return alpha, d, h, span, gap, bool(rng.integers(2)), bool(rng.random() < 0.3)


def test_the_ratio_test_matches_its_plain_form_bit_for_bit():
    seen = dict.fromkeys(("tie", "zero_d", "bland", "flips", "infeasible", "first"), 0)
    rng = np.random.default_rng(29)
    for _ in range(20000):
        alpha, d, h, span, gap, rises, bland = random_row(rng)
        want = reference_ratio_test(alpha, d, h, span, gap, rises, bland)
        got = _simplex._ratio_test(h * alpha, np.abs(alpha), np.abs(d), span, gap, rises, bland)
        assert got[0] == want[0] and same_bits(got[2], want[2])
        if want[1] is None:
            assert got[1] is None
        else:
            assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
        ha = h * alpha
        cols = np.flatnonzero(ha > _simplex._PIVOT_TOL if rises else ha < -_simplex._PIVOT_TOL)
        if len(cols):
            ratios = np.abs(d[cols]) / np.abs(alpha[cols])
            seen["tie"] += np.count_nonzero(ratios == ratios.min()) > 1
            seen["zero_d"] += bool(np.count_nonzero(d[cols] == 0.0))
        seen["bland"] += bland and want[0] is not None
        seen["infeasible"] += want[0] is None and len(cols) > 0
        seen["flips"] += want[1] is not None and len(want[1]) > 0
        seen["first"] += want[1] is not None and len(want[1]) == 0
    assert min(seen.values()) >= 500, seen


def random_states():
    """(state, candidates, targets): optimal states of auction and tight
    multi-knapsack roots and of children with columns fixed in their box,
    and of far-bounded continuous LPs, with candidates basic or not."""
    rng = np.random.default_rng(30)

    def candidates(state, n_bin):
        # the basic binaries first, as branching takes fractional ones, then any
        basic = rng.permutation(np.flatnonzero(state.is_basic[:n_bin]))[:3]
        return np.r_[basic, rng.permutation(n_bin)[:3]]

    for n_bin, _, state in fractional_roots():
        n = state.n
        yield state, candidates(state, n_bin), (0.0, 1.0)
        # a child with a third of its columns fixed where they sit
        lb, ub = state.lb[:n].copy(), state.ub[:n].copy()
        fixed = rng.random(n) < 0.3
        lb[fixed] = ub[fixed] = np.clip(np.rint(state.x[:n][fixed]), lb[fixed], ub[fixed])
        child = state.child(lb, ub)
        if child.dual(1000) == _simplex.STATUS_OPTIMAL and child.d is not None:
            yield child, candidates(child, n_bin), (0.0, 1.0)
    for seed in range(100):
        _, c, a, b, lb, ub = far_bounded_lp(seed)
        res = _simplex.solve_bounded_lp(c, a, ["<="] * 3, b, lb, ub)
        targets = tuple(rng.uniform(-1e8, 1e9, 2))
        yield res.state, rng.permutation(6)[: int(rng.integers(1, 7))], targets


def test_first_step_gains_match_the_per_target_loop_bit_for_bit():
    states = basic = nonbasic = fixed = infinite = 0
    for state, cols, targets in random_states():
        got = state.first_step_gains(cols, targets)
        want = reference_first_step_gains(state, cols, targets)
        assert got.tobytes() == want.tobytes()
        states += 1
        is_basic = state.is_basic[cols]
        basic += np.count_nonzero(is_basic)
        nonbasic += np.count_nonzero(~is_basic)
        fixed += np.count_nonzero((state.ub - state.lb)[: state.n] == 0.0) > 0
        infinite += np.count_nonzero(np.isinf(got))
    assert states >= 120 and basic >= 150 and nonbasic >= 300 and fixed >= 15 and infinite >= 10
