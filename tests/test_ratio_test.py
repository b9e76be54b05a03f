"""The dual simplex's bound rule and its one bound-flipping ratio test.

Every nonbasic column of a dual simplex state sits exactly on one of its
bounds, so the returned point lies in its box, also when the bounds are
not dyadic and a flip's span would not add up exactly.  The first-step
gain a branching candidate is scored by is the dual's own first step:
one iteration of the child's dual raises c.x by exactly that gain, and
an infinite gain is an infeasible first iteration.
"""

import math

import numpy as np
import pytest

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
                status = child.dual(c_full, 1)
                pairs += 1
                if math.isinf(gain):
                    assert status == _simplex.STATUS_INFEASIBLE
                    infinite += 1
                    continue
                assert status != _simplex.STATUS_INFEASIBLE
                rise = float(c_full @ child.x) - before
                assert rise == pytest.approx(gain, rel=0, abs=1e-12 * max(1.0, abs(before)))
    assert pairs >= 400 and infinite >= 1
