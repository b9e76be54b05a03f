import math
import warnings

import numpy as np
import pytest

from oracles import enumerate_lp_vertices, with_rows
from probranch import _simplex
from probranch._simplex import solve_bounded_lp
from probranch.generators import gen_mkp
from probranch.lp import (
    NumericalFailure,
    fractional_knapsack,
    relaxation_arrays,
    solve_ipm,
    solve_simplex,
)
from probranch.model import InvariantViolationError, LinearRow, MipInstance


def box_lp(c, a, b, sense="minimize", n_cont=0, cont_bounds=()):
    m, n = a.shape
    rows = [
        LinearRow(coeffs=[(j, float(a[r, j])) for j in range(n) if a[r, j] != 0.0],
                  sense="<=", rhs=float(b[r]))
        for r in range(m)
    ]
    inst = MipInstance(
        name="lp",
        sense=sense,
        num_binary=n - n_cont,
        num_continuous=n_cont,
        objective=[(j, float(c[j])) for j in range(n) if c[j] != 0.0],
        rows=rows,
        continuous_bounds=list(cont_bounds),
    )
    inst.validate()
    return inst


def random_feasible_lp(rng, n_max=12):
    m = int(rng.integers(2, 7))
    n = int(rng.integers(2, n_max + 1))
    a = rng.normal(size=(m, n))
    b = np.abs(rng.normal(size=m)) + 0.5  # zero is feasible, box keeps it bounded
    c = rng.normal(size=n)
    return box_lp(c, a, b)


class TestSimplex:
    def test_tight_bound(self):
        inst = box_lp(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
                      sense="maximize")
        sol = solve_simplex(inst)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_pair_of_rows(self):
        inst = MipInstance(
            "bad", "minimize", 1, 0, [(0, 1.0)],
            [LinearRow([(0, 1.0)], ">=", 1.0), LinearRow([(0, 1.0)], "<=", 0.0)],
        )
        assert solve_simplex(inst).status == "infeasible"

    def test_random_lp_matches_vertex_enumeration(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(5, 8))
        b = np.abs(rng.normal(size=5)) + 0.5
        c = rng.normal(size=8)
        best, _ = enumerate_lp_vertices(
            c, a, ["<="] * 5, b, np.zeros(8), np.ones(8)
        )
        inst = box_lp(c, a, b)
        sol = solve_simplex(inst)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(best, abs=1e-8)

    def test_unbounded_detected(self):
        # every LP is boxed: validation rejects a column without a finite
        # bound, and the simplex refuses one
        for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
            inst = MipInstance(
                "unb", "minimize", 0, 1, [(0, -1.0)],
                [LinearRow([(0, 1.0)], ">=", 0.0)],
                continuous_bounds=[(lo, hi)],
            )
            with pytest.raises(InvariantViolationError, match="continuous bound 0 is not finite"):
                inst.validate()
            with pytest.raises(ValueError, match="finite"):
                solve_simplex(inst)

    def test_iteration_limit_status(self):
        rng = np.random.default_rng(0)
        inst = random_feasible_lp(rng)
        assert solve_simplex(inst, max_iters=1).status == "iteration_limit"
        # the limit ends the solve: no fallback spends more
        c, a, senses, b, lb, ub = relaxation_arrays(inst)
        for max_iters in (1, 2):
            res = solve_bounded_lp(c, a, senses, b, lb, ub, max_iters=max_iters)
            assert res.status == _simplex.STATUS_ITERATION_LIMIT
            assert res.iterations == max_iters

    def test_equality_rows(self):
        # x0 + x1 = 1, minimize x0 -> (0, 1)
        inst = MipInstance(
            "eq", "minimize", 2, 0, [(0, 1.0)],
            [LinearRow([(0, 1.0), (1, 1.0)], "=", 1.0)],
        )
        sol = solve_simplex(inst)
        assert sol.status == "optimal"
        assert sol.primal == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_objective_equals_c_dot_primal_and_complementary_slackness(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            inst = random_feasible_lp(rng)
            sol = solve_simplex(inst)
            assert sol.status == "optimal"
            c = inst.objective_vector()
            assert sol.objective == pytest.approx(float(c @ sol.primal), abs=1e-9)
            # the row multipliers of the simplex's final basis
            c, a, senses, b, lb, ub = relaxation_arrays(inst)
            state = solve_bounded_lp(c, a, senses, b, lb, ub).state
            dual = state.duals(state.c)
            resid = b - a @ sol.primal
            for r in range(len(senses)):
                if abs(dual[r]) > 1e-7:
                    assert abs(resid[r]) < 1e-7

    def test_extra_cuts_are_respected(self):
        inst = box_lp(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([2.0]),
                      sense="maximize")
        cut = LinearRow([(0, 1.0), (1, 1.0)], "<=", 0.5)
        sol = solve_simplex(with_rows(inst, [cut]))
        assert sol.objective == pytest.approx(0.5, abs=1e-9)

    def test_iterates_respect_weak_duality(self):
        # a boxed cold LP runs the dual simplex, whose objective c.x is a
        # lower bound that rises towards the optimum; a cutoff below the
        # optimum stops it with that bound, and a higher cutoff stops it
        # no earlier
        rng = np.random.default_rng(5)
        stops = 0
        for _ in range(10):
            # 12 x 30: large enough that the dual takes several pivots
            a, b = rng.normal(size=(12, 30)), np.abs(rng.normal(size=12)) + 0.5
            c, a, senses, b, lb, ub = relaxation_arrays(box_lp(rng.normal(size=30), a, b))
            opt = solve_bounded_lp(c, a, senses, b, lb, ub)
            assert opt.status == _simplex.STATUS_OPTIMAL
            start = float(np.minimum(c * lb, c * ub).sum())  # the slack basis's bound
            iterations = []
            for cutoff in start + (opt.objective - start) * np.linspace(-0.1, 0.95, 12):
                res = solve_bounded_lp(c, a, senses, b, lb, ub, cutoff=cutoff)
                if res.status == _simplex.STATUS_CUTOFF:
                    assert cutoff <= res.objective <= opt.objective + 1e-7
                    stops += res.iterations > 1
                else:
                    assert res.status == _simplex.STATUS_OPTIMAL
                iterations.append(res.iterations)
            assert iterations == sorted(iterations)
            assert iterations[-1] <= opt.iterations
        assert stops, "no cutoff stopped the dual simplex after its first iteration"


class TestInteriorPoint:
    def test_agrees_with_simplex_on_unique_optimum(self):
        rng = np.random.default_rng(1)
        inst = random_feasible_lp(rng)
        s = solve_simplex(inst)
        i = solve_ipm(inst)
        assert i.status == "optimal"
        assert i.objective == pytest.approx(s.objective, abs=1e-6)

    def test_backend_agreement_on_100_random_lps(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            inst = random_feasible_lp(rng, n_max=12)
            s = solve_simplex(inst)
            i = solve_ipm(inst)
            assert s.status == "optimal" and i.status == "optimal"
            assert abs(s.objective - i.objective) <= 1e-5 * (1.0 + abs(s.objective))

    def test_symmetric_edge_returns_face_center(self):
        inst = box_lp(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
                      sense="maximize")
        sol = solve_ipm(inst)
        assert sol.status == "optimal"
        assert sol.primal == pytest.approx([0.5, 0.5], abs=1e-3)

    def test_infeasible_detected_by_divergence(self):
        inst = MipInstance(
            "bad", "minimize", 1, 0, [(0, 1.0)],
            [LinearRow([(0, 1.0)], ">=", 1.0), LinearRow([(0, 1.0)], "<=", 0.0)],
        )
        assert solve_ipm(inst).status == "infeasible"

    def test_extra_cuts_match_simplex(self):
        rng = np.random.default_rng(13)
        inst = random_feasible_lp(rng)
        cut = LinearRow([(j, 1.0) for j in range(inst.num_vars)], "<=", inst.num_vars / 3.0)
        s = solve_simplex(with_rows(inst, [cut]))
        i = solve_ipm(with_rows(inst, [cut]))
        assert i.status == "optimal"
        assert i.objective == pytest.approx(s.objective, abs=1e-6)

    def test_strict_interior_until_convergence(self):
        # a duplicated-variable objective keeps the optimal face fat; the
        # returned coordinates must be fractional, not vertex values
        inst = box_lp(
            np.array([1.0, 1.0, 1.0]),
            np.array([[1.0, 1.0, 1.0]]),
            np.array([1.5]),
            sense="maximize",
        )
        sol = solve_ipm(inst)
        assert sol.status == "optimal"
        assert np.all(sol.primal > 0.01) and np.all(sol.primal < 0.99)


class TestFractionalKnapsack:
    def test_three_item_example(self):
        y, lam, k = fractional_knapsack(
            np.array([0.5, 0.5, 0.5]), np.array([0.9, 0.6, 0.3]), 0.75
        )
        assert y == pytest.approx([1.0, 0.5, 0.0], abs=1e-12)
        assert lam == pytest.approx(0.6)
        assert k == 1

    def test_slack_capacity_returns_all_ones(self):
        y, lam, k = fractional_knapsack(np.array([0.2, 0.3]), np.array([0.5, 0.1]), 1.0)
        assert np.all(y == 1.0) and lam == 0.0 and k is None

    def test_single_item_half_capacity(self):
        y, lam, k = fractional_knapsack(np.array([2.0]), np.array([0.7]), 1.0)
        assert y == pytest.approx([0.5])
        assert lam == pytest.approx(0.7)
        assert k == 0

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            fractional_knapsack(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0.5)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            fractional_knapsack(np.array([1.0]), np.array([0.5]), 0.0)

    def test_tie_breaks_by_original_index(self):
        y, lam, k = fractional_knapsack(
            np.array([1.0, 1.0, 1.0]), np.array([0.5, 0.5, 0.5]), 1.5
        )
        assert y == pytest.approx([1.0, 0.5, 0.0])
        assert k == 1

    def test_matches_simplex_on_random_relaxations(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            a = rng.uniform(0.05, 1.0, n)
            f = rng.uniform(0.0, 1.0, n)
            b = float(rng.uniform(0.1, 0.9) * a.sum())
            y, lam, k = fractional_knapsack(a, f, b)
            assert np.sum((y > 1e-12) & (y < 1 - 1e-12)) <= 1
            assert float(a @ y) == pytest.approx(min(b, a.sum()), abs=1e-10)
            res = solve_bounded_lp(
                -(f * a), a.reshape(1, -1), ["<="], np.array([b]),
                np.zeros(n), np.ones(n),
            )
            assert float((f * a) @ y) == pytest.approx(-res.objective, abs=1e-8)


def test_ipm_numerical_failure_is_an_exception():
    assert issubclass(NumericalFailure, RuntimeError)
    assert NumericalFailure is _simplex.NumericalFailure  # one class for both backends


def test_ipm_overflowing_normal_matrix_raises_numerical_failure():
    # the iteration on this LP stalls just short of tol while s shrinks,
    # until x / s overflows (a * d) @ a.T: that must surface as
    # NumericalFailure, not as the factorization's ValueError
    _, inst = gen_mkp(3, 10, 24, seed=59).instances[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="non-finite"):
            solve_ipm(inst, max_iters=200)
