import heapq
import itertools
import math
import time

import numpy as np
import pytest

from oracles import binary_enumeration, greedy_fill, highs_optimum, with_rows
from probranch import _simplex, bnb
from probranch.bnb import SolveOptions, solve_mip
from probranch.model import LinearRow, MipInstance, check_feasible
from probranch.generators import gen_ca, gen_knapsack_uniform, gen_mkp, gen_scp
from probranch.lp import relaxation_arrays
from test_fixing import knapsack_case

EXACT = dict(rel_gap=0.0, abs_gap=1e-9)


def small_families(count_per=3):
    yield from gen_mkp(1, 14, count_per, seed=101).instances
    yield from gen_mkp(3, 12, count_per, seed=102).instances
    yield from gen_scp(8, 12, 0.3, count_per, seed=103).instances
    yield from gen_ca(7, 12, count_per, seed=104).instances


class TestSolveMip:
    def test_sixteen_variable_knapsack_matches_brute_force(self):
        _, inst = gen_mkp(1, 16, 1, seed=3).instances[0]
        rep = solve_mip(inst, options=SolveOptions(**EXACT))
        bf = binary_enumeration(inst)
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(bf.objective, abs=1e-9)

    def test_zero_fixing_cut_solves_at_root(self):
        _, inst = gen_mkp(2, 8, 1, seed=5).instances[0]
        cut = LinearRow([(j, 1.0) for j in range(8)], "<=", 0.0)
        rep = solve_mip(with_rows(inst, [cut]), options=SolveOptions(**EXACT))
        assert rep.status == "optimal"
        assert rep.nodes == 1
        assert rep.objective == pytest.approx(0.0, abs=1e-12)
        assert np.all(rep.best_solution.values == 0.0)

    def test_root_boxes_search_their_union_as_one_tree(self):
        for _, inst in small_families(2):
            bf = binary_enumeration(inst)
            lb, ub = inst.bounds_arrays()
            j = int(np.argmax(bf.values[: inst.num_binary]))
            down, up = ub.copy(), lb.copy()
            down[j], up[j] = 0.0, 1.0
            boxes = [(lb, down), (up, ub)]
            rep = solve_mip(inst, options=SolveOptions(**EXACT), roots=boxes)
            assert rep.status == "optimal"
            assert rep.objective == pytest.approx(bf.objective, abs=1e-9)
            assert len(rep.root_nodes) == len(rep.root_seconds) == 2
            assert sum(rep.root_nodes) == rep.nodes
            box_lb, box_ub = boxes[rep.best_root]
            assert np.all((box_lb <= rep.best_solution.values) & (rep.best_solution.values <= box_ub))
        with pytest.raises(ValueError):
            solve_mip(inst, roots=[(up, down)])

    def test_exactness_over_100_seeded_instances(self):
        checked = 0
        for seed in range(9):
            for fam in (
                gen_mkp(2, 10, 3, seed=200 + seed),
                gen_scp(6, 10, 0.3, 3, seed=300 + seed),
                gen_ca(6, 10, 3, seed=400 + seed),
                gen_mkp(1, 16, 3, seed=500 + seed),
            ):
                for _, inst in fam.instances:
                    rep = solve_mip(inst, options=SolveOptions(**EXACT))
                    bf = binary_enumeration(inst)
                    assert rep.status == "optimal" == bf.status
                    assert rep.objective == pytest.approx(bf.objective, abs=1e-9)
                    values = rep.best_solution.values
                    nb = inst.num_binary
                    assert np.all(np.abs(values[:nb] - np.round(values[:nb])) <= 1e-6)
                    ok, violated = check_feasible(inst, values)
                    assert ok, violated
                    checked += 1
        assert checked >= 100

    def test_rounded_point_that_overfills_a_row_is_not_accepted(self):
        # a node's LP point holds an item at 1 - 4e-7; rounding it overfills
        # the capacity by 4.4e-7 and would beat the optimum (10.564675)
        from scipy.optimize import Bounds, LinearConstraint, milp

        inst = gen_knapsack_uniform(50, 0.3, 110120).instance
        c, a, _, b, _, _ = relaxation_arrays(inst)
        ref = milp(-c, constraints=LinearConstraint(a, -np.inf, b), integrality=np.ones(50),
                   bounds=Bounds(0, 1), options={"mip_rel_gap": 0})
        assert -ref.fun == pytest.approx(10.556446, abs=1e-6)
        rep = solve_mip(inst)
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(-ref.fun, abs=1e-9)
        assert float(a[0] @ rep.best_solution.values) <= b[0]

    def test_determinism_identical_node_counts(self):
        _, inst = gen_scp(10, 14, 0.25, 1, seed=9).instances[0]
        opts = SolveOptions(**EXACT)
        first = solve_mip(inst, options=opts)
        second = solve_mip(inst, options=opts)
        assert first.nodes == second.nodes
        assert first.objective == second.objective

    def test_monotone_global_bound_in_best_bound_order(self, monkeypatch):
        # best-bound pops the least open bound, which is the global lower
        # bound: the popped bounds never decrease, and a popped node whose
        # LP is solved has a bound at most the optimum (both in the
        # solver's internal minimize sense); every other counted node was
        # closed by its first-step bound or by row propagation
        events = []  # popped bounds, and None for each node LP
        heappop, solve_lp = heapq.heappop, _simplex.solve_bounded_lp

        def pop(heap):
            item = heappop(heap)
            events.append(item[0])
            return item

        def lp(*args, **kwargs):
            events.append(None)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(bnb.heapq, "heappop", pop)
        monkeypatch.setattr(_simplex, "solve_bounded_lp", lp)
        # every instance branches: smaller auctions close at the hull's clique cuts
        fams = (gen_mkp(3, 12, 4, seed=23), gen_ca(20, 60, 4, seed=2))
        for _, inst in (pair for fam in fams for pair in fam.instances):
            events.clear()
            rep = solve_mip(inst, options=SolveOptions(**EXACT))
            assert rep.status == "optimal"
            assert rep.nodes > 1
            opt = -rep.objective if inst.sense == "maximize" else rep.objective
            pops = [e for e in events if e is not None]
            assert pops == sorted(pops)
            solved = [e for e, nxt in zip(events, events[1:]) if e is not None and nxt is None]
            assert len(solved) + rep.closed["first_step"] + rep.closed["propagated"] == rep.nodes
            assert all(bound <= opt + 1e-9 for bound in solved)

    def test_incumbent_log_strictly_improves(self):
        _, inst = gen_ca(8, 14, 1, seed=15).instances[0]
        rep = solve_mip(inst, options=SolveOptions(**EXACT))
        objs = [obj for _, obj in rep.incumbent_log]
        times = [t for t, _ in rep.incumbent_log]
        assert objs, "expected at least one incumbent"
        for a, b in zip(objs, objs[1:]):
            assert b > a  # maximize sense improves upward
        assert times == sorted(times)

    def test_best_bound_matches_objective_at_optimality(self):
        _, inst = gen_scp(7, 9, 0.35, 1, seed=17).instances[0]
        rep = solve_mip(inst, options=SolveOptions(**EXACT))
        assert rep.status == "optimal"
        assert rep.best_bound <= rep.objective + 1e-9

    def test_node_limit_reports_limit(self):
        _, inst = gen_scp(12, 18, 0.2, 1, seed=19).instances[0]
        rep = solve_mip(inst, options=SolveOptions(node_limit=1, **EXACT))
        assert rep.status == "limit"

    @pytest.mark.parametrize("k", [3, 8, 20])
    def test_a_limit_inside_a_node_lp_leaves_that_node_open(self, monkeypatch, k):
        # the k-th warm LP starts past its deadline and stops: the node it
        # was solving goes back on the heap, counted but not closed, and
        # the bound the solve reports still holds the optimum
        _, inst = gen_mkp(5, 20, 1, seed=5).instances[0]
        assert solve_mip(inst, options=SolveOptions(**EXACT)).nodes > k
        warm_calls = []
        solve_lp = _simplex.solve_bounded_lp

        def lp(*args, **kwargs):
            if kwargs.get("warm") is not None:
                warm_calls.append(len(warm_calls) + 1)
                if len(warm_calls) == k:
                    kwargs["deadline"] = time.monotonic() - 1.0
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(_simplex, "solve_bounded_lp", lp)
        rep = solve_mip(inst, options=SolveOptions(**EXACT))
        assert rep.status == "limit" and len(warm_calls) == k
        assert sum(rep.closed.values()) == rep.nodes - 1
        opt = highs_optimum(inst)  # the instance maximizes
        assert math.isfinite(rep.best_bound)
        assert rep.best_bound >= opt - 1e-9 * max(1.0, abs(opt))

    def test_infeasible_instance(self):
        inst = MipInstance(
            "bad", "minimize", 2, 0, [(0, 1.0)],
            [LinearRow([(0, 1.0), (1, 1.0)], ">=", 3.0)],
        )
        assert binary_enumeration(inst).status == "infeasible"
        assert solve_mip(inst, options=SolveOptions(**EXACT)).status == "infeasible"

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(time_limit=0).validate()
        with pytest.raises(ValueError):
            SolveOptions(rel_gap=-1).validate()
        # a NaN time limit would otherwise mean no limit: no deadline test is ever true
        for field in ("time_limit", "node_limit", "rel_gap", "abs_gap"):
            with pytest.raises(ValueError):
                SolveOptions(**{field: math.nan}).validate()
        SolveOptions(time_limit=math.inf, rel_gap=math.inf, abs_gap=math.inf).validate()


def continuous_lp() -> MipInstance:
    """max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x in [0, 3], y in [0, 5]: 11 at (3, 1)."""
    return MipInstance(
        "lp_2x2", "maximize", 0, 2, [(0, 3.0), (1, 2.0)],
        [LinearRow([(0, 1.0), (1, 1.0)], "<=", 4.0), LinearRow([(0, 1.0), (1, 3.0)], "<=", 6.0)],
        continuous_bounds=[(0.0, 3.0), (0.0, 5.0)],
    )


def random_continuous_lp(seed: int) -> MipInstance:
    """A boxed LP over 6 continuous columns, one row of each sense, feasible at a drawn point."""
    rng = np.random.default_rng(seed)
    n = 6
    x0 = rng.uniform(-1.0, 2.0, size=n)
    a = rng.uniform(-1.0, 1.0, size=(3, n))
    rhs = a @ x0 + np.array([0.5, -0.5, 0.0])
    rows = [LinearRow([(j, float(v)) for j, v in enumerate(row)], sense, float(r))
            for row, sense, r in zip(a, ("<=", ">=", "="), rhs)]
    return MipInstance(f"lp_{seed}", "maximize" if seed % 2 else "minimize", 0, n,
                       [(j, float(v)) for j, v in enumerate(rng.normal(size=n))], rows,
                       continuous_bounds=[(-1.0, 2.0)] * n)


class TestNoBinaries:
    """An instance with no binaries: its root LP point is integral, so the
    solve accepts it and closes after one node."""

    def test_two_column_lp_matches_linprog(self):
        from scipy.optimize import linprog

        inst = continuous_lp()
        c, a, _, b, lb, ub = relaxation_arrays(inst)
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=list(zip(lb, ub)), method="highs")
        rep = solve_mip(inst, options=SolveOptions(**EXACT))
        assert (rep.status, rep.nodes) == ("optimal", 1)
        assert rep.closed == {**dict.fromkeys(bnb.CLOSED_BY, 0), "integral": 1}
        assert rep.objective == pytest.approx(-ref.fun, abs=1e-9) and -ref.fun == pytest.approx(11.0)
        assert rep.best_solution.values == pytest.approx(ref.x, abs=1e-9)
        assert rep.best_bound == rep.objective and len(rep.incumbent_log) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_random_lps_match_highs(self, seed):
        inst = random_continuous_lp(seed)
        rep = solve_mip(inst, options=SolveOptions(**EXACT))
        assert (rep.status, rep.nodes, rep.closed["integral"]) == ("optimal", 1, 1)
        assert rep.objective == pytest.approx(highs_optimum(inst), abs=1e-7)
        assert check_feasible(inst, rep.best_solution.values)[0]


class TestBranchingRule:
    """Which binary a node branches on: the rule in ``bnb``'s module docstring."""

    @staticmethod
    def record(monkeypatch, gains_of=None):
        """Each branching's node (binary x, box), scored columns, gains and children's boxes.

        Only a node whose LP is a simplex's calls ``first_step_gains``; the
        children pushed after a call are that node's.
        """
        calls = []
        gains_of = gains_of or _simplex._Workspace.first_step_gains
        push = heapq.heappush

        def recording_gains(state, cols, targets):
            gains = gains_of(state, cols, targets)
            n = state.n
            calls.append(dict(x=state.x[:n].copy(), lb=state.lb[:n].copy(), ub=state.ub[:n].copy(),
                              cols=[int(j) for j in cols], gains=np.array(gains), children=[]))
            return gains

        def recording_push(heap, item):
            if calls:
                calls[-1]["children"].append(item[2])
            push(heap, item)

        monkeypatch.setattr(_simplex._Workspace, "first_step_gains", recording_gains)
        monkeypatch.setattr(bnb.heapq, "heappush", recording_push)
        return calls

    @staticmethod
    def branched_on(lb, ub, children) -> int:
        """The one variable whose bounds both children change from the node's box."""
        moved = [np.nonzero((lo != lb) | (hi != ub))[0].tolist() for lo, hi, *_ in children]
        assert len(children) == 2 and moved[0] == moved[1] and len(moved[0]) == 1, moved
        return moved[0][0]

    @staticmethod
    def most_fractional(call, n_bin):
        x = call["x"][:n_bin]
        frac = np.where(call["lb"][:n_bin] < call["ub"][:n_bin], np.abs(x - np.rint(x)), 0.0)
        return frac, np.argsort(-frac, kind="stable")

    def test_branches_on_the_best_product_of_first_step_gains(self, monkeypatch):
        calls = self.record(monkeypatch)
        _, inst = gen_mkp(3, 14, 2, seed=23).instances[1]
        rep = solve_mip(inst, SolveOptions(**EXACT))
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(binary_enumeration(inst).objective, abs=1e-9)
        assert len(calls) == rep.closed["branched"]
        c = relaxation_arrays(inst)[0]
        picks = []  # per branching: the product's choice and the sum's
        for call in calls:
            frac, order = self.most_fractional(call, inst.num_binary)
            assert call["cols"] == [j for j in order[:3] if frac[j] > 1e-6]
            gains = call["gains"]
            best = int(np.maximum(gains, 1e-6).prod(axis=1).argmax())
            j = self.branched_on(call["lb"], call["ub"], call["children"])
            assert j == call["cols"][best]
            picks.append((best, int(gains.sum(axis=1).argmax())))
            # the children carry the winner's own gains as their bounds
            bound = -float(c @ call["x"])  # the solver minimizes -c.x
            own = {lo[j]: child_bound for lo, _, _, _, child_bound, _ in call["children"]}
            assert own[0.0] == pytest.approx(bound + gains[best][0], rel=1e-12)
            assert own[1.0] == pytest.approx(bound + gains[best][1], rel=1e-12)
        # the rule moves the choice off the most fractional binary, and
        # a product of the gains is not their sum
        assert any(best != 0 for best, _ in picks)
        assert any(best != by_sum for best, by_sum in picks)

    def test_with_every_gain_zero_the_most_fractional_wins(self, monkeypatch):
        # x1..x5 form an odd cycle whose LP optimum is all 0.5: the
        # candidates tie on fractionality and on score, so x1 wins (a
        # triangle would not do: its clique cut makes the hull integral)
        calls = self.record(monkeypatch, lambda state, cols, targets: np.zeros((len(cols), len(targets))))
        pair = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
        cycle = MipInstance("cycle", "maximize", 6, 0, [(j, 1.0) for j in range(6)],
                            [LinearRow([(i, 1.0), (k, 1.0)], "<=", 1.0) for i, k in pair])
        assert solve_mip(cycle, SolveOptions(**EXACT)).objective == pytest.approx(3.0)
        np.testing.assert_allclose(calls[0]["x"], [1.0, 0.5, 0.5, 0.5, 0.5, 0.5])
        assert calls[0]["cols"] == [1, 2, 3]
        assert self.branched_on(calls[0]["lb"], calls[0]["ub"], calls[0]["children"]) == 1
        for _, inst in gen_mkp(3, 12, 2, seed=23).instances:
            calls.clear()
            rep = solve_mip(inst, SolveOptions(**EXACT))
            assert rep.objective == pytest.approx(binary_enumeration(inst).objective, abs=1e-9)
            assert len(calls) == rep.closed["branched"] > 1
            for call in calls:
                _, order = self.most_fractional(call, inst.num_binary)
                assert self.branched_on(call["lb"], call["ub"], call["children"]) == order[0]

    def test_a_near_integral_node_whose_nearest_rounding_fails_still_branches(self, monkeypatch):
        # the LP point is (1, 1 - 4e-7): within INTEGRALITY_TOL, but its
        # nearest rounding overfills the first row, so the node branches on
        # the near-integral binary without scoring it against another
        calls = self.record(monkeypatch)
        inst = MipInstance("near", "maximize", 2, 0, [(0, 1.0), (1, 1.0)],
                           [LinearRow([(0, 1.0), (1, 1.0)], "<=", 2.0 - 4e-7),
                            LinearRow([(0, 1.0), (1, -1.0)], ">=", -1.0)])
        rep = solve_mip(inst, SolveOptions(**EXACT))
        assert rep.status == "optimal" and rep.objective == pytest.approx(1.0, abs=1e-12)
        assert rep.closed["branched"] >= 1
        root = calls[0]
        frac, order = self.most_fractional(root, 2)
        assert 0 < frac.max() <= 1e-6
        assert root["cols"] == [int(order[0])]
        assert self.branched_on(root["lb"], root["ub"], root["children"]) == order[0]

    def test_a_knapsack_branches_on_its_one_fractional_item(self, monkeypatch):
        nodes = []  # (lb, ub, x, children) of each knapsack node LP
        knapsack_lp, push = bnb._Knapsack.__call__, heapq.heappush

        def recording_lp(self, lb, ub):
            res = knapsack_lp(self, lb, ub)
            nodes.append((lb, ub, res[1], []))
            return res

        def recording_push(heap, item):
            nodes[-1][3].append(item[2])
            push(heap, item)

        def no_gains(*args):
            raise AssertionError("a knapsack node has no tableau to score")

        monkeypatch.setattr(bnb._Knapsack, "__call__", recording_lp)
        monkeypatch.setattr(bnb.heapq, "heappush", recording_push)
        monkeypatch.setattr(_simplex._Workspace, "first_step_gains", no_gains)
        _, inst = gen_mkp(1, 16, 1, seed=3).instances[0]
        rep = solve_mip(inst, SolveOptions(**EXACT))
        assert rep.objective == pytest.approx(binary_enumeration(inst).objective, abs=1e-9)
        branched = [node for node in nodes if node[3]]
        assert len(branched) == rep.closed["branched"] > 1
        for lb, ub, x, children in branched:
            fractional = np.nonzero(np.abs(x - np.rint(x)) > 1e-6)[0]
            assert len(fractional) == 1
            assert self.branched_on(lb, ub, children) == fractional[0]


class TestKnapsackCompletion:
    """A knapsack node that branches offers its floor rounding completed greedily."""

    def test_each_completion_is_the_greedy_fill_of_the_floor_and_feasible(self, monkeypatch):
        offered = []  # (floor rounding, lb, ub, completion) at each branching node
        complete = bnb._Knapsack.complete

        def recording(self, y, lb, ub):
            out = complete(self, y, lb, ub)
            offered.append((y.copy(), lb.copy(), ub.copy(), out))
            return out

        monkeypatch.setattr(bnb._Knapsack, "complete", recording)
        cases = [knapsack_case(seed)[:2] for seed in range(40)]
        cases += [(gen_knapsack_uniform(200, 0.3, 160_000 + s).instance, None) for s in range(3)]
        improved = 0
        for inst, roots in cases:
            offered.clear()
            rep = solve_mip(inst, options=SolveOptions(**EXACT), roots=roots)
            assert len(offered) == rep.closed["branched"]
            (w,), _, (cap,) = inst.constraint_arrays()
            value = inst.objective_vector()
            for y, lb, ub, out in offered:
                assert out is not None
                assert ((lb <= out) & (out <= ub)).all() and set(out.tolist()) <= {0.0, 1.0}
                assert w @ out <= cap + bnb.ROUNDED_ROW_TOL
                assert value @ out >= value @ y
                assert np.array_equal(out, greedy_fill(inst, y, lb, ub))
                improved += value @ out > value @ y
        assert improved >= 30

    def test_exact_knapsack_solves_match_the_oracles(self):
        # generator seeds 150000-150044 serve no other test
        cases = [(8 + s % 9, 150_000 + s) for s in range(30)]
        cases += [(50, 150_030 + s) for s in range(10)] + [(200, 150_040 + s) for s in range(5)]
        for n, seed in cases:
            inst = gen_knapsack_uniform(n, 0.3, seed).instance
            rep = solve_mip(inst, options=SolveOptions(**EXACT))
            assert rep.status == "optimal", seed
            assert check_feasible(inst, rep.best_solution.values)[0], seed
            if n <= 16:
                expected = binary_enumeration(inst).objective
                assert rep.objective == pytest.approx(expected, rel=0, abs=1e-9), seed
            else:
                assert rep.objective == pytest.approx(highs_optimum(inst), rel=1e-7, abs=1e-7), seed


def test_each_solve_counts_its_relaxations_and_dual_iterations(monkeypatch):
    # every simplex solve of the tree is one relaxation with its own
    # iterations; a closed-form knapsack node is one relaxation with none
    calls = []
    solve = _simplex.solve_bounded_lp

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append(res.iterations)
        return res

    monkeypatch.setattr(_simplex, "solve_bounded_lp", counted)
    knapsacks = cut_solves = split = 0
    instances = itertools.chain(small_families(2), gen_ca(20, 60, 3, seed=3).instances)
    for i, (_, inst) in enumerate(instances):
        roots = None
        if i % 3 == 2:  # the union of two root boxes, split on the first binary
            lb, ub = relaxation_arrays(inst)[4:]
            roots = [(lb, np.r_[0.0, ub[1:]]), (np.r_[1.0, lb[1:]], ub)]
            split += 1
        calls.clear()
        rep = solve_mip(inst, SolveOptions(**EXACT), roots=roots)
        assert rep.status == "optimal"
        # one LP per node that is not closed before it, the hull and its cut rounds
        k = rep.nodes - rep.closed["first_step"] - rep.closed["propagated"]
        assert k < rep.lps <= k + 1 + bnb.CUT_ROUNDS
        if calls:
            assert rep.lps == len(calls) and rep.lp_iterations == sum(calls) >= rep.lps
        else:
            assert rep.lps == k + 1 and rep.lp_iterations == 0
            knapsacks += 1
        cut_solves += rep.cuts > 0 and rep.lps > k + 1
    assert knapsacks >= 2 and cut_solves >= 2 and split >= 3
