import heapq

import numpy as np
import pytest

from oracles import binary_enumeration, with_rows
from probranch import _simplex, bnb
from probranch.bnb import SolveOptions, solve_mip
from probranch.model import LinearRow, MipInstance, check_feasible
from probranch.generators import gen_ca, gen_knapsack_uniform, gen_mkp, gen_scp
from probranch.lp import relaxation_arrays

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
        # closed by its first-step bound
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
        fams = (gen_mkp(3, 12, 4, seed=23), gen_ca(8, 14, 4, seed=15))
        for _, inst in (pair for fam in fams for pair in fam.instances):
            events.clear()
            rep = solve_mip(inst, options=SolveOptions(**EXACT))
            assert rep.status == "optimal"
            assert rep.nodes > 1
            opt = -rep.objective if inst.sense == "maximize" else rep.objective
            pops = [e for e in events if e is not None]
            assert pops == sorted(pops)
            solved = [e for e, nxt in zip(events, events[1:]) if e is not None and nxt is None]
            assert len(solved) + rep.closed["first_step"] == rep.nodes
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
