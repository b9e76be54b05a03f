"""The search trees of ``bnb.solve_mip``, pinned.

A change that restructures the solver but means to keep its trees must
leave these digests as they are: each covers, per solve, the status,
objective, nodes, per-root nodes, fixings, propagations, cuts, LPs, LP
iterations and closings.  The solves are plain, gated exact and
heuristic ones on tight multi-knapsacks, auctions, set covers and
capacitated facility location, a solve stopped by its node limit,
uniform knapsacks in closed form, and the label solves of one auction
family, each started from the hull of the one before it.
"""

import hashlib

import numpy as np

from oracles import capacitated_facility_location
from probranch import bench
from probranch.bnb import SolveOptions, solve_mip
from probranch.generators import gen_ca, gen_knapsack_uniform, gen_scp
from test_gate import EXACT, data_free
from test_warm_start import tight_mkp


def digest(reports, extra=()) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr((rep.status, f"{rep.objective:.6f}", rep.nodes, rep.root_nodes, rep.fixed,
                       rep.propagated, rep.cuts, rep.lps, rep.lp_iterations,
                       sorted(rep.closed.items()))).encode())
    for arr in extra:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def test_plain_exact_and_heuristic_trees_are_pinned():
    insts = ([tight_mkp(5, 25, s) for s in range(3)]
             + [inst for _, inst in gen_ca(20, 60, 2, seed=9).instances]
             + [inst for _, inst in gen_scp(20, 40, 0.15, 2, seed=4).instances]
             + [capacitated_facility_location(10, 6, 3.0, s) for s in (1, 2)])
    reports = []
    for inst in insts:
        reports.append(solve_mip(inst, SolveOptions(**EXACT)))
        reports.append(data_free(inst).best)
        reports.append(data_free(inst, mode="heuristic").best)
    assert sum(rep.nodes for rep in reports) == 984
    assert digest(reports) == (
        "fec3f519df733d442c88d6e45af2ddbb1ca30f257f75214698bac0497971af83")


def test_a_node_limited_tree_and_knapsack_trees_are_pinned():
    reports = [solve_mip(tight_mkp(5, 25, 1), SolveOptions(node_limit=3, **EXACT))]
    assert reports[0].status == "limit"
    reports += [solve_mip(gen_knapsack_uniform(200, 0.3, seed).instance, SolveOptions(**EXACT))
                for seed in (110_000, 110_001)]
    assert sum(rep.nodes for rep in reports) == 67
    assert digest(reports) == (
        "22aaafd77807d7afed3f89242e602c695a00087341a570bceadd53df1b03b295")


def test_carried_label_trees_are_pinned(monkeypatch):
    reports, solve = [], bench.solve_mip

    def recorded(*args, **kwargs):
        reports.append(solve(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(bench, "solve_mip", recorded)
    labels = bench.solve_labels(gen_ca(20, 60, 6, seed=2).instances, 10.0)
    assert len(labels) == len(reports) == 6
    assert sum(rep.cuts for rep in reports) > 0
    assert sum(rep.nodes for rep in reports) == 32
    assert digest(reports, [y for _, y in labels]) == (
        "d7ff4edb058ced6d356427569a305954eceee80915a46c63f3bb610d45118ca6")
