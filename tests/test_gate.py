"""The root gate of exact mode.

``bnb.solve_mip`` weighs a partition's disjunction at the hull against
the best single variable by first-step gains and keeps the region roots
only when the disjunction scores GATE_RATIO times as much.  These tests
hold each region's gate bound to the region's own LP optimum, a
declined solve to the plain tree over the counted instance, solved as
one region "all", the ungated tree to the one pinned before the gate
existed, and gated exact mode on capacitated facility location to
HiGHS's optima in fewer nodes than plain, a taken gate to the ungated
tree.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from oracles import capacitated_facility_location, highs_optimum
from probranch import _simplex, bnb, branching, cli
from probranch.bnb import GATE_RATIO, SolveOptions, solve_mip
from probranch.branching import Calibration, partition_solve
from probranch.generators import gen_ca, gen_scp
from probranch.lp import relaxation_arrays
from probranch.model import serialize
from probranch.predict import lp_root_predict
from test_warm_start import tight_mkp

EXACT = dict(rel_gap=0.0, abs_gap=1e-9)


def data_free(inst, gate=GATE_RATIO, mode="exact"):
    """The CLI's exact solve with the lp-root-simplex predictor and its data-free cuts."""
    cal, tightened, _ = branching.cut_settings("lp-root-simplex")
    return partition_solve(inst, lp_root_predict(inst), cal, SolveOptions(**EXACT), mode=mode,
                           tightened=tightened, gate=gate)


def captured(monkeypatch):
    """A dict that each partition solve fills with the counted instance,
    its root boxes and its report."""
    seen = {}

    def capture(instance, options=None, roots=None, gate=None):
        rep = solve_mip(instance, options, roots, gate=gate)
        seen.update(instance=instance, roots=roots, report=rep)
        return rep

    monkeypatch.setattr(branching, "solve_mip", capture)
    return seen


def random_instance(seed):
    rng = np.random.default_rng([seed, 31])
    kind = ("mkp", "ca", "cfl")[seed % 3]
    if kind == "mkp":
        return tight_mkp(int(rng.integers(3, 6)), int(rng.integers(12, 25)), seed)
    if kind == "ca":
        return gen_ca(int(rng.integers(10, 16)), int(rng.integers(30, 61)), 1,
                      seed=seed).instances[0][1]
    return capacitated_facility_location(int(rng.integers(6, 11)), int(rng.integers(4, 8)),
                                         float(rng.choice([3.0, 5.0])), seed)


def test_each_region_bound_is_at_most_its_lp_optimum(monkeypatch):
    seen = captured(monkeypatch)
    rng = np.random.default_rng(5)
    excluded = 0
    for seed in range(18):
        inst = random_instance(seed)
        cal = Calibration(float(rng.choice([0.6, 0.75, 0.9])), 0.0, 0.05)
        partition_solve(inst, lp_root_predict(inst), cal, SolveOptions(**EXACT),
                        tightened=bool(rng.integers(2)))
        hull = seen["report"].hull
        c, a, senses, b, _, _ = relaxation_arrays(seen["instance"])
        c = -c if inst.sense == "maximize" else c
        a = np.vstack([a, hull.cuts])
        senses = senses + ["<="] * len(hull.cuts)
        b = np.concatenate([b, np.ones(len(hull.cuts))])
        state, boxes = hull.state, seen["roots"]
        bound = float(c @ state.x[: state.n])
        for (lo, hi), gain in zip(boxes, bnb._region_gains(state, boxes)):
            if gain is None:
                continue
            excluded += 1
            lp = _simplex.solve_bounded_lp(c, a, senses, b, lo, hi)
            if lp.status == _simplex.STATUS_INFEASIBLE:
                continue
            assert lp.status == _simplex.STATUS_OPTIMAL
            assert bound + gain <= lp.objective + 1e-7 * max(1.0, abs(lp.objective)), (seed, gain)
    assert excluded >= 20


def test_a_declined_gate_searches_the_plain_tree_over_the_counted_instance(monkeypatch):
    seen = captured(monkeypatch)
    declined = 0
    for seed in range(200, 212):
        inst = tight_mkp(5, 25, seed)
        rep = data_free(inst)
        gate = rep.gate
        assert gate is not None and gate.ratio == GATE_RATIO
        assert gate.taken == (gate.disjunction >= GATE_RATIO * gate.variable)
        assert rep.best.nodes == sum(r.nodes for r in rep.regions)
        assert rep.best_region in [r.label for r in rep.regions]
        if gate.taken:
            assert len(rep.regions) == len(seen["roots"]) > 1
            continue
        declined += 1
        assert [r.label for r in rep.regions] == ["all"] and rep.best_region == "all"
        # the gate solves no LP: the tree is the one rooted at the counted box
        plain = solve_mip(seen["instance"], SolveOptions(**EXACT))
        got = seen["report"]
        assert (got.nodes, got.lps, got.lp_iterations, got.closed, got.objective) == (
            plain.nodes, plain.lps, plain.lp_iterations, plain.closed, plain.objective)
    assert declined >= 6


def test_an_integral_hull_is_searched_as_one_plain_root():
    # these set covers solve at the hull: no branching is needed, so the
    # gate declines and the one root accepts the hull's point
    for _, inst in gen_scp(8, 12, 0.3, 4, seed=3).instances:
        rep = data_free(inst)
        assert rep.gate is not None and not rep.gate.taken and rep.gate.variable == 0.0
        assert [(r.label, r.nodes) for r in rep.regions] == [("all", 1)]
        assert rep.best.objective == solve_mip(inst, SolveOptions(**EXACT)).objective


def test_heuristic_mode_has_no_gate():
    inst = tight_mkp(5, 25, 200)
    for gate in (GATE_RATIO, None):
        rep = data_free(inst, gate=gate, mode="heuristic")
        assert rep.gate is None and len(rep.regions) == 1


def test_gated_exact_mode_pays_on_facility_location():
    # the one mixed-binary family: continuous shares x_ij in capacity
    # rows with the binaries, solved plain and exact through the whole solver
    plain_nodes = gated_nodes = taken = 0
    for seed in range(1, 9):
        inst = capacitated_facility_location(15, 10, 5.0, seed)
        opt = highs_optimum(inst)
        plain, gated = solve_mip(inst, SolveOptions(**EXACT)), data_free(inst)
        for rep in (plain, gated.best):
            assert rep.status == "optimal"
            assert rep.objective == pytest.approx(opt, rel=1e-7)
        plain_nodes += plain.nodes
        gated_nodes += gated.best.nodes
        if gated.gate.taken:
            # the gate solves no LP, so a taken gate leaves the ungated tree
            taken += 1
            ungated = data_free(inst, gate=None)
            assert ungated.gate is None
            assert [(r.label, r.nodes) for r in gated.regions] == [
                (r.label, r.nodes) for r in ungated.regions]
            assert (gated.best.lps, gated.best.lp_iterations) == (
                ungated.best.lps, ungated.best.lp_iterations)
    assert taken >= 6
    assert gated_nodes <= 0.9 * plain_nodes


def tree_digest(reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr((rep.status, f"{rep.objective:.6f}", rep.nodes, rep.lps,
                       rep.lp_iterations, rep.root_nodes)).encode())
    return h.hexdigest()


def test_ungated_trees_equal_the_paper_rule_before_the_gate():
    # pinned from the four-region solve as it was before the gate existed
    insts = [tight_mkp(4, 16, s) for s in range(6)] + [
        inst for _, inst in gen_ca(12, 36, 6, seed=9).instances]
    reports = [data_free(inst, gate=None).best for inst in insts]
    assert sum(rep.nodes for rep in reports) == 293
    assert tree_digest(reports) == (
        "84eeb10beb903361b2d60c834f7c9c7c916f7c322d55dd61588f0658109df370")


def test_solve_prints_the_gate(tmp_path, capsys):
    path = tmp_path / "inst.json"
    for seed in range(200, 206):
        inst = tight_mkp(5, 25, seed)
        path.write_bytes(serialize(inst))
        assert cli.main(["solve", "--instance", str(path), "--mode", "exact"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rep = data_free(inst)
        assert doc["gate"] == dataclasses.asdict(rep.gate)
        assert [r["label"] for r in doc["regions"]] == [r.label for r in rep.regions]
        assert sum(r["nodes"] for r in doc["regions"]) == doc["nodes"]
        assert doc["best_region"] in [r["label"] for r in doc["regions"]]
        if not doc["gate"]["taken"]:
            assert doc["regions"][0]["label"] == doc["best_region"] == "all"
