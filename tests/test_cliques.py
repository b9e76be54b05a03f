"""Clique cuts at the hull: the conflict graph, the greedy cuts and the
extended LP state they enter through.

The graph is checked against ``oracles.conflict_pairs``, a pair loop
over each row; every cut against that graph, the hull point it was cut
from and every feasible 0/1 point; the extended state against a cold
solve of the cut LP; and the solves against HiGHS.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from oracles import (
    binary_enumeration, conflict_pairs, highs_optimum, reference_first_step_gains,
    reference_fix_by_reduced_costs,
)
from probranch import _simplex, bnb, cli
from probranch.bnb import SolveOptions, solve_mip
from probranch.branching import Calibration, partition_solve
from probranch.generators import gen_ca, gen_knapsack_uniform, gen_scp
from probranch.lp import relaxation_arrays
from probranch.model import LinearRow, MipInstance, check_feasible, serialize
from probranch.predict import lp_root_predict
from test_propagation import feasible_points
from test_warm_start import flipped, tight_mkp, with_continuous

EXACT = dict(rel_gap=0.0, abs_gap=1e-9)


def packing(m: int, n: int, seed: int) -> MipInstance:
    """Rows of weights U{1..20} under capacities U{15..30}: many items conflict pairwise."""
    rng = np.random.default_rng([seed, 23])
    a = rng.integers(1, 21, size=(m, n))
    return MipInstance(
        f"packing_{seed}", "maximize", n, 0,
        objective=[(j, float(v)) for j, v in enumerate(rng.integers(5, 30, size=n))],
        rows=[LinearRow([(j, float(v)) for j, v in enumerate(row)], "<=",
                        float(rng.integers(15, 31))) for row in a],
    )


def assignment(groups: int, size: int, seed: int) -> MipInstance:
    """One = row per group of binaries (pick exactly one), a weighted <= row and a >= row."""
    rng = np.random.default_rng([seed, 29])
    n = groups * size
    w = rng.integers(1, 10, size=n)
    return MipInstance(
        f"assign_{seed}", "minimize", n, 0,
        objective=[(j, float(v)) for j, v in enumerate(rng.integers(-20, 20, size=n))],
        rows=[LinearRow([(g * size + k, 1.0) for k in range(size)], "=", 1.0) for g in range(groups)]
        + [LinearRow([(j, float(v)) for j, v in enumerate(w)], "<=", float(w.sum() // 3)),
           LinearRow([(j, 1.0) for j in range(0, n, 2)], ">=", 1.0)],
    )


def mixed_signs(m: int, n: int, seed: int) -> MipInstance:
    """Rows with coefficients of both signs, some all nonnegative, in every sense."""
    rng = np.random.default_rng([seed, 31])
    rows = []
    for i in range(m):
        coef = rng.integers(-4, 9, size=n) if i % 2 else rng.integers(0, 9, size=n)
        sense = ("<=", ">=", "=")[i % 3] if i % 2 else "<="
        rhs = float(rng.integers(4, 12)) if sense != ">=" else float(rng.integers(-6, 2))
        rows.append(LinearRow([(j, float(v)) for j, v in enumerate(coef) if v], sense, rhs))
    return MipInstance(f"mixed_{seed}", "maximize", n, 0,
                       objective=[(j, float(v)) for j, v in enumerate(rng.integers(1, 10, size=n))],
                       rows=rows)


def graph_pairs(inst: MipInstance) -> set:
    """The solver's conflict graph of inst, as pairs (i, j) with i < j."""
    _, a, senses, b, _, _ = relaxation_arrays(inst)
    rows = bnb._Roundings(a, senses, b, inst.num_binary)
    adj = bnb._conflict_graph(rows.lhs, rows.rhs, inst.num_binary)
    assert (adj == adj.T).all() and not adj.diagonal().any()
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(adj)))}


@pytest.mark.parametrize("family", ["ca", "mkp", "packing", "equality", "mixed", "continuous"])
def test_the_conflict_graph_matches_the_pair_loop(family):
    rng = np.random.default_rng([len(family), 5])
    insts = {
        "ca": lambda: [gen_ca(8, 14, 1, seed=15).instances[0][1],
                       gen_ca(20, 60, 1, seed=3).instances[0][1]],
        "mkp": lambda: [tight_mkp(5, 15, 1), tight_mkp(3, 12, 4)],
        "packing": lambda: [packing(4, 14, s) for s in range(3)],
        "equality": lambda: [assignment(4, 4, s) for s in range(3)],
        "mixed": lambda: [flipped(mixed_signs(6, 12, s)) for s in range(3)],
        "continuous": lambda: [with_continuous(packing(4, 14, s), rng) for s in range(3)],
    }[family]()
    edges = 0
    for inst in insts:
        want = conflict_pairs(inst)
        assert graph_pairs(inst) == want
        edges += len(want)
    assert edges > 0


def test_a_weight_pair_that_fills_the_row_exactly_does_not_conflict():
    # the rhs plus its tolerance, to the last bit: items 0 and 1 fill it
    # exactly and do not conflict, items 0 and 2 exceed it by one ulp;
    # item 3 conflicts with every other item, 1 and 2 are far below the
    # rhs together, so the row's pairs are compared one by one
    rhs = 1000.0
    edge = rhs + bnb.PROPAGATION_TOL * rhs
    w0 = 600.0
    w1 = edge - w0
    assert w0 + w1 == edge
    w2 = np.nextafter(w1, np.inf)
    inst = MipInstance("edge", "maximize", 4, 0, [(j, 1.0) for j in range(4)],
                       [LinearRow([(0, w0), (1, w1), (2, w2), (3, 700.0)], "<=", rhs)])
    assert graph_pairs(inst) == conflict_pairs(inst) == {(0, 2), (0, 3), (1, 3), (2, 3)}
    # the two lightest of the items that conflict with the heaviest fill
    # the row exactly: they do not conflict, so the row is not one clique
    inst = MipInstance("halves", "maximize", 3, 0, [(j, 1.0) for j in range(3)],
                       [LinearRow([(0, edge / 2), (1, edge / 2), (2, 600.0)], "<=", rhs)])
    assert graph_pairs(inst) == conflict_pairs(inst) == {(0, 2), (1, 2)}


def small_instances():
    """30 pure-binary instances of at most 16 binaries whose hulls take clique cuts."""
    for seed in range(10):
        yield gen_ca(8 + seed % 3, 12 + seed % 5, 1, seed=40 + seed).instances[0][1]
        yield packing(3 + seed % 3, 12 + seed % 4, seed)
        yield assignment(4, 3 + seed % 2, seed) if seed % 2 else mixed_signs(6, 13, seed)


def recorded_cuts(monkeypatch) -> list:
    """(hull x, cuts) of every separation round from here on."""
    rounds, separate = [], bnb._Cliques.__call__

    def recording(self, x):
        cuts = separate(self, x)
        rounds.append((x.copy(), cuts))
        return cuts

    monkeypatch.setattr(bnb._Cliques, "__call__", recording)
    return rounds


def test_every_cut_is_a_violated_clique_that_every_feasible_point_meets(monkeypatch):
    rounds = recorded_cuts(monkeypatch)
    total = cut_solves = 0
    for inst in small_instances():
        rounds.clear()
        rep = solve_mip(inst, SolveOptions(**EXACT))
        ref = binary_enumeration(inst)
        assert rep.status == ref.status
        if ref.status == "optimal":
            assert rep.objective == pytest.approx(ref.objective, abs=1e-9)
        pairs = conflict_pairs(inst)
        pts = feasible_points(inst)
        _, a, senses, b, _, _ = relaxation_arrays(inst)
        rows = bnb._Roundings(a, senses, b, inst.num_binary)
        made = []
        for x, cuts in rounds:
            # the hull point meets every row its LP holds, the instance's
            # and the earlier cuts, so no violated clique repeats one
            assert (rows.lhs @ x <= rows.rhs + 1e-7).all()
            assert all(x[list(cols)].sum() <= 1.0 + 1e-7 for cols in made)
            for cut in cuts:
                cols = cut.tolist()
                assert cols == sorted(set(cols))
                assert all((i, j) in pairs for k, i in enumerate(cols) for j in cols[k + 1:])
                # lifted: no binary outside the clique conflicts with all of it
                outside = set(range(inst.num_binary)) - set(cols)
                assert not [j for j in outside if all((min(i, j), max(i, j)) in pairs for i in cols)]
                assert x[cols].sum() > 1.0 + 1e-6
                assert (pts[:, cols].sum(axis=1) <= 1).all()
                made.append(tuple(cols))
        assert len(made) == len(set(made)) == rep.cuts
        assert len(rounds) <= bnb.CUT_ROUNDS
        total += rep.cuts
        cut_solves += rep.cuts > 0
    assert cut_solves >= 15 and total >= 30


def test_a_clique_over_a_non_unit_rows_support_closes_the_hull():
    # x0 + x1 <= 1.5 makes x0 and x1 conflict, and the hull point meets
    # x0 + x1 = 1.5; the clique row x0 + x1 <= 1 has that row's support,
    # is stronger than it, and with x0 + x1 >= 1.5 leaves the hull LP
    # infeasible: no node is opened
    inst = MipInstance("hand", "maximize", 2, 0, [(0, 1.0), (1, 1.0)],
                       [LinearRow([(0, 1.0), (1, 1.0)], sense, 1.5) for sense in (">=", "<=")])
    rep = solve_mip(inst, SolveOptions(**EXACT))
    assert (rep.status, rep.nodes, rep.cuts, rep.lps) == ("infeasible", 0, 1, 2)


def cut_lp(inst: MipInstance, rounds: int):
    """(c, a, senses, b, lb, ub, result, extended state): the hull LP of inst
    after the given number of cut rounds, each entered by ``with_rows`` and
    re-solved warm; its last re-solve's result, and the state that
    re-solve started from."""
    c, a, senses, b, lb, ub = relaxation_arrays(inst)
    c = -c if inst.sense == "maximize" else c
    res = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub)
    rows = bnb._Roundings(a, senses, b, inst.num_binary)
    cliques = bnb._Cliques(bnb._conflict_graph(rows.lhs, rows.rhs, inst.num_binary))
    ext = None
    for _ in range(rounds):
        found = cliques(res.x)
        assert found
        r = np.zeros((len(found), a.shape[1]))
        for k, cols in enumerate(found):
            r[k, cols] = 1.0
        ext = res.state.with_rows(r, np.ones(len(found)))
        assert res.state.m == len(b) and ext.m == len(b) + len(found)  # the old state is kept
        a, senses, b = np.vstack([a, r]), senses + ["<="] * len(found), np.r_[b, np.ones(len(found))]
        res = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub, warm=ext)
        assert res.status == _simplex.STATUS_OPTIMAL and res.state.A is ext.A  # no cold fallback
    return c, a, senses, b, lb, ub, res, ext


@pytest.mark.parametrize("seed", [3, 6, 8])
def test_the_extended_state_matches_a_cold_solve_of_the_cut_lp(seed):
    inst = gen_ca(20, 60, 1, seed=seed).instances[0][1]
    for rounds in (1, 2):
        c, a, senses, b, lb, ub, res, ext = cut_lp(inst, rounds)
        m = len(b)
        # the extended state is its basis over the extended rows: its
        # inverse, its basic values and its reduced costs, which stay dual
        # feasible
        assert np.abs(ext.binv - np.linalg.inv(ext.A[:, ext.basis])).max() <= 1e-9
        x_n = np.where(ext.is_basic, 0.0, ext.x)
        assert np.abs(ext.x[ext.basis] - ext.binv @ (b - ext.A @ x_n)).max() <= 1e-9
        c_full = np.r_[c, np.zeros(m)]
        assert np.abs(ext.d - (c_full - ext.duals(c_full) @ ext.A)).max() <= 1e-9 * np.abs(c).max()
        nonbasic = ~ext.is_basic
        at_lb = nonbasic & (np.abs(ext.x - ext.lb) <= 1e-9)
        at_ub = nonbasic & (np.abs(ext.x - ext.ub) <= 1e-9)
        assert (ext.d[at_lb] >= -1e-9).all() and (ext.d[at_ub] <= 1e-9).all()
        # the warm re-solve reaches the cold optimum of the cut LP
        cold = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub)
        assert cold.status == _simplex.STATUS_OPTIMAL
        assert abs(res.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
        gap = a @ res.x - b
        assert (gap <= 1e-9).all() and ((lb - 1e-9 <= res.x) & (res.x <= ub + 1e-9)).all()


@pytest.mark.parametrize("seed", [3, 6, 8])
def test_an_extended_state_is_complete_before_its_re_solve(seed):
    # with_rows hands on the nonbasic sides h, 0 on the new basic slacks,
    # so reduced-cost fixing and first-step gains read the extended state
    # as they read the optimal state it extends
    inst = gen_ca(20, 60, 1, seed=seed).instances[0][1]
    c, a, senses, b, lb, ub = relaxation_arrays(inst)
    state = _simplex.solve_bounded_lp(-c, a, senses, b, lb, ub).state
    rows = bnb._Roundings(a, senses, b, inst.num_binary)
    found = bnb._Cliques(bnb._conflict_graph(rows.lhs, rows.rhs, inst.num_binary))(state.x)
    assert found
    r = np.zeros((len(found), a.shape[1]))
    for k, cols in enumerate(found):
        r[k, cols] = 1.0
    ext = state.with_rows(r, np.ones(len(found)))
    assert np.array_equal(ext.h, np.r_[state.h, np.zeros(len(found))])
    assert np.array_equal(ext.c, np.r_[state.c, np.zeros(len(found))])

    n = inst.num_binary
    d = np.abs(state.d[:n])
    for gap in (0.0, float(np.median(d[d > 0])), float(d.max())):
        got = bnb._fix_by_reduced_costs(ext, lb, ub, n, gap, 1e-9)
        for want in (bnb._fix_by_reduced_costs(state, lb, ub, n, gap, 1e-9),
                     reference_fix_by_reduced_costs(ext, lb, ub, n, gap, 1e-9)):
            assert got[2] == want[2]
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    # the old rows' B^-1 rows are unchanged and 0 on the new slacks, so a
    # binary basic in them gains what it gained before the rows came in
    x = state.x[:n]
    cands = np.flatnonzero(state.is_basic[:n] & (np.abs(x - np.rint(x)) > 1e-6))
    assert len(cands)
    gains = ext.first_step_gains(cands, (0.0, 1.0))
    assert gains.tobytes() == reference_first_step_gains(ext, cands, (0.0, 1.0)).tobytes()
    assert np.allclose(gains, state.first_step_gains(cands, (0.0, 1.0)), rtol=1e-9, atol=1e-12)


def random_instance(seed: int):
    """(instance, HiGHS optimum) for one seed: an auction, a tight multi-knapsack or
    a set cover, every other pair with continuous columns, in either sense."""
    rng = np.random.default_rng([seed, 41])
    kind = seed % 3
    if kind == 0:
        inst = gen_ca(int(rng.integers(15, 25)), int(rng.integers(40, 70)), 1,
                      seed=300 + seed).instances[0][1]
    elif kind == 1:
        inst = tight_mkp(int(rng.integers(3, 6)), int(rng.integers(12, 18)), 300 + seed)
    else:
        inst = gen_scp(int(rng.integers(10, 16)), int(rng.integers(20, 30)), 0.25, 1,
                       seed=300 + seed).instances[0][1]
    if seed % 4 < 2:
        inst = with_continuous(inst, rng)
    if rng.integers(2):
        inst = flipped(inst)
    return inst, highs_optimum(inst)


def test_plain_exact_and_heuristic_solves_match_highs():
    cuts = 0
    for seed in range(12):
        inst, opt = random_instance(seed)
        tol = dict(rel=1e-7, abs=1e-7)
        pred = lp_root_predict(inst)
        cal = Calibration(tau_star=0.75, sigma=0.0, delta=0.05)
        plain = solve_mip(inst, SolveOptions(**EXACT))
        exact = partition_solve(inst, pred, cal, SolveOptions(**EXACT), mode="exact").best
        for rep in (plain, exact):
            assert rep.status == "optimal", seed
            assert rep.objective == pytest.approx(opt, **tol), seed
            assert check_feasible(inst, rep.best_solution.values)[0], seed
            assert sum(rep.closed.values()) == rep.nodes, seed
            assert type(rep.cuts) is int
            cuts += rep.cuts
        heur = partition_solve(inst, pred, cal, SolveOptions(**EXACT), mode="heuristic").best
        assert heur.status in ("feasible", "infeasible"), seed
        if heur.status == "feasible":
            assert check_feasible(inst, heur.best_solution.values)[0], seed
            better = heur.objective - opt if inst.sense == "maximize" else opt - heur.objective
            assert better <= 1e-7 * max(1.0, abs(opt)), seed
    assert cuts > 0


def test_knapsacks_never_separate(monkeypatch):
    def no_graph(*args):
        raise AssertionError("a knapsack solve builds no conflict graph")

    monkeypatch.setattr(bnb, "_conflict_graph", no_graph)
    for seed in (110_000, 110_001):
        inst = gen_knapsack_uniform(20, 0.3, seed).instance
        rep = solve_mip(inst, SolveOptions(**EXACT))
        assert rep.status == "optimal" and rep.nodes > 1 and rep.cuts == 0
        assert rep.objective == pytest.approx(binary_enumeration(inst).objective, abs=1e-9)


def test_an_instance_without_binaries_takes_no_cut():
    # max x0 + x1 s.t. x0 + x1 <= 1.5 over [0, 1]^2, both continuous
    inst = MipInstance("lp", "maximize", 0, 2, [(0, 1.0), (1, 1.0)],
                       [LinearRow([(0, 1.0), (1, 1.0)], "<=", 1.5)],
                       continuous_bounds=[(0.0, 1.0), (0.0, 1.0)])
    rep = solve_mip(inst, SolveOptions(**EXACT))
    assert (rep.status, rep.nodes, rep.cuts) == ("optimal", 1, 0)
    assert rep.objective == pytest.approx(1.5)


@pytest.mark.parametrize("late", ["separation", "re-solve"])
def test_a_deadline_inside_the_cut_loop_ends_the_solve_with_no_node(monkeypatch, late):
    # the deadline passes inside the first round: in its separation, so
    # the re-solve stops at once, or after its re-solve, so no second
    # round starts
    rounds, separate, solve = [], bnb._Cliques.__call__, _simplex.solve_bounded_lp

    def counted(self, x):
        rounds.append(1)
        if late == "separation":
            time.sleep(0.3)
        return separate(self, x)

    def slow(*args, **kwargs):
        res = solve(*args, **kwargs)
        if kwargs.get("warm") is not None and late == "re-solve":
            time.sleep(0.3)
        return res

    monkeypatch.setattr(bnb._Cliques, "__call__", counted)
    monkeypatch.setattr(_simplex, "solve_bounded_lp", slow)
    inst = gen_ca(20, 60, 1, seed=3).instances[0][1]
    rep = solve_mip(inst, SolveOptions(time_limit=0.2, **EXACT))
    assert (rep.status, rep.nodes, rounds) == ("limit", 0, [1])
    assert rep.cuts > 0 and rep.best_solution is None


def test_the_propagator_and_every_node_lp_take_the_cut_rows(monkeypatch):
    rows, init, solve = [], bnb._Propagator.__init__, _simplex.solve_bounded_lp

    def recording_init(self, lhs, rhs, n_bin):
        rows.append(("propagator", len(rhs)))
        init(self, lhs, rhs, n_bin)

    def recording_lp(c, a, senses, b, lb, ub, **kwargs):
        rows.append(("lp", len(b)))
        return solve(c, a, senses, b, lb, ub, **kwargs)

    monkeypatch.setattr(bnb._Propagator, "__init__", recording_init)
    monkeypatch.setattr(_simplex, "solve_bounded_lp", recording_lp)
    inst = gen_ca(20, 60, 1, seed=3).instances[0][1]
    rep = solve_mip(inst, SolveOptions(**EXACT))
    m = len(inst.rows)  # <= rows only, so _Roundings holds them once
    assert rep.cuts > 0 and rep.nodes > 1
    at = rows.index(("propagator", m + rep.cuts))
    node_lps = rep.nodes - rep.closed["first_step"] - rep.closed["propagated"]
    assert rows[0] == ("lp", m) and len(rows) - at - 1 == node_lps
    assert all(entry == ("lp", m + rep.cuts) for entry in rows[at + 1:])


def test_solve_prints_the_cuts(tmp_path):
    inst = gen_ca(20, 60, 1, seed=3).instances[0][1]
    path = tmp_path / "ca.json"
    path.write_bytes(serialize(inst))
    rep = solve_mip(inst)
    assert rep.cuts > 0
    for mode in ("plain", "exact"):
        out = tmp_path / f"{mode}.json"
        assert cli.main(["solve", "--instance", str(path), "--mode", mode, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert type(doc["cuts"]) is int and doc["cuts"] > 0
        if mode == "plain":
            assert doc["cuts"] == rep.cuts
