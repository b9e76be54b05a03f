"""Row propagation in branch and bound.

Before its LP, every node that is not a knapsack node fixes the free
binaries its rows rule out by their minimum activity over its box, and
closes with no LP when some row holds nowhere in that box; a knapsack
node's closed-form LP applies its one row itself.  These tests show each
rule on hand-built rows (a <= row fixing to 0, a >= row fixing to 1, a
partition count box fixing its members, an item that fills the slack
exactly left free), a node the rows close with no LP, knapsack nodes
applying their row with no propagator, the closed form against
``oracles.propagate_rows`` followed by ``lp.fractional_knapsack`` on
random boxes, the propagator against that one-row-at-a-time loop and
against every feasible 0/1 point of random node boxes, plain and exact
solves against independent oracles, and ``solve``'s output.
"""

import json

import numpy as np
import pytest

from oracles import binary_enumeration, highs_optimum, knapsack_arrays, propagate_rows, with_rows
from probranch import _simplex, bnb, cli
from probranch.bnb import SolveOptions, solve_mip
from probranch.branching import Calibration, partition_solve
from probranch.generators import gen_ca, gen_knapsack_uniform, gen_scp
from probranch.lp import fractional_knapsack, relaxation_arrays
from probranch.model import LinearRow, MipInstance, check_feasible, serialize
from probranch.predict import Prediction, lp_root_predict
from test_fixing import knapsack
from test_warm_start import counted_partition, flipped, tight_mkp, with_continuous

EXACT = dict(rel_gap=0.0, abs_gap=1e-9)


def propagator(inst: MipInstance):
    """(the solver's propagator for inst, lb, ub of inst's own box)."""
    _, a, senses, b, lb, ub = relaxation_arrays(inst)
    rows = bnb._Roundings(a, senses, b, inst.num_binary)
    return bnb._Propagator(rows.lhs, rows.rhs, inst.num_binary), lb, ub


def row(coeffs, sense: str, rhs: float) -> LinearRow:
    return LinearRow([(j, float(v)) for j, v in enumerate(coeffs) if v], sense, float(rhs))


def binary_instance(rows: list[LinearRow], n: int) -> MipInstance:
    return MipInstance("hand", "maximize", n, 0, objective=[(j, 1.0) for j in range(n)], rows=rows)


def test_a_le_row_fixes_to_zero_and_a_ge_row_to_one():
    # 3 x0 + 4 x1 + 2 x2 <= 5 with x0 = 1 leaves slack 2: x1 goes to 0 and
    # x2, which fills it exactly, stays free; 2 x3 + x4 + x5 >= 3 has slack
    # 1 over the box: x3 goes to 1, and x4 and x5 stay free
    inst = binary_instance([row([3, 4, 2], "<=", 5), row([0, 0, 0, 2, 1, 1], ">=", 3)], 6)
    prop, lb, ub = propagator(inst)
    lb[0] = 1.0
    given = lb.copy(), ub.copy()
    new_lb, new_ub, count = prop(lb, ub)
    assert count == 2
    assert new_lb.tolist() == [1, 0, 0, 1, 0, 0]
    assert new_ub.tolist() == [1, 0, 1, 1, 1, 1]
    # siblings share box arrays: the caller's are left as they were
    assert np.array_equal(lb, given[0]) and np.array_equal(ub, given[1])
    assert prop(new_lb, new_ub)[2] == 0  # a fixed point


@pytest.mark.parametrize("side", ["at_most", "at_least"])
def test_a_count_box_fixes_the_members_of_its_set(side):
    # partition_solve's form: t = y0 + ... + y5, a count column in [0, 6];
    # y6 and y7 lie outside the set
    n, size, k = 8, 6, 2
    inst = MipInstance(
        "count", "maximize", n, 1, objective=[(j, 1.0) for j in range(n)],
        rows=[LinearRow([(j, 1.0) for j in range(size)] + [(n, -1.0)], "=", 0.0)],
        continuous_bounds=[(0.0, float(size))],
    )
    prop, lb, ub = propagator(inst)
    if side == "at_most":  # t <= 2 with y0 = y1 = 1: every other member is 0
        ub[n], lb[:k] = k, 1.0
        forced = lb.copy(), ub.copy()
        forced[1][k:size] = 0.0
    else:  # t >= 4 with y0 = y1 = 0: every other member is 1
        lb[n], ub[:k] = size - k, 0.0
        forced = lb.copy(), ub.copy()
        forced[0][k:size] = 1.0
    new_lb, new_ub, count = prop(lb, ub)
    assert count == size - k
    assert np.array_equal(new_lb, forced[0]) and np.array_equal(new_ub, forced[1])

    # one member fewer at its bound leaves every member free, one more
    # closes the node
    fewer, more = (lb.copy(), ub.copy()), (lb.copy(), ub.copy())
    if side == "at_most":
        fewer[0][k - 1], more[0][k] = 0.0, 1.0
    else:
        fewer[1][k - 1], more[1][k] = 1.0, 0.0
    assert prop(*fewer)[2] == 0
    assert prop(*more) is None


@pytest.mark.parametrize("rhs", [1.0, 1000.0])
def test_an_item_that_fills_the_slack_exactly_stays_free(rhs):
    # the slack plus its tolerance, to the last bit: a weight equal to it
    # stays free and the next float above it is fixed to 0, as is nothing
    # else; the tolerance is relative to rhs, so at rhs = 1000 an absolute
    # 1e-9 would fix x0 too
    edge = rhs + bnb.PROPAGATION_TOL * max(1.0, abs(rhs))
    inst = binary_instance([row([edge, np.nextafter(edge, np.inf), rhs], "<=", rhs)], 3)
    prop, lb, ub = propagator(inst)
    new_lb, new_ub, count = prop(lb, ub)
    assert count == 1
    assert new_lb.tolist() == [0, 0, 0] and new_ub.tolist() == [1, 0, 1]


def recorded_boxes(monkeypatch) -> list:
    """The (lb, ub) of every LP solved from here on."""
    boxes, solve = [], _simplex.solve_bounded_lp

    def recording(c, a, senses, b, lb, ub, **kwargs):
        boxes.append((lb.copy(), ub.copy()))
        return solve(c, a, senses, b, lb, ub, **kwargs)

    monkeypatch.setattr(_simplex, "solve_bounded_lp", recording)
    return boxes


def test_the_rows_close_a_node_with_no_lp(monkeypatch):
    boxes = recorded_boxes(monkeypatch)
    # with t in [0, 0.25], x0 + x1 + t >= 1.5 fixes x0 = x1 = 1, which
    # overfills x0 + x1 + t <= 1.5: the LP holds at x0 + x1 + t = 1.5, so
    # the hull is solved, but the root closes unsolved, and the fixings
    # made on the way are not counted; the continuous column keeps both
    # rows out of the conflict graph, so no clique cut closes the hull
    rows = [LinearRow([(0, 1.0), (1, 1.0), (2, 1.0)], sense, 1.5) for sense in (">=", "<=")]
    inst = MipInstance("hand", "maximize", 2, 1, objective=[(0, 1.0), (1, 1.0)], rows=rows,
                       continuous_bounds=[(0.0, 0.25)])
    rep = solve_mip(inst, options=SolveOptions(**EXACT))
    hull = [([0.0, 0.0, 0.0], [1.0, 1.0, 0.25])]
    assert (rep.status, rep.nodes, rep.propagated, rep.cuts) == ("infeasible", 1, 0, 0)
    assert [(lo.tolist(), hi.tolist()) for lo, hi in boxes] == hull
    assert rep.closed == {**dict.fromkeys(bnb.CLOSED_BY, 0), "propagated": 1}

    # with x2 = 0, x0 + x1 + x2 >= 2 fixes x0 = x1 = 1, which overfills
    # x0 + x1 <= 1: that root box closes, and no LP is solved inside it
    inst = binary_instance([row([1, 1, 1], ">=", 2), row([1, 1], "<=", 1)], 3)
    boxes.clear()
    lb, ub = inst.bounds_arrays()
    closed_box, open_box = (lb, ub.copy()), (lb.copy(), ub)
    closed_box[1][2], open_box[0][2] = 0.0, 1.0
    rep = solve_mip(inst, options=SolveOptions(**EXACT), roots=[closed_box, open_box])
    assert rep.status == "optimal" and rep.objective == 2.0
    assert rep.root_nodes[0] == 1 and rep.closed["propagated"] >= 1
    assert len(boxes) > 1  # the hull and the open box
    assert not any((lo >= closed_box[0]).all() and (hi <= closed_box[1]).all() for lo, hi in boxes)


def counted_calls(monkeypatch) -> list:
    """One entry per propagator call from here on."""
    calls, call = [], bnb._Propagator.__call__

    def counting(self, lb, ub):
        calls.append(1)
        return call(self, lb, ub)

    monkeypatch.setattr(bnb._Propagator, "__call__", counting)
    return calls


def force_calls(monkeypatch) -> None:
    """Every node below a root calls the propagator from here on: each
    fixing counts as raising some row's minimum activity."""
    init = bnb._Propagator.__init__

    def forcing(self, *args):
        init(self, *args)
        self.raises[:] = True

    monkeypatch.setattr(bnb._Propagator, "__init__", forcing)


def test_knapsack_nodes_apply_their_row_in_closed_form(monkeypatch):
    """A knapsack's closed-form LP applies its one row itself: no
    propagator is called, and since the node's box is left as it is,
    ``propagated`` stays 0."""
    calls = counted_calls(monkeypatch)
    inst = gen_knapsack_uniform(30, 0.3, 110_000).instance
    rep = solve_mip(inst, options=SolveOptions(**EXACT))
    assert rep.nodes > 1 and calls == [] and rep.propagated == 0
    # a redundant second row leaves the closed form: with every call
    # forced, every node propagates
    force_calls(monkeypatch)
    n = inst.num_binary
    inst = with_rows(inst, [LinearRow([(j, 1.0) for j in range(n)], "<=", float(n))])
    rep = solve_mip(inst, options=SolveOptions(**EXACT))
    assert len(calls) == rep.nodes - rep.closed["first_step"] > 1


def knapsack_lp_reference(inst: MipInstance, lb, ub):
    """(x, lambda, held, critical) of a knapsack's LP over the box by the
    oracles, or None when the row holds nowhere in it: the row propagated
    one item at a time, then the greedy LP over the items it leaves free.
    ``held`` marks the free items the row fixes to 0, and ``critical`` is
    the item the greedy LP splits (None when every item fits)."""
    box = propagate_rows(inst, lb, ub)
    if box is None:
        return None
    plb, pub = box
    w, f, cap = knapsack_arrays(inst)
    free = np.flatnonzero(plb < pub)
    x, lam, critical = plb.copy(), 0.0, None
    if len(free):
        y, lam, split = fractional_knapsack(w[free], f[free], cap - float(np.dot(w, plb)))
        x[free] = y
        critical = None if split is None else int(free[split])
    return x, lam, (plb == pub) & (lb < ub), critical


RELAXATION_CASES = ["generator", "exact_fill", "tied", "fills_room", "heavy"]


def relaxation_case(case: str, trial: int):
    """(instance, lb, ub, item) for one trial: a 12-item knapsack and a
    random node box.  The generator's knapsack; integer weights, so many
    boxes fill the capacity exactly with whole items; ratios tied in
    threes; or a free item of the best ratio, ``item``, whose weight
    equals the room the box leaves exactly (it stays free) or exceeds it
    by 1e-6, beyond the propagation tolerance (it is held at 0)."""
    rng = np.random.default_rng([RELAXATION_CASES.index(case), trial, 27])
    n = 12
    lb, ub = np.zeros(n), np.ones(n)
    pick = rng.permutation(n)
    lb[pick[:rng.integers(0, 6)]] = 1.0
    ub[pick[6:6 + rng.integers(0, 4)]] = 0.0
    if case == "generator":
        return gen_knapsack_uniform(n, 0.3, 130_000 + trial).instance, lb, ub, None
    w, f = rng.uniform(0.1, 1.0, n), rng.uniform(0.05, 1.0, n)
    if case in ("exact_fill", "fills_room"):
        w = rng.integers(1, 6, n).astype(float)
    if case == "tied":
        f = np.repeat(rng.random(4) + 0.05, 3)
    if case == "exact_fill":
        return knapsack(w, f, np.floor(0.3 * w.sum())), lb, ub, None
    if case == "tied":
        return knapsack(w, f, 0.3 * n), lb, ub, None
    item = int(pick[5])  # free: the box fixes pick[:5] to 1 at most, pick[6:] to 0
    f[item] = 1.5
    cap = w @ lb + w[item] - (1e-6 if case == "heavy" else 0.0)
    return knapsack(w, f, cap), lb, ub, item


@pytest.mark.parametrize("case", RELAXATION_CASES)
def test_the_knapsack_lp_is_the_greedy_lp_of_the_propagated_box(case):
    held_seen = infeasible = 0
    for trial in range(60):
        inst, lb, ub, item = relaxation_case(case, trial)
        c_user, (w,), _, (cap,), _, _ = relaxation_arrays(inst)
        c = -c_user  # the solver minimizes
        status, x, bound, state = bnb._Knapsack(c, w, float(cap))(lb, ub)
        ref = knapsack_lp_reference(inst, lb, ub)
        if ref is None:
            assert status == _simplex.STATUS_INFEASIBLE, trial
            infeasible += 1
            continue
        rx, lam, held, critical = ref
        assert status == _simplex.STATUS_OPTIMAL, trial
        np.testing.assert_allclose(x, rx, rtol=0, atol=1e-12)
        assert bound == pytest.approx(float(c @ rx), rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(state.d, c + lam * w, rtol=1e-12, atol=1e-12)
        # fixed, held and critical items are h = 0; the rest sit at a bound
        h = np.where(lb < ub, np.where(rx == 1.0, 1.0, -1.0), 0.0)
        h[held] = 0.0
        if critical is not None:
            h[critical] = 0.0
        assert np.array_equal(state.h, h), trial
        held_seen += held.any()
        if case == "fills_room":  # the best ratio and it fits whole
            assert not held[item] and x[item] == 1.0 and state.h[item] == 1.0
        elif case == "heavy":
            assert held[item] and x[item] == 0.0 and state.h[item] == 0.0
    assert infeasible <= 20 and held_seen >= (60 if case == "heavy" else 5)


@pytest.mark.parametrize("family", ["ca", "mkp"])
def test_a_node_at_its_parents_fixed_point_skips_the_propagator(monkeypatch, family):
    # a child whose branched column and reduced-cost fixings raise no
    # row's minimum activity starts at its parent's fixed point: skipping
    # its call leaves every tree bit-identical to the one with every call
    if family == "ca":
        insts = [inst for _, inst in gen_ca(20, 60, 6, seed=3).instances]
    else:
        insts = [tight_mkp(5, 15, s) for s in range(1, 7)]
    calls = counted_calls(monkeypatch)
    runs = []
    for forced in (False, True):
        if forced:
            force_calls(monkeypatch)
        calls.clear()
        reps = []
        for inst in insts:
            reps.append(solve_mip(inst, options=SolveOptions(**EXACT)))
            if family == "mkp":
                reps.append(partition_solve(inst, lp_root_predict(inst), Calibration(0.75, 0.0, 0.05),
                                            SolveOptions(**EXACT), mode="exact").best)
        runs.append((len(calls), [(r.nodes, r.objective, r.fixed, r.propagated, r.cuts, r.closed,
                                   r.best_solution.values.tolist()) for r in reps]))
    (skipping, trees), (forced, forced_trees) = runs
    assert trees == forced_trees
    assert forced == sum(r[0] - r[5]["first_step"] for r in trees)  # every node called it
    assert skipping < 0.8 * forced


def random_boxes(inst: MipInstance, roots, rng, count: int):
    """Node boxes inside the given root boxes, which fix no binary: random
    binaries fixed, count columns narrowed."""
    n_bin = inst.num_binary
    for _ in range(count):
        lo, hi = roots[rng.integers(len(roots))]
        lb, ub = lo.copy(), hi.copy()
        picked = rng.choice(n_bin, size=rng.integers(n_bin // 2 + 1), replace=False)
        lb[picked] = ub[picked] = rng.integers(0, 2, len(picked))
        for j in range(n_bin, inst.num_vars):  # an integer count interval
            lb[j], ub[j] = np.sort(rng.integers(int(lo[j]), int(hi[j]) + 1, 2))
        yield lb, ub


def feasible_points(inst: MipInstance) -> np.ndarray:
    """Every 0/1 point of inst meeting its rows within 1e-9, count columns set by their rows."""
    n_bin = inst.num_binary
    _, a, senses, b, _, _ = relaxation_arrays(inst)
    pts = np.zeros((1 << n_bin, inst.num_vars))
    pts[:, :n_bin] = (np.arange(1 << n_bin)[:, None] >> np.arange(n_bin)) & 1
    for j in range(n_bin, inst.num_vars):  # a count column, which its one row sets
        (i,) = np.flatnonzero(a[:, j])
        pts[:, j] = (b[i] - pts @ a[i]) / a[i, j]
    gap = pts @ a.T - b
    le = np.array([s != ">=" for s in senses])
    ge = np.array([s != "<=" for s in senses])
    return pts[((gap <= 1e-9) | ~le).all(axis=1) & ((gap >= -1e-9) | ~ge).all(axis=1)]


@pytest.mark.parametrize("family", ["mkp", "ca", "scp", "counted"])
def test_propagation_matches_the_row_loop_and_keeps_every_feasible_point(monkeypatch, family):
    rng = np.random.default_rng([len(family), 22])
    if family == "counted":
        inst, roots = counted_partition(monkeypatch, tight_mkp(4, 12, 3))
    else:
        inst = {"mkp": lambda: tight_mkp(4, 12, 3),
                "ca": lambda: gen_ca(8, 14, 1, seed=15).instances[0][1],
                "scp": lambda: gen_scp(7, 10, 0.3, 1, seed=17).instances[0][1]}[family]()
        roots = [inst.bounds_arrays()]
    prop, _, _ = propagator(inst)
    pts = feasible_points(inst)
    n_bin = inst.num_binary
    fixed = closed = 0
    for lb, ub in random_boxes(inst, roots, rng, 300):
        got, want = prop(lb, ub), propagate_rows(inst, lb, ub)
        inside = pts[((pts >= lb - 1e-9) & (pts <= ub + 1e-9)).all(axis=1)]
        if want is None:
            assert got is None
            assert len(inside) == 0
            closed += 1
            continue
        new_lb, new_ub, count = got
        assert type(count) is int  # solve's JSON output carries the sum
        assert np.array_equal(new_lb, want[0]) and np.array_equal(new_ub, want[1])
        assert count == np.count_nonzero(lb[:n_bin] < ub[:n_bin]) - np.count_nonzero(
            new_lb[:n_bin] < new_ub[:n_bin])
        # no feasible point of the box is lost
        assert ((inside >= new_lb - 1e-9) & (inside <= new_ub + 1e-9)).all()
        fixed += count > 0
    assert fixed >= 20 and closed >= 5


def random_instance(seed: int):
    """(instance, optimum) for one seed: a tight multi-knapsack, an auction or a set cover,
    every other pair with continuous columns, in either objective sense."""
    rng = np.random.default_rng([seed, 22])
    kind = seed % 3
    if kind == 0:
        inst = tight_mkp(int(rng.integers(3, 6)), int(rng.integers(12, 17)), 200 + seed)
    elif kind == 1:
        inst = gen_ca(int(rng.integers(8, 13)), int(rng.integers(14, 19)), 1, seed=200 + seed).instances[0][1]
    else:
        inst = gen_scp(int(rng.integers(7, 11)), int(rng.integers(10, 15)), 0.3, 1,
                       seed=200 + seed).instances[0][1]
    if seed % 4 < 2:
        inst = with_continuous(inst, rng)
    if rng.integers(2):
        inst = flipped(inst)
    if inst.num_continuous:
        return inst, highs_optimum(inst), rng
    return inst, binary_enumeration(inst).objective, rng


def test_solves_with_propagation_match_the_oracles():
    propagated = closed = 0
    for seed in range(12):
        inst, expected, rng = random_instance(seed)
        tol = dict(rel=1e-7, abs=1e-7) if inst.num_continuous else dict(rel=0, abs=1e-9)

        plain = solve_mip(inst, options=SolveOptions(**EXACT))
        assert plain.status == "optimal", seed
        assert plain.objective == pytest.approx(expected, **tol), seed
        assert check_feasible(inst, plain.best_solution.values)[0], seed
        assert sum(plain.closed.values()) == plain.nodes, seed

        if rng.integers(2):
            pred = lp_root_predict(inst)
        else:
            pred = Prediction(rng.random(inst.num_binary))
        cal = Calibration(tau_star=float(rng.choice([0.6, 0.75])), sigma=0.0, delta=0.05)
        # ungated, so every region's count box reaches its members by propagation
        exact = partition_solve(inst, pred, cal, SolveOptions(**EXACT), mode="exact",
                                gate=None).best
        assert exact.status == "optimal", seed
        assert exact.objective == pytest.approx(expected, **tol), seed
        assert check_feasible(inst, exact.best_solution.values)[0], seed
        assert sum(exact.closed.values()) == exact.nodes, seed
        for rep in (plain, exact):
            propagated += rep.propagated > 0
            closed += rep.closed["propagated"] > 0
    assert propagated >= 12 and closed >= 4


def test_solve_prints_the_propagated_binaries_apart_from_the_fixed(tmp_path):
    inst = tight_mkp(5, 15, 1)
    path = tmp_path / "mkp.json"
    path.write_bytes(serialize(inst))
    for mode in ("plain", "exact"):
        out = tmp_path / f"{mode}.json"
        assert cli.main(["solve", "--instance", str(path), "--mode", mode, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert type(doc["propagated"]) is int and doc["propagated"] > 0
        assert list(doc["closed"]) == list(bnb.CLOSED_BY)
        assert sum(doc["closed"].values()) == doc["nodes"]
        if mode == "plain":
            rep = solve_mip(inst)
            assert (doc["propagated"], doc["fixed"]) == (rep.propagated, rep.fixed)
