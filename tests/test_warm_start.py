"""Warm-started node LPs in branch and bound.

Every LP after the first, a partition's region roots included,
reoptimizes its parent's final basis with the bounded dual simplex,
starting from the parent's carried reduced costs, and stops once its
dual bound reaches the cutoff.  These tests hold each such LP to a cold
solve of the same node, its carried reduced costs to ones computed
afresh, each child's first-step bound to its LP optimum (HiGHS), every
LP after the hull to a warm start and the cutoff, the partition solves
to no cold fallback, the hull's infeasible and time-limit ends to
statuses with no node, an unsettled warm solve to a cold one and a cold
one that breaks down to NumericalFailure, the cold solve to its dual
start from the slack basis, the partition tree (exact and heuristic
mode) to independent oracles on randomized instances, the
refactorization interval to whole dives, and the batched rounding pass
to the per-rounder loop it replaced.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    binary_enumeration,
    enumerate_lp_vertices,
    highs_optimum,
    reference_roundings,
    region_rows,
    set_cover_dp,
    set_packing_dp,
    with_rows,
)
from probranch import _simplex, bnb, branching, cli
from probranch.bnb import GATE_RATIO, SolveOptions, solve_mip
from probranch.branching import (
    Calibration,
    build_hyperplanes,
    partition_solve,
)
from probranch.generators import gen_ca, gen_scp
from probranch.lp import relaxation_arrays
from probranch.model import MAXIMIZE, LinearRow, MipInstance, check_feasible, serialize
from probranch.predict import Prediction, lp_root_predict

EXACT = dict(rel_gap=0.0, abs_gap=1e-9)


def tight_mkp(m: int, n: int, seed: int) -> MipInstance:
    """Multi-knapsack with Chu-Beasley capacities b_i = 0.25 sum_j A_ij."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1001, size=(m, n)).astype(float)
    c = a.mean(axis=0) + rng.integers(1, 501, size=n)
    b = 0.25 * a.sum(axis=1)
    return MipInstance(
        f"mkp_{m}x{n}_{seed}", "maximize", n, 0,
        objective=[(j, float(c[j])) for j in range(n)],
        rows=[LinearRow([(j, float(a[i, j])) for j in range(n)], "<=", float(b[i]))
              for i in range(m)],
    )


def flipped(inst: MipInstance) -> MipInstance:
    """The same problem in the other objective sense, costs negated."""
    return MipInstance(
        inst.name, "minimize" if inst.sense == "maximize" else "maximize",
        inst.num_binary, inst.num_continuous,
        objective=[(j, -v) for j, v in inst.objective],
        rows=inst.rows, continuous_bounds=inst.continuous_bounds,
    )


def with_continuous(inst: MipInstance, rng) -> MipInstance:
    """inst plus one to three continuous columns that enter its rows and objective.

    Each column has bounds [lo, hi] around 0, so every point of inst
    stays feasible, and coefficients of the same sign and scale as the
    instance's own, so the optimum may use it.
    """
    d = int(rng.integers(1, 4))
    n = inst.num_vars
    obj_scale = np.mean([v for _, v in inst.objective])
    rows = []
    for row in inst.rows:
        scale = np.mean([v for _, v in row.coeffs])
        extra = [(n + k, float(scale * rng.uniform(0.3, 1.0)))
                 for k in range(d) if rng.random() < 0.5]
        rows.append(LinearRow(row.coeffs + extra, row.sense, row.rhs))
    return MipInstance(
        inst.name + "_mixed", inst.sense, inst.num_binary, inst.num_continuous + d,
        objective=inst.objective + [(n + k, float(obj_scale * rng.uniform(0.5, 1.5)))
                                    for k in range(d)],
        rows=rows,
        continuous_bounds=inst.continuous_bounds + [
            (float(rng.choice([0.0, -0.5])), float(rng.uniform(0.5, 2.0))) for _ in range(d)],
    )


FAMILIES = {
    "mkp": lambda: [tight_mkp(5, 15, 1), tight_mkp(4, 14, 2)],
    "ca": lambda: [inst for _, inst in gen_ca(30, 100, 5, seed=5).instances],
    "scp": lambda: [inst for _, inst in gen_scp(20, 60, 0.25, 8, seed=6).instances],
}


@pytest.mark.parametrize("with_cuts", [False, True], ids=["plain", "partition"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_warm_node_lp_matches_a_cold_solve(monkeypatch, family, with_cuts):
    cold = _simplex.solve_bounded_lp
    warm_solves = []

    def recording(c, a, senses, b, lb, ub, **kwargs):
        res = cold(c, a, senses, b, lb, ub, **kwargs)
        if kwargs.get("warm") is not None:
            warm_solves.append((c, a, senses, b, lb.copy(), ub.copy(), kwargs["warm"],
                                kwargs.get("cutoff", math.inf), res))
        return res

    monkeypatch.setattr(_simplex, "solve_bounded_lp", recording)
    for inst in FAMILIES[family]():
        regions = [[]]
        if with_cuts:
            pred = lp_root_predict(inst)
            cuts = build_hyperplanes(pred, tau=0.9, sigma=0.0, delta=0.05, tightened=True)
            regions = [rows for _, rows in region_rows(*cuts)]
        for rows in regions:
            solve_mip(with_rows(inst, rows), SolveOptions(**EXACT))

    assert len(warm_solves) >= 30
    statuses = set()
    for c, a, senses, b, lb, ub, warm, cutoff, res in warm_solves:
        ref = cold(c, a, senses, b, lb, ub)
        statuses.add(res.status)
        if res.status == _simplex.STATUS_CUTOFF:
            # stopped at the cutoff: the node LP cannot beat it
            assert ref.status == _simplex.STATUS_INFEASIBLE or (
                ref.objective >= cutoff - 1e-9 * max(1.0, abs(cutoff)))
            continue
        assert res.status == ref.status
        if ref.status == _simplex.STATUS_OPTIMAL:
            assert res.objective == pytest.approx(ref.objective, rel=1e-7, abs=1e-9)
            assert res.state.A is warm.A  # reoptimized in place, no cold fallback
    assert _simplex.STATUS_OPTIMAL in statuses


@pytest.mark.parametrize("with_cuts", [False, True], ids=["plain", "partition"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_carried_reduced_costs_match_the_final_basis(monkeypatch, family, with_cuts):
    solve = _simplex.solve_bounded_lp
    states = []

    def recording(c, a, senses, b, lb, ub, **kwargs):
        res = solve(c, a, senses, b, lb, ub, **kwargs)
        if kwargs.get("warm") is not None and res.status == _simplex.STATUS_OPTIMAL:
            states.append((c, res.state))
        return res

    monkeypatch.setattr(_simplex, "solve_bounded_lp", recording)
    for inst in FAMILIES[family]():
        regions = [[]]
        if with_cuts:
            pred = lp_root_predict(inst)
            cuts = build_hyperplanes(pred, tau=0.9, sigma=0.0, delta=0.05, tightened=True)
            regions = [rows for _, rows in region_rows(*cuts)]
        for rows in regions:
            solve_mip(with_rows(inst, rows), SolveOptions(**EXACT))

    assert len(states) >= 30
    for c, state in states:
        assert state.d is not None  # a warm solve that needed no fallback
        # within 1e-9 relative to the largest cost, so basic columns'
        # exact zeros match their recomputed round-off
        c_full = np.zeros(state.A.shape[1])
        c_full[: len(c)] = c
        fresh = c_full - state.duals(c_full) @ state.A
        assert np.abs(state.d - fresh).max() <= 1e-9 * max(1.0, np.abs(c).max())


def lp_optimum(c, a, senses, b, lb, ub):
    """HiGHS's optimum of min c.x over the rows and the box, or None if infeasible."""
    from scipy.optimize import linprog

    sign = np.array([-1.0 if s == ">=" else 1.0 for s in senses])
    eq = np.array([s == "=" for s in senses], dtype=bool)
    res = linprog(c, A_ub=(sign[:, None] * a)[~eq], b_ub=(sign * b)[~eq],
                  A_eq=a[eq] if eq.any() else None, b_eq=b[eq] if eq.any() else None,
                  bounds=list(zip(lb, ub)), method="highs")
    assert res.status in (0, 2), res.message
    return res.fun if res.status == 0 else None


@pytest.mark.parametrize("seed", range(12))
def test_first_step_bounds_never_exceed_the_child_lp(monkeypatch, seed):
    rng = np.random.default_rng([seed, 12])
    kind = ("mkp", "ca", "scp")[seed % 3]
    if kind == "mkp":
        insts = [tight_mkp(int(rng.integers(3, 6)), int(rng.integers(12, 18)), seed)]
    elif kind == "ca":
        # four, as two can close at the hull's clique cuts
        insts = [inst for _, inst in gen_ca(20, 60, 4, seed=seed).instances]
    else:  # most set covers solve at the root, so take several
        insts = [inst for _, inst in gen_scp(20, 60, 0.25, 6, seed=seed).instances]
    if seed // 3 % 2:
        insts = [with_continuous(inst, rng) for inst in insts]
    lp_rows = []
    branchings = []
    scored = []  # columns scored per branching
    solve, gains_of = _simplex.solve_bounded_lp, _simplex._Workspace.first_step_gains

    def recording_lp(c, a, senses, b, lb, ub, **kwargs):
        lp_rows[:] = [(c, a, senses, b)]
        return solve(c, a, senses, b, lb, ub, **kwargs)

    def recording_gains(state, cols, targets):
        gains = gains_of(state, cols, targets)
        scored.append(len(cols))
        for j, col_gains in zip(cols, gains):
            branchings.append((lp_rows[0], state.lb[: state.n].copy(), state.ub[: state.n].copy(),
                               float(lp_rows[0][0] @ state.x[: state.n]), j, targets, col_gains))
        return gains

    monkeypatch.setattr(_simplex, "solve_bounded_lp", recording_lp)
    monkeypatch.setattr(_simplex._Workspace, "first_step_gains", recording_gains)
    for inst in insts:
        if seed // 6:
            partition_solve(inst, lp_root_predict(inst), Calibration(0.75, 0.0, 0.05),
                            SolveOptions(**EXACT), mode="exact")
        else:
            solve_mip(inst, SolveOptions(**EXACT))

    # a node branches on one of the columns it scores, so the bounds of
    # a candidate that was scored and not chosen are checked too
    assert max(scored, default=0) > 1
    for (c, a, senses, b), lb, ub, parent, j, targets, gains in branchings:
        for target, gain in zip(targets, gains):
            assert gain >= 0.0
            child_lb, child_ub = lb.copy(), ub.copy()
            child_lb[j] = child_ub[j] = target  # a binary's child fixes it
            opt = lp_optimum(c, a, senses, b, child_lb, child_ub)
            if opt is not None:
                assert parent + gain <= opt + 1e-9 * max(1.0, abs(opt))


@pytest.mark.parametrize("mode", ["plain", "exact", "heuristic"])
def test_every_lp_after_the_hull_is_warm_and_gets_the_cutoff(monkeypatch, mode):
    calls = []
    solve = _simplex.solve_bounded_lp

    def recording(c, a, senses, b, lb, ub, **kwargs):
        res = solve(c, a, senses, b, lb, ub, **kwargs)
        calls.append((kwargs.get("warm"), kwargs.get("cutoff", math.inf), res,
                      lb.copy(), ub.copy()))
        return res

    inst = tight_mkp(5, 15, 1)
    pred = lp_root_predict(inst)
    monkeypatch.setattr(_simplex, "solve_bounded_lp", recording)
    if mode == "plain":
        rep = solve_mip(inst, SolveOptions(**EXACT))
        roots = 1
    else:
        part = partition_solve(inst, pred, Calibration(0.75, 0.0, 0.05), SolveOptions(**EXACT),
                               mode=mode, gate=None)
        rep = part.best
        roots = len(part.regions)
        assert roots >= (3 if mode == "exact" else 1)
    assert rep.cuts == 0  # no pair of this instance's items conflicts
    # the first LP is cold, over a box that holds every later one: the
    # hull of the regions, or of the plain root
    (warm, cutoff, hull, hull_lb, hull_ub), *rest = calls
    assert warm is None and math.isinf(cutoff) and hull.status == _simplex.STATUS_OPTIMAL
    assert len(rest) >= 10
    for warm, _, _, lb, ub in rest:
        assert warm is not None and (hull_lb <= lb).all() and (ub <= hull_ub).all()
    # each root is a child of the hull, popped before any other
    assert all(warm is hull.state for warm, *_ in rest[:roots])
    if mode != "exact":  # the hull of one root is that root's own LP: one pass, no pivot
        _, _, root, root_lb, root_ub = rest[0]
        assert (root_lb == hull_lb).all() and (root_ub == hull_ub).all()
        assert root.iterations == 1 and root.objective == pytest.approx(hull.objective, rel=1e-12)
    # each LP gets the cutoff of the incumbent it starts under, none until
    # the first; the first root LP rounds to one, so every LP after it,
    # the next region root included, gets its cutoff
    cutoffs = [cutoff for _, cutoff, *_ in rest]
    first = next(k for k, cutoff in enumerate(cutoffs) if math.isfinite(cutoff))
    assert first == 1
    assert all(b <= a for a, b in zip(cutoffs[first:], cutoffs[first + 1:]))
    # the instance maximizes, so the solver's incumbent is -objective
    assert set(cutoffs[first:]) <= {-obj - EXACT["abs_gap"] for _, obj in rep.incumbent_log}


def test_no_warm_solve_in_partition_solves_falls_back_cold(monkeypatch):
    # the warm dual settles on every region root and node below it, so
    # no warm solve builds a cold workspace
    init, solve = _simplex._Workspace.__init__, _simplex.solve_bounded_lp
    warm_calls, inside, fallbacks = [], [], []

    def in_solve(*args, warm=None, **kwargs):
        inside.append(warm is not None)
        warm_calls.append(warm is not None)
        try:
            return solve(*args, warm=warm, **kwargs)
        finally:
            inside.pop()

    def counted(ws, *args):
        if inside and inside[-1]:
            fallbacks.append(ws)
        init(ws, *args)

    monkeypatch.setattr(_simplex, "solve_bounded_lp", in_solve)
    monkeypatch.setattr(_simplex._Workspace, "__init__", counted)
    solved = 0
    # seed 3: the seed-1 family's trees are small once the hull is cut
    for _, inst in gen_ca(20, 60, 6, seed=3).instances:
        plain = solve_mip(inst, SolveOptions(**EXACT))
        for backend in ("ipm", "simplex"):
            # the CLI's data-free cuts for lp-root-ipm and lp-root-simplex
            cal, tightened, _ = branching.cut_settings("lp-root-" + backend)
            rep = partition_solve(inst, lp_root_predict(inst, backend=backend), cal,
                                  SolveOptions(**EXACT), mode="exact", tightened=tightened)
            assert rep.best.objective == pytest.approx(plain.objective, rel=0, abs=1e-9)
            solved += rep.best.nodes
    assert solved >= 100 and sum(warm_calls) >= 100 and not fallbacks


def test_exact_mode_takes_plain_nodes_when_the_hull_is_integral():
    # these set covers solve at the root: the first region root reoptimizes
    # the hull's integral optimum and the others close at its bound
    for _, inst in gen_scp(8, 12, 0.3, 4, seed=3).instances:
        plain = solve_mip(inst, SolveOptions(**EXACT))
        pred = lp_root_predict(inst)
        cal, tightened, _ = branching.cut_settings("lp-root-simplex")
        exact = partition_solve(inst, pred, cal, SolveOptions(**EXACT), mode="exact",
                                tightened=tightened, gate=None)
        assert plain.nodes == exact.best.nodes == 1
        assert len(exact.regions) > 1
        assert exact.best.objective == plain.objective


def infeasible_mkp() -> MipInstance:
    """A tight multi-knapsack with one more row that no point of its box meets."""
    inst = tight_mkp(5, 15, 1)
    return with_rows(inst, [LinearRow([(j, 1.0) for j in range(inst.num_binary)], ">=", 16.0)])


def halves(inst: MipInstance) -> list[tuple[np.ndarray, np.ndarray]]:
    """Two root boxes, x_0 = 0 and x_0 = 1."""
    lb, ub = inst.bounds_arrays()
    down, up = ub.copy(), lb.copy()
    down[0], up[0] = 0.0, 1.0
    return [(lb, down), (up, ub)]


def recorded_lps(monkeypatch) -> list:
    """(status, iterations) of every LP solved from here on, in order."""
    lps = []
    solve = _simplex.solve_bounded_lp

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        lps.append((res.status, res.iterations))
        return res

    monkeypatch.setattr(_simplex, "solve_bounded_lp", recording)
    return lps


def test_an_infeasible_hull_ends_the_solve_with_no_node(monkeypatch):
    lps = recorded_lps(monkeypatch)
    inst = infeasible_mkp()
    rep = solve_mip(inst, SolveOptions(**EXACT), roots=halves(inst))
    assert [status for status, _ in lps] == [_simplex.STATUS_INFEASIBLE]
    assert (rep.status, rep.nodes, rep.root_nodes, rep.best_root) == ("infeasible", 0, [0, 0], None)
    assert rep.best_solution is None and not any(rep.closed.values())


def test_a_hull_past_the_time_limit_ends_the_solve_as_limit(monkeypatch):
    # the simplex reads the clock once per iteration and the solve once
    # per node, so a limit 3.5 s away stops the hull after three iterations
    clock = SteppedClock()
    monkeypatch.setattr(_simplex, "time", clock)
    monkeypatch.setattr(bnb, "time", clock)
    lps = recorded_lps(monkeypatch)
    inst = tight_mkp(10, 40, 1)
    rep = solve_mip(inst, SolveOptions(time_limit=3.5, **EXACT), roots=halves(inst))
    assert lps == [(_simplex.STATUS_TIME_LIMIT, 3)]
    assert (rep.status, rep.nodes, rep.root_nodes) == ("limit", 0, [0, 0])
    assert rep.best_solution is None
    assert rep.best_bound == math.inf  # the instance maximizes, and nothing bounds it


def counted_partition(monkeypatch, inst):
    """The instance with count columns and the region boxes partition_solve builds."""
    seen = {}

    def capture(instance, options=None, roots=None, gate=None):
        seen.update(instance=instance, roots=roots)
        return solve_mip(instance, options, roots, gate=gate)

    monkeypatch.setattr(branching, "solve_mip", capture)
    pred = lp_root_predict(inst)
    partition_solve(inst, pred, Calibration(tau_star=0.75, sigma=0.0, delta=0.05),
                    SolveOptions(**EXACT))
    return seen["instance"], seen["roots"]


@pytest.mark.parametrize("family", ["mkp", "ca", "scp", "counted"])
def test_batched_rounding_matches_the_per_rounder_loop(monkeypatch, family):
    if family == "counted":
        inst, boxes = counted_partition(monkeypatch, tight_mkp(5, 15, 1))
        assert inst.num_continuous == 2  # both count columns, defined by their rows
    else:
        inst = FAMILIES[family]()[0]
        boxes = [inst.bounds_arrays()]
    c, a, senses, b, _, _ = relaxation_arrays(inst)
    n_bin = inst.num_binary
    rounding = bnb._Roundings(a, senses, b, n_bin)
    rng = np.random.default_rng(7)
    kept = rejected = 0
    for trial in range(300):
        lb, ub = (v.copy() for v in boxes[trial % len(boxes)])
        fixed = np.nonzero(rng.random(n_bin) < rng.choice([0.0, 0.1, 0.3]))[0]
        lb[fixed] = ub[fixed] = rng.random(len(fixed)) < 0.3
        x = rng.uniform(lb, ub)
        points, ok = rounding(x, lb, ub)
        ref = reference_roundings(a, senses, b, n_bin, x, lb, ub)
        assert [int(k) for k in np.nonzero(ok)[0]] == [k for k, _ in ref]
        for k, point in ref:
            assert np.array_equal(points[k], point)
        kept += len(ref)
        rejected += 3 - len(ref)
    assert kept and rejected


def test_dive_longer_than_refactor_interval_refactorizes(monkeypatch):
    every = 4
    monkeypatch.setattr(_simplex, "REFACTOR_EVERY", every)
    counts = {"pivot": 0, "refactorize": 0}

    def counted(name):
        method = getattr(_simplex._Workspace, name)

        def wrapper(ws, *args):
            counts[name] += 1
            return method(ws, *args)

        monkeypatch.setattr(_simplex._Workspace, name, wrapper)

    counted("pivot")
    counted("refactorize")
    _, inst = gen_ca(20, 60, 1, seed=3).instances[0]
    c, a, senses, b, lb, ub = relaxation_arrays(inst)
    c = -c
    res = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub)
    state = res.state
    carried = state.pivots
    counts.update(pivot=0, refactorize=0)
    # dive: fix the most fractional bid to 0 (a set packing stays feasible)
    nodes = []
    while True:
        frac = np.abs(res.x - np.round(res.x))
        if frac.max() <= 1e-6:
            break
        ub = ub.copy()
        ub[int(np.argmax(frac))] = 0.0
        res = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub, warm=state)
        assert res.status == _simplex.STATUS_OPTIMAL
        assert res.state.A is state.A
        nodes.append((lb, ub, res.objective))
        state = res.state
        assert state.pivots < every

    pivots, refactorizations = counts["pivot"], counts["refactorize"]
    assert pivots > every
    assert refactorizations == (carried + pivots) // every
    assert state.pivots == (carried + pivots) % every
    for lb, ub, objective in nodes:
        ref = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub)
        assert objective == pytest.approx(ref.objective, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("seed", range(30))
def test_partition_solve_matches_oracles_on_random_instances(seed):
    rng = np.random.default_rng([seed, 2024])
    kind = ("mkp", "scp", "ca")[seed % 3]
    if kind == "mkp":
        inst = tight_mkp(int(rng.integers(2, 6)), int(rng.integers(8, 15)), seed)
        expected = binary_enumeration(inst).objective
    elif kind == "scp":
        m, n = int(rng.integers(12, 19)), int(rng.integers(30, 61))
        inst = gen_scp(m, n, float(rng.uniform(0.2, 0.3)), 1, seed=seed).instances[0][1]
        expected = set_cover_dp(inst)
    else:
        items, bids = int(rng.integers(12, 19)), int(rng.integers(60, 121))
        inst = gen_ca(items, bids, 1, seed=seed).instances[0][1]
        expected = set_packing_dp(inst)
    mixed = bool(rng.integers(2))
    if mixed:
        # the count columns go after these, so column bookkeeping is tested here
        inst = with_continuous(inst, rng)
    if rng.integers(2):
        inst, expected = flipped(inst), -expected
    if mixed:
        expected = highs_optimum(inst)
    source = ("external", "lp-root-simplex", "lp-root-ipm")[int(rng.integers(3))]
    if source == "external":
        pred = Prediction(rng.random(inst.num_binary))
    else:
        pred = lp_root_predict(inst, backend=source.removeprefix("lp-root-"))
    cal = Calibration(tau_star=float(rng.choice([0.6, 0.75, 0.9])),
                      sigma=float(rng.choice([0.0, 0.02])), delta=0.05)
    tightened = bool(rng.integers(2))
    # half the seeds search the four regions ungated, half through the root gate
    gate = None if rng.integers(2) else GATE_RATIO
    tol = dict(rel=1e-7, abs=1e-7) if mixed else dict(rel=0, abs=1e-9)

    exact = partition_solve(inst, pred, cal, SolveOptions(**EXACT), mode="exact",
                            tightened=tightened, gate=gate)
    assert exact.best.status == "optimal"
    assert exact.best.objective == pytest.approx(expected, **tol)
    assert check_feasible(inst, exact.best.best_solution.values)[0]
    assert exact.best.nodes == sum(r.nodes for r in exact.regions)

    # heuristic mode is the exact search of the first region alone
    heuristic = partition_solve(inst, pred, cal, SolveOptions(**EXACT), mode="heuristic",
                                tightened=tightened)
    cuts = build_hyperplanes(pred, cal.tau_star, cal.sigma, cal.delta, tightened)
    first = solve_mip(with_rows(inst, region_rows(*cuts)[0][1]), SolveOptions(**EXACT))
    assert heuristic.best.nodes == heuristic.regions[0].nodes
    if first.best_solution is None:
        assert heuristic.best.best_solution is None
        assert heuristic.best.status == first.status == "infeasible"
        return
    assert heuristic.best.status == "feasible"
    assert heuristic.best.objective == pytest.approx(first.objective, **tol)
    assert check_feasible(inst, heuristic.best.best_solution.values)[0]
    sign = 1.0 if inst.sense == MAXIMIZE else -1.0
    slack = tol["abs"] + tol["rel"] * abs(expected)
    assert sign * heuristic.best.objective <= sign * expected + slack


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_partition_solve_is_one_tree(monkeypatch, mode):
    calls = []

    def counted(instance, options=None, roots=None, gate=None):
        calls.append(len(roots))
        return solve_mip(instance, options, roots, gate=gate)

    monkeypatch.setattr(branching, "solve_mip", counted)
    inst = tight_mkp(4, 14, 2)
    pred = lp_root_predict(inst)
    cal = Calibration(tau_star=0.75, sigma=0.0, delta=0.05)
    rep = partition_solve(inst, pred, cal, SolveOptions(**EXACT), mode=mode, gate=None)
    live = [label for label, _ in region_rows(*build_hyperplanes(
        pred, cal.tau_star, cal.sigma, cal.delta))]
    assert calls == [len(rep.regions)]
    assert [r.label for r in rep.regions] == (live if mode == "exact" else live[:1])
    assert rep.best.nodes == sum(r.nodes for r in rep.regions)
    assert rep.best_region in [r.label for r in rep.regions]
    assert len(rep.best.best_solution.values) == inst.num_vars  # count columns stripped


def test_time_limit_covers_the_whole_exact_solve():
    # its ungated solve takes about 8 s (32368 nodes) on a 2-core x86-64
    # VM, forty times the limit, so only the limit can end it in time
    inst = tight_mkp(10, 60, 1)
    pred = lp_root_predict(inst)
    limit = 0.2
    start, cpu = time.perf_counter(), time.process_time()
    # ungated: the four-region roots, as the paper's exact mode searches them
    rep = partition_solve(inst, pred, Calibration(0.9, 0.0, 1e-8), SolveOptions(time_limit=limit),
                          mode="exact", tightened=True, gate=None)
    cpu = time.process_time() - cpu
    elapsed = time.perf_counter() - start
    assert rep.best.status == "limit"
    assert rep.best.wall_time <= elapsed
    # one node LP of a 10x60 MKP takes well under a millisecond; the CPU
    # time, unlike the wall time, does not count a stall of the host
    assert cpu <= limit + 0.1


def test_numerical_failure_falls_back_to_a_cold_solve():
    inst = tight_mkp(5, 15, 1)
    c, a, senses, b, lb, ub = relaxation_arrays(inst)
    c = -c
    root = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub)
    broken = root.state.child(lb, ub)
    broken.binv[:] = np.nan
    ub = ub.copy()
    ub[int(np.argmax(np.abs(root.x - np.round(root.x))))] = 0.0
    res = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub, warm=broken)
    ref = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub)
    assert res.status == ref.status == _simplex.STATUS_OPTIMAL
    assert res.objective == pytest.approx(ref.objective, rel=1e-12)
    assert res.state.A is not broken.A
    assert res.iterations == ref.iterations + 1  # the failed warm pass is counted


def test_singular_basis_refactorizes_to_nan():
    a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])  # columns 0 and 1 are equal
    ws = _simplex._Workspace(a, ["<=", "<="], np.ones(2), np.zeros(3), np.ones(3), np.zeros(3))
    ws.is_basic[ws.basis] = False
    ws.basis = np.array([0, 1])
    ws.is_basic[ws.basis] = True
    ws.refactorize()
    assert not np.isfinite(ws.binv).any()
    assert not np.isfinite(ws.x[ws.basis]).any()


def cold_solves(monkeypatch) -> list:
    """A list that grows by one at each cold solve from here on: only a
    cold solve builds its ``_Workspace`` from the slack basis."""
    cold, init = [], _simplex._Workspace.__init__

    def counted(ws, *args):
        cold.append(args)
        init(ws, *args)

    monkeypatch.setattr(_simplex._Workspace, "__init__", counted)
    return cold


def test_singular_refactorization_falls_back_to_a_cold_solve(monkeypatch):
    inst = tight_mkp(5, 15, 1)
    c, a, senses, b, lb, ub = relaxation_arrays(inst)
    c = -c
    root = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub)
    warm = root.state.child(lb, ub)
    warm.pivots = _simplex.REFACTOR_EVERY - 1  # the warm pass's first pivot refactorizes
    ub = ub.copy()
    ub[int(np.argmax(np.abs(root.x - np.round(root.x))))] = 0.0
    inv, raised = np.linalg.inv, []

    def singular_once(m):
        if not raised:
            raised.append(m)
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(m)

    monkeypatch.setattr(np.linalg, "inv", singular_once)
    cold = cold_solves(monkeypatch)
    res = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub, warm=warm)
    assert raised
    assert res.status == _simplex.STATUS_OPTIMAL
    assert len(cold) == 1
    assert res.objective == pytest.approx(lp_optimum(c, a, senses, b, lb, ub), rel=1e-9)


def test_cold_solve_keeps_its_final_reduced_costs():
    inst = tight_mkp(5, 15, 1)
    c, a, senses, b, lb, ub = relaxation_arrays(inst)
    state = _simplex.solve_bounded_lp(-c, a, senses, b, lb, ub).state
    c_full = np.zeros(state.A.shape[1])
    c_full[: len(c)] = -c
    # the same formula over the same basis inverse a child would use
    assert np.array_equal(state.d, c_full - state.duals(c_full) @ state.A)


def test_cold_lp_starts_from_the_dual_feasible_slack_basis():
    # set covers: every >= row is violated at the slack basis, which the
    # dual simplex leaves with no artificial column
    for _, inst in gen_scp(20, 60, 0.25, 3, seed=6).instances:
        c, a, senses, b, lb, ub = relaxation_arrays(inst)
        res = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub)
        assert res.status == _simplex.STATUS_OPTIMAL
        assert res.state.A.shape == (len(b), len(c) + len(b))
        assert res.objective == pytest.approx(lp_optimum(c, a, senses, b, lb, ub), rel=1e-9)


def test_a_warm_dual_left_dual_infeasible_falls_back_to_a_cold_solve(monkeypatch):
    inst = tight_mkp(3, 10, 1)
    c, a, senses, b, lb, ub = relaxation_arrays(inst)
    c = -c
    root = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub)
    # the nonbasic column of largest reduced cost moves to its other bound,
    # where that reduced cost has the wrong sign
    nonbasic = np.nonzero(~root.state.is_basic[: len(c)])[0]
    j = nonbasic[np.argmax(np.abs(root.state.d[nonbasic]))]
    warm = root.state.child(lb, ub)
    warm.x[j] = lb[j] + ub[j] - warm.x[j]
    warm.basic_values()
    dual, ends = _simplex._Workspace.dual, []

    def recorded(ws, *args, **kwargs):
        status = dual(ws, *args, **kwargs)
        ends.append((status, ws.d is None, float(c @ ws.x[: len(c)]), ws.iterations))
        return status

    monkeypatch.setattr(_simplex._Workspace, "dual", recorded)
    cold = cold_solves(monkeypatch)
    res = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub, warm=warm)
    best, _ = enumerate_lp_vertices(c, a, senses, b, lb, ub)
    # the warm dual ends primal feasible above the optimum, its final
    # reduced costs dual infeasible, and the cold solve finds the optimum
    (warm_status, warm_unkept, warm_obj, warm_iters), (cold_status, cold_unkept, *_) = ends
    assert warm_status == _simplex.STATUS_OPTIMAL and warm_unkept and warm_obj > best + 1.0
    assert cold_status == _simplex.STATUS_OPTIMAL and not cold_unkept
    assert res.status == _simplex.STATUS_OPTIMAL
    assert len(cold) == 1
    assert res.objective == pytest.approx(best, rel=1e-12)
    assert res.iterations > warm_iters


def test_a_cold_solve_that_breaks_down_raises_numerical_failure(monkeypatch, tmp_path, capsys):
    inst = tight_mkp(5, 15, 1)
    c, a, senses, b, lb, ub = relaxation_arrays(inst)

    def singular(m):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    monkeypatch.setattr(_simplex, "REFACTOR_EVERY", 1)  # every pivot refactorizes
    with pytest.raises(_simplex.NumericalFailure):
        _simplex.solve_bounded_lp(-c, a, senses, b, lb, ub)
    path, out = tmp_path / "mkp.json", tmp_path / "solved.json"
    path.write_bytes(serialize(inst))
    capsys.readouterr()
    assert cli.main(["solve", "--instance", str(path), "--mode", "plain", "--out", str(out)]) == 1
    assert "dual simplex" in capsys.readouterr().err
    assert not out.exists()


class SteppedClock:
    """A stand-in for the ``time`` module whose clock advances 1 s per reading."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


def test_deadline_stops_a_large_lp_between_iterations(monkeypatch):
    inst = tight_mkp(60, 400, 1)
    c, a, senses, b, lb, ub = relaxation_arrays(inst)
    start = time.perf_counter()
    full = _simplex.solve_bounded_lp(-c, a, senses, b, lb, ub)
    full_s = time.perf_counter() - start
    assert full.status == _simplex.STATUS_OPTIMAL and full.iterations > 100

    with monkeypatch.context() as patch:
        # the simplex loops read the clock once per iteration, so a
        # deadline 5.5 s away passes at the sixth check
        clock = SteppedClock()
        patch.setattr(_simplex, "time", clock)
        start = time.perf_counter()
        cut = _simplex.solve_bounded_lp(-c, a, senses, b, lb, ub, deadline=clock.now + 5.5)
        assert time.perf_counter() - start < full_s / 4
        assert cut.status == _simplex.STATUS_TIME_LIMIT and cut.state is None
        assert 0 < cut.iterations < full.iterations
        assert cut.iterations == 5

        # a warm solve past its deadline stops without a cold fallback
        ub_dn = ub.copy()
        ub_dn[int(np.argmax(np.abs(full.x - np.round(full.x))))] = 0.0
        warm = _simplex.solve_bounded_lp(-c, a, senses, b, lb, ub_dn, warm=full.state,
                                         deadline=clock.now - 1.0)
        assert warm.status == _simplex.STATUS_TIME_LIMIT and warm.iterations == 0

    # branch and bound hands its deadline to the root LP, which stops early
    budget = 0.2 * full_s
    rep = solve_mip(inst, options=SolveOptions(time_limit=budget))
    assert rep.status == "limit"
    assert rep.wall_time < budget + full_s / 2
    if rep.nodes:  # the unfinished root stays open, so nothing bounds the maximum
        assert rep.best_bound == math.inf


def test_an_unreached_deadline_changes_no_node_count():
    for inst in [tight_mkp(5, 20, 3)] + FAMILIES["ca"]()[:2]:
        free = solve_mip(inst, options=SolveOptions(**EXACT))
        timed = solve_mip(inst, options=SolveOptions(time_limit=1e6, **EXACT))
        assert (timed.status, timed.nodes, timed.fixed) == (free.status, free.nodes, free.fixed)
        assert timed.objective == free.objective
