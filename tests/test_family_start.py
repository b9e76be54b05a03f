"""Label solves that start from their family's last root.

A family's members share their rows, so ``read_family`` validates the
rows once and ``bench.solve_labels`` offers each solve the final hull
of the one before it.  Where the rows, right-hand sides included, are
equal, the hull LP starts from that hull's state
(``_simplex._Workspace.started``) with its clique rows.  These tests
hold a started LP, under new costs, to a cold solve of the same LP,
its reduced costs to the sign rule and an unsettled start to a cold
fallback; the carried labels and objectives to independent solves on
CA, MKP (whose right-hand sides vary, so every label solves cold) and
SCP families, and the carried hulls to cut rows that repeat no row; a
family's members to the template's shared rows, a member with other
rows to a whole read; and the solves a user times to no start at all.
"""

import json
import warnings

import numpy as np
import pytest

from probranch import _simplex, bench, bnb, branching, cli
from probranch.bnb import SolveOptions, solve_mip
from probranch.generators import (
    gen_ca,
    gen_knapsack_uniform,
    gen_mkp,
    gen_scp,
    read_family,
    write_family,
)
from probranch.lp import relaxation_arrays
from probranch.model import LinearRow, MipInstance, deserialize


def random_lp(rng):
    """A boxed LP with <=, >= and = rows that some point of its box meets,
    and a right-hand side generator for the same rows."""
    m, n = int(rng.integers(2, 9)), int(rng.integers(3, 14))
    a = rng.normal(size=(m, n)).round(2)
    senses = list(rng.choice(["<=", ">=", "="], size=m, p=[0.45, 0.45, 0.1]))
    lb = -rng.uniform(0.0, 2.0, n).round(1)
    ub = lb + rng.uniform(0.5, 3.0, n).round(1)
    side = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[s] for s in senses])

    def rhs():
        return a @ rng.uniform(lb, ub) + side * rng.uniform(0.0, 1.0, m)

    return a, senses, lb, ub, rhs


def cold_solves(monkeypatch) -> list:
    """A list that grows by one at each cold solve from here on: only a
    cold solve builds its ``_Workspace`` from the slack basis."""
    cold, init = [], _simplex._Workspace.__init__

    def counted(ws, *args):
        cold.append(args)
        init(ws, *args)

    monkeypatch.setattr(_simplex._Workspace, "__init__", counted)
    return cold


def test_a_started_lp_matches_a_cold_solve_and_keeps_dual_feasible_reduced_costs(monkeypatch):
    colds = cold_solves(monkeypatch)
    rng = np.random.default_rng(7)
    solved = settled = 0
    for _ in range(80):
        a, senses, lb, ub, rhs = random_lp(rng)
        c, b = rng.normal(size=a.shape[1]), rhs()
        first = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub)
        assert first.status == _simplex.STATUS_OPTIMAL
        kept = (first.state.basis.copy(), first.state.x.copy(), first.state.d.copy())
        c2 = rng.normal(size=len(c))
        cold = _simplex.solve_bounded_lp(c2, a, senses, b, lb, ub)
        before = len(colds)
        res = _simplex.solve_bounded_lp(c2, a, senses, b, lb, ub, warm=first.state.started(c2))
        assert res.status == cold.status == _simplex.STATUS_OPTIMAL
        assert res.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        solved += 1
        if len(colds) > before:
            continue  # it fell back to a cold solve
        settled += 1
        ws = res.state
        n = ws.n
        # the sign rule: a column nonbasic at its lower bound has d >= 0, at its upper d <= 0
        movable = ~ws.is_basic & (ws.ub - ws.lb > 1e-10)
        at_lb = movable & (ws.x == ws.lb)
        at_ub = movable & (ws.x == ws.ub)
        assert (at_lb | at_ub)[movable].all()
        assert (ws.d[at_lb] >= -1e-9).all() and (ws.d[at_ub] <= 1e-9).all()
        c_full = np.concatenate([c2, np.zeros(len(b))])
        np.testing.assert_allclose(ws.d, c_full - ws.duals(c_full) @ ws.A, atol=1e-8)
        # the slack boxes lie within the senses' bounds and cut off no
        # point of the box: a row that x meets leaves its slack in its box
        lo, hi = np.array([_simplex._slack_bounds(s) for s in senses]).T
        assert (ws.lb[n:] >= lo).all() and (ws.ub[n:] <= hi).all()
        for x in rng.uniform(lb, ub, size=(50, n)):
            s = b - a @ x
            held = (s >= ws.lb[n:] - 1e-12) & (s <= ws.ub[n:] + 1e-12)
            assert held[(s >= lo) & (s <= hi)].all()
        # the start is never modified
        assert all(np.array_equal(u, v) for u, v in zip(
            kept, (first.state.basis, first.state.x, first.state.d)))
    assert settled >= 0.9 * solved


def test_an_unsettled_start_falls_back_to_a_cold_solve(monkeypatch):
    rng = np.random.default_rng(3)
    a, senses, lb, ub, rhs = random_lp(rng)
    c, b = rng.normal(size=a.shape[1]), rhs()
    broken = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub).state.child(lb, ub)
    broken.binv[:] = np.nan
    c2 = rng.normal(size=len(c))
    colds = cold_solves(monkeypatch)
    res = _simplex.solve_bounded_lp(c2, a, senses, b, lb, ub, warm=broken.started(c2))
    assert len(colds) == 1
    ref = _simplex.solve_bounded_lp(c2, a, senses, b, lb, ub)
    assert res.status == ref.status == _simplex.STATUS_OPTIMAL
    assert res.state.A is not broken.A
    assert res.objective == pytest.approx(ref.objective, rel=1e-12)
    assert res.iterations == ref.iterations + 1  # the failed started pass is counted


def test_a_start_whose_rows_hold_nowhere_in_the_box_leaves_the_lp_to_a_cold_solve(monkeypatch):
    # x1 + x2 = 2 + 5e-8 holds nowhere in [0, 1]^2, but (1, 1) meets it
    # within the dual's feasibility tolerance, so the first LP is optimal
    a, b, lb, ub = np.array([[1.0, 1.0]]), np.array([2.0 + 5e-8]), np.zeros(2), np.ones(2)
    first = _simplex.solve_bounded_lp(np.array([-1.0, -1.0]), a, ["="], b, lb, ub)
    assert first.status == _simplex.STATUS_OPTIMAL
    c2 = np.array([1.0, 2.0])
    assert first.state.started(c2) is None
    # the same row as a MIP: a solve carrying that hull solves its hull cold
    row = [LinearRow([(0, 1.0), (1, 1.0)], "=", 2.0 + 5e-8)]
    inst = MipInstance("tol", "maximize", 2, 0, [(0, 1.0), (1, 1.0)], row)
    rep = solve_mip(inst, SolveOptions())
    assert rep.hull is not None and rep.hull.state.started(c2) is None
    other = MipInstance("tol", "minimize", 2, 0, [(0, 1.0), (1, 2.0)], row)
    colds = cold_solves(monkeypatch)
    res = solve_mip(other, SolveOptions(), start=rep.hull)
    assert len(colds) == 1
    ref = solve_mip(other, SolveOptions())
    assert (res.status, res.objective, res.nodes, res.lps) == (
        ref.status, ref.objective, ref.nodes, ref.lps)


FAMILIES = {
    "ca": lambda seed: gen_ca(12, 30, 6, seed),
    # small rows whose right-hand sides vary: every label solves cold
    "mkp": lambda seed: gen_mkp(3, 9, 6, seed),
    "scp": lambda seed: gen_scp(12, 24, 0.2, 6, seed),
}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_carried_labels_equal_independent_solves(monkeypatch, kind):
    held = []  # the rows of each started hull's matrix
    started = _simplex._Workspace.started

    def spy(self, *args):
        held.append(self.m)
        return started(self, *args)

    monkeypatch.setattr(_simplex._Workspace, "started", spy)
    objectives = []  # of the label solves
    grown = []  # per carried hull: whether it found cuts beyond those it carried

    def recorded(inst, *args, start=None, **kwargs):
        rep = solve_mip(inst, *args, start=start, **kwargs)
        objectives.append(rep.objective)
        if start is not None and rep.hull is not None:
            # separation keeps no state, yet no cut repeats a cut or an instance row
            rows = rep.hull.rows
            cuts = {tuple(row) for row in rows.cuts}
            assert len(cuts) == len(rows.cuts)
            assert not cuts & {tuple(row) for row in rows.a}
            grown.append(len(rows.cuts) > len(start.rows.cuts) and rows.cliques is start.rows.cliques)
        return rep

    monkeypatch.setattr(bench, "solve_mip", recorded)
    carried = []  # per start: whether it held clique rows
    for seed in range(1, 11):
        fam = FAMILIES[kind](seed)
        labels = bench.solve_labels(fam.instances, 10.0)
        # every hull after the first starts, unless its b differs from the last one's
        assert len(held) == (0 if kind == "mkp" else len(fam.instances) - 1)
        carried += [m > len(fam.template.rows) for m in held]
        held.clear()
        assert len(labels) == len(objectives) == len(fam.instances)
        for (xi, y), obj, (xj, inst) in zip(labels, objectives, fam.instances):
            rep = solve_mip(inst, options=SolveOptions(time_limit=10.0))
            assert xi is xj
            assert np.array_equal(y, np.round(rep.best_solution.binary_part(inst))), (seed, inst.name)
            assert obj == pytest.approx(rep.objective, rel=1e-9), (seed, inst.name)
        objectives.clear()
    if kind == "ca":
        assert any(carried)  # one b: the clique rows come along
        assert any(grown)  # and a shared separation adds to them


def test_carried_objectives_equal_independent_solves_and_starts_skip_knapsacks():
    fam = gen_ca(14, 36, 6, seed=4)
    hull = None
    for _, inst in fam.instances:
        rep = solve_mip(inst, start=hull)
        cold = solve_mip(inst)
        assert rep.status == cold.status == "optimal"
        assert rep.objective == pytest.approx(cold.objective, rel=1e-9)
        hull = rep.hull
        assert hull is not None and len(hull.rows.cuts) == rep.cuts
    knap = gen_knapsack_uniform(30, 0.3, seed=2).instance
    assert solve_mip(knap, start=hull).hull is None  # the closed form takes and leaves none


def test_members_with_the_template_rows_share_them(tmp_path):
    fam = gen_scp(6, 12, 0.3, 5, seed=2)
    back = read_family(write_family(fam, tmp_path / "fam"))
    assert all(inst.rows is back.template.rows for _, inst in back.instances)
    for (_, a), (_, b) in zip(fam.instances, back.instances):
        assert a == b


def test_a_member_with_other_rows_is_read_whole_and_solved_cold(tmp_path, monkeypatch):
    fam = gen_ca(10, 24, 5, seed=3)
    path = write_family(fam, tmp_path / "fam")
    doc = json.loads((path / "instance_0002.json").read_text())
    doc["rows"] = doc["rows"][:-1]  # a valid member with one row fewer
    (path / "instance_0002.json").write_text(json.dumps(doc))
    back = read_family(path)
    other = back.instances[2][1]
    assert other.rows is not back.template.rows
    assert other == deserialize((path / "instance_0002.json").read_bytes())
    assert all(inst.rows is back.template.rows for k, (_, inst) in enumerate(back.instances)
               if k != 2)
    starts, solve = [], bnb.solve_mip

    def spy(inst, *args, start=None, **kwargs):
        rep = solve(inst, *args, start=start, **kwargs)
        # a start counts when its rows are the instance's: the member with
        # other rows and the one after it take none
        starts.append((inst.name, start is not None and np.array_equal(
            start.rows.a, relaxation_arrays(inst)[1])))
        return rep

    monkeypatch.setattr(bench, "solve_mip", spy)
    labels = bench.solve_labels(back.instances, 10.0)
    assert [name for name, took in starts if not took] == [
        back.instances[0][1].name, other.name, back.instances[3][1].name]
    for (_, y), (_, inst) in zip(labels, back.instances):
        rep = solve_mip(inst)
        assert np.array_equal(y, np.round(rep.best_solution.binary_part(inst)))


def test_the_solves_a_user_times_take_no_start(tmp_path, monkeypatch):
    path = write_family(gen_ca(8, 16, 10, seed=1), tmp_path / "fam")
    calls = []

    def spy(module):
        solve = module.solve_mip

        def recorded(inst, *args, start=None, **kwargs):
            calls.append((module.__name__, inst.name, start is not None))
            return solve(inst, *args, start=start, **kwargs)

        monkeypatch.setattr(module, "solve_mip", recorded)

    for module in (bench, branching, cli):
        spy(module)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = bench.run_benchmark(bench.BenchConfig(family_dir=path, test_count=3))
    test = {row.instance for row in report.rows}
    assert len(test) == 3
    # the labels of the training slice: 5 fitted, 2 held out, each run but its first started
    labels = [(name, took) for _, name, took in calls if name not in test]
    assert [took for _, took in labels] == [False] + [True] * 4 + [False, True]
    # every plain and partition solve of the test split is cold
    timed = [(module, took) for module, name, took in calls if name in test]
    assert len(timed) == 6 and not any(took for _, took in timed)
    calls.clear()
    out = tmp_path / "solve.json"
    for mode in ("plain", "exact"):
        assert cli.main(["solve", "--instance", str(path / "instance_0009.json"),
                         "--mode", mode, "--out", str(out)]) == 0
    assert [module for module, _, _ in calls] == ["probranch.cli", "probranch.branching"]
    assert not any(took for _, _, took in calls)
