"""LP-based branch and bound for binary MILP.

The solver accepts node/time limits and root boxes, so a branching
disjunction is searched as one tree.
Branching scores the BRANCH_CANDIDATES = 3 most fractional free
binaries (ties to the lowest index) by max(g_dn, eps) * max(g_up, eps),
eps = SCORE_EPS = 1e-6, where g_dn and g_up are the first-step gains
(below) of their down and up children, and branches on the best score,
ties to the more fractional: the product rule of Achterberg, Koch &
Martin (2005) on Driebeek's penalties.  Only binaries fractional beyond
INTEGRALITY_TOL are candidates; a near-integral node with none branches
on its most fractional binary, and a knapsack node, whose closed-form
LP leaves one item fractional, on that item.  Node selection is
best-bound, ties going to the node created first.  A rounding heuristic
runs at every node so the incumbent log is dense enough for
time-to-target measurements; a knapsack node that branches also offers
its floor rounding completed greedily, each free item left out taken in
ratio order when it still fits (Martello & Toth 1990, ch. 2).

Reduced-cost fixing: a node starts from its parent's optimal LP state
(a root box's parent is the hull), whose reduced costs d bound every
point of the parent's box, c.x >= parent bound + sum_j d_j (x_j - x*_j).
Before the node LP is solved, a free binary nonbasic at its lower bound
with d_j > prune_at - parent bound gets ub_j = lb_j, and one at its
upper bound with -d_j above that gap gets lb_j = ub_j: moving it would
cost more than the incumbent leaves to gain.  The node LP and every
descendant inherit the fixed box, and ``SolveReport.fixed`` counts the
fixings.  The closed-form knapsack relaxation's reduced costs are
d = c + lambda w, with lambda the capacity row's multiplier
(``_Knapsack``), so the same rule fixes its nodes.

Row propagation: after reduced-cost fixing, every row lhs.x <= rhs
(``_Roundings``' rows: a >= row negated, an = row in both directions)
bounds the node's box by its minimum activity L, each coefficient at
the bound that makes it least (Savelsbergh 1994).  With s = rhs - L +
tol, tol = PROPAGATION_TOL * max(1, |rhs|), a row with s < 0 holds
nowhere in the box, which closes the node with no LP; a free binary
with a_j > s is fixed to 0 and one with -a_j > s to 1.  Rounds repeat
until none fixes a binary, and ``SolveReport.propagated`` counts the
fixings.  A partition's count box on t_S reaches its members this way.
A node below a root starts from its parent's propagated box, a fixed
point of the rows; when neither its branched bound nor its reduced-cost
fixings raise any row's minimum activity (fixing x_j to 0 raises only
the rows with a_j < 0, to 1 only those with a_j > 0), its box is at
that fixed point still and the node skips the call.  Knapsack nodes
never build the propagator: the closed form (``_Knapsack``) relaxes the
propagated box of their one row itself, holding at 0 each item the row
would fix, but leaves the node's box as it is, so
``SolveReport.propagated`` stays 0 on a knapsack solve.

Clique cuts: every solve first solves its hull (below), and builds the
conflict graph of ``_Roundings``' rows once: binaries i != j conflict
when a row with nonnegative binary coefficients and no continuous column
has a_i + a_j > rhs + tol, so no 0/1 point of the instance sets both to
1 (Atamturk, Nemhauser & Savelsbergh 2000, "Conflict graphs in solving
integer programming problems").  When the hull's point x is fractional,
up to CUT_ROUNDS = 3 rounds of greedy separation run at x: each binary
fractional beyond INTEGRALITY_TOL, in decreasing x, grows a clique over
the binaries with positive x, in decreasing x, and the clique is then
lifted over the binaries at 0, in decreasing degree.  A clique C becomes
the row sum_C x_j <= 1 (Padberg 1973, "On the facial structure of set
packing polyhedra") when x(C) > 1 + CLIQUE_VIOLATION.  The optimal
hull's x meets every row it holds within 1e-7, so such a row is new,
and a row of the same support but other coefficients is weaker than it;
a graph with no edge gives no such clique.  The rows enter the hull's
optimal state with their slacks basic (``_simplex._Workspace.with_rows``),
which stays dual feasible, and the warm dual re-solves it; a round that
finds no cut, an integral or non-optimal hull, or the deadline ends the
loop.  The rows hold at every
0/1 point of the instance, so ``_Roundings``, the propagation and every
node LP use them, and ``SolveReport.cuts`` counts them.  The closed-form
knapsack never separates.

Carried roots: a solve may start from the final hull of an earlier one
(``Hull``, kept in every report whose hull is optimal), as
``bench.solve_labels`` does along a family's training instances.  When
the instance's rows (matrix, senses and right-hand sides) are the
start's and the hull's box is its box, every 0/1 point of the instance
meets the start's clique rows, so they carry, and with them the
conflict graph, the separation and the ``_Roundings`` and
``_Propagator`` built on the rows: the hull LP starts from the start's
final state over the rows and the cuts, re-priced for this objective
(``_simplex._Workspace.started``), separation goes on from there, and
``SolveReport.cuts`` counts the carried rows as well.  Any other solve
is cold, a change of b included, and so are knapsack solves and the
solves a user times (``solve``, and ``bench``'s plain and method
solves), which never take a start.

First-step bounds: when a node branches on x_j, its final tableau row
of x_j bounds each child's LP from below before that LP is set up
(``_simplex._Workspace.first_step_gains``, the dual's first
bound-flipping ratio test); the child's heap entry carries that bound,
while its heap key stays the parent's bound.  The branched binary's
gains are the ones its score was computed from.

Root gate: a solve given a gate ratio k and two or more root boxes
weighs their disjunction at the hull, after its cut rounds, when the
hull LP is optimal, and solves no LP to do so.  A box that excludes the
hull's point x is bounded by the largest first-step gain of moving a
column it narrows from x_j to the box's nearer end: each gain bounds
the LP with that one bound moved, a relaxation of the box's LP.  The
disjunction scores the least bound of those boxes, and a variable the
smaller of its two children's gains, over the candidates a node would
score.  The solve keeps its boxes when the disjunction scores at least
k times the best variable (general disjunctions, Karamanov & Cornuejols
2011, weighed as Achterberg, Koch & Martin 2005 weigh variables), and
otherwise roots the tree at the hull's box alone.  A hull with no free
binary fractional beyond INTEGRALITY_TOL needs no branching: its
variable score is 0, and the one root accepts its point at once, so the
gate declines.  ``SolveReport.gate`` records the decision.

A popped node closes at the first of these that applies, and
``SolveReport.closed`` counts each way (CLOSED_BY):
  1. its parent's bound reaches the cutoff: dropped, not counted;
  2. its first-step bound reaches the cutoff plus the dual's
     ``_simplex.CUTOFF_TOL`` relative (the bound is infinite when the
     child is infeasible): closed with no fixing and no LP;
  3. reduced-cost fixing, then row propagation, tightens its box; a
     row that holds nowhere in it closes the node with no LP;
  4. its LP is solved; the dual simplex stops as soon as its bound
     reaches the cutoff (``STATUS_CUTOFF``), and the node closes when
     the LP is infeasible or its bound reaches the cutoff;
  5. an integral (or integral after rounding) LP point is accepted;
  6. otherwise it branches.
Root boxes are children of the hull, the LP over the least box holding
them all (a plain solve's own box), solved first and not a node; a
child's heap key is the larger of its parent's bound and key, since a
warm LP over the parent's box can read one ulp below it.  An infeasible
hull ends the solve as "infeasible" with no node, one past the time
limit, its cut rounds included, as "limit".

Open nodes are ``_Node`` records on a heap of (parent bound, id,
node).  The solve counts into the ``SolveReport`` it returns as it
goes, and sets the status, best bound and solution at the end.  An LP
point with no binaries is integral and is accepted at step 5.
``SolveReport.lps`` counts the relaxations solved, the hull and its cut
rounds included, so a node that reaches step 4 adds one, and
``lp_iterations`` their dual iterations; a closed-form knapsack LP
counts as one relaxation with none.

A single solve is single-threaded; concurrent solves on distinct
instances are safe.  Incumbent timestamps come from a monotonic clock.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _simplex
from .lp import relaxation_arrays
from .model import INTEGRALITY_TOL, MipInstance, Solution


# A rounded point is accepted only if it meets every row this closely.
# Binaries are then exact integers, so a pure binary point's row sums
# carry round-off alone; rounding a near-integral LP value can overfill a
# row by up to INTEGRALITY_TOL times its coefficient, which must not pass.
ROUNDED_ROW_TOL = 1e-9

# Reduced-cost fixing needs d_j to clear the gap by this much, relative
# to the cutoff's magnitude, so round-off in d cannot fix a binary whose
# other value is still within the gap.
FIXING_TOL = 1e-9

# Propagation fixes a binary only when its coefficient exceeds the row's
# slack by this much, relative to the row's rhs, so an item that fills
# the slack exactly stays free and round-off cannot close a feasible node.
PROPAGATION_TOL = 1e-9

# Branching scores this many of the most fractional free binaries, each
# by the product of its children's first-step gains, floored at SCORE_EPS.
BRANCH_CANDIDATES = 3
SCORE_EPS = 1e-6

# The hull takes at most this many rounds of clique cuts, each cut
# violated by the hull's point by more than CLIQUE_VIOLATION.
CUT_ROUNDS = 3
CLIQUE_VIOLATION = 1e-6

# A gated solve keeps its root boxes only when their disjunction's score
# is at least this many times the best candidate variable's.
GATE_RATIO = 2.0

# The ways a counted node closes, in the order the module docstring gives.
CLOSED_BY = ("first_step", "propagated", "cutoff", "infeasible", "integral", "branched")


@dataclass
class SolveOptions:
    time_limit: float = math.inf  # seconds
    node_limit: int = 10**9
    rel_gap: float = 1e-6
    abs_gap: float = 1e-9

    def validate(self) -> None:
        # written so that NaN, which fails every comparison, is rejected too
        if not (self.time_limit > 0 and self.node_limit > 0):
            raise ValueError("limits must be positive")
        if not (self.rel_gap >= 0 and self.abs_gap >= 0):
            raise ValueError("gaps must be non-negative")


@dataclass
class Gate:
    """The root gate's decision: the disjunction of the root boxes was
    ``taken`` when its score ``disjunction`` reached ``ratio`` times the
    best candidate variable's score ``variable`` at a fractional hull
    point (an integral one declines with ``variable`` 0)."""

    taken: bool
    disjunction: float
    variable: float
    ratio: float


@dataclass
class SolveReport:
    best_solution: Solution | None
    best_bound: float
    status: str  # optimal | feasible | infeasible | limit
    nodes: int
    wall_time: float
    incumbent_log: list[tuple[float, float]] = field(default_factory=list)
    root_nodes: list[int] = field(default_factory=list)  # per root box
    root_seconds: list[float] = field(default_factory=list)  # per root box
    best_root: int | None = None  # the root whose subtree found best_solution
    fixed: int = 0  # binaries fixed by reduced-cost fixing, over all nodes
    propagated: int = 0  # binaries fixed by row propagation, over the nodes it left open
    cuts: int = 0  # clique rows in the hull's LP, those carried from a start included
    lps: int = 0  # relaxations solved: the hull, its cut rounds and one per node LP
    lp_iterations: int = 0  # dual iterations over them, cold fallbacks included; 0 in closed form
    hull: Hull | None = None  # the final hull when it is optimal, to start a like solve
    gate: Gate | None = None  # the root gate's decision, when the gate applied
    # nodes by the way each closed, one count per CLOSED_BY key; they sum
    # to nodes, less the one node a limit stopped inside its LP
    closed: dict[str, int] = field(default_factory=lambda: dict.fromkeys(CLOSED_BY, 0))

    @property
    def objective(self) -> float:
        return self.best_solution.objective if self.best_solution else math.nan


class _Roundings:
    """Nearest, floor and ceil roundings of a node's LP point, checked in one pass.

    Binaries are rounded into the node's box.  A continuous column that
    an equality row defines alone (a partition count column
    t_S = sum_S y_j) is recomputed from the rounded binaries and must
    stay in the box; every row must then hold within ROUNDED_ROW_TOL.
    """

    def __init__(self, a: np.ndarray, senses: list[str], b: np.ndarray, n_bin: int):
        self.n_bin = n_bin
        sign = np.array([-1.0 if s == ">=" else 1.0 for s in senses])
        eq = np.array([s == "=" for s in senses], dtype=bool)
        # row i holds when lhs_i x <= rhs_i; an equality row also enters negated
        self.lhs = np.vstack([sign[:, None] * a, -a[eq]])
        self.rhs = np.concatenate([sign * b, -b[eq]])
        cont = a[:, n_bin:] != 0
        def_rows = np.nonzero(eq & (cont.sum(axis=1) == 1))[0]
        self.def_cols = n_bin + np.nonzero(cont[def_rows])[1]
        self.def_a = a[def_rows]
        self.def_a[:, self.def_cols] = 0.0  # each row's own column is solved for
        self.def_b = b[def_rows]
        self.def_pivot = a[def_rows, self.def_cols]

    def __call__(self, x: np.ndarray, lb: np.ndarray, ub: np.ndarray):
        """(points, ok): the three rounded points as rows of a (3, n) array
        and which of them meet the rows and the box."""
        n_bin, cols = self.n_bin, self.def_cols
        pts = np.empty((3, len(x)))
        pts[:] = x
        y, p = x[:n_bin], pts[:, :n_bin]
        np.rint(y, out=p[0])
        np.floor(y, out=p[1])
        np.ceil(y, out=p[2])
        np.minimum(np.maximum(p, lb[:n_bin], out=p), ub[:n_bin], out=p)
        box = True
        if len(cols):
            t = (self.def_b - pts @ self.def_a.T) / self.def_pivot
            pts[:, cols] = t
            box = ~np.logical_or.reduce(np.maximum(lb[cols] - t, t - ub[cols]) > ROUNDED_ROW_TOL,
                                        axis=1)
        return pts, box & np.logical_and.reduce(pts @ self.lhs.T - self.rhs <= ROUNDED_ROW_TOL,
                                                 axis=1)


class _Propagator:
    """Activity-based propagation of the rows lhs.x <= rhs over a node's box.

    Built on ``_Roundings``' rows; the module docstring gives the rule.
    Each round takes every row's minimum activity in one product of the
    rows' positive and negative parts with the box's lower and upper
    bounds, and every fixing in one comparison of [a, -a] with the
    slacks.
    """

    def __init__(self, lhs: np.ndarray, rhs: np.ndarray, n_bin: int):
        self.n_bin = n_bin
        a = lhs[:, :n_bin]
        self.split = np.hstack([np.maximum(lhs, 0.0), np.minimum(lhs, 0.0)])
        self.limit = rhs + PROPAGATION_TOL * np.maximum(1.0, np.abs(rhs))
        # column j exceeding a row's slack fixes binary j to 0, column n_bin + j to 1
        self.steps = np.hstack([a, -a])
        # the most any binary can move a row: a row whose slack covers it fixes nothing
        self.reach = np.abs(a).max(axis=1, initial=0.0)
        # fixing x_j to 0 raises the minimum activity of the rows with
        # a_ij < 0, fixing it to 1 that of the rows with a_ij > 0; other
        # fixings leave every slack as it was
        self.raises = np.vstack([(a < 0.0).any(axis=0), (a > 0.0).any(axis=0)])

    def __call__(self, lb: np.ndarray, ub: np.ndarray):
        """(lb, ub, count) with the binaries the rows rule out fixed, or
        None when some row holds nowhere in the box.  Siblings share box
        arrays, so the box is copied before it changes."""
        n_bin, given = self.n_bin, None
        while True:
            slack = self.limit - self.split @ np.concatenate((lb, ub))
            # reach >= 0, so a row no binary can move has no negative slack
            if not np.count_nonzero(self.reach > slack):
                break
            if np.count_nonzero(slack < 0.0):
                return None
            fix = np.logical_or.reduce(self.steps > slack[:, None], axis=0).reshape(2, n_bin)
            fix &= lb[:n_bin] < ub[:n_bin]
            if not np.count_nonzero(fix):
                break
            if given is None:
                given = lb, ub
                lb, ub = lb.copy(), ub.copy()
            # a binary both rules fix ends at its lower bound; the next round closes the node
            np.copyto(ub[:n_bin], lb[:n_bin], where=fix[0])
            np.copyto(lb[:n_bin], ub[:n_bin], where=fix[1])
            if not np.count_nonzero(fix & self.raises):
                break
        if given is None:
            return lb, ub, 0
        free = np.count_nonzero(given[0][:n_bin] < given[1][:n_bin])
        return lb, ub, int(free - np.count_nonzero(lb[:n_bin] < ub[:n_bin]))

    def moved(self, lb, ub, new_lb, new_ub) -> bool:
        """Whether fixing binaries from the box [lb, ub] to [new_lb, new_ub]
        raises some row's minimum activity; if not, a fixed point of the
        rows stays one."""
        n_bin = self.n_bin
        return bool(np.count_nonzero((new_ub[:n_bin] < ub[:n_bin]) & self.raises[0])
                    or np.count_nonzero((new_lb[:n_bin] > lb[:n_bin]) & self.raises[1]))


def _conflict_graph(lhs: np.ndarray, rhs: np.ndarray, n_bin: int) -> np.ndarray:
    """The (n_bin, n_bin) adjacency of binaries that no 0/1 point sets to 1 together.

    Binaries i != j conflict when some row lhs.x <= rhs with nonnegative
    binary coefficients and no continuous column has a_i + a_j > rhs +
    PROPAGATION_TOL * max(1, |rhs|).  In a row only the binaries that
    conflict with its heaviest can conflict at all.  They all do when the
    two lightest of them do, and such rows enter the graph in one product
    of these sets; any other row compares its own pairwise.
    """
    w = lhs[:, :n_bin]
    rows = (w >= 0.0).all(axis=1) & ~lhs[:, n_bin:].any(axis=1)
    w, rhs = w[rows], rhs[rows]
    limit = rhs + PROPAGATION_TOL * np.maximum(1.0, np.abs(rhs))
    heavy = w + w.max(axis=1, initial=0.0)[:, None] > limit[:, None]
    pairs = heavy.sum(axis=1) > 1
    if not pairs.any():
        return np.zeros((n_bin, n_bin), dtype=bool)
    w, limit, heavy = w[pairs], limit[pairs], heavy[pairs]
    lightest = np.partition(np.where(heavy, w, np.inf), 1, axis=1)[:, :2]
    whole = lightest.sum(axis=1) > limit
    h = heavy[whole].astype(float)
    adj = h.T @ h > 0.0
    for wi, li, hi in zip(w[~whole], limit[~whole], heavy[~whole]):
        cols = np.flatnonzero(hi)
        adj[np.ix_(cols, cols)] |= wi[cols, None] + wi[cols] > li
    np.fill_diagonal(adj, False)
    return adj


class _Cliques:
    """Greedy clique separation on the conflict graph of ``_Roundings``' rows.

    The module docstring gives the rule.  Each binary's neighbours are a
    bit mask, so growing a clique is a walk down the greedy order that
    keeps the candidates adjacent to every member taken so far.  Each
    call drops its own repeats and keeps nothing, so the solves a start
    carries share one separation.  No call finds a row the hull already
    holds: separation runs only on an optimal hull LP, whose point meets
    each of its rows within the dual's feasibility tolerance (1e-7),
    below CLIQUE_VIOLATION.
    """

    def __init__(self, adj: np.ndarray):
        """Separation on the conflict graph adj."""
        self.n_bin = len(adj)
        self.by_degree = np.argsort(-adj.sum(axis=1), kind="stable").tolist()
        bits = np.packbits(adj, axis=1, bitorder="little")
        buf, width = bits.tobytes(), bits.shape[1]
        self.nbrs = [int.from_bytes(buf[i * width:(i + 1) * width], "little")
                     for i in range(self.n_bin)]

    def __call__(self, x: np.ndarray) -> list[np.ndarray]:
        """The sorted column indices of each new clique that x violates."""
        y, nbrs = x[: self.n_bin].tolist(), self.nbrs
        pos = sorted((j for j, v in enumerate(y) if v > INTEGRALITY_TOL), key=lambda j: -y[j])
        order = pos + [j for j in self.by_degree if y[j] <= INTEGRALITY_TOL]
        cuts = []
        for p in pos:
            if abs(y[p] - round(y[p])) <= INTEGRALITY_TOL:
                continue
            clique, cand, total = [p], nbrs[p], y[p]
            for j in order:
                if not cand:
                    break
                if cand >> j & 1:
                    clique.append(j)
                    total += y[j]
                    cand &= nbrs[j]
            if total > 1.0 + CLIQUE_VIOLATION:
                cols = tuple(sorted(clique))
                if cols not in cuts:
                    cuts.append(cols)
        return [np.array(cols) for cols in cuts]


def _branch_candidates(frac: np.ndarray) -> np.ndarray:
    """The BRANCH_CANDIDATES most fractional binaries beyond INTEGRALITY_TOL
    (ties to the lowest index); a near-integral point, with none, keeps
    its most fractional."""
    cands = (-frac).argsort(kind="stable")[:BRANCH_CANDIDATES]
    return cands[: max(1, np.count_nonzero(frac[cands] > INTEGRALITY_TOL))]


def _region_gains(state: _simplex._Workspace, boxes) -> list[float | None]:
    """Each root box's first-step bound on the rise of its LP above the
    optimal state's (module docstring), None for a box holding the
    state's point."""
    x = state.x[: state.n]
    gains = []
    for lo, hi in boxes:
        end = np.minimum(np.maximum(x, lo), hi)  # each column's nearer end of the box
        out = np.flatnonzero(np.abs(end - x) > INTEGRALITY_TOL)
        gains.append(max((float(state.first_step_gains([j], (end[j],))[0, 0]) for j in out),
                         default=None))
    return gains


def _gate(state: _simplex._Workspace, frac: np.ndarray, boxes, ratio: float) -> Gate:
    """The root gate's decision at the hull's optimal state, its free
    binaries fractional by ``frac`` (module docstring)."""
    disjunction = min((g for g in _region_gains(state, boxes) if g is not None), default=0.0)
    if not np.count_nonzero(frac > INTEGRALITY_TOL):
        return Gate(False, disjunction, 0.0, ratio)
    variable = float(state.first_step_gains(_branch_candidates(frac), (0.0, 1.0))
                     .min(axis=1).max())
    return Gate(disjunction >= ratio * variable, disjunction, variable, ratio)


def _fix_by_reduced_costs(warm, lb, ub, n_bin: int, gap: float, tol: float):
    """(lb, ub, count): the box with the binaries the parent's reduced costs rule out fixed.

    ``warm`` is the parent's optimal LP state and ``gap`` the cutoff
    minus the parent's bound.  A free binary nonbasic at its lower bound
    (h_j = -1 in the state) with d_j > gap + tol is fixed there, one at
    its upper bound (h_j = +1) with -d_j > gap + tol likewise: d_j and
    h_j of opposite signs.  The rule runs over the binaries whose |d_j|
    passes, not over every column.  Siblings share box arrays, so an
    array is copied before it changes.
    """
    d = warm.d
    hit = (np.abs(d[:n_bin]) > gap + tol).nonzero()[0]
    if not len(hit):
        return lb, ub, 0
    side = warm.h[hit]
    keep = (d[hit] * side < 0.0) & (lb[hit] < ub[hit])
    down, up = hit[keep & (side < 0.0)], hit[keep & (side > 0.0)]
    if len(down):
        ub = ub.copy()
        ub[down] = lb[down]
    if len(up):
        lb = lb.copy()
        lb[up] = ub[up]
    return lb, ub, len(down) + len(up)


# a knapsack node's LP state, read by _fix_by_reduced_costs as a simplex
# state is: h_j is -1 at the lower bound, +1 at the upper, 0 where basic or fixed
_KnapsackState = namedtuple("_KnapsackState", "d h")


class _Knapsack:
    """Closed-form LP relaxation of a pure single-row knapsack, min c.x s.t. w.x <= cap.

    A node's LP is taken over its row-propagated box: the items fixed to
    1 leave the room cap - w.lb, and a free item heavier than the room
    plus PROPAGATION_TOL * max(1, |cap|) is held at 0, as ``_Propagator``
    would fix it.  The other free items are taken by best ratio c_j / w_j
    until the room binds: the LP optimum over the propagated box, orders
    of magnitude faster than the simplex on the large validator
    instances.  The first item that does not fit whole, the critical
    item k, is basic, and the capacity row's multiplier is lambda =
    -c_k / w_k (0 when every free improving item fits), so the reduced
    costs are d = c + lambda w.  An item held at 0 is fixed in the state
    (h = 0), but the node's box is left as it is.  lambda > 0 only when
    k fills the capacity exactly, and every 0/1 point x of the box with
    w.x <= cap holds the held items at 0, so for each such x the
    Lagrangian gives c.x >= c.x + lambda (w.x - cap) = bound + d.(x - x*).
    """

    def __init__(self, c: np.ndarray, w: np.ndarray, cap: float):
        self.c, self.w, self.cap = c, w, cap
        self.tol = PROPAGATION_TOL * max(1.0, abs(cap))
        order = np.argsort(c / w, kind="stable")
        self.order = order[c[order] < 0]  # the items that can improve the objective

    def __call__(self, lb: np.ndarray, ub: np.ndarray):
        """(status, x, bound, state) of the LP over the propagated box of [lb, ub]."""
        c, w, order = self.c, self.w, self.order
        x = lb.copy()
        room = self.cap - float(w @ x)
        if room < -ROUNDED_ROW_TOL:  # the items fixed to 1 overfill it
            return _simplex.STATUS_INFEASIBLE, None, math.inf, None
        free = (lb < ub) & (w <= room + self.tol)  # the rest are held at 0
        h = np.where(free, -1.0, 0.0)
        free = order[free[order]]
        reach = np.cumsum(w[free])
        k = int(np.searchsorted(reach, room, side="right"))  # items that fit whole
        x[free[:k]] = 1.0
        h[free[:k]] = 1.0
        lam = 0.0
        if k < len(free):
            j = free[k]
            x[j] = (room - (reach[k - 1] if k else 0.0)) / w[j]
            h[j] = 0.0
            lam = -c[j] / w[j]
        return _simplex.STATUS_OPTIMAL, x, float(c @ x), _KnapsackState(c + lam * w, h)

    def complete(self, y: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray | None:
        """The 0/1 point y of the box [lb, ub] with each free item it leaves
        out taken, in ``order``, when it still fits; None when the result
        overfills the row by more than ROUNDED_ROW_TOL.

        The room only shrinks, so an item that does not fit when its turn
        comes never will.  Each pass therefore drops the items heavier
        than the room, takes the longest run of the rest whose weights
        fit one after another, and skips the item that ends the run.
        """
        w, order = self.w, self.order
        out = order[(y[order] == 0.0) & (lb[order] < ub[order])]
        room = self.cap - float(w @ y)
        y = y.copy()
        while len(out := out[w[out] <= room]):
            reach = np.cumsum(w[out])
            k = int(np.searchsorted(reach, room, side="right"))  # >= 1: out[0] fits
            y[out[:k]] = 1.0
            room -= float(reach[k - 1])
            out = out[k + 1:]
        return y if float(w @ y) - self.cap <= ROUNDED_ROW_TOL else None


@dataclass
class Hull:
    """A solve's final hull, kept in its report to start the next solve
    of the same family (``solve_mip``'s ``start``).

    ``a``, ``senses`` and ``b`` are the instance's own rows and [lb, ub]
    the hull's box.  ``state`` is the hull's final optimal state over
    those rows and ``cuts``, the clique rows it holds (a (k, n) array).
    ``roundings`` and ``propagate`` are built on the rows and the cuts,
    and ``cliques`` is the separation on their conflict graph (None when
    the graph was not built).
    """

    a: np.ndarray
    senses: list[str]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    state: _simplex._Workspace
    cuts: np.ndarray
    roundings: _Roundings
    propagate: _Propagator
    cliques: _Cliques | None

    def fits(self, a: np.ndarray, senses: list[str], b: np.ndarray, lb: np.ndarray,
             ub: np.ndarray) -> bool:
        """Whether a hull over the rows (a, senses, b) and the box [lb, ub]
        can start from this one."""
        return (senses == self.senses and np.array_equal(a, self.a) and np.array_equal(b, self.b)
                and np.array_equal(lb, self.lb) and np.array_equal(ub, self.ub))


class _Node(NamedTuple):
    """An open node: its box [lb, ub], shared with its siblings until a
    fixing copies it; ``warm``, its parent's optimal LP state (a root's
    is the hull's); ``root``, the index of its root box; ``bound``, its
    first-step bound (-inf at a root); and ``stale``, whether its box may
    be short of a fixed point of the rows, so that propagation runs."""

    lb: np.ndarray
    ub: np.ndarray
    warm: _simplex._Workspace | _KnapsackState | None
    root: int
    bound: float
    stale: bool


def solve_mip(
    instance: MipInstance,
    options: SolveOptions | None = None,
    roots: list[tuple[np.ndarray, np.ndarray]] | None = None,
    start: Hull | None = None,
    gate: float | None = None,
) -> SolveReport:
    """Branch-and-bound solve of the instance, honouring options.

    ``roots`` lists one or more (lb, ub) boxes over all variables, one
    root node each (default: the instance's own bounds); the solve
    searches their union.  Each box is a child of the hull.  The subtrees share the
    incumbent, the limits and the incumbent log; the report counts
    nodes and seconds per root.

    ``start`` is the ``hull`` of an earlier solve's report, the previous
    instance of a family.  When the instance's rows, right-hand sides
    included, are its rows and the hull's box is its box, the start's
    clique rows and the structures built on the rows carry: the hull LP
    starts warm from its final state over the rows and the cuts,
    re-priced (``_simplex._Workspace.started``), instead of the slack
    basis, and separation goes on from there.  Any other solve, and
    every knapsack solve, is cold.

    ``gate`` is the ratio k of the root gate (module docstring): with
    two or more roots, the tree keeps them only when their disjunction
    scores at least k times the best variable at the hull, and is
    otherwise rooted at the hull's box alone, one root.  None keeps
    every root.

    The report is in the instance's own sense.  Limits are statuses:
    hitting the node or time limit yields status "limit" with the best
    incumbent attached when one exists.  The time limit also stops a
    node LP between simplex iterations.
    """
    opts = options or SolveOptions()
    opts.validate()
    t0 = time.monotonic()
    deadline = None if math.isinf(opts.time_limit) else t0 + opts.time_limit
    n_bin = instance.num_binary

    c_user, a, senses, b, lb0, ub0 = relaxation_arrays(instance)
    negate = instance.sense == "maximize"
    c = -c_user if negate else c_user

    boxes = [(lb0, ub0)] if roots is None else [
        (np.array(lo, dtype=float), np.array(hi, dtype=float)) for lo, hi in roots]
    if not boxes or any(lo.shape != lb0.shape or (lo > hi).any() for lo, hi in boxes):
        raise ValueError("a solve needs root boxes, each with lb <= ub over every variable")
    # the search counts straight into the report; the end sets the rest
    rep = SolveReport(best_solution=None, best_bound=math.inf, status="infeasible", nodes=0,
                      wall_time=0.0, root_nodes=[0] * len(boxes), root_seconds=[0.0] * len(boxes))
    root = None  # root box of the node being processed

    incumbent_val, incumbent_x = math.inf, None
    limit_hit = False

    # a node whose bound reaches prune_at cannot beat the incumbent by the gap
    prune_at = math.inf

    def accept(x: np.ndarray, val: float) -> None:
        nonlocal incumbent_val, incumbent_x, prune_at
        if val >= incumbent_val:
            return
        incumbent_val = val
        incumbent_x = x.copy()
        rep.best_root = root
        prune_at = val - max(opts.abs_gap, opts.rel_gap * abs(val))
        rep.incumbent_log.append((time.monotonic() - t0, (-val if negate else val) + 0.0))

    # pure single-row knapsacks have a closed-form node relaxation
    knapsack = propagate = None
    if instance.num_continuous == 0 and senses == ["<="] and np.all(a[0] > 0):
        knapsack = _Knapsack(c, a[0], float(b[0]))

    def node_lp(lb, ub, warm):
        """(status, x, bound, state) of the LP over the box, from the dual
        feasible state ``warm`` when one is given."""
        rep.lps += 1
        if knapsack is not None:
            return knapsack(lb, ub)
        res = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub, warm=warm,
                                        deadline=deadline, cutoff=prune_at)
        rep.lp_iterations += res.iterations
        return res.status, res.x, res.objective, res.state

    # the hull bounds every root box and is dual feasible under each
    hull_lb = np.min([lo for lo, _ in boxes], axis=0)
    hull_ub = np.max([hi for _, hi in boxes], axis=0)
    rows_a, rows_senses, rows_b = a, senses, b
    if start is not None and knapsack is None and start.fits(a, senses, b, hull_lb, hull_ub):
        # the cut rows hold at every 0/1 point of these rows, so they carry
        cliques, roundings, propagate = start.cliques, start.roundings, start.propagate
        a = np.vstack([a, start.cuts])
        senses = senses + ["<="] * len(start.cuts)
        b = np.concatenate([b, np.ones(len(start.cuts))])
        lp_status, x, bound, hull = node_lp(hull_lb, hull_ub, start.state.started(c))
    else:
        cliques, roundings = None, _Roundings(a, senses, b, n_bin)
        lp_status, x, bound, hull = node_lp(hull_lb, hull_ub, None)
    if cliques is None and knapsack is None and lp_status == _simplex.STATUS_OPTIMAL and (
            np.abs(x[:n_bin] - np.rint(x[:n_bin])) > INTEGRALITY_TOL).any():
        cliques = _Cliques(_conflict_graph(roundings.lhs, roundings.rhs, n_bin))
    held = len(b)
    if cliques is not None and lp_status == _simplex.STATUS_OPTIMAL:
        for _ in range(CUT_ROUNDS):
            if deadline is not None and time.monotonic() > deadline:
                break
            found = cliques(x)
            if not found:
                break
            rows = np.zeros((len(found), a.shape[1]))
            for r, clique in enumerate(found):
                rows[r, clique] = 1.0
            hull = hull.with_rows(rows, np.ones(len(found)))
            a = np.vstack([a, rows])
            senses = senses + ["<="] * len(found)
            b = np.concatenate([b, np.ones(len(found))])
            lp_status, x, bound, hull = node_lp(hull_lb, hull_ub, hull)
            if lp_status != _simplex.STATUS_OPTIMAL:
                break
        if len(b) > held:
            roundings = _Roundings(a, senses, b, n_bin)
            propagate = None
    rep.cuts = len(b) - len(rows_b)
    if knapsack is None and propagate is None:
        propagate = _Propagator(roundings.lhs, roundings.rhs, n_bin)
    if lp_status == _simplex.STATUS_OPTIMAL and knapsack is None:
        rep.hull = Hull(a=rows_a, senses=rows_senses, b=rows_b, lb=hull_lb, ub=hull_ub,
                        state=hull, cuts=a[len(rows_b):], roundings=roundings,
                        propagate=propagate, cliques=cliques)
    if gate is not None and len(boxes) > 1 and knapsack is None and (
            lp_status == _simplex.STATUS_OPTIMAL):
        y = x[:n_bin]
        rep.gate = _gate(hull, np.where(hull_lb[:n_bin] < hull_ub[:n_bin],
                                        np.abs(y - np.rint(y)), 0.0), boxes, gate)
        if not rep.gate.taken:
            boxes = [(hull_lb, hull_ub)]
            rep.root_nodes, rep.root_seconds = [0], [0.0]
    key = bound if lp_status == _simplex.STATUS_OPTIMAL else -math.inf
    if lp_status == _simplex.STATUS_INFEASIBLE:
        boxes = []
    # open nodes (parent bound, node id, node): a heap by the parent's
    # bound, ties to the older node
    tree = [(key, k, _Node(lb=lo, ub=hi, warm=hull, root=k, bound=-math.inf, stale=True))
            for k, (lo, hi) in enumerate(boxes)]
    next_id = len(tree)

    clock = t0
    while tree:
        now = time.monotonic()
        if root is not None:
            rep.root_seconds[root] += now - clock
        clock = now
        if rep.nodes >= opts.node_limit or now - t0 > opts.time_limit:
            limit_hit = True
            break
        parent_bound, node_id, node = heapq.heappop(tree)
        if parent_bound >= prune_at:
            continue
        # only now is the node the one whose seconds the clock charges
        root, lb, ub, stale = node.root, node.lb, node.ub, node.stale
        rep.nodes += 1
        rep.root_nodes[root] += 1
        if node.bound >= prune_at + _simplex.CUTOFF_TOL * max(1.0, abs(prune_at)):
            rep.closed["first_step"] += 1
            continue
        if node.warm is not None and prune_at < math.inf:
            lb_f, ub_f, k = _fix_by_reduced_costs(node.warm, lb, ub, n_bin, prune_at - parent_bound,
                                                  FIXING_TOL * max(1.0, abs(prune_at)))
            if k and propagate is not None and not stale:
                stale = propagate.moved(lb, ub, lb_f, ub_f)
            lb, ub = lb_f, ub_f
            rep.fixed += k
        # a box at its parent's fixed point that no fixing moved is at it still
        if stale and propagate is not None:
            box = propagate(lb, ub)
            if box is None:
                rep.closed["propagated"] += 1
                continue
            lb, ub, k = box
            rep.propagated += k

        lp_status, x, bound, state = node_lp(lb, ub, node.warm)
        if lp_status == _simplex.STATUS_INFEASIBLE:
            rep.closed["infeasible"] += 1
            continue
        if lp_status in (_simplex.STATUS_ITERATION_LIMIT, _simplex.STATUS_TIME_LIMIT):
            limit_hit = True
            heapq.heappush(tree, (parent_bound, node_id, node._replace(lb=lb, ub=ub, stale=stale)))
            break  # the node stays open, counted but not closed
        if lp_status == _simplex.STATUS_CUTOFF or bound >= prune_at:
            rep.closed["cutoff"] += 1
            continue
        # fixed binaries are integral by their bounds and never branched
        # on; with no binaries, every LP point is integral
        y = x[:n_bin]
        frac = np.where(lb[:n_bin] < ub[:n_bin], np.abs(y - np.rint(y)), 0.0)
        fmax = np.maximum.reduce(frac, initial=0.0)
        # rounding can push a row past its bound (a knapsack item at
        # 1 - 4e-7 overfills it by that much): such a point is branched
        # on, unless rounding moved no free binary and any violation is
        # the LP's own
        if fmax == 0.0:
            xi = x.copy()
            xi[:n_bin] = np.rint(xi[:n_bin])
            accept(xi, float(c @ xi))
            rep.closed["integral"] += 1
            continue
        cand, ok = roundings(x, lb, ub)  # nearest, floor, ceil
        if fmax <= INTEGRALITY_TOL and ok[0]:
            accept(cand[0], float(c @ cand[0]))
            rep.closed["integral"] += 1
            continue

        # rounding heuristic: each rounding that stays feasible is kept
        for i in ok.nonzero()[0]:
            accept(cand[i], float(c @ cand[i]))
        if knapsack is not None:
            y = knapsack.complete(cand[1], lb, ub)
            if y is not None:
                accept(y, float(c @ y))

        rep.closed["branched"] += 1
        if knapsack is None:
            cands = _branch_candidates(frac)
            gains = state.first_step_gains(cands, (0.0, 1.0))
            best = int(np.multiply.reduce(np.maximum(gains, SCORE_EPS), axis=1).argmax())
            j = int(cands[best])
            gain_dn, gain_up = gains[best].tolist()
        else:
            # a knapsack child's closed-form LP costs about what its bound
            # would, and its LP point has one fractional item to branch on
            j = int(frac.argmax())  # ties resolve to the lowest index
            gain_dn = gain_up = 0.0
        lb_up, ub_dn = lb.copy(), ub.copy()
        lb_up[j], ub_dn[j] = 1.0, 0.0
        moves = (False, False) if propagate is None else propagate.raises[:, j]
        up = _Node(lb=lb_up, ub=ub, warm=state, root=root, bound=bound + gain_up, stale=moves[1])
        down = _Node(lb=lb, ub=ub_dn, warm=state, root=root, bound=bound + gain_dn, stale=moves[0])
        # a warm LP over the parent's box can read an ulp below the parent's key
        key = max(bound, parent_bound)
        for child in ((up, down) if x[j] >= 0.5 else (down, up)):
            heapq.heappush(tree, (key, next_id, child))
            next_id += 1

    rep.wall_time = time.monotonic() - t0
    if root is not None:
        rep.root_seconds[root] += t0 + rep.wall_time - clock
    if limit_hit:
        rep.status = "limit"
        best_bound = min(tree[0][0] if tree else math.inf, incumbent_val)
    elif incumbent_x is not None:
        rep.status, best_bound = "optimal", incumbent_val
    else:
        rep.status, best_bound = "infeasible", math.inf
    rep.best_bound = -best_bound if negate else best_bound
    if incumbent_x is not None:
        rep.best_solution = Solution(
            values=incumbent_x, objective=(-incumbent_val if negate else incumbent_val) + 0.0,
            status="optimal" if rep.status == "optimal" else "feasible")
    return rep
