"""LP-based branch and bound for binary MILP.

The solver accepts node/time limits and root boxes, so a branching
disjunction is searched as one tree.
Branching is most-fractional with ties broken toward the lowest index;
node selection is best-bound, ties going to the node created first.  A
rounding heuristic runs at every node so the incumbent log is dense
enough for time-to-target measurements.

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

First-step bounds: when a node branches on x_j, its final tableau row
of x_j bounds each child's LP from below before that LP is set up
(``_simplex._Workspace.first_step_gains``, the dual's first
bound-flipping ratio test); the child's heap entry carries that bound,
while its heap key stays the parent's bound.

A popped node closes at the first of these that applies, and
``SolveReport.closed`` counts each way (CLOSED_BY):
  1. its parent's bound reaches the cutoff: dropped, not counted;
  2. its first-step bound reaches the cutoff plus the dual's
     ``_simplex.CUTOFF_TOL`` relative (the bound is infinite when the
     child is infeasible): closed with no fixing and no LP;
  3. reduced-cost fixing tightens its box, then its LP is solved; the
     dual simplex stops as soon as its bound reaches the cutoff
     (``STATUS_CUTOFF``), and the node closes when the LP is infeasible
     or its bound reaches the cutoff;
  4. an integral (or integral after rounding) LP point is accepted;
  5. otherwise it branches.
Root boxes are children of the hull, the LP over the least box holding
them all, solved first and not a node.  An infeasible hull ends the
solve as "infeasible" with no node, one past the time limit as "limit".

A single solve is single-threaded; concurrent solves on distinct
instances are safe.  Incumbent timestamps come from a monotonic clock.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field

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

# The ways a counted node closes, in the order the module docstring gives.
CLOSED_BY = ("first_step", "cutoff", "infeasible", "integral", "branched")


@dataclass
class SolveOptions:
    time_limit: float = math.inf  # seconds
    node_limit: int = 10**9
    rel_gap: float = 1e-6
    abs_gap: float = 1e-9

    def validate(self) -> None:
        if self.time_limit <= 0 or self.node_limit <= 0:
            raise ValueError("limits must be positive")
        if self.rel_gap < 0 or self.abs_gap < 0:
            raise ValueError("gaps must be non-negative")


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
            box = ~(np.maximum(lb[cols] - t, t - ub[cols]) > ROUNDED_ROW_TOL).any(axis=1)
        return pts, box & (pts @ self.lhs.T - self.rhs <= ROUNDED_ROW_TOL).all(axis=1)


def _fix_by_reduced_costs(warm, lb, ub, n_bin: int, gap: float, tol: float):
    """(lb, ub, count): the box with the binaries the parent's reduced costs rule out fixed.

    ``warm`` is the parent's optimal LP state and ``gap`` the cutoff
    minus the parent's bound.  A free binary nonbasic at its lower bound
    with d_j > gap + tol is fixed there, one at its upper bound with
    -d_j > gap + tol likewise.  Siblings share box arrays, so an array
    is copied before it changes.
    """
    d = warm.d[:n_bin]
    hit = np.abs(d) > gap + tol
    if not hit.any():
        return lb, ub, 0
    x = warm.x[:n_bin]
    hit &= (lb[:n_bin] < ub[:n_bin]) & ~warm.is_basic[:n_bin]
    down = hit & (d > 0) & (np.abs(x - warm.lb[:n_bin]) <= 1e-9)
    up = hit & (d < 0) & (np.abs(x - warm.ub[:n_bin]) <= 1e-9)
    if down.any():
        ub = ub.copy()
        ub[:n_bin][down] = lb[:n_bin][down]
    if up.any():
        lb = lb.copy()
        lb[:n_bin][up] = ub[:n_bin][up]
    return lb, ub, int(np.count_nonzero(down) + np.count_nonzero(up))


# a knapsack node's LP state, read by _fix_by_reduced_costs as a simplex state is
_KnapsackState = namedtuple("_KnapsackState", "d x lb ub is_basic")


class _Knapsack:
    """Closed-form LP relaxation of a pure single-row knapsack, min c.x s.t. w.x <= cap.

    Free items are taken by best ratio c_j / w_j until the residual
    capacity binds: the same LP optimum the simplex would return, orders
    of magnitude faster on the large validator instances.  The first
    item that does not fit whole, the critical item k, is basic, and the
    capacity row's multiplier is lambda = -c_k / w_k (0 when every free
    improving item fits), so the reduced costs are d = c + lambda w.
    lambda > 0 only when k fills the capacity exactly, so for every 0/1
    point x of the box with w.x <= cap the Lagrangian gives
    c.x >= c.x + lambda (w.x - cap) = bound + d.(x - x*).
    """

    def __init__(self, c: np.ndarray, w: np.ndarray, cap: float):
        self.c, self.w, self.cap = c, w, cap
        order = np.argsort(c / w, kind="stable")
        self.order = order[c[order] < 0]  # the items that can improve the objective

    def __call__(self, lb: np.ndarray, ub: np.ndarray):
        """(status, x, bound, state) of the LP over the box [lb, ub]."""
        c, w, order = self.c, self.w, self.order
        x = lb.copy()
        cap = self.cap - float(w @ x)
        if cap < -ROUNDED_ROW_TOL:  # the items fixed to 1 overfill it
            return _simplex.STATUS_INFEASIBLE, None, math.inf, None
        free = order[lb[order] < ub[order]]
        reach = np.cumsum(w[free])
        k = int(np.searchsorted(reach, cap, side="right"))  # items that fit whole
        x[free[:k]] = 1.0
        is_basic = np.zeros(len(x), dtype=bool)
        lam = 0.0
        if k < len(free):
            j = free[k]
            x[j] = (cap - (reach[k - 1] if k else 0.0)) / w[j]
            is_basic[j] = True
            lam = -c[j] / w[j]
        return _simplex.STATUS_OPTIMAL, x, float(c @ x), _KnapsackState(c + lam * w, x, lb, ub, is_basic)


def solve_mip(
    instance: MipInstance,
    options: SolveOptions | None = None,
    roots: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> SolveReport:
    """Branch-and-bound solve of the instance, honouring options.

    ``roots`` lists (lb, ub) boxes over all variables, one root node
    each (default: the instance's own bounds); the solve searches their
    union.  Each box is a child of the hull.  The subtrees share the
    incumbent, the limits and the incumbent log; the report counts
    nodes and seconds per root.

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
    if any(lo.shape != lb0.shape or (lo > hi).any() for lo, hi in boxes):
        raise ValueError("a root box needs lb <= ub over every variable")
    root_nodes = [0] * len(boxes)
    root_seconds = [0.0] * len(boxes)
    root = None  # root box of the node being processed
    best_root = None

    incumbent_val = math.inf
    incumbent_x: np.ndarray | None = None
    incumbent_log: list[tuple[float, float]] = []
    nodes = 0
    fixed = 0
    closed = dict.fromkeys(CLOSED_BY, 0)
    limit_hit = False

    # a node whose bound reaches prune_at cannot beat the incumbent by the gap
    prune_at = math.inf

    def accept(x: np.ndarray, val: float) -> bool:
        nonlocal incumbent_val, incumbent_x, best_root, prune_at
        if val >= incumbent_val:
            return False
        incumbent_val = val
        incumbent_x = x.copy()
        best_root = root
        prune_at = val - max(opts.abs_gap, opts.rel_gap * abs(val))
        user_obj = (-val if negate else val) + 0.0
        incumbent_log.append((time.monotonic() - t0, user_obj))
        return True

    roundings = _Roundings(a, senses, b, n_bin)

    # pure single-row knapsacks have a closed-form node relaxation
    knapsack = None
    if instance.num_continuous == 0 and senses == ["<="] and np.all(a[0] > 0):
        knapsack = _Knapsack(c, a[0], float(b[0]))

    def node_lp(lb, ub, warm):
        """(status, x, bound, state) of the LP over the box, from a parent's state."""
        if knapsack is not None:
            return knapsack(lb, ub)
        res = _simplex.solve_bounded_lp(c, a, senses, b, lb, ub, warm=warm,
                                        deadline=deadline, cutoff=prune_at)
        return res.status, res.x, res.objective, res.state

    # the hull bounds every root box and is dual feasible under each
    key, hull = -math.inf, None
    if roots:
        lp_status, _, bound, state = node_lp(np.min([lo for lo, _ in boxes], axis=0),
                                             np.max([hi for _, hi in boxes], axis=0), None)
        if lp_status == _simplex.STATUS_INFEASIBLE:
            boxes = []
        elif lp_status == _simplex.STATUS_OPTIMAL:
            key, hull = bound, state
    # open nodes (parent bound, node_id, (lb, ub, parent state, root, own
    # bound)): a heap by the parent's bound, ties to the older node
    tree = [(key, k, (lo, hi, hull, k, -math.inf)) for k, (lo, hi) in enumerate(boxes)]
    next_id = len(tree)

    clock = t0
    while tree:
        now = time.monotonic()
        if root is not None:
            root_seconds[root] += now - clock
        clock = now
        if nodes >= opts.node_limit or now - t0 > opts.time_limit:
            limit_hit = True
            break
        parent_bound, node_id, node = heapq.heappop(tree)
        if parent_bound >= prune_at:
            continue
        lb, ub, warm, root, own_bound = node
        nodes += 1
        root_nodes[root] += 1
        if own_bound >= prune_at + _simplex.CUTOFF_TOL * max(1.0, abs(prune_at)):
            closed["first_step"] += 1
            continue
        if warm is not None and prune_at < math.inf:
            lb, ub, k = _fix_by_reduced_costs(
                warm, lb, ub, n_bin, prune_at - parent_bound, FIXING_TOL * max(1.0, abs(prune_at)))
            fixed += k

        lp_status, x, bound, state = node_lp(lb, ub, warm)
        if lp_status == _simplex.STATUS_INFEASIBLE:
            closed["infeasible"] += 1
            continue
        if lp_status == _simplex.STATUS_UNBOUNDED:
            raise RuntimeError("LP relaxation is unbounded; MILP statuses cannot express this")
        if lp_status in (_simplex.STATUS_ITERATION_LIMIT, _simplex.STATUS_TIME_LIMIT):
            limit_hit = True
            heapq.heappush(tree, (parent_bound, node_id, (lb, ub, warm, root, own_bound)))
            break  # the node stays open, counted but not closed
        if lp_status == _simplex.STATUS_CUTOFF or bound >= prune_at:
            closed["cutoff"] += 1
            continue
        if n_bin == 0:
            accept(x, bound)
            closed["integral"] += 1
            continue
        # fixed binaries are integral by their bounds and never branched on
        frac = np.where(lb[:n_bin] < ub[:n_bin], np.abs(x[:n_bin] - np.rint(x[:n_bin])), 0.0)
        j = int(frac.argmax())  # ties resolve to the lowest index
        fmax = frac[j]
        # rounding can push a row past its bound (a knapsack item at
        # 1 - 4e-7 overfills it by that much): such a point is branched
        # on, unless rounding moved no free binary and any violation is
        # the LP's own
        if fmax == 0.0:
            xi = x.copy()
            xi[:n_bin] = np.rint(xi[:n_bin])
            accept(xi, float(c @ xi))
            closed["integral"] += 1
            continue
        cand, ok = roundings(x, lb, ub)  # nearest, floor, ceil
        if fmax <= INTEGRALITY_TOL and ok[0]:
            accept(cand[0], float(c @ cand[0]))
            closed["integral"] += 1
            continue

        # rounding heuristic: each rounding that stays feasible is kept
        for i in ok.nonzero()[0]:
            accept(cand[i], float(c @ cand[i]))

        closed["branched"] += 1
        # a knapsack child's closed-form LP costs about what its bound would
        gain_dn, gain_up = ((0.0, 0.0) if knapsack is not None
                            else state.first_step_gains(j, (0.0, 1.0)))
        lb_up = lb.copy()
        lb_up[j] = 1.0
        ub_dn = ub.copy()
        ub_dn[j] = 0.0
        up = (lb_up, ub, state, root, bound + gain_up)
        down = (lb, ub_dn, state, root, bound + gain_dn)
        for child in ((up, down) if x[j] >= 0.5 else (down, up)):
            heapq.heappush(tree, (bound, next_id, child))
            next_id += 1

    wall = time.monotonic() - t0
    if root is not None:
        root_seconds[root] += t0 + wall - clock
    open_bound = tree[0][0] if tree else math.inf

    if limit_hit:
        status = "limit"
        best_bound_int = min(open_bound, incumbent_val)
    elif incumbent_x is not None:
        status = "optimal"
        best_bound_int = incumbent_val
    else:
        status = "infeasible"
        best_bound_int = math.inf

    best_solution = None
    if incumbent_x is not None:
        user_obj = (-incumbent_val if negate else incumbent_val) + 0.0
        best_solution = Solution(
            values=incumbent_x,
            objective=user_obj,
            status="optimal" if status == "optimal" else "feasible",
        )
    best_bound = -best_bound_int if negate else best_bound_int
    return SolveReport(
        best_solution=best_solution,
        best_bound=best_bound,
        status=status,
        nodes=nodes,
        wall_time=wall,
        incumbent_log=incumbent_log,
        root_nodes=root_nodes,
        root_seconds=root_seconds,
        best_root=best_root,
        fixed=fixed,
        closed=closed,
    )
