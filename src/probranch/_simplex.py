"""Bounded dual simplex on dense arrays (minimization).

Every LP it solves is boxed: each structural bound is finite (binaries,
count columns, and continuous columns, whose bounds
``MipInstance.validate`` requires to be finite).  So a cold solve needs
no phase 1.  Each column starts at the bound its cost prefers (its
upper bound where c_j < 0, else its lower), the slack basis is then
dual feasible with d = c, and the bounded dual simplex below restores
primal feasibility; an optimal return recomputes d = c - (c_B B^-1) A
from the final basis.

Every nonbasic column sits exactly on one of its bounds: the start puts
it there, a pivot's leaving variable leaves at the bound it violated,
and a bound flip assigns the other bound instead of adding the span,
so no round-off can leave a column between its bounds.  A column's side
is read from x == lb.

A warm solve reoptimizes from the final state of an earlier optimal
solve of the same rows under a box within that solve's box, as a
branch-and-bound child's box lies within its parent's.  Reduced costs
do not depend on the bounds, and each nonbasic column moves onto the
same side of the tighter box, so the basis stays dual feasible, every
nonbasic column stays on a bound, only x_B is recomputed, and the
reduced costs d an optimal solve ends with are carried in its state
and start its children's solves.  A bounded dual simplex then restores
primal feasibility: the most infeasible basic variable leaves
(infeasibility measured against the norm of its row of B^-1, the dual
steepest edge), and the bound-flipping ratio test ``_ratio_test`` picks
the entering column and the columns flipped on the way; when every
eligible column at its helpful bound still leaves the row infeasible,
the LP is infeasible.  Within the dual loop x_B, d and the basic bounds
are updated at each pivot and flip, not gathered again.  A warm solve
that does not settle (an iteration limit, a non-finite value, or
round-off leaving the final reduced costs dual infeasible) falls back
to a cold one.  A cold solve returns STATUS_ITERATION_LIMIT at the
iteration limit, and raises NumericalFailure when it ends with a
non-finite value or dual infeasible reduced costs.

A started state re-prices the final state of an optimal solve of the
same LP for other costs: the previous instance of a family
(``_Workspace.started``).  It keeps the basis and its inverse, re-prices
it, d = c - (c_B B^-1) A, puts each nonbasic column on the bound its
reduced cost prefers and recomputes x_B.  A slack s = b - a.x is then
boxed by its row's activity range over the box, [b - max a.x, b - min
a.x] within the state's slack bounds: no point is cut off, but every
nonbasic slack gets a finite preferred bound, so the state is dual
feasible and a warm solve starts from it as from an optimal one.  Only
started states and their children carry these boxes; every other LP
keeps the sense's bounds alone.

While the basis is dual feasible, the objective c.x of the dual's basic
solution is a lower bound on the LP.  Given a finite ``cutoff``, the
dual tracks it (the nonbasic part updated on each flip and pivot) and
stops with STATUS_CUTOFF as soon as it reaches the cutoff while rows
are still infeasible.  The same argument bounds a branch-and-bound
child from its parent's final tableau before the child's LP is set up:
``_Workspace.first_step_gains`` runs the same ``_ratio_test`` on the
row of each branching candidate, so each gain is the rise of c.x over
the child's first dual iteration.

A ``deadline`` (a ``time.monotonic()`` instant) stops the dual between
iterations with STATUS_TIME_LIMIT; that stop never falls back to a cold
solve.

The basis inverse is kept explicitly and updated in product form each
pivot; numpy's LAPACK inverse refreshes it every ``REFACTOR_EVERY``
pivots.  The pivot count travels with the state, so the refresh also
holds along a dive of warm solves.  Bland's lowest-index rule engages
permanently after ``BLAND_AFTER`` degenerate pivots, which guarantees
termination.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

REFACTOR_EVERY = 50
BLAND_AFTER = 1000

_DUAL_TOL = 1e-9
_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-7
_DEGEN_TOL = 1e-12

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_TIME_LIMIT = "time_limit"
STATUS_CUTOFF = "cutoff"

# A dual solve stops with STATUS_CUTOFF once its bound clears the cutoff
# by this much, relative to the cutoff's magnitude, so round-off in the
# tracked objective cannot stop an LP whose optimum lies below it.
CUTOFF_TOL = 1e-9


class NumericalFailure(RuntimeError):
    """An LP solve broke down numerically.

    The interior-point iteration produced a non-finite normal matrix or
    step, or a cold dual simplex ended with a non-finite value or dual
    infeasible reduced costs.
    """


@dataclass
class SimplexResult:
    """The outcome of ``solve_bounded_lp``.

    ``status`` is STATUS_OPTIMAL, STATUS_INFEASIBLE, STATUS_CUTOFF,
    STATUS_ITERATION_LIMIT or STATUS_TIME_LIMIT.
    """

    status: str
    x: np.ndarray  # structural variable values
    objective: float  # c . x for the minimized objective
    iterations: int
    state: _Workspace | None = None  # final basis of an optimal solve, for ``warm``


def _slack_bounds(sense: str) -> tuple[float, float]:
    if sense == "<=":
        return 0.0, np.inf
    if sense == ">=":
        return -np.inf, 0.0
    if sense == "=":
        return 0.0, 0.0
    raise ValueError(f"bad row sense {sense!r}")


_NO_FLIPS = np.zeros(0, dtype=np.intp)  # the flips of a ratio test that walks no breakpoint


def _ratio_test(ha, mag, absd, span, gap, rises, bland=False):
    """The bound-flipping ratio test on one row of the tableau (Fourer 1994).

    A basic variable with tableau row alpha = (B^-1 A)_r lies ``gap``
    short of the bound it must reach, below it when ``rises``.  The row
    comes as ha = h * alpha and mag = |alpha|, and the reduced costs as
    absd = |d|, so that callers testing one row or one d more than once
    compute them once.  A nonbasic column k is eligible when moving it
    off its bound, the way h_k allows, pushes that variable toward the
    bound; its breakpoint is the dual step |d_k|/|alpha_k| at which its
    reduced cost reaches 0, and moving it through its whole span closes
    |alpha_k|·span_k of the gap.  The walk takes the breakpoints in
    order, ties to the largest pivot |alpha_k| and then the lowest index
    (the lowest index alone under Bland's rule), and flips each column to
    its other bound while the gap stays open after the flip; the column
    that closes it enters.  When the first breakpoint closes the gap
    alone, no walk is needed.

    Returns (q, flips, gain): the entering column, the flipped columns
    in walk order and the rise of the dual objective over the step,
    which is the cost of the move.  When the eligible columns cannot
    close the gap the row proves the LP infeasible: (None, None, inf).
    """
    cols = (ha > _PIVOT_TOL if rises else ha < -_PIVOT_TOL).nonzero()[0]
    if not len(cols):
        return None, None, math.inf
    mag = mag[cols]
    ratios = absd[cols] / mag
    # the first breakpoint: least ratio, ties to the largest pivot, then
    # (as in the full order below) the lowest index
    i = ratios.argmin()
    if len(cols) > 1:
        tied = ratios == ratios[i]
        if np.count_nonzero(tied) > 1:
            i = np.where(tied, mag, -1.0).argmax()
    if not bland and gap - mag[i] * span[cols[i]] <= _FEAS_TOL:
        return int(cols[i]), _NO_FLIPS, float(ratios[i] * gap)
    reach = mag * span[cols]
    order = np.lexsort((cols if bland else -mag, ratios))
    left = gap - reach[order].cumsum()  # the gap left after each breakpoint's flip
    k = int((left <= _FEAS_TOL).argmax())
    if left[k] > _FEAS_TOL:
        return None, None, math.inf
    whole = order[:k]  # columns flipped through their whole span
    gain = ratios[whole] @ reach[whole] + ratios[order[k]] * (left[k - 1] if k else gap)
    return int(cols[order[k]]), cols[whole], float(gain)


class _Workspace:
    """Mutable solver state over the extended (structural+slack) system.

    The workspace a solve ends with is its warm-start state; ``child``
    copies everything a solve writes and shares the extended matrix and
    the extended costs ``c`` (0 on the slacks).
    """

    def __init__(self, a, senses, b, lb, ub, c):
        """The dual start for costs c: the slack basis over the rows.

        Each column starts at the bound its cost prefers, ub where
        c_j < 0 and lb otherwise, and the slacks take whatever values
        the rows leave, out of bounds or not.  That basis is dual
        feasible with d = c, zero on the slacks.
        """
        m, n = a.shape
        self.m, self.n = m, n
        sl_lo = np.empty(m)
        sl_hi = np.empty(m)
        for r, s in enumerate(senses):
            sl_lo[r], sl_hi[r] = _slack_bounds(s)
        x_struct = np.where(c < 0, ub, lb)
        self.A = np.hstack([a, np.eye(m)])
        self.lb = np.concatenate([lb, sl_lo])
        self.ub = np.concatenate([ub, sl_hi])
        self.x = np.concatenate([x_struct, b - a @ x_struct])
        self.basis = np.arange(n, n + m)
        self.b = b
        self.binv = np.eye(m)
        self.is_basic = np.zeros(n + m, dtype=bool)
        self.is_basic[self.basis] = True
        self.pivots = 0  # since the last refactorization
        self.degenerate = 0
        self.iterations = 0
        self.c = np.concatenate([c, np.zeros(m)])
        # reduced costs: the start's, then those an optimal solve ends with
        self.d = self.c.copy()

    def child(self, lb: np.ndarray, ub: np.ndarray) -> _Workspace:
        """A copy of this state under a box within its own, x_B recomputed.

        Nonbasic variables move onto the same side of the new box.  The
        extended matrix, b, the costs, the carried reduced costs and the
        pivot count are inherited; only the arrays a solve writes are
        copied.
        """
        ws = _Workspace.__new__(_Workspace)
        ws.m, ws.n, ws.A, ws.b, ws.c = self.m, self.n, self.A, self.b, self.c
        ws.basis = self.basis.copy()
        ws.binv = self.binv.copy()
        ws.is_basic = self.is_basic.copy()
        ws.lb = self.lb.copy()
        ws.ub = self.ub.copy()
        ws.lb[: self.n] = lb
        ws.ub[: self.n] = ub
        ws.x = np.minimum(np.maximum(self.x, ws.lb), ws.ub)
        ws.d = self.d
        ws.pivots = self.pivots
        ws.degenerate = ws.iterations = 0
        ws.basic_values()
        return ws

    def started(self, c) -> _Workspace | None:
        """A dual feasible start for the structural costs c from this
        optimal state, over its rows, b and box; None when some row holds
        nowhere in the box.

        It is this state's ``child`` under the same box, basis and inverse
        kept, re-priced: d = c - (c_B B^-1) A, each nonbasic column goes to
        the bound its reduced cost prefers, and x_B is recomputed.  Each slack
        is boxed by its row's activity range over the box: at every point
        of the box s = b - a.x lies in [b - max a.x, b - min a.x], which
        meets the state's slack bounds unless the state met the row only
        within the feasibility tolerance.  These bounds cut off no point,
        but they give every nonbasic slack a finite preferred bound, so
        the start is dual feasible.  The boxes stay with the started
        state and its children; no other state has them.
        """
        n, b, lb, ub = self.n, self.b, self.lb[: self.n], self.ub[: self.n]
        a = self.A[:, :n]
        pos, neg = np.maximum(a, 0.0), np.minimum(a, 0.0)
        sl_lo = np.maximum(self.lb[n:], b - (pos @ ub + neg @ lb))
        sl_hi = np.minimum(self.ub[n:], b - (pos @ lb + neg @ ub))
        if np.count_nonzero(sl_lo > sl_hi):
            return None
        ws = self.child(lb, ub)
        ws.lb[n:], ws.ub[n:] = sl_lo, sl_hi
        ws.c = c = np.concatenate([c, np.zeros(self.m)])
        ws.d = c - (c[ws.basis] @ ws.binv) @ ws.A
        ws.d[ws.basis] = 0.0
        ws.x = np.where(ws.d < 0.0, ws.ub, ws.lb)
        ws.basic_values()
        return ws

    def with_rows(self, r: np.ndarray, rhs: np.ndarray) -> _Workspace:
        """This state with the rows r.x <= rhs over the structural columns
        appended, each with its slack basic.

        With R_B the new rows' coefficients on the basic columns, the
        basis inverse becomes [[B^-1, 0], [-R_B B^-1, I]], so no
        refactorization is needed.  The new slacks cost nothing: the old
        rows' multipliers and the reduced costs d stay as they were (0
        on the new slacks), so an optimal state stays dual feasible and
        a warm dual solve over the extended rows restores primal
        feasibility where a new row cuts off x.  The new slacks are
        basic, so the nonbasic sides h are 0 on them: the result is a
        complete optimal state whose reduced costs and first-step gains
        can be read before it is re-solved.  This state is not modified.
        """
        k, (m, n) = len(rhs), (self.m, self.n)
        ws = _Workspace.__new__(_Workspace)
        ws.m, ws.n = m + k, n
        ws.A = np.zeros((m + k, n + m + k))
        ws.A[:m, : n + m] = self.A
        ws.A[m:, :n] = r
        ws.A[m:, n + m:] = np.eye(k)
        r = ws.A[m:, : n + m]  # over the structural and old slack columns
        ws.binv = np.eye(m + k)
        ws.binv[:m, :m] = self.binv
        ws.binv[m:, :m] = -r[:, self.basis] @ self.binv
        ws.basis = np.concatenate([self.basis, np.arange(n + m, n + m + k)])
        ws.is_basic = np.concatenate([self.is_basic, np.ones(k, dtype=bool)])
        ws.lb = np.concatenate([self.lb, np.zeros(k)])
        ws.ub = np.concatenate([self.ub, np.full(k, np.inf)])
        ws.b = np.concatenate([self.b, rhs])
        ws.x = np.concatenate([self.x, rhs - r @ self.x])
        ws.c = np.concatenate([self.c, np.zeros(k)])
        ws.d = np.concatenate([self.d, np.zeros(k)])
        ws.h = np.concatenate([self.h, np.zeros(k)])
        ws.pivots = self.pivots
        ws.degenerate = ws.iterations = 0
        return ws

    def basic_values(self) -> None:
        """x_B from the nonbasic values through the current basis inverse."""
        x_n = np.where(self.is_basic, 0.0, self.x)
        self.x[self.basis] = self.binv @ (self.b - self.A @ x_n)

    def refactorize(self) -> None:
        try:
            self.binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError:  # exactly singular: a numerical failure
            self.binv = np.full((self.m, self.m), np.nan)
        self.pivots = 0
        self.basic_values()

    def duals(self, c: np.ndarray) -> np.ndarray:
        return c[self.basis] @ self.binv

    def pivot(self, p: int, j: int, w: np.ndarray) -> None:
        """Column j replaces the basic variable of row p; w = B^-1 A_j."""
        leaving = self.basis[p]
        self.basis[p] = j
        self.is_basic[leaving] = False
        self.is_basic[j] = True
        row = self.binv[p] / w[p]
        self.binv -= w[:, None] * row
        self.binv[p] = row
        self.pivots += 1
        if self.pivots >= REFACTOR_EVERY:
            self.refactorize()

    def dual(self, max_iters, deadline=None, cutoff=math.inf):
        """Bounded dual simplex from a dual feasible basis until x_B is in bounds.

        The costs are the state's ``c``, and the reduced costs start from
        a copy of its carried ``d``, which the cold start, every optimal
        state and every started state have.  The leaving
        variable is the basic one whose bound violation is largest
        against the norm of its row of B^-1 (dual steepest edge), and it
        leaves at the bound it violates.  ``_ratio_test`` on its row
        picks the entering column and the boxed columns flipped to their
        other bound on the way; a flip assigns that bound, so every
        nonbasic column stays exactly on one of its bounds.  x_B and the
        basic bounds live in the loop and x_B is written back to ``x`` on
        every return.  Returns STATUS_OPTIMAL when the basis is primal
        feasible; only if its reduced costs are dual feasible too does it
        keep them as ``d``, with the nonbasic sides ``h`` the first-step
        gains and reduced-cost fixing read, so an optimal return that
        leaves ``d`` None means round-off left one of the wrong sign.  It
        returns STATUS_INFEASIBLE when the leaving row stays infeasible
        with every eligible column at its helpful bound, STATUS_CUTOFF
        when rows are still infeasible but the objective c.x of the
        basic solution, a lower bound on the LP while the basis is dual
        feasible, has reached a finite ``cutoff`` (plus CUTOFF_TOL
        relative), STATUS_TIME_LIMIT once ``deadline`` has passed, or
        STATUS_ITERATION_LIMIT.
        """
        x, A, basis, lb, ub, c = self.x, self.A, self.basis, self.lb, self.ub, self.c
        d = self.d.copy()
        self.d = None
        span = ub - lb
        movable = span > _PIVOT_TOL
        movable[basis] = False
        # h is -1 where a nonbasic column sits at its lower bound (it can
        # only rise), +1 where it sits at its upper (it can only fall) and
        # 0 where it cannot move
        h = np.where(x == lb, -1.0, 1.0) * movable
        xb, lb_b, ub_b = x[basis], lb[basis], ub[basis]
        binv = self.binv
        track = math.isfinite(cutoff)
        if track:
            # c.x in two parts: the basic costs against x_B, and the
            # nonbasic part, updated on every flip and pivot
            stop_at = cutoff + CUTOFF_TOL * max(1.0, abs(cutoff))
            c_b = c[basis]
            c_n = float(c @ np.where(self.is_basic, 0.0, x))
        iterations, degenerate = self.iterations, self.degenerate
        status = STATUS_ITERATION_LIMIT
        while iterations < max_iters:
            if deadline is not None and time.monotonic() > deadline:
                status = STATUS_TIME_LIMIT
                break
            iterations += 1
            infeas = np.maximum(lb_b - xb, xb - ub_b)
            bad = (infeas > _FEAS_TOL).nonzero()[0]
            if not len(bad):
                status = STATUS_OPTIMAL
                break
            if track and c_n + c_b @ xb >= stop_at:
                status = STATUS_CUTOFF
                break
            bland = degenerate >= BLAND_AFTER
            if len(bad) == 1:
                r = int(bad[0])
            elif bland:
                r = int(bad[basis[bad].argmin()])
            else:
                rows = binv[bad]
                r = int(bad[(infeas[bad] ** 2 / np.add.reduce(rows * rows, axis=1)).argmax()])

            # x_p rises to its lower bound or falls to its upper
            rises = xb[r] < lb_b[r]
            alpha = binv[r] @ A
            q, flips, _ = _ratio_test(h * alpha, np.abs(alpha), np.abs(d), span, infeas[r],
                                      rises, bland)
            if q is None:
                status = STATUS_INFEASIBLE
                break
            theta = d[q] / alpha[q]
            if abs(theta) <= _DEGEN_TOL:
                degenerate += 1

            if len(flips):
                to = np.where(h[flips] > 0, lb[flips], ub[flips])
                delta = to - x[flips]
                x[flips] = to
                xb -= binv @ (A[:, flips] @ delta)
                if track:
                    c_n += float(c[flips] @ delta)
                h[flips] = -h[flips]
            w = binv @ A[:, q]
            leaving = basis[r]
            bound = lb_b[r] if rises else ub_b[r]
            xq, step = x[q], (xb[r] - bound) / w[r]
            xb -= step * w
            xb[r] = xq + step
            if track:
                c_n += c[leaving] * bound - c[q] * xq
                c_b[r] = c[q]
            x[leaving] = bound
            lb_b[r], ub_b[r] = lb[q], ub[q]
            d -= theta * alpha
            d[q] = h[q] = 0.0
            h[leaving] = (-1.0 if rises else 1.0) if span[leaving] > _PIVOT_TOL else 0.0
            self.pivot(r, q, w)
            if not self.pivots:  # refactorized: a new B^-1, and x_B recomputed in x
                binv, xb = self.binv, x[basis]
        self.iterations, self.degenerate = iterations, degenerate
        x[basis] = xb
        if status == STATUS_OPTIMAL and not np.count_nonzero(h * d > _DUAL_TOL):
            self.d, self.h = d, h
        return status

    def first_step_gains(self, cols, targets) -> np.ndarray:
        """Lower bounds on the rise of the optimum when basic x_j must reach each target.

        One row per column j of ``cols``, one entry per target.  The
        state is optimal; a child that moves one bound of x_j past its
        value differs from it in row r of x_j alone, and this basis is
        dual feasible for the child.  The gain is ``_ratio_test`` on that
        row, the dual's own first step (Driebeek's penalty): the cost of
        moving the eligible nonbasic columns in |d_k|/|alpha_k| order,
        each through its span, until x_j reaches the target, a valid
        lower bound on the child's LP minus this one and exactly the rise
        of c.x over the child's first dual iteration.  It is infinite
        when the eligible columns cannot close the gap, which is the
        dual's infeasibility test, and 0 when the gap is within the
        feasibility tolerance or x_j is not basic.  The tableau rows of
        all the columns come from one product with B^-1; |d| is taken
        once, and each row's h * alpha and |alpha| once for its targets.
        """
        cols = np.asarray(cols)
        gains = np.zeros((len(cols), len(targets)))
        basic = self.is_basic[cols].nonzero()[0]
        rows = (self.basis == cols[basic, None]).argmax(axis=1)
        h, x, span, absd = self.h, self.x, self.ub - self.lb, np.abs(self.d)
        for i, alpha in zip(basic.tolist(), self.binv[rows] @ self.A):
            xj, ha, mag = x[cols[i]], h * alpha, np.abs(alpha)
            for t, target in enumerate(targets):
                gap = abs(target - xj)
                if gap > _FEAS_TOL:
                    gains[i, t] = _ratio_test(ha, mag, absd, span, gap, target > xj)[2]
        return gains


def _finite(v: np.ndarray) -> bool:
    """Whether every entry of the vector v is finite: a count, which
    costs a warm LP less than ``.all()`` at these sizes."""
    return np.count_nonzero(np.isfinite(v)) == len(v)


def _settled(ws: _Workspace, status: str) -> bool:
    """Whether a dual solve's status stands, or a warm solve falls back to a cold one.

    It stands at the deadline, and short of the iteration limit when
    every value is finite and an optimal basis kept its reduced costs.
    """
    return status == STATUS_TIME_LIMIT or (
        status != STATUS_ITERATION_LIMIT and _finite(ws.x)
        and (status != STATUS_OPTIMAL or ws.d is not None))


def _result(ws: _Workspace, status: str) -> SimplexResult:
    """The result of a finished solve over ``ws``, of its objective ``ws.c``."""
    x = ws.x[: ws.n].copy()
    if status == STATUS_INFEASIBLE:
        return SimplexResult(status, x, np.nan, ws.iterations)
    return SimplexResult(
        status=status,
        x=x,
        objective=float(ws.c[: ws.n] @ x),
        iterations=ws.iterations,
        state=ws if status == STATUS_OPTIMAL else None,
    )


def solve_bounded_lp(
    c: np.ndarray,
    a: np.ndarray,
    senses: list[str],
    b: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    max_iters: int = 20000,
    warm: _Workspace | None = None,
    deadline: float | None = None,
    cutoff: float = math.inf,
) -> SimplexResult:
    """Minimize c.x subject to rows (a, senses, b) and bounds lb <= x <= ub.

    Every bound must be finite.  ``warm`` is any dual feasible state over
    the same c, a, senses and b whose box holds this one: an optimal
    earlier solve's ``state``, as a parent's box holds its children's,
    or ``_Workspace.started(c)``.  Only then does each nonbasic column
    land on a bound of the new box on the side its reduced cost prefers;
    the warm solve reads c from the state.  It reoptimizes with the dual
    simplex and falls back to a cold solve when that does not settle
    (``_settled``).  ``iterations`` counts both.  ``warm`` is never
    modified, so one state can seed several solves.
    Past ``deadline`` (a ``time.monotonic()`` instant) the solve stops
    with STATUS_TIME_LIMIT, warm or cold.  A solve whose bound reaches a
    finite ``cutoff`` stops with STATUS_CUTOFF; its ``objective`` is
    that bound.  A cold solve that ends with a non-finite value or dual
    infeasible reduced costs raises NumericalFailure.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    n = a.shape[1]

    if not (_finite(lb) and _finite(ub)):
        raise ValueError("every bound of a bounded LP must be finite")
    if np.count_nonzero(lb > ub):
        return SimplexResult(STATUS_INFEASIBLE, np.full(n, np.nan), np.nan, 0)

    spent = 0
    if warm is not None:
        ws = warm.child(lb, ub)
        status = ws.dual(max_iters, deadline, cutoff)
        if _settled(ws, status):
            return _result(ws, status)
        spent = ws.iterations

    # the dual simplex from the dual feasible slack basis
    ws = _Workspace(a, senses, b, lb, ub, c)
    ws.iterations = spent
    status = ws.dual(max_iters + spent, deadline, cutoff)
    if status != STATUS_ITERATION_LIMIT and not _settled(ws, status):
        raise NumericalFailure(
            "the dual simplex ended with a non-finite value or dual infeasible reduced costs")
    if status == STATUS_OPTIMAL:
        # the reduced costs of the final basis, free of the loop's round-off
        ws.d = ws.c - ws.duals(ws.c) @ ws.A
    return _result(ws, status)
