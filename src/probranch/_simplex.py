"""Bounded-variable revised simplex on dense arrays (minimization).

A cold solve of a boxed LP (every structural bound finite: binaries,
count columns, bounded continuous columns) needs no phase 1.  Each
column starts at the bound its cost prefers (its upper bound where
c_j < 0, else its lower), the slack basis is then dual feasible with
d = c, and the bounded dual simplex below restores primal feasibility;
an optimal return recomputes d = c - (c_B B^-1) A from the final basis.
Any other cold solve is a two-phase primal method: the start puts every
variable at its lower bound (its upper bound, or 0, when that is
infinite), artificial variables absorb the rows this leaves infeasible,
phase 1 drives their sum to zero and phase 2 optimizes the real
objective.  After phase 1 the artificial columns stay pinned to [0, 0].
The two-phase method also runs when the dual start of a boxed LP hits
the iteration limit or a non-finite value.

A warm solve reoptimizes from the final state of an earlier optimal
solve of the same rows under a box within that solve's box, as a
branch-and-bound child's box lies within its parent's.  Reduced costs
do not depend on the bounds, and each nonbasic column moves onto the
same side of the tighter box, so the basis stays dual feasible, only
x_B is recomputed, and the reduced costs d an optimal solve ends
with are carried in its state and start its children's solves.  A
bounded dual simplex then restores primal feasibility: the most
infeasible basic variable leaves (infeasibility measured against the
norm of its row of B^-1, the dual steepest edge), and a bound-flipping
ratio test over the movable nonbasic columns picks the entering one;
when every eligible column at its helpful bound still leaves the row
infeasible, the LP is infeasible.  Within the dual loop x_B, d and the
basic bounds are updated at each pivot and flip, not gathered again.
On an iteration limit or a non-finite value the solve falls back to a
cold one.  If round-off leaves the final reduced costs dual infeasible,
the primal simplex finishes.

While the basis is dual feasible, the objective c.x of the dual's basic
solution is a lower bound on the LP.  Given a finite ``cutoff``, the
dual tracks it (the nonbasic part updated on each flip and pivot) and
stops with STATUS_CUTOFF as soon as it reaches the cutoff while rows
are still infeasible.  The same argument bounds a branch-and-bound
child from its parent's final tableau before the child's LP is set up:
``_Workspace.first_step_gains`` runs the dual's first bound-flipping
ratio test on the branched row.

A ``deadline`` (a ``time.monotonic()`` instant) stops either method
between iterations with STATUS_TIME_LIMIT; that stop never falls back
to a cold solve.

The basis inverse is kept explicitly and updated in product form each
pivot; numpy's LAPACK inverse refreshes it every ``REFACTOR_EVERY``
pivots.  The pivot count travels with the state, so the refresh also
holds along a dive of warm solves.  Primal pricing is Dantzig; in either
method Bland's lowest-index rule engages permanently after
``BLAND_AFTER`` degenerate pivots, which guarantees termination.
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
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_TIME_LIMIT = "time_limit"
STATUS_CUTOFF = "cutoff"

# A dual solve stops with STATUS_CUTOFF once its bound clears the cutoff
# by this much, relative to the cutoff's magnitude, so round-off in the
# tracked objective cannot stop an LP whose optimum lies below it.
CUTOFF_TOL = 1e-9


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray  # structural variable values
    objective: float  # c . x for the minimized objective
    duals: np.ndarray | None  # one multiplier per row; None after a warm solve
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


class _Workspace:
    """Mutable solver state over the extended (structural+slack+artificial) system.

    The workspace a solve ends with is its warm-start state; ``child``
    copies everything a solve writes and shares the extended matrix.
    """

    def __init__(self, a, senses, b, lb, ub, c=None):
        """The slack basis over the rows.

        Without costs, for the primal method: each column starts at a
        finite bound, and artificial columns absorb the rows the slacks
        cannot.  With costs c, for the dual method (every bound finite):
        each column starts at the bound its cost prefers, ub where
        c_j < 0 and lb otherwise, the slacks take whatever values the
        rows leave, out of bounds or not, and no artificial column is
        added; that basis is dual feasible with d = c.
        """
        m, n = a.shape
        self.m, self.n = m, n
        sl_lo = np.empty(m)
        sl_hi = np.empty(m)
        for r, s in enumerate(senses):
            sl_lo[r], sl_hi[r] = _slack_bounds(s)

        if c is None:
            x_struct = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
        else:
            x_struct = np.where(c < 0, ub, lb)
        resid = b - a @ x_struct
        slack_vals = resid if c is not None else np.clip(resid, sl_lo, sl_hi)
        art_resid = resid - slack_vals
        art_rows = np.nonzero(np.abs(art_resid) > _FEAS_TOL)[0]
        k = len(art_rows)

        total = n + m + k
        self.A = np.zeros((m, total))
        self.A[:, :n] = a
        self.A[:, n : n + m] = np.eye(m)
        self.lb = np.concatenate([lb, sl_lo, np.zeros(k)])
        self.ub = np.concatenate([ub, sl_hi, np.full(k, np.inf)])
        self.x = np.concatenate([x_struct, slack_vals, np.abs(art_resid[art_rows])])
        self.basis = np.arange(n, n + m)
        for t, r in enumerate(art_rows):
            col = n + m + t
            self.A[r, col] = 1.0 if art_resid[r] > 0 else -1.0
            self.basis[r] = col
        self.artificial = np.arange(n + m, total)
        self.b = b
        self.binv = np.eye(m)
        self.is_basic = np.zeros(total, dtype=bool)
        self.is_basic[self.basis] = True
        self.pivots = 0  # since the last refactorization
        self.degenerate = 0
        self.iterations = 0
        self.d = None  # reduced costs at the end of an optimal solve
        if k and m:
            self.refactorize()  # artificial columns carry -1 coefficients

    def child(self, lb: np.ndarray, ub: np.ndarray) -> _Workspace:
        """A copy of this state under new structural bounds, x_B recomputed.

        Nonbasic variables move onto their new bounds where they left
        them.  The extended matrix, b, the carried reduced costs and the
        pivot count are inherited; only the arrays a solve writes are
        copied.
        """
        ws = _Workspace.__new__(_Workspace)
        ws.m, ws.n, ws.A, ws.b, ws.artificial = self.m, self.n, self.A, self.b, self.artificial
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

    def _bound_state(self):
        """(movable, at_lb, at_ub) masks over the extended variables."""
        at_lb = np.abs(self.x - self.lb) <= 1e-9
        at_ub = np.abs(self.x - self.ub) <= 1e-9
        movable = ~self.is_basic & (self.ub - self.lb > _PIVOT_TOL)
        return movable, at_lb, at_ub

    def minimize(self, c, max_iters, deadline=None):
        """Run primal simplex iterations on objective c.  Returns a status string.

        An optimal return keeps the final reduced costs as ``d``.
        """
        use_bland = self.degenerate >= BLAND_AFTER
        self.d = None
        while self.iterations < max_iters:
            if deadline is not None and time.monotonic() > deadline:
                return STATUS_TIME_LIMIT
            self.iterations += 1
            y = self.duals(c)
            d = c - y @ self.A
            movable, at_lb, at_ub = self._bound_state()
            free = movable & ~at_lb & ~at_ub
            up = movable & (at_lb | free) & (d < -_DUAL_TOL)
            down = movable & ((at_ub & ~at_lb) | free) & (d > _DUAL_TOL)
            viol = np.where(up, -d, 0.0) + np.where(down, d, 0.0)
            if not viol.any():
                self.d = d
                self.h = np.where(at_lb, -1.0, np.where(at_ub, 1.0, 0.0)) * movable
                self.free = movable & (self.h == 0.0)
                self.span = self.ub - self.lb
                return STATUS_OPTIMAL
            if use_bland:
                j = int(np.nonzero(viol > 0)[0][0])
            else:
                j = int(np.argmax(viol))
            sigma = 1.0 if up[j] else -1.0

            w = self.binv @ self.A[:, j]
            dxb = -sigma * w
            xb = self.x[self.basis]
            lb_b = self.lb[self.basis]
            ub_b = self.ub[self.basis]
            ratios = np.full(self.m, np.inf)
            dec = dxb < -_PIVOT_TOL
            inc = dxb > _PIVOT_TOL
            with np.errstate(invalid="ignore"):
                ratios[dec] = (xb[dec] - lb_b[dec]) / (-dxb[dec])
                ratios[inc] = (ub_b[inc] - xb[inc]) / dxb[inc]
            ratios[~np.isfinite(lb_b) & dec] = np.inf
            ratios[~np.isfinite(ub_b) & inc] = np.inf
            np.maximum(ratios, 0.0, out=ratios)

            if sigma > 0:
                t_flip = self.ub[j] - self.x[j]
            else:
                t_flip = self.x[j] - self.lb[j]
            t_basic = float(ratios.min()) if self.m else np.inf
            t_star = min(t_flip, t_basic)
            if not np.isfinite(t_star):
                return STATUS_UNBOUNDED

            if t_star <= _DEGEN_TOL:
                self.degenerate += 1
                if self.degenerate >= BLAND_AFTER:
                    use_bland = True

            if t_flip <= t_basic + _DEGEN_TOL:
                # bound flip: the entering variable crosses to its other bound
                self.x[j] = self.ub[j] if sigma > 0 else self.lb[j]
                self.x[self.basis] += t_flip * dxb
                continue

            cand = np.nonzero(ratios <= t_star + _DEGEN_TOL)[0]
            p = int(cand[np.argmax(np.abs(dxb[cand]))])
            leaving = self.basis[p]
            self.x[j] += sigma * t_star
            self.x[self.basis] += t_star * dxb
            self.x[leaving] = lb_b[p] if dxb[p] < 0 else ub_b[p]
            self.pivot(p, j, w)
        return STATUS_ITERATION_LIMIT

    def dual(self, c, max_iters, deadline=None, cutoff=math.inf):
        """Bounded dual simplex from a dual feasible basis until x_B is in bounds.

        The reduced costs start from a copy of the carried ``d``, which
        every optimal state has.  The leaving variable is the basic one
        whose bound violation is largest against the norm of its row of
        B^-1 (dual steepest edge), and it leaves at the bound it violates.  The ratio test walks the
        breakpoints of the movable nonbasic columns in order and flips
        each boxed one to its other bound while the leaving row stays
        infeasible after the flip (the bound-flipping ratio test); the
        column where that stops enters.  x_B and the basic bounds live
        in the loop and x_B is written back to ``x`` on every return.
        Returns STATUS_OPTIMAL when the basis is primal feasible and its
        reduced costs dual feasible (and keeps them as ``d``, with the
        nonbasic signs ``h``, ``free`` and ``span`` the first-step bound
        reads), STATUS_INFEASIBLE when the leaving row stays infeasible
        with every eligible column at its helpful bound, STATUS_CUTOFF
        when rows are still infeasible but the objective c.x of the
        basic solution, a lower bound on the LP while the basis is dual
        feasible, has reached a finite ``cutoff`` (plus CUTOFF_TOL
        relative), STATUS_TIME_LIMIT once ``deadline`` has passed, or
        STATUS_ITERATION_LIMIT.
        """
        x, A, basis = self.x, self.A, self.basis
        d = self.d.copy()
        self.d = None
        span = self.ub - self.lb
        at_lb = np.abs(x - self.lb) <= 1e-9
        at_ub = np.abs(x - self.ub) <= 1e-9
        movable = span > _PIVOT_TOL
        movable[basis] = False
        # h is -1 where a nonbasic column can only rise (it sits at its
        # lower bound), +1 where it can only fall and 0 where it cannot
        # move; a free column (movable, at neither bound) moves either way
        h = np.where(at_lb, -1.0, np.where(at_ub, 1.0, 0.0)) * movable
        free = movable & (h == 0.0)
        any_free = np.count_nonzero(free)
        xb, lb_b, ub_b = x[basis], self.lb[basis], self.ub[basis]
        binv = self.binv
        track = math.isfinite(cutoff)
        if track:
            # c.x in two parts: the basic costs against x_B, and the
            # nonbasic part, updated on every flip and pivot
            stop_at = cutoff + CUTOFF_TOL * max(1.0, abs(cutoff))
            c_b = c[basis]
            c_n = float(c @ np.where(self.is_basic, 0.0, x))
        status = STATUS_ITERATION_LIMIT
        while self.iterations < max_iters:
            if deadline is not None and time.monotonic() > deadline:
                status = STATUS_TIME_LIMIT
                break
            self.iterations += 1
            infeas = np.maximum(lb_b - xb, xb - ub_b)
            bad = (infeas > _FEAS_TOL).nonzero()[0]
            if not len(bad):
                status = STATUS_OPTIMAL
                break
            if track and c_n + c_b @ xb >= stop_at:
                status = STATUS_CUTOFF
                break
            bland = self.degenerate >= BLAND_AFTER
            if len(bad) == 1:
                r = int(bad[0])
            elif bland:
                r = int(bad[basis[bad].argmin()])
            else:
                rows = binv[bad]
                r = int(bad[(infeas[bad] ** 2 / (rows * rows).sum(axis=1)).argmax()])

            # x_p rises to its lower bound or falls to its upper; a column
            # is eligible when moving it the way it can pushes x_p that way
            rises = xb[r] < lb_b[r]
            alpha = binv[r] @ A
            ha = h * alpha
            eligible = ha > _PIVOT_TOL if rises else ha < -_PIVOT_TOL
            if any_free:
                eligible |= free & (np.abs(alpha) > _PIVOT_TOL)
            cols = eligible.nonzero()[0]
            if not len(cols):
                status = STATUS_INFEASIBLE
                break
            mag = np.abs(alpha[cols])
            ratios = np.abs(d[cols]) / mag
            # the first breakpoint: least ratio, ties to the largest pivot,
            # then (as in the full order below) the lowest index
            i = int(ratios.argmin())
            tied = ratios == ratios[i]
            if np.count_nonzero(tied) > 1:
                i = int(np.where(tied, mag, -1.0).argmax())
            k = 0
            if bland or infeas[r] - mag[i] * span[cols[i]] > _FEAS_TOL:
                # ties go to the largest pivot, or under Bland's rule to the lowest index
                order = np.lexsort((cols if bland else -mag, ratios))
                # infeasibility of row p left after each breakpoint's column flips
                left = infeas[r] - (mag * span[cols])[order].cumsum()
                k = int((left <= _FEAS_TOL).argmax())
                if left[k] > _FEAS_TOL:
                    status = STATUS_INFEASIBLE
                    break
                i = int(order[k])
            q = int(cols[i])
            if ratios[i] <= _DEGEN_TOL:
                self.degenerate += 1

            if k:
                flips = cols[order[:k]]
                delta = np.where(h[flips] > 0, -span[flips], span[flips])
                x[flips] += delta
                xb -= binv @ (A[:, flips] @ delta)
                if track:
                    c_n += float(c[flips] @ delta)
                h[flips] = np.sign(delta)
                free[flips] = False
            w = binv @ A[:, q]
            leaving = basis[r]
            bound = lb_b[r] if rises else ub_b[r]
            step = (xb[r] - bound) / w[r]
            xb -= step * w
            xb[r] = x[q] + step
            if track:
                c_n += c[leaving] * bound - c[q] * x[q]
                c_b[r] = c[q]
            x[leaving] = bound
            lb_b[r], ub_b[r] = self.lb[q], self.ub[q]
            d -= (d[q] / alpha[q]) * alpha
            d[q] = h[q] = 0.0
            free[q] = False
            h[leaving] = (-1.0 if rises else 1.0) if span[leaving] > _PIVOT_TOL else 0.0
            self.pivot(r, q, w)
            if not self.pivots:  # refactorized: a new B^-1, and x_B recomputed in x
                binv, xb = self.binv, x[basis]
        x[basis] = xb
        if status == STATUS_OPTIMAL:
            dual_infeasible = np.count_nonzero(h * d > _DUAL_TOL) or (
                any_free and np.count_nonzero(np.abs(d[free]) > _DUAL_TOL))
            if dual_infeasible:
                # round-off left a reduced cost of the wrong sign: the primal finishes
                return self.minimize(c, max_iters, deadline=deadline)
            self.d, self.h, self.free, self.span = d, h, free, span
        return status

    def first_step_gains(self, j: int, targets) -> list[float]:
        """Lower bounds on the rise of the optimum when basic x_j must reach each target.

        The state is optimal; a child that moves one bound of x_j past
        its value differs from it in row r of x_j alone, and this basis
        is dual feasible for the child.  The dual's first bound-flipping
        ratio test on that row (Driebeek's penalty) moves the eligible
        nonbasic columns in |d_k|/|alpha_k| order, each through its
        span, until x_j reaches the target; the cost of that move is a
        valid lower bound on the child's LP minus this one.  It is
        infinite when the eligible columns cannot close the gap, which
        is the dual's infeasibility test, and 0 when the gap is within
        the feasibility tolerance or x_j is not basic.
        """
        if not self.is_basic[j]:
            return [0.0] * len(targets)
        xj = self.x[j]
        alpha = self.binv[(self.basis == j).argmax()] @ self.A
        ha = self.h * alpha
        moves_any = self.free & (np.abs(alpha) > _PIVOT_TOL) if self.free.any() else None
        gains = []
        for target in targets:
            gap = abs(target - xj)
            if gap <= _FEAS_TOL:
                gains.append(0.0)
                continue
            # as in ``dual``: x_j rises to the target or falls to it
            eligible = ha > _PIVOT_TOL if target > xj else ha < -_PIVOT_TOL
            if moves_any is not None:
                eligible |= moves_any
            cols = eligible.nonzero()[0]
            if not len(cols):
                gains.append(math.inf)
                continue
            mag = np.abs(alpha[cols])
            ratios = np.abs(self.d[cols]) / mag
            reach = mag * self.span[cols]
            i = ratios.argmin()
            if gap - reach[i] <= _FEAS_TOL:  # the cheapest column closes the gap alone
                gains.append(float(ratios[i] * gap))
                continue
            order = np.argsort(ratios, kind="stable")
            left = gap - reach[order].cumsum()
            k = int((left <= _FEAS_TOL).argmax())
            if left[k] > _FEAS_TOL:
                gains.append(math.inf)
                continue
            whole = order[:k]  # columns moved through their whole span
            gains.append(float(ratios[whole] @ reach[whole] + ratios[order[k]] * left[k - 1]))
        return gains


def _settled(ws: _Workspace, status: str) -> bool:
    """Whether a dual solve's status stands, or the solve falls back to the two-phase primal."""
    return status == STATUS_TIME_LIMIT or (
        status != STATUS_ITERATION_LIMIT and np.isfinite(ws.x).all())


def _result(ws: _Workspace, status: str, c_full: np.ndarray, duals: bool = True) -> SimplexResult:
    """The result of a finished solve of objective c_full over ``ws``."""
    x = ws.x[: ws.n].copy()
    if status == STATUS_INFEASIBLE:
        return SimplexResult(status, x, np.nan, np.zeros(ws.m) if duals else None, ws.iterations)
    return SimplexResult(
        status=status,
        x=x,
        objective=float(c_full[: ws.n] @ x),
        duals=ws.duals(c_full) if duals else None,
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

    ``warm`` is the ``state`` of an optimal earlier solve of the same c,
    a, senses and b under other bounds; the solve then reoptimizes from
    its basis with the dual simplex and falls back to a cold solve on an
    iteration limit or a numerical failure.  ``iterations`` counts both.
    ``warm`` is never modified, so one state can seed several solves.
    A warm solve that needs no fallback computes no row multipliers:
    its ``duals`` is None.  Past ``deadline`` (a ``time.monotonic()``
    instant) the solve stops with STATUS_TIME_LIMIT, warm or cold.  A
    dual simplex solve (warm, or cold on a boxed LP) whose bound reaches
    a finite ``cutoff`` stops with STATUS_CUTOFF; its ``objective`` is
    that bound.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    m, n = a.shape

    if np.count_nonzero(lb > ub):
        return SimplexResult(STATUS_INFEASIBLE, np.full(n, np.nan), np.nan, np.zeros(m), 0)

    spent = 0
    if warm is not None:
        c_full = np.zeros(warm.A.shape[1])
        c_full[:n] = c
        ws = warm.child(lb, ub)
        status = ws.dual(c_full, max_iters, deadline, cutoff)
        if _settled(ws, status):
            return _result(ws, status, c_full, duals=False)
        spent = ws.iterations

    if np.isfinite(lb).all() and np.isfinite(ub).all():
        # boxed: the dual simplex from the dual feasible slack basis
        ws = _Workspace(a, senses, b, lb, ub, c)
        ws.iterations = spent
        c_full = np.concatenate([c, np.zeros(m)])
        ws.d = c_full.copy()
        status = ws.dual(c_full, max_iters + spent, deadline, cutoff)
        if _settled(ws, status):
            if status == STATUS_OPTIMAL:
                # the reduced costs a primal solve of this basis would keep
                ws.d = c_full - ws.duals(c_full) @ ws.A
            return _result(ws, status, c_full)
        spent = ws.iterations

    ws = _Workspace(a, senses, b, lb, ub)
    ws.iterations = spent
    c_full = np.zeros(ws.A.shape[1])

    if len(ws.artificial):
        c_full[ws.artificial] = 1.0
        status = ws.minimize(c_full, max_iters + spent, deadline=deadline)
        if status in (STATUS_ITERATION_LIMIT, STATUS_TIME_LIMIT):
            return SimplexResult(
                status, ws.x[:n].copy(), float(c @ ws.x[:n]), ws.duals(c_full), ws.iterations
            )
        if float(ws.x[ws.artificial].sum()) > _FEAS_TOL:
            return _result(ws, STATUS_INFEASIBLE, c_full)
        # pin artificials so they can never re-enter
        ws.lb[ws.artificial] = 0.0
        ws.ub[ws.artificial] = 0.0
        c_full[ws.artificial] = 0.0

    c_full[:n] = c
    status = ws.minimize(c_full, max_iters + spent, deadline=deadline)
    return _result(ws, status, c_full)
