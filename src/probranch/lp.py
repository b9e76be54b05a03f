"""LP relaxation backends: revised simplex, interior point, and the
closed-form knapsack relaxation.

Both backends consume a MipInstance (binaries relaxed to [0, 1]) and
report objectives in the instance's own sense.  Maximization is handled
by negating the objective at this boundary.  Each solve call owns its
workspace, so concurrent solves on distinct instances are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _simplex
from .model import MipInstance


class NumericalFailure(RuntimeError):
    """The interior-point iteration broke down numerically."""


@dataclass
class LpSolution:
    """Relaxation solution: primal values, one dual per row, and status.

    Duals are reported in the instance's sense (negated internally for
    maximization), one per instance row.
    """

    primal: np.ndarray
    dual: np.ndarray
    objective: float
    status: str  # optimal | infeasible | unbounded | iteration_limit


def relaxation_arrays(
    instance: MipInstance,
) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Dense (c, A, senses, b, lb, ub) of the LP relaxation, user sense."""
    c = instance.objective_vector()
    a, senses, b = instance.constraint_arrays()
    lb, ub = instance.bounds_arrays()
    return c, a, senses, b, lb, ub


def solve_simplex(instance: MipInstance, max_iters: int = 20000) -> LpSolution:
    """Solve the LP relaxation with the bounded revised simplex."""
    c, a, senses, b, lb, ub = relaxation_arrays(instance)
    sign = -1.0 if instance.sense == "maximize" else 1.0
    res = _simplex.solve_bounded_lp(sign * c, a, senses, b, lb, ub, max_iters=max_iters)
    return LpSolution(
        primal=res.x,
        dual=sign * res.duals,
        objective=sign * res.objective if res.status == _simplex.STATUS_OPTIMAL else np.nan,
        status=res.status,
    )


def _to_standard_form(c, a, senses, b, lb, ub):
    """Rewrite min c.x, rows, lb<=x<=ub as min c'.v, A'v=b', v>=0.

    Variable substitutions: x = v + lo for finite lower bounds (a slack
    row v + w = hi - lo covers a finite upper), x = hi - v when only the
    upper bound is finite, and x = v+ - v- for free variables.  The
    returned ``recover`` maps a standard-form vector back to x; the first
    len(senses) equality rows correspond to the original rows in order.
    """
    m, n = a.shape
    cols: list[tuple[int, float]] = []  # (original var, scale)
    const = np.zeros(n)
    ub_rows: list[tuple[int, float]] = []  # (column, range) for v + w = range
    for j in range(n):
        lo, hi = lb[j], ub[j]
        if np.isfinite(lo):
            cols.append((j, 1.0))
            const[j] = lo
            if np.isfinite(hi):
                ub_rows.append((len(cols) - 1, hi - lo))
        elif np.isfinite(hi):
            cols.append((j, -1.0))
            const[j] = hi
        else:
            cols.append((j, 1.0))
            cols.append((j, -1.0))

    k = len(cols)
    n_slack = sum(1 for s in senses if s != "=")
    total = k + n_slack + len(ub_rows)
    a_s = np.zeros((m + len(ub_rows), total))
    c_s = np.zeros(total)
    for idx, (j, sc) in enumerate(cols):
        a_s[:m, idx] = sc * a[:, j]
        c_s[idx] = sc * c[j]
    si = k
    for r, s in enumerate(senses):
        if s == "<=":
            a_s[r, si] = 1.0
            si += 1
        elif s == ">=":
            a_s[r, si] = -1.0
            si += 1
    b_s = np.concatenate([b - a @ const, np.zeros(len(ub_rows))])
    for t, (col, rng) in enumerate(ub_rows):
        a_s[m + t, col] = 1.0
        a_s[m + t, si] = 1.0
        si += 1
        b_s[m + t] = rng

    def recover(v: np.ndarray) -> np.ndarray:
        x = const.copy()
        for idx, (j, sc) in enumerate(cols):
            x[j] += sc * v[idx]
        return x

    return c_s, a_s, b_s, recover


def solve_ipm(instance: MipInstance, max_iters: int = 100, tol: float = 1e-8) -> LpSolution:
    """Solve the LP relaxation with the predictor-corrector interior point.

    Unlike the simplex, the returned point lies in the relative interior
    of the optimal face, so degenerate coordinates come back fractional.
    """
    from . import _interior  # here, not at the top: it loads scipy.linalg

    c, a, senses, b, lb, ub = relaxation_arrays(instance)
    sign = -1.0 if instance.sense == "maximize" else 1.0
    c_s, a_s, b_s, recover = _to_standard_form(sign * c, a, senses, b, lb, ub)
    res = _interior.solve_standard_form(c_s, a_s, b_s, max_iters=max_iters, tol=tol)
    if res.status == _interior.STATUS_NUMERICAL:
        raise NumericalFailure("interior-point iteration produced non-finite steps")
    x = recover(res.x)
    m = a.shape[0]
    duals = res.y[:m] if res.y.size >= m else np.zeros(m)
    return LpSolution(
        primal=x,
        dual=sign * duals,
        objective=float(c @ x) if res.status == _interior.STATUS_OPTIMAL else np.nan,
        status=res.status,
    )


def fractional_knapsack(
    a: np.ndarray, f: np.ndarray, b: float
) -> tuple[np.ndarray, float, int | None]:
    """Closed-form solution of max (f*a).y s.t. a.y <= b, 0 <= y <= 1.

    Items are taken in order of decreasing ratio f (stable by original
    index on ties) until the capacity binds; at most one item is left
    fractional.  Returns (y, lambda_star, split_index) where lambda_star
    is the ratio of the split item, the optimal dual of the capacity row,
    and split_index its original index (None when the capacity is slack).
    """
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    if np.any(a <= 0):
        raise ValueError("all weights must be positive")
    if b <= 0:
        raise ValueError("capacity must be positive")
    if a.sum() <= b:
        return np.ones(len(a)), 0.0, None
    order = np.argsort(-f, kind="stable")
    y = np.zeros(len(a))
    remaining = float(b)
    for idx in order:
        w = a[idx]
        if w <= remaining:
            y[idx] = 1.0
            remaining -= w
        else:
            y[idx] = remaining / w
            return y, float(f[idx]), int(idx)
    # unreachable given sum(a) > b, kept for float round-off safety
    return y, 0.0, None
