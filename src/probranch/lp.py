"""LP relaxation backends: the bounded dual simplex and the interior point.

Both backends consume a MipInstance (binaries relaxed to [0, 1]) and
report objectives in the instance's own sense.  Maximization is handled
by negating the objective at this boundary.  Each solve call owns its
workspace, so concurrent solves on distinct instances are safe.  The
closed-form ``fractional_knapsack`` here is no backend but the tests'
reference for the ``lp-root-simplex`` predictor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _simplex
from ._simplex import NumericalFailure
from .model import MipInstance


@dataclass
class LpSolution:
    """Relaxation solution: primal values, objective and status."""

    primal: np.ndarray
    objective: float
    status: str  # optimal | infeasible | iteration_limit


def relaxation_arrays(
    instance: MipInstance,
) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Dense (c, A, senses, b, lb, ub) of the LP relaxation, user sense."""
    c = instance.objective_vector()
    a, senses, b = instance.constraint_arrays()
    lb, ub = instance.bounds_arrays()
    return c, a, senses, b, lb, ub


def solve_simplex(instance: MipInstance, max_iters: int = 20000) -> LpSolution:
    """Solve the LP relaxation with the bounded dual simplex.

    Raises NumericalFailure when the simplex breaks down.
    """
    c, a, senses, b, lb, ub = relaxation_arrays(instance)
    sign = -1.0 if instance.sense == "maximize" else 1.0
    res = _simplex.solve_bounded_lp(sign * c, a, senses, b, lb, ub, max_iters=max_iters)
    return LpSolution(
        primal=res.x,
        objective=sign * res.objective if res.status == _simplex.STATUS_OPTIMAL else np.nan,
        status=res.status,
    )


def _to_standard_form(c, a, senses, b, lb, ub):
    """Rewrite min c.x, rows, lb<=x<=ub (every bound finite) as min c'.v, A'v=b', v>=0.

    Each column becomes x = v + lb, with a range row v + w = ub - lb.
    The columns of A' are v, then one slack per inequality row, then w.
    The returned ``recover`` maps a standard-form vector back to x; the
    first len(senses) equality rows correspond to the original rows in
    order.
    """
    m, n = a.shape
    slacked = [r for r, s in enumerate(senses) if s != "="]
    k = len(slacked)
    a_s = np.zeros((m + n, 2 * n + k))
    a_s[:m, :n] = a
    a_s[slacked, n + np.arange(k)] = [1.0 if senses[r] == "<=" else -1.0 for r in slacked]
    a_s[m:, :n] = np.eye(n)
    a_s[m:, n + k:] = np.eye(n)
    c_s = np.concatenate([c, np.zeros(n + k)])
    b_s = np.concatenate([b - a @ lb, ub - lb])

    def recover(v: np.ndarray) -> np.ndarray:
        return lb + v[:n]

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
        raise NumericalFailure("interior-point iteration produced non-finite values")
    x = recover(res.x)
    return LpSolution(
        primal=x,
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

    No command calls it: ``verify`` reads its knapsack sets off
    ``lp_root_predict``.  It is the tests' reference for that predictor,
    and ``perfbench/tracing.py`` still names it as a tracing target.
    """
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    if np.any(a <= 0):
        raise ValueError("all weights must be positive")
    if b <= 0:
        raise ValueError("capacity must be positive")
    if a.sum() <= b:
        return np.ones(len(a)), 0.0, None
    y = np.zeros(len(a))
    remaining = float(b)
    for idx in np.argsort(-f, kind="stable"):
        if a[idx] <= remaining:
            y[idx] = 1.0
            remaining -= a[idx]
        else:
            y[idx] = remaining / a[idx]
            return y, float(f[idx]), int(idx)
    return y, 0.0, None  # round-off: the items summed to more than b, yet all fit
