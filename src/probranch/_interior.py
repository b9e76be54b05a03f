"""Mehrotra predictor-corrector interior-point method (standard form).

Solves min c.x s.t. Ax = b, x >= 0 via the usual normal-equations
implementation: affine predictor step, third-order centering corrector,
and a shifted least-squares starting point.  The caller is responsible
for reformulating bounded/inequality problems into standard form.

Convergence is declared when the relative duality gap and the scaled
primal/dual residuals all drop below ``tol``.  Infeasible problems are
recognized by divergence: the complementarity measure collapses while
the primal residual stalls, or an entry of x or s blows up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_NUMERICAL = "numerical_failure"

_DIVERGE = 1e13


@dataclass
class IpmResult:
    status: str
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    iterations: int


def _starting_point(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Shifted least-squares start (Mehrotra's heuristic)."""
    m, n = a.shape
    aat = a @ a.T + 1e-10 * np.eye(m)
    try:
        fac = cho_factor(aat)
        x = a.T @ cho_solve(fac, b)
        y = cho_solve(fac, a @ c)
    except LinAlgError:
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        y, *_ = np.linalg.lstsq(a.T, c, rcond=None)
    s = c - a.T @ y
    dx = max(-1.5 * x.min(initial=0.0), 0.0)
    ds = max(-1.5 * s.min(initial=0.0), 0.0)
    x = x + dx
    s = s + ds
    xs = float(x @ s)
    x = x + 0.5 * xs / max(s.sum(), 1e-10)
    s = s + 0.5 * xs / max(x.sum(), 1e-10)
    x = np.maximum(x, 1.0)
    s = np.maximum(s, 1.0)
    return x, y, s


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not neg.any():
        return 1.0
    return min(1.0, float(np.min(-v[neg] / dv[neg])))


def solve_standard_form(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    max_iters: int = 100,
    tol: float = 1e-8,
) -> IpmResult:
    m, n = a.shape
    if m == 0:
        x = np.zeros(n)
        return IpmResult(STATUS_OPTIMAL, x, np.zeros(0), c.copy(), 0)
    x, y, s = _starting_point(a, b, c)
    bnorm = 1.0 + np.linalg.norm(b)
    cnorm = 1.0 + np.linalg.norm(c)

    for it in range(1, max_iters + 1):
        rb = a @ x - b
        rc = a.T @ y + s - c
        mu = float(x @ s) / n
        gap = abs(float(c @ x) - float(b @ y)) / (1.0 + abs(float(c @ x)))
        pres = np.linalg.norm(rb) / bnorm
        dres = np.linalg.norm(rc) / cnorm
        if gap <= tol and pres <= tol and dres <= tol:
            return IpmResult(STATUS_OPTIMAL, x, y, s, it - 1)
        if not np.isfinite(mu) or max(np.max(x), np.max(s)) > _DIVERGE:
            return IpmResult(STATUS_INFEASIBLE, x, y, s, it - 1)
        if mu < 1e-10 and pres > 1e3 * tol:
            # complementarity collapsed without primal feasibility: diverging
            return IpmResult(STATUS_INFEASIBLE, x, y, s, it - 1)

        d = x / s
        with np.errstate(over="ignore", invalid="ignore"):
            mmat = (a * d) @ a.T
        if not np.isfinite(mmat).all():  # x / s overflowed the normal matrix
            return IpmResult(STATUS_NUMERICAL, x, y, s, it)
        # a shift relative to the trace would swamp the small rows (bounds
        # beside knapsack rows near 1000) and stall the primal residual
        diag = np.diag_indices_from(mmat)
        mmat[diag] += 1e-12 * mmat[diag] + 1e-14
        try:
            fac = cho_factor(mmat)
            solve = lambda r: cho_solve(fac, r)
        except LinAlgError:
            solve = lambda r: np.linalg.lstsq(mmat, r, rcond=None)[0]

        def newton(r_xs):
            rhs = -rb - a @ (d * rc + r_xs / s)
            dy = solve(rhs)
            dx = d * (a.T @ dy + rc) + r_xs / s
            ds = (r_xs - s * dx) / x
            return dx, dy, ds

        # affine (predictor) direction
        dx_a, dy_a, ds_a = newton(-x * s)
        ap = _max_step(x, dx_a)
        ad = _max_step(s, ds_a)
        mu_aff = float((x + ap * dx_a) @ (s + ad * ds_a)) / n
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # corrector direction with centering
        dx, dy, ds = newton(sigma * mu - x * s - dx_a * ds_a)
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(ds))):
            return IpmResult(STATUS_NUMERICAL, x, y, s, it)
        eta = 0.99
        ap = eta * _max_step(x, dx)
        ad = eta * _max_step(s, ds)
        x = x + ap * dx
        y = y + ad * dy
        s = s + ad * ds

    rb = a @ x - b
    if np.linalg.norm(rb) / bnorm > 1e3 * tol:
        return IpmResult(STATUS_INFEASIBLE, x, y, s, max_iters)
    return IpmResult(STATUS_ITERATION_LIMIT, x, y, s, max_iters)
