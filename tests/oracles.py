"""Independent test oracles: exhaustive and DP-based exact solvers, the
partition's regions written as cut rows, an exact multinomial tail, the
greedy closed-form knapsack LP, a knapsack point completed greedily one
item at a time, row propagation one row at a time, the rows' conflict
graph one pair at a time, the calibration's accuracy curves one
instance at a time, and the node kernels in their plain form: the
bound-flipping ratio test from one tableau row, first-step gains one
target at a time, and reduced-cost fixing by full-length masks.  It
also holds a capacitated facility location recipe, the one mixed-binary
family the tests solve end to end.

These deliberately avoid the package's solver paths so that agreement
checks are meaningful.  Everything works straight off MipInstance data.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from probranch.branching import DEFAULT_TAU_GRID, AccuracyStats, partition_regions
from probranch._simplex import _FEAS_TOL, _PIVOT_TOL
from probranch.model import LinearRow, MipInstance, Solution


def enumerate_lp_vertices(c, a, senses, b, lb, ub):
    """Best objective over all basic feasible points of a small bounded LP.

    Standard-form slack extension; every basis choice is enumerated and,
    within a basis, every on-bound assignment of the nonbasic structural
    variables.  Minimization.  Returns (best objective, best point).
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    slack_sign = []
    for s in senses:
        if s == "<=":
            slack_sign.append(1.0)
        elif s == ">=":
            slack_sign.append(-1.0)
        else:
            slack_sign.append(0.0)
    total = n + m
    a_ext = np.zeros((m, total))
    a_ext[:, :n] = a
    for r, sg in enumerate(slack_sign):
        a_ext[r, n + r] = sg
    best = math.inf
    best_x = None
    for basis in itertools.combinations(range(total), m):
        bmat = a_ext[:, basis]
        if abs(np.linalg.det(bmat)) < 1e-10:
            continue
        nonbasic_struct = [j for j in range(n) if j not in basis]
        k = len(nonbasic_struct)
        for bits in range(1 << k):
            x = np.zeros(total)
            for t, j in enumerate(nonbasic_struct):
                x[j] = ub[j] if (bits >> t) & 1 else lb[j]
            rhs = b - a_ext @ x
            try:
                xb = np.linalg.solve(bmat, rhs)
            except np.linalg.LinAlgError:
                continue
            x[list(basis)] = xb
            ok = True
            for j in range(n):
                if x[j] < lb[j] - 1e-8 or x[j] > ub[j] + 1e-8:
                    ok = False
                    break
            if ok:
                for r in range(m):
                    sv = x[n + r]
                    if slack_sign[r] == 0.0 and abs(sv) > 1e-8:
                        ok = False
                    elif sv < -1e-8:
                        ok = False
                    if not ok:
                        break
            if not ok:
                continue
            val = float(c @ x[:n])
            if val < best - 1e-12:
                best = val
                best_x = x[:n].copy()
    return best, best_x


def _row_masks(instance):
    """Per-column bitmask of the rows each variable appears in."""
    masks = [0] * instance.num_vars
    for r, row in enumerate(instance.rows):
        for j, v in row.coeffs:
            if v != 0.0:
                masks[j] |= 1 << r
    return masks


def set_cover_dp(instance) -> float:
    """Exact optimum of a min-cost set-covering instance (rows: >= 1).

    Layered DP over row masks: after processing column j the table holds
    the cheapest cost covering at least each mask using columns 0..j.
    """
    m = len(instance.rows)
    assert m <= 22, "mask DP needs at most 22 rows"
    for row in instance.rows:
        assert row.sense == ">=" and row.rhs == 1.0
        assert all(v == 1.0 for _, v in row.coeffs)
    assert instance.sense == "minimize" and instance.num_continuous == 0
    costs = instance.objective_vector()
    masks = _row_masks(instance)
    full = (1 << m) - 1
    g = np.full(1 << m, np.inf)
    g[0] = 0.0
    idx = np.arange(1 << m)
    for j in range(instance.num_binary):
        mj = masks[j]
        g = np.minimum(g, g[idx & ~mj] + costs[j])
    return float(g[full])


def set_packing_dp(instance) -> float:
    """Exact optimum of a max-value set-packing instance (rows: <= 1).

    DP over row masks: best value using a subset of columns whose rows
    fit inside the mask, columns pairwise row-disjoint.
    """
    m = len(instance.rows)
    assert m <= 22, "mask DP needs at most 22 rows"
    for row in instance.rows:
        assert row.sense == "<=" and row.rhs == 1.0
        assert all(v == 1.0 for _, v in row.coeffs)
    assert instance.sense == "maximize" and instance.num_continuous == 0
    values = instance.objective_vector()
    masks = _row_masks(instance)
    full = (1 << m) - 1
    h = np.zeros(1 << m)
    idx = np.arange(1 << m)
    for j in range(instance.num_binary):
        mj = masks[j]
        fits = (idx & mj) == mj
        cand = np.where(fits, h[idx & ~mj] + values[j], -np.inf)
        h = np.maximum(h, cand)
    return float(h[full])


def reference_logistic_probabilities(x, y, reg, iters=20000, lr=0.5):
    """Plain fixed-step gradient descent, run long, as a training oracle."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(iters):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        gw = x.T @ (p - y) / len(y) + reg * w
        gb = np.mean(p - y)
        w -= lr * gw
        b -= lr * gb
    return 1.0 / (1.0 + np.exp(-(x @ w + b)))


def reference_logistic_optimum(x, y, reg):
    """One logistic model's penalized optimum (w, b), found alone by scipy.

    Minimizes the mean logistic loss plus (reg/2)*||w||^2 over every
    feature of ``x`` with scipy's BFGS run to a tight gradient tolerance:
    no row-space reduction, no batching and no Newton step.
    """
    from scipy.optimize import minimize
    from scipy.special import expit

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xa = np.column_stack([x, np.ones(len(x))])
    pen = np.append(np.full(x.shape[1], reg), 0.0)

    def loss_and_grad(theta):
        z = xa @ theta
        r = expit(z) - y
        loss = np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * theta @ (pen * theta)
        return loss, xa.T @ r / len(y) + pen * theta

    res = minimize(loss_and_grad, np.zeros(xa.shape[1]), jac=True, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 100_000})
    return res.x[:-1], float(res.x[-1])


def reference_roundings(a, senses, b, n_bin, x, lb, ub, tol=1e-9):
    """The rounding heuristic as one loop per rounder: the batched pass's reference.

    Nearest, floor and ceil round the binaries of x into [lb, ub]; a
    continuous column that an equality row defines alone is recomputed
    from the rounded point and must stay in its bounds; every row must
    hold within ``tol``.  Returns [(k, point)] for the roundings that
    survive, k = 0, 1, 2 in that order.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    row_sign = np.array([-1.0 if s == ">=" else 1.0 for s in senses])
    row_eq = np.array([s == "=" for s in senses], dtype=bool)
    cont = a[:, n_bin:] != 0
    def_rows = np.nonzero(row_eq & (cont.sum(axis=1) == 1))[0]
    def_cols = n_bin + np.nonzero(cont[def_rows])[1]
    out = []
    for k, rounder in enumerate((np.round, np.floor, np.ceil)):
        xr = x.copy()
        xr[:n_bin] = np.clip(rounder(x[:n_bin]), lb[:n_bin], ub[:n_bin])
        if len(def_rows):
            xr[def_cols] = 0.0
            xr[def_cols] = (b[def_rows] - a[def_rows] @ xr) / a[def_rows, def_cols]
            t = xr[def_cols]
            if (np.maximum(lb[def_cols] - t, t - ub[def_cols]) > tol).any():
                continue
        gap = row_sign * (a @ xr - b)
        if float(np.max(np.where(row_eq, np.abs(gap), gap), initial=0.0)) <= tol:
            out.append((k, xr))
    return out


def binary_enumeration(instance, tol=1e-9):
    """Exact optimum of a pure-binary instance by enumerating every 0/1 point.

    Points go in chunks of 2^16, bit j of the counter being y_j, with one
    product against the row matrix per chunk: the 16 low bits run through
    every chunk alike, so only the high columns change.  Rows must hold
    within ``tol``.  Returns a Solution: the first best point in counter
    order with status optimal, or status infeasible with a nan objective.
    Meant for n <= 24.
    """
    n = instance.num_binary
    assert instance.num_continuous == 0 and n <= 24
    a = np.zeros((len(instance.rows), n))
    for r, row in enumerate(instance.rows):
        for j, v in row.coeffs:
            a[r, j] = v
    rhs = np.array([row.rhs for row in instance.rows])
    only_ge = np.array([row.sense == ">=" for row in instance.rows], dtype=bool)
    only_le = np.array([row.sense == "<=" for row in instance.rows], dtype=bool)
    c = np.zeros(n)
    for j, v in instance.objective:
        c[j] = v
    sign = -1.0 if instance.sense == "maximize" else 1.0
    best, best_y = math.inf, None
    size = min(1 << n, 1 << 16)
    y = ((np.arange(size)[:, None] >> np.arange(n)) & 1).astype(float)
    for lo in range(0, 1 << n, size):
        y[:, 16:] = (lo >> np.arange(16, n)) & 1
        gap = y @ a.T - rhs
        ok = ((gap <= tol) | only_ge).all(axis=1) & ((gap >= -tol) | only_le).all(axis=1)
        if not ok.any():
            continue
        vals = sign * (y[ok] @ c)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best, best_y = float(vals[k]), y[ok][k]
    if best_y is None:
        return Solution(values=np.zeros(0), objective=math.nan, status="infeasible")
    return Solution(values=best_y, objective=sign * best, status="optimal")


def highs_optimum(instance) -> float:
    """Exact optimum of a mixed binary instance from scipy's HiGHS branch and cut.

    HiGHS runs with a zero relative gap, straight off the instance data.
    It is the oracle for instances with continuous variables, which the
    enumerations above do not cover.  Returns nan when HiGHS finds no
    feasible point.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    n_bin, n = instance.num_binary, instance.num_vars
    c = np.zeros(n)
    for j, v in instance.objective:
        c[j] = v
    a = np.zeros((len(instance.rows), n))
    lo = np.full(len(instance.rows), -np.inf)
    hi = np.full(len(instance.rows), np.inf)
    for r, row in enumerate(instance.rows):
        for j, v in row.coeffs:
            a[r, j] = v
        if row.sense in ("<=", "="):
            hi[r] = row.rhs
        if row.sense in (">=", "="):
            lo[r] = row.rhs
    lb = np.r_[np.zeros(n_bin), [b[0] for b in instance.continuous_bounds]]
    ub = np.r_[np.ones(n_bin), [b[1] for b in instance.continuous_bounds]]
    sign = -1.0 if instance.sense == "maximize" else 1.0
    res = milp(sign * c, constraints=[LinearConstraint(a, lo, hi)] if len(a) else [],
               integrality=np.r_[np.ones(n_bin), np.zeros(n - n_bin)],
               bounds=Bounds(lb, ub), options={"mip_rel_gap": 0.0, "disp": False})
    if res.status == 2:
        return math.nan
    assert res.status == 0, res.message
    return sign * float(res.fun)


def propagate_rows(instance, lb, ub, tol=1e-9):
    """Activity-based propagation one row and one binary at a time: the propagator's reference.

    Each row a.x <= rhs (a >= row negated, an = row in both directions)
    has the minimum activity L = sum_j a_j (lb_j if a_j > 0 else ub_j)
    over the box, and slack s = rhs + tol max(1, |rhs|) - L.  A row with
    s < 0 holds nowhere in the box: the result is None.  Otherwise a free
    binary with |a_j| > s goes at once to the bound L took it at, and the
    rows are swept again until a sweep fixes nothing.  Returns (lb, ub).
    """
    rows = []
    for row in instance.rows:
        if row.sense != ">=":
            rows.append((row.coeffs, row.rhs))
        if row.sense != "<=":
            rows.append(([(j, -v) for j, v in row.coeffs], -row.rhs))
    lb, ub = np.array(lb, dtype=float), np.array(ub, dtype=float)
    swept_clean = False
    while not swept_clean:
        swept_clean = True
        for coeffs, rhs in rows:
            low = math.fsum(v * (lb[j] if v > 0 else ub[j]) for j, v in coeffs)
            slack = rhs + tol * max(1.0, abs(rhs)) - low
            if slack < 0:
                return None
            for j, v in coeffs:
                if j < instance.num_binary and lb[j] < ub[j] and abs(v) > slack:
                    if v > 0:
                        ub[j] = lb[j]
                    else:
                        lb[j] = ub[j]
                    swept_clean = False
    return lb, ub


def conflict_pairs(instance, tol=1e-9):
    """Pairs (i, j), i < j, of binaries that no 0/1 point of the rows sets to 1 together.

    Each row a.x <= rhs (a >= row negated, an = row in both directions)
    that has no continuous column and no negative binary coefficient
    puts every pair with a_i + a_j > rhs + tol max(1, |rhs|) in the
    graph: the conflict graph's reference, one pair at a time.
    """
    n_bin = instance.num_binary
    pairs = set()
    for row in instance.rows:
        for sign in (1.0, -1.0):
            if (row.sense, sign) in (("<=", -1.0), (">=", 1.0)):
                continue
            coef = [0.0] * n_bin
            for j, v in row.coeffs:
                if (j >= n_bin and v != 0) or sign * v < 0:
                    break
                if j < n_bin:
                    coef[j] = sign * v
            else:
                limit = sign * row.rhs + tol * max(1.0, abs(row.rhs))
                for i in range(n_bin):
                    for j in range(i + 1, n_bin):
                        if coef[i] + coef[j] > limit:
                            pairs.add((i, j))
    return pairs


def capacitated_facility_location(n_customers, n_facilities, ratio, seed) -> MipInstance:
    """A capacitated facility location instance by the recipe of
    Cornuejols, Sridharan & Thizy (1991), as Gasse et al. (NeurIPS 2019)
    draw it.

    Customers and facilities lie uniformly in the unit square.  Demands
    d_i come from U{5..35} and capacities s_j from U{10..160}; fixed
    costs are U{100..110}*sqrt(s_j) + U{0..90}, truncated, and the
    capacities are then scaled so that sum s = ratio * sum d, truncated.
    Serving all of customer i from facility j costs 10 * dist * d_i.
    Binaries y_j open facilities; continuous x_ij in [0, 1] (column
    n_facilities + i * n_facilities + j) is the share of i's demand that
    j serves.  Rows: sum_j x_ij = 1; sum_i d_i x_ij <= s_j y_j;
    sum_j s_j y_j >= sum_i d_i; and x_ij <= y_j.  Minimized.
    """
    rng = np.random.default_rng([seed, n_customers, n_facilities])
    cust, fac = rng.random((n_customers, 2)), rng.random((n_facilities, 2))
    demand = rng.integers(5, 36, n_customers)
    cap = rng.integers(10, 161, n_facilities)
    fixed = (rng.integers(100, 111, n_facilities) * np.sqrt(cap)
             + rng.integers(0, 91, n_facilities)).astype(int)
    cap = (cap * ratio * demand.sum() / cap.sum()).astype(int)
    dist = np.sqrt(((cust[:, None, :] - fac[None, :, :]) ** 2).sum(axis=2))
    transport = 10.0 * dist * demand[:, None]
    nf = n_facilities

    def x(i, j):
        return nf + i * nf + j

    rows = [LinearRow([(x(i, j), 1.0) for j in range(nf)], "=", 1.0)
            for i in range(n_customers)]
    rows += [LinearRow([(x(i, j), float(demand[i])) for i in range(n_customers)]
                       + [(j, -float(cap[j]))], "<=", 0.0) for j in range(nf)]
    rows.append(LinearRow([(j, float(cap[j])) for j in range(nf)], ">=", float(demand.sum())))
    rows += [LinearRow([(x(i, j), 1.0), (j, -1.0)], "<=", 0.0)
             for i in range(n_customers) for j in range(nf)]
    return MipInstance(
        f"cfl_{n_customers}x{nf}_{seed}", "minimize", nf, n_customers * nf,
        objective=[(j, float(fixed[j])) for j in range(nf)]
        + [(x(i, j), float(transport[i, j])) for i in range(n_customers) for j in range(nf)],
        rows=rows,
        continuous_bounds=[(0.0, 1.0)] * (n_customers * nf),
    )


def with_rows(instance, rows):
    """The instance with rows appended to its own, for the oracles."""
    return dataclasses.replace(instance, rows=instance.rows + list(rows))


def region_rows(cut_up, cut_down):
    """(label, rows) per non-empty region of the partition, as cardinality rows.

    keep is a hyperplane's own row and flip its integer complement: <= r-1
    for a >= r cut, >= r+1 for a <= r cut.  A complement whose right-hand
    side lies outside [0, |S|] holds at no 0/1 point, so its regions are
    dropped.  Labels follow the up hyperplane first.
    """
    sides = []
    for h in (cut_up, cut_down):
        if h is None:
            continue
        coeffs = [(int(j), 1.0) for j in h.indices]
        keep = LinearRow(coeffs, h.sense, float(h.rhs_int))
        if h.sense == ">=":
            flip = LinearRow(coeffs, "<=", float(h.rhs_int - 1))
        else:
            flip = LinearRow(coeffs, ">=", float(h.rhs_int + 1))
        side = [("keep", keep)]
        if 0 <= flip.rhs <= len(h.indices):
            side.append(("flip", flip))
        sides.append(side)
    if not sides:
        return [("all", [])]
    if len(sides) == 1:
        return [(label, [row]) for label, row in sides[0]]
    return [(f"{a}_{b}", [row_a, row_b]) for a, row_a in sides[0] for b, row_b in sides[1]]


def _row_holds(row, y, tol=1e-9):
    lhs = sum(v * y[j] for j, v in row.coeffs)
    if row.sense == "<=":
        return lhs <= row.rhs + tol
    if row.sense == ">=":
        return lhs >= row.rhs - tol
    return abs(lhs - row.rhs) <= tol


def holding_regions(cut_up, cut_down, y):
    """Labels of the partition_regions count boxes that hold the 0/1 point y.

    Asserts they are the labels whose region_rows all hold at y.
    """
    planes = [h for h in (cut_up, cut_down) if h is not None]
    counts = [float(np.sum(y[h.indices])) for h in planes]
    boxed = [label for label, box in partition_regions(cut_up, cut_down)
             if all(lo <= t <= hi for t, (lo, hi) in zip(counts, box))]
    rowed = [label for label, rows in region_rows(cut_up, cut_down)
             if all(_row_holds(row, y) for row in rows)]
    assert boxed == rowed, (boxed, rowed)
    return boxed


def multinomial_max_tail(n, pvals, cap) -> float:
    """P(max count > cap) for the counts of a multinomial(n, pvals), exactly.

    Bin by bin, with r points left for bins k..last, bin k's count is
    Bin(r, p_k / (p_k + ... + p_last)) and the last bin takes the rest.
    ``fit[r]`` is the chance that r points left put at most ``cap`` into
    each of the bins still to come.  No sampling and no scipy.
    """
    pvals = [float(p) for p in pvals if p > 0]  # an empty bin's count is 0
    top = math.floor(cap)
    fit = [1.0 if r <= top else 0.0 for r in range(n + 1)]  # the last bin
    rest = pvals[-1]
    for p in reversed(pvals[:-1]):
        rest += p
        q = p / rest
        fit = [sum(math.comb(r, c) * q**c * (1.0 - q) ** (r - c) * fit[r - c]
                   for c in range(min(r, top) + 1))
               for r in range(n + 1)]
    return 1.0 - fit[n]


def knapsack_arrays(instance):
    """(a, f, b) of a one-row knapsack: weights, value ratios f = c / a, capacity."""
    (a,), _, (b,) = instance.constraint_arrays()
    return a, instance.objective_vector() / a, float(b)


def greedy_fill(instance, y, lb, ub):
    """A 0/1 point y of a maximizing one-row knapsack completed one item at a time.

    Each item that is free in the box [lb, ub], at 0 in y and of positive
    value is taken when its weight fits the room left, the items going in
    decreasing value ratio, ties to the lower index.  Returns the point.
    """
    a, f, b = knapsack_arrays(instance)
    y = np.array(y, dtype=float)
    room = b - math.fsum(a * y)
    for j in sorted(range(len(a)), key=lambda j: -f[j]):
        if f[j] > 0 and lb[j] < ub[j] and y[j] == 0.0 and a[j] <= room:
            y[j] = 1.0
            room -= a[j]
    return y


def reference_accuracy_curves(pairs, tau_grid=None):
    """The accuracy curves one instance and one threshold at a time.

    At each grid tau every instance is rounded on its own (up where
    p >= tau, down where p <= 1 - tau); its up-accuracy is the share of
    the up set whose true value is 1, its down-accuracy the share of the
    down set whose true value is 0.  Each side's mean and population
    variance are over the instances whose set is non-empty.
    """
    grid = DEFAULT_TAU_GRID if tau_grid is None else np.asarray(tau_grid, dtype=float)
    probs = [np.asarray(getattr(p, "probabilities", p), dtype=float) for p, _ in pairs]
    truths = [np.round(np.asarray(y, dtype=float)) for _, y in pairs]
    k = len(grid)
    cols = {name: np.full(k, np.nan)
            for name in ("mean_alpha_l", "var_alpha_l", "mean_alpha_u", "var_alpha_u")}
    mean_size_l, mean_size_u = np.zeros(k), np.zeros(k)
    num_valid_l, num_valid_u = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    for i, tau in enumerate(grid):
        al, au, sl, su = [], [], [], []
        for pv, yv in zip(probs, truths):
            up = np.nonzero(pv >= tau)[0]
            down = np.nonzero(pv <= 1.0 - tau)[0]
            sl.append(len(down))
            su.append(len(up))
            if len(down):
                al.append(float(np.mean(yv[down] == 0)))
            if len(up):
                au.append(float(np.mean(yv[up] == 1)))
        mean_size_l[i], mean_size_u[i] = np.mean(sl), np.mean(su)
        num_valid_l[i], num_valid_u[i] = len(al), len(au)
        if al:
            cols["mean_alpha_l"][i], cols["var_alpha_l"][i] = np.mean(al), np.var(al)
        if au:
            cols["mean_alpha_u"][i], cols["var_alpha_u"][i] = np.mean(au), np.var(au)
    return AccuracyStats(tau_grid=grid, mean_size_l=mean_size_l, mean_size_u=mean_size_u,
                         num_valid_l=num_valid_l, num_valid_u=num_valid_u, **cols)


def reference_ratio_test(alpha, d, h, span, gap, rises, bland=False):
    """The bound-flipping ratio test on the tableau row alpha, every array built from it.

    The same rule as ``probranch._simplex._ratio_test``, which takes
    h * alpha, |alpha| and |d| ready-made: eligible columns, breakpoints
    |d_k|/|alpha_k| with ties to the largest |alpha_k| and then the
    lowest index (the lowest index alone under Bland's rule), and the
    walk flipping each column while the gap stays open.  Every reach
    |alpha_k|·span_k is formed before the first breakpoint is tested.
    Returns (q, flips, gain), or (None, None, inf) when the row proves
    the LP infeasible.
    """
    ha = h * alpha
    cols = (ha > _PIVOT_TOL if rises else ha < -_PIVOT_TOL).nonzero()[0]
    if not len(cols):
        return None, None, math.inf
    mag = np.abs(alpha[cols])
    ratios = np.abs(d[cols]) / mag
    reach = mag * span[cols]
    i = int(ratios.argmin())
    tied = ratios == ratios[i]
    if np.count_nonzero(tied) > 1:
        i = int(np.where(tied, mag, -1.0).argmax())
    if not bland and gap - reach[i] <= _FEAS_TOL:
        return int(cols[i]), cols[:0], float(ratios[i] * gap)
    order = np.lexsort((cols if bland else -mag, ratios))
    left = gap - reach[order].cumsum()
    k = int((left <= _FEAS_TOL).argmax())
    if left[k] > _FEAS_TOL:
        return None, None, math.inf
    whole = order[:k]
    gain = ratios[whole] @ reach[whole] + ratios[order[k]] * (left[k - 1] if k else gap)
    return int(cols[order[k]]), cols[whole], float(gain)


def reference_first_step_gains(state, cols, targets):
    """``_Workspace.first_step_gains`` one candidate and one target at a time.

    Each basic candidate's row comes from the one product of the rows of
    B^-1 with the extended matrix, and each target's gain from
    ``reference_ratio_test`` on it; a non-basic candidate, or a target
    within the feasibility tolerance, gains 0.
    """
    cols = np.asarray(cols)
    gains = np.zeros((len(cols), len(targets)))
    basic = np.nonzero(state.is_basic[cols])[0]
    rows = (state.basis == cols[basic, None]).argmax(axis=1)
    span = state.ub - state.lb
    for i, alpha in zip(basic, state.binv[rows] @ state.A):
        xj = state.x[cols[i]]
        for t, target in enumerate(targets):
            gap = abs(target - xj)
            if gap > _FEAS_TOL:
                gains[i, t] = reference_ratio_test(alpha, state.d, state.h, span, gap,
                                                   target > xj)[2]
    return gains


def reference_fix_by_reduced_costs(warm, lb, ub, n_bin, gap, tol):
    """Reduced-cost fixing by full-length masks over the binaries.

    A free binary with h_j = -1 and d_j > gap + tol is fixed at its lower
    bound, one with h_j = +1 and -d_j > gap + tol at its upper.  An array
    is copied only when some binary is fixed in it.  Returns (lb, ub, count).
    """
    d, h = warm.d[:n_bin], warm.h[:n_bin]
    hit = (np.abs(d) > gap + tol) & (lb[:n_bin] < ub[:n_bin])
    down = hit & (d > 0) & (h < 0)
    up = hit & (d < 0) & (h > 0)
    if down.any():
        ub = ub.copy()
        ub[:n_bin][down] = lb[:n_bin][down]
    if up.any():
        lb = lb.copy()
        lb[:n_bin][up] = ub[:n_bin][up]
    return lb, ub, int(np.count_nonzero(down) + np.count_nonzero(up))
