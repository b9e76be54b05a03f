"""Answers the benchmark checks against, computed apart from the program.

Instance files are read with the standard ``json`` module, not with the
program's own deserializer, and their optima come from scipy's HiGHS
branch and cut with a zero relative gap, once per file and run.  The
exact Monte-Carlo tails for ``verify`` come from ``scipy.stats``.
Nothing here is timed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
from scipy import stats  # the program loads it too (probranch.bench)

OBJ_RTOL = 1e-6  # the solver's default relative gap


@contextlib.contextmanager
def _quiet_fd1():
    """Silence writes to file descriptor 1; HiGHS prints from C code."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), 1)
            try:
                yield
            finally:
                os.dup2(saved, 1)
    finally:
        os.close(saved)


@functools.cache
def highs_optimum(path: Path) -> float:
    """Optimal objective of an instance file, in the instance's own sense.

    Imported and called only after the timed rounds and the reading of
    peak RSS, so the checker adds no module of its own to that figure
    (the program itself loads scipy.optimize, through scipy.stats).
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    doc = json.loads(path.read_text())
    n_bin, n = doc["num_binary"], doc["num_binary"] + doc["num_continuous"]
    c = np.zeros(n)
    for j, v in doc["objective"]:
        c[j] = v
    a = np.zeros((len(doc["rows"]), n))
    lo = np.full(len(doc["rows"]), -np.inf)
    hi = np.full(len(doc["rows"]), np.inf)
    for r, row in enumerate(doc["rows"]):
        for j, v in row["coeffs"]:
            a[r, j] = v
        if row["sense"] in ("<=", "="):
            hi[r] = row["rhs"]
        if row["sense"] in (">=", "="):
            lo[r] = row["rhs"]
    lb = np.zeros(n)
    ub = np.ones(n)
    for k, (blo, bhi) in enumerate(doc["continuous_bounds"]):
        lb[n_bin + k] = -np.inf if blo == "-inf" else float(blo)
        ub[n_bin + k] = np.inf if bhi == "inf" else float(bhi)
    sign = -1.0 if doc["sense"] == "maximize" else 1.0
    integrality = np.r_[np.ones(n_bin), np.zeros(n - n_bin)]
    constraints = [LinearConstraint(a, lo, hi)] if len(a) else []
    with _quiet_fd1():
        res = milp(sign * c, constraints=constraints, integrality=integrality,
                   bounds=Bounds(lb, ub), options={"mip_rel_gap": 0.0, "disp": False})
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve {path}: {res.message}")
    return sign * float(res.fun)


def same_objective(got, want: float) -> bool:
    return got is not None and abs(got - want) <= OBJ_RTOL * max(1.0, abs(want))


def not_better(got, opt: float, sense: str) -> bool:
    slack = OBJ_RTOL * max(1.0, abs(opt))
    return got <= opt + slack if sense == "maximize" else got >= opt - slack


# verify --check all: one line per check, as printed by the CLI.
_TAIL_LINE = re.compile(r"^(\w+): empirical=([\d.]+) bound=([\d.]+) exact=")
_KR_LINE = re.compile(r"^knapsack-rounding n=(\d+): violations=(\d+)\+(\d+) margin=([\d.]+)")
PRINT_HALF_ULP = 5e-5  # empirical frequencies are printed with four decimals


def exact_tails(n: int, p: float, t: float, delta: float) -> dict[str, float]:
    """The tail each validator estimates, from scipy.stats.

    ``uniform_bins`` is the union over bins of the per-bin binomial tails;
    at n = 400, delta = 0.05 the pairwise overlaps add at most 4e-8.
    """
    t_cheb = min(t, 0.5)
    n_bins = math.ceil(1.0 / delta)
    n_ub = max(n, 400)
    bin_tail = stats.binom.sf(math.floor(2.0 * n_ub * delta), n_ub, delta)
    binom_tail = float(stats.binom.sf(math.ceil(n * p + t) - 1, n, p))
    return {
        "hoeffding": binom_tail,
        "bernstein": binom_tail,
        "chebyshev": float(stats.uniform.cdf(0.5 - t_cheb) + stats.uniform.sf(0.5 + t_cheb)),
        "uniform_bins": min(1.0, n_bins * float(bin_tail)),
    }


def check_verify(text: str, tails: dict[str, float], trials: int, n_list: list[int]) -> list[str]:
    """Problems in a ``verify --check all`` report; empty when it holds."""
    problems = []
    seen_tails, seen_n = set(), []
    for line in text.splitlines():
        if m := _TAIL_LINE.match(line):
            name, emp, bound = m.group(1), float(m.group(2)), float(m.group(3))
            exact = tails.get(name)
            if exact is None:
                problems.append(f"unexpected validator {name}")
                continue
            seen_tails.add(name)
            se = math.sqrt(exact * (1.0 - exact) / trials)
            if abs(emp - exact) > 4.0 * se + PRINT_HALF_ULP:
                problems.append(f"{name}: empirical {emp} is not within 4 SE of {exact:.6g}")
            if bound < exact - PRINT_HALF_ULP:
                problems.append(f"{name}: bound {bound} is below the exact tail {exact:.6g}")
        elif m := _KR_LINE.match(line):
            n = int(m.group(1))
            seen_n.append(n)
            if int(m.group(2)) or int(m.group(3)):
                problems.append(f"knapsack-rounding n={n}: violations reported")
            if abs(float(m.group(4)) - 4.0 * math.sqrt(2.0) * n**0.75) > 0.051:
                problems.append(f"knapsack-rounding n={n}: wrong margin {m.group(4)}")
    if seen_tails != set(tails):
        problems.append(f"validators missing: {sorted(set(tails) - seen_tails)}")
    if seen_n != n_list:
        problems.append(f"knapsack-rounding rows {seen_n}, expected {n_list}")
    return problems
