"""Benchmark pipelines, timing metrics and Monte-Carlo validators.

The benchmark protocol mirrors solver practice: solve the cut-augmented
problem, record the best objective F and the time T it took to reach it,
then give the plain solver the same instance and measure the time to
reach F.  Aggregation uses the shifted geometric mean and the speedup
ratio of the two SGMs.

The validators draw large Monte-Carlo samples against the analytic tail
bounds used by the hyperplane construction, and replay the data-free
construction on uniform random knapsacks.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bnb import SolveOptions, solve_mip
from .branching import calibrate, cut_settings, partition_solve, round_prediction
from .generators import gen_knapsack_uniform, read_family, stream_rng
from .predict import logistic_predict, logistic_train, lp_root_predict, predictor

DEFAULT_SHIFT = 10.0
NODE_SHIFT = 10.0  # nodes
DEFAULT_TIME_LIMIT = 10.0  # desk-scale per-solve budget, overridable
CALIB_FRACTION = 0.2  # share of a training slice held out to calibrate


def sgm(times, shift: float = DEFAULT_SHIFT) -> float:
    """Shifted geometric mean: exp(mean log max(1, t + shift)) - shift.

    Equal inputs return exactly that value (no exp/log round-trip), so
    sgm([t, t]) == t holds bit-exactly.  With the default 10 s shift the
    SGM of millisecond solves is close to their arithmetic mean, since
    log is nearly linear just above 10.  When every t < 1 - shift (only
    possible for a shift below 1), each term is max(1, t + shift) = 1
    and the result is the constant 1 - shift.
    """
    arr = np.asarray(list(times), dtype=float)
    if arr.size == 0:
        raise ValueError("sgm needs at least one time")
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("times must be finite and non-negative")
    vals = np.maximum(1.0, arr + shift)
    if np.all(vals == vals[0]):
        return float(vals[0] - shift)
    return float(np.exp(np.mean(np.log(vals))) - shift)


def time_to_target(
    incumbent_log: list[tuple[float, float]], target: float, sense: str
) -> float | None:
    """First log timestamp whose objective meets the target, or None.

    Equality is forgiven within 1e-6 * (1 + |target|).  The log must be
    time-ordered.
    """
    times = [t for t, _ in incumbent_log]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("incumbent log is not time-ordered")
    tol = 1e-6 * (1.0 + abs(target))
    for t, obj in incumbent_log:
        if sense == "minimize" and obj <= target + tol:
            return t
        if sense == "maximize" and obj >= target - tol:
            return t
    return None


@dataclass
class BenchConfig:
    family_dir: str | Path
    predictor: str = "logistic"  # logistic | lp-root-simplex | lp-root-ipm | file:<dir>
    mode: str = "heuristic"  # heuristic | exact | plain
    # None takes the default of branching.cut_settings
    tau: float | None = None
    delta: float | None = None
    sigma: float | None = None
    tightened: bool | None = None
    time_limit: float = DEFAULT_TIME_LIMIT
    train_count: int | None = None  # None: everything not in the test split
    test_count: int = 20

    def validate(self) -> None:
        if self.mode not in ("heuristic", "exact", "plain"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.tau is not None and not 0.5 < self.tau <= 1.0:
            raise ValueError("tau must be in (0.5, 1]")
        if self.delta is not None and not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.test_count < 1:
            raise ValueError("test_count must be >= 1")


@dataclass
class BenchRow:
    instance: str
    objective: float  # F reached by the cut run
    t_method: float
    t_original: float | None
    nodes_method: int
    nodes_plain: int
    status_method: str
    status_plain: str


@dataclass
class BenchReport:
    rows: list[BenchRow]
    sgm_method: float | None
    sgm_original: float | None
    speedup: float | None
    not_reached: int
    failed: int
    config: dict = field(default_factory=dict)
    # node SGMs (shift NODE_SHIFT) over the rows in the time SGMs, and
    # method nodes per plain node: below 1 the method's trees are smaller
    sgm_nodes_method: float | None = None
    sgm_nodes_original: float | None = None
    node_ratio: float | None = None


def paired_sgms(rows: list[BenchRow]) -> dict:
    """The report's SGM fields over the rows whose plain run reached the target.

    Times take the paper's 10 s shift, node counts a shift of NODE_SHIFT
    nodes; speedup is original over method time, node_ratio method over
    original nodes.  Every field is None when no row is paired.
    """
    paired = [r for r in rows if r.t_original is not None]
    if not paired:
        return dict.fromkeys(("sgm_method", "sgm_original", "speedup", "sgm_nodes_method",
                              "sgm_nodes_original", "node_ratio"))
    t_m, t_o = sgm([r.t_method for r in paired]), sgm([r.t_original for r in paired])
    n_m = sgm([r.nodes_method for r in paired], shift=NODE_SHIFT)
    n_o = sgm([r.nodes_plain for r in paired], shift=NODE_SHIFT)
    return dict(sgm_method=t_m, sgm_original=t_o, speedup=t_o / t_m if t_m > 0 else None,
                sgm_nodes_method=n_m, sgm_nodes_original=n_o,
                node_ratio=n_m / n_o if n_o > 0 else None)


def solve_labels(instances, time_limit) -> list[tuple[np.ndarray, np.ndarray]]:
    """Training labels: ``(features, y)`` for every ``(features, instance)``
    pair whose solve finds a solution within ``time_limit``, with y the
    solution's rounded binary part."""
    labeled = []
    for xi, inst in instances:
        rep = solve_mip(inst, options=SolveOptions(time_limit=time_limit))
        if rep.best_solution is not None:
            labeled.append((xi, np.round(rep.best_solution.binary_part(inst))))
    return labeled


def calibration_split(instances: list) -> tuple[list, list]:
    """Split a training slice, before any solve, into a fit part and the
    held-out last ``max(2, round(n * CALIB_FRACTION))`` instances."""
    cut = max(0, len(instances) - max(2, round(len(instances) * CALIB_FRACTION)))
    return instances[:cut], instances[cut:]


def fit_model(fit, time_limit=DEFAULT_TIME_LIMIT, reg=1e-4, max_iters=500, tol=1e-6):
    """The logistic model fitted on the solved labels of ``fit``, and their count."""
    labeled = solve_labels(fit, time_limit)
    if len(labeled) < 2:
        raise ValueError("not enough solved training instances for the logistic model")
    model = logistic_train(labeled, reg=reg, max_iters=max_iters, tol=tol)
    model.fitted_on = [inst.name for _, inst in fit]
    return model, len(labeled)


def calibrate_model(model, val, delta=0.05, time_limit=DEFAULT_TIME_LIMIT):
    """Solve the held-out labels of ``val`` and calibrate the model's predictions
    on them; a ``ValueError`` when ``val`` holds an instance the model was fitted on."""
    if seen := [inst.name for _, inst in val if inst.name in model.fitted_on]:
        raise ValueError(f"held-out instances {', '.join(seen)} are in the model's fit part")
    pairs = [(logistic_predict(model, xi), y) for xi, y in solve_labels(val, time_limit)]
    return calibrate(pairs, delta)


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Train, calibrate, and compare cut-first solving against plain solving.

    Rows where the plain solver never reaches the cut run's objective are
    excluded from both SGM lists and surfaced through ``not_reached``
    rather than imputed.
    """
    config.validate()
    family = read_family(config.family_dir)
    total = len(family.instances)
    if config.test_count >= total:
        raise ValueError("test split consumes the whole family")
    test = family.instances[total - config.test_count :]
    n_train = (
        config.train_count
        if config.train_count is not None
        else total - config.test_count
    )
    if n_train < 1:
        raise ValueError("empty training split")
    train = family.instances[: min(n_train, total - config.test_count)]

    model = cal = None
    if config.mode != "plain" and config.predictor == "logistic":
        fit, val = calibration_split(train)
        model, _ = fit_model(fit, config.time_limit)
        cal = calibrate_model(model, val, time_limit=config.time_limit)
    cal, tightened = cut_settings(
        config.predictor, cal, tau=config.tau, delta=config.delta,
        sigma=config.sigma, tightened=config.tightened,
    )
    if config.mode == "plain":
        predict_fn, cal = None, None
    else:
        predict_fn = predictor(config.predictor, model)

    opts = SolveOptions(time_limit=config.time_limit)
    rows: list[BenchRow] = []
    failed = 0
    not_reached = 0
    for _, inst in test:
        plain_rep = solve_mip(inst, options=opts)
        if config.mode == "plain":
            method_rep = plain_rep
        else:
            part = partition_solve(
                inst,
                predict_fn(inst),
                cal,
                options=opts,
                mode="heuristic" if config.mode == "heuristic" else "exact",
                tightened=tightened,
            )
            method_rep = part.best
        if method_rep.best_solution is None or not method_rep.incumbent_log:
            failed += 1
            f_method = t_method = math.nan
            t_orig = None
        else:
            f_method = method_rep.objective
            t_method = method_rep.incumbent_log[-1][0]
            t_orig = time_to_target(plain_rep.incumbent_log, f_method, inst.sense)
            if t_orig is None:
                not_reached += 1
        rows.append(
            BenchRow(
                instance=inst.name,
                objective=f_method,
                t_method=t_method,
                t_original=t_orig,
                nodes_method=method_rep.nodes,
                nodes_plain=plain_rep.nodes,
                status_method=method_rep.status,
                status_plain=plain_rep.status,
            )
        )

    if not_reached:
        warnings.warn(
            f"{not_reached} instance(s) never reached the target objective; "
            "excluded from the SGM pairs",
            stacklevel=2,
        )
    return BenchReport(
        rows=rows,
        **paired_sgms(rows),
        not_reached=not_reached,
        failed=failed,
        config={
            "family_dir": str(config.family_dir),
            "predictor": config.predictor,
            "mode": config.mode,
            "tau": None if cal is None else cal.tau_star,
            "delta": None if cal is None else cal.delta,
            "sigma": None if cal is None else cal.sigma,
            "tightened": tightened,
            "time_limit": config.time_limit,
            "train_count": len(train),
            "test_count": len(test),
        },
    )


def report_emit(report: BenchReport, path_prefix: str | Path) -> tuple[Path, Path]:
    """Write rows as CSV and aggregates as JSON with a stable layout."""
    prefix = Path(path_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".json")
    columns = [
        "instance",
        "objective",
        "t_method",
        "t_original",
        "nodes_method",
        "nodes_plain",
        "status_method",
        "status_plain",
    ]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in report.rows:
            writer.writerow(
                [
                    row.instance,
                    row.objective,
                    row.t_method,
                    "" if row.t_original is None else row.t_original,
                    row.nodes_method,
                    row.nodes_plain,
                    row.status_method,
                    row.status_plain,
                ]
            )
    summary = {
        "speedup": report.speedup,
        "sgm_method": report.sgm_method,
        "sgm_original": report.sgm_original,
        "sgm_nodes_method": report.sgm_nodes_method,
        "sgm_nodes_original": report.sgm_nodes_original,
        "node_ratio": report.node_ratio,
        "not_reached": report.not_reached,
        "failed": report.failed,
        "rows": len(report.rows),
        "config": report.config,
    }
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    return csv_path, json_path


@dataclass
class LemmaReport:
    name: str
    params: dict
    trials: int
    empirical: float
    bound: float
    stderr: float
    passed: bool
    # analytic reference for the tail; for uniform_bins the union bound
    # min(1, n_bins * P(Bin(n, delta) > 2 n delta)), an upper bound on it
    exact: float | None = None


def _binom_stderr(p_hat: float, trials: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / trials) / trials)


def _overfull_trials(rng, n: int, pvals: np.ndarray, cap: float, trials: int) -> int:
    """Of ``trials`` multinomial(n, pvals) draws, how many have a count above cap.

    Draws batches of at most 10**6 counts, each freed before the next is drawn.
    """
    take = max(1, 10**6 // len(pvals))
    hits = 0
    for done in range(0, trials, take):
        top = rng.multinomial(n, pvals, size=min(take, trials - done)).max(axis=1)
        hits += int(np.count_nonzero(top > cap))
    return hits


def verify_lemma(which: str, params: dict, trials: int, seed: int) -> LemmaReport:
    """Monte-Carlo check of one concentration bound.

    Simulates the tail event frequency and passes iff it does not exceed
    the analytic bound by more than three binomial standard errors.
    These are proven bounds, so a failure indicates a bug, not bad luck.

    Each trial draws: ``hoeffding`` and ``bernstein`` one Bin(n, p) sum;
    ``chebyshev`` one uniform on [lo, hi]; ``uniform_bins`` the counts
    of n uniforms on [0, 1] in the bins [k delta, (k+1) delta), as one
    multinomial draw, and checks whether some count exceeds 2 n delta.
    ``exact`` is the exact tail for the first three; for
    ``uniform_bins`` it is the union of the per-bin binomial tails, which
    is within 4e-8 of the tail at delta = 0.05 but reads 1.0 against a
    true 0.8997 at n = 400, delta = 0.01.
    """
    from scipy import stats as spstats  # here: no other command loads scipy
    if trials < 10_000:
        raise ValueError("need at least 10^4 trials")
    rng = stream_rng(seed, 0)

    if which in ("hoeffding", "bernstein"):
        n = int(params["n"])
        p = float(params["p"])
        t = float(params["t"])
        if not (n >= 1 and 0 <= p <= 1 and t > 0):
            raise ValueError("bad params for the tail bound")
        sums = rng.binomial(n, p, size=trials)
        empirical = float(np.mean(sums - n * p >= t))
        if which == "hoeffding":
            bound = math.exp(-2.0 * t * t / n)
        else:
            bound = math.exp(-t * t / (2.0 * (n * p + t / 3.0)))
        # exact binomial tail P(Bin(n,p) >= ceil(np + t))
        exact = float(spstats.binom.sf(math.ceil(n * p + t) - 1, n, p))
    elif which == "chebyshev":
        t = float(params["t"])
        lo = float(params.get("lo", 0.0))
        hi = float(params.get("hi", 1.0))
        if t <= 0 or hi <= lo:
            raise ValueError("bad params for the variance bound")
        y = rng.uniform(lo, hi, size=trials)
        mean = (lo + hi) / 2.0
        var = (hi - lo) ** 2 / 12.0
        empirical = float(np.mean(np.abs(y - mean) >= t))
        bound = var / (t * t)
        # exact tail of |U - mean| >= t for the uniform distribution
        exact = max(0.0, 1.0 - min(2.0 * t, hi - lo) / (hi - lo))
    elif which == "uniform_bins":
        n = int(params["n"])
        delta = float(params["delta"])
        if n < 1 or not 0 < delta < 1:
            raise ValueError("bad params for the bin bound")
        n_bins = math.ceil(1.0 / delta)
        cap = 2.0 * n * delta
        # bin k is [k delta, (k+1) delta) cut off at 1: width min(delta, 1 - k delta)
        pvals = np.clip(1.0 - delta * np.arange(n_bins), 0.0, delta)
        empirical = _overfull_trials(rng, n, pvals, cap, trials) / trials
        bound = n_bins * math.exp(-n * delta / 4.0)
        # union bound over the exact per-bin tails P(Bin(n, delta) > 2n delta)
        exact = min(1.0, n_bins * float(spstats.binom.sf(math.floor(cap), n, delta)))
    else:
        raise ValueError(f"unknown validator {which!r}")

    stderr = _binom_stderr(empirical, trials)
    return LemmaReport(
        name=which,
        params=params,
        trials=trials,
        empirical=empirical,
        bound=bound,
        stderr=stderr,
        passed=empirical <= bound + 3.0 * stderr,
        exact=exact,
    )


@dataclass
class KnapsackRoundingRow:
    n: int
    trials: int
    margin: float  # 4 sqrt(2) n^(3/4)
    vacuous_up: bool  # margin >= |U| on every trial: the up inequality is trivial
    vacuous_down: bool  # margin >= |L| on every trial: the down inequality is trivial
    violations_up: int
    violations_down: int
    mispicks: list[int]  # per-trial |U \ U*|

    @property
    def median_mispick(self) -> float:
        return float(np.median(self.mispicks)) if self.mispicks else math.nan

    @property
    def max_mispick(self) -> int:
        return max(self.mispicks) if self.mispicks else 0


@dataclass
class KnapsackRoundingReport:
    gamma: float
    rows: list[KnapsackRoundingRow]

    @property
    def total_violations(self) -> int:
        return sum(r.violations_up + r.violations_down for r in self.rows)


def verify_knapsack_rounding(
    n_list: list[int], gamma: float, trials: int, seed: int
) -> KnapsackRoundingReport:
    """Replay the data-free construction on uniform knapsacks.

    Per trial: draw the instance, round its ``lp-root-simplex``
    prediction at tau = 1, so that U and L are the items its LP root
    takes whole and leaves out, solve exactly, and check that the up-set
    keeps at least |U| - 4 sqrt(2) n^(3/4) ones and the down-set gains at
    most that margin.  A side is flagged vacuous when the margin covers
    its whole set (|U| for up, |L| for down) on every trial, so that it
    cannot fail; the margin exceeds n itself for n <= 1024.
    """
    master = stream_rng(seed, 0)
    rows = []
    for n in n_list:
        margin = 4.0 * math.sqrt(2.0) * n**0.75
        vio_up = vio_down = 0
        vacuous_up = vacuous_down = True
        mispicks = []
        for _ in range(trials):
            sub_seed = int(master.integers(0, 2**62))
            uk = gen_knapsack_uniform(n, gamma, seed=sub_seed)
            up, down, _ = round_prediction(lp_root_predict(uk.instance), 1.0)
            vacuous_up &= margin >= len(up)
            vacuous_down &= margin >= len(down)
            rep = solve_mip(
                uk.instance, options=SolveOptions(rel_gap=0.0, abs_gap=1e-9)
            )
            if rep.best_solution is None:
                raise RuntimeError("exact solve failed on a generated knapsack")
            ystar = np.round(rep.best_solution.values[:n])
            if float(ystar[up].sum()) < len(up) - margin - 1e-9:
                vio_up += 1
            if float(ystar[down].sum()) > margin + 1e-9:
                vio_down += 1
            mispicks.append(int(np.sum(ystar[up] == 0)))
        rows.append(
            KnapsackRoundingRow(
                n=n,
                trials=trials,
                margin=margin,
                vacuous_up=vacuous_up,
                vacuous_down=vacuous_down,
                violations_up=vio_up,
                violations_down=vio_down,
                mispicks=mispicks,
            )
        )
    return KnapsackRoundingReport(gamma=gamma, rows=rows)
