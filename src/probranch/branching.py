"""Probabilistic cardinality branching: calibration, hyperplanes and the
four-region solve.

From per-variable probabilities we round a confident-up set U (p >= tau)
and a confident-down set L (p <= 1 - tau), pool their risk into two
cardinality hyperplanes

    sum_{j in U} y_j >= zeta_1      sum_{j in L} y_j <= zeta_2

whose intercepts carry a Chebyshev-style slack sigma|S|/sqrt(delta), and
partition the feasible region by the two cuts and their integer
complements.  The partition is a branching disjunction: each region is
a box on one count column per hyperplane, and the regions are the roots
of a single branch-and-bound tree.  Searching all of them preserves
exactness; searching the cut region alone is the heuristic.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bnb import SolveOptions, SolveReport, solve_mip
from .model import FORMAT_VERSION, LinearRow, MipInstance
from .predict import Prediction

# Threshold grid used for calibration curves; thresholds must exceed 0.5
# so the rounded-up and rounded-down sets cannot overlap.
DEFAULT_TAU_GRID = np.round(np.arange(51, 101) / 100.0, 2)

_ROUND_EPS = 1e-9  # absorbs float noise before the conservative rounding


class NoFeasibleThresholdError(ValueError):
    """No grid threshold dominates both mean accuracy curves."""


def round_prediction(
    p: Prediction | np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split variable indices into (up, down, unrounded) sets at threshold tau.

    up = {j : p_j >= tau} (inclusive), down = {j : p_j <= 1 - tau}; the
    remaining indices stay unrounded.  Requires tau in (0.5, 1].
    """
    if not 0.5 < tau <= 1.0:
        raise ValueError(f"tau must be in (0.5, 1], got {tau}")
    probs = p.probabilities if isinstance(p, Prediction) else np.asarray(p, dtype=float)
    up = np.nonzero(probs >= tau)[0]
    down = np.nonzero(probs <= 1.0 - tau)[0]
    rest = np.nonzero((probs < tau) & (probs > 1.0 - tau))[0]
    return up, down, rest


@dataclass
class AccuracyStats:
    """Mean/variance of the rounded-set accuracies along the threshold grid.

    Instances whose set is empty at a grid point are skipped on that side
    (the num_valid arrays keep the bookkeeping); grid points with no valid
    instance report NaN means and variances.
    """

    tau_grid: np.ndarray
    mean_alpha_l: np.ndarray
    var_alpha_l: np.ndarray
    mean_alpha_u: np.ndarray
    var_alpha_u: np.ndarray
    mean_size_l: np.ndarray
    mean_size_u: np.ndarray
    num_valid_l: np.ndarray
    num_valid_u: np.ndarray

    def validate(self) -> None:
        g = self.tau_grid
        if np.any(np.diff(g) <= 0):
            raise ValueError("tau grid must be strictly increasing")
        if np.any(g <= 0.5) or np.any(g > 1.0):
            raise ValueError("tau grid must lie in (0.5, 1]")
        for arr in (self.var_alpha_l, self.var_alpha_u):
            if np.any(arr[~np.isnan(arr)] < 0):
                raise ValueError("variances must be non-negative")
        for arr in (self.mean_size_l, self.mean_size_u):
            if np.any(np.diff(arr) > 1e-9):
                raise ValueError("mean set sizes must be non-increasing in tau")

    def index_of(self, tau: float) -> int:
        hits = np.nonzero(np.isclose(self.tau_grid, tau, rtol=0, atol=1e-12))[0]
        if not len(hits):
            raise ValueError(f"tau={tau} is not a grid point")
        return int(hits[0])


def accuracy_curves(
    pairs: list[tuple[Prediction | np.ndarray, np.ndarray]],
    tau_grid: np.ndarray | None = None,
) -> AccuracyStats:
    """Per-threshold accuracy statistics over (prediction, true solution) pairs.

    For each instance and threshold, the up-accuracy is the fraction of the
    rounded-up set whose true value is 1 (and symmetrically for the
    rounded-down set); means and population variances are taken over the
    instances where the respective set is non-empty.
    """
    if len(pairs) < 2:
        raise ValueError("need at least two (prediction, solution) pairs")
    grid = DEFAULT_TAU_GRID if tau_grid is None else np.asarray(tau_grid, dtype=float)
    probs = []
    truths = []
    for p, y in pairs:
        pv = p.probabilities if isinstance(p, Prediction) else np.asarray(p, dtype=float)
        yv = np.round(np.asarray(y, dtype=float))
        if pv.shape != yv.shape:
            raise ValueError("prediction and solution lengths differ")
        if probs and pv.shape != probs[0].shape:
            raise ValueError("inconsistent lengths across pairs")
        probs.append(pv)
        truths.append(yv)

    k = len(grid)
    stats = {
        name: np.full(k, np.nan)
        for name in ("mean_alpha_l", "var_alpha_l", "mean_alpha_u", "var_alpha_u")
    }
    mean_size_l = np.zeros(k)
    mean_size_u = np.zeros(k)
    num_valid_l = np.zeros(k, dtype=int)
    num_valid_u = np.zeros(k, dtype=int)

    for i, tau in enumerate(grid):
        al, au, sl, su = [], [], [], []
        for pv, yv in zip(probs, truths):
            up, down, _ = round_prediction(pv, float(tau))
            sl.append(len(down))
            su.append(len(up))
            if len(down):
                al.append(float(np.mean(yv[down] == 0)))
            if len(up):
                au.append(float(np.mean(yv[up] == 1)))
        mean_size_l[i] = np.mean(sl)
        mean_size_u[i] = np.mean(su)
        num_valid_l[i] = len(al)
        num_valid_u[i] = len(au)
        if al:
            stats["mean_alpha_l"][i] = np.mean(al)
            stats["var_alpha_l"][i] = np.var(al)
        if au:
            stats["mean_alpha_u"][i] = np.mean(au)
            stats["var_alpha_u"][i] = np.var(au)

    out = AccuracyStats(
        tau_grid=grid,
        mean_size_l=mean_size_l,
        mean_size_u=mean_size_u,
        num_valid_l=num_valid_l,
        num_valid_u=num_valid_u,
        **stats,
    )
    out.validate()
    return out


def _top_dominated_tau(stats: AccuracyStats, both_sides: bool) -> float | None:
    """Largest grid tau that every valid mean accuracy curve reaches, or None.

    A side is valid at a grid point when some instance's set is
    non-empty there; ``both_sides`` skips the points where one is not.
    """
    sides = ((stats.mean_alpha_l, stats.num_valid_l), (stats.mean_alpha_u, stats.num_valid_u))
    for i in range(len(stats.tau_grid) - 1, -1, -1):
        tau = float(stats.tau_grid[i])
        means = [mean[i] for mean, num_valid in sides if num_valid[i]]
        if means and (len(means) == 2 or not both_sides) and min(means) >= tau:
            return tau
    return None


def select_tau(stats: AccuracyStats) -> float:
    """Largest grid threshold dominated by both mean accuracy curves.

    Scans the grid from the top and returns the first tau with
    mean up/down accuracies >= tau and at least one valid instance on
    each side; raises NoFeasibleThresholdError when nothing qualifies.
    """
    tau = _top_dominated_tau(stats, both_sides=True)
    if tau is None:
        raise NoFeasibleThresholdError("no grid threshold dominates both accuracy curves")
    return tau


def sigma_from_stats(stats: AccuracyStats, tau: float) -> float:
    """Variance-bound sigma at tau: sqrt of the larger accuracy variance."""
    i = stats.index_of(tau)
    cands = []
    if stats.num_valid_l[i]:
        cands.append(stats.var_alpha_l[i])
    if stats.num_valid_u[i]:
        cands.append(stats.var_alpha_u[i])
    if not cands:
        raise ValueError(f"no valid instances at tau={tau}")
    return float(math.sqrt(max(cands)))


@dataclass
class Calibration:
    """Threshold, variance bound and confidence driving the hyperplanes."""

    tau_star: float
    sigma: float
    delta: float
    stats: AccuracyStats | None = None

    def validate(self) -> None:
        if not 0.5 < self.tau_star <= 1.0:
            raise ValueError("tau_star must be in (0.5, 1]")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.stats is not None:
            i = self.stats.index_of(self.tau_star)
            worst = max(
                (v for v, nv in (
                    (self.stats.var_alpha_l[i], self.stats.num_valid_l[i]),
                    (self.stats.var_alpha_u[i], self.stats.num_valid_u[i]),
                ) if nv),
                default=0.0,
            )
            if self.sigma**2 < worst - 1e-12:
                raise ValueError("sigma^2 is below the accuracy variance at tau_star")


def calibration_at(stats: AccuracyStats, tau: float, delta: float) -> Calibration:
    """The calibration at a given grid tau: sigma from the variance there, no stats kept.

    sigma is 0 when no instance is valid at tau.  A tau off the grid has
    no measured variance, so it raises ValueError rather than taking the
    narrowest margin.
    """
    grid = stats.tau_grid
    if not np.isclose(grid, tau, rtol=0, atol=1e-12).any():
        raise ValueError(
            f"tau={tau} is not on the calibration grid ({grid[0]:g}, {grid[1]:g}, ..., "
            f"{grid[-1]:g}), so no variance gives its sigma; choose a grid tau "
            "or give sigma yourself (--sigma)")
    try:
        sigma = sigma_from_stats(stats, tau)
    except ValueError:  # no valid instance at tau
        sigma = 0.0
    cal = Calibration(tau_star=tau, sigma=sigma, delta=delta)
    cal.validate()
    return cal


def calibrate(
    pairs: list[tuple[Prediction | np.ndarray, np.ndarray]],
    delta: float = 0.05,
    tau: float | None = None,
) -> Calibration:
    """Pick tau* from accuracy curves and bound sigma by the variance there.

    tau* is the largest grid threshold that both mean accuracy curves
    reach (``select_tau``).  When none qualifies, tau* is the largest
    grid threshold where one rounded set is empty on every instance and
    the other curve reaches it, with a warning; when there is none
    either, tau* = 0.9 and sigma = 0, with a warning.
    A given ``tau`` is used as is (``calibration_at``: it must be a grid
    point).
    """
    stats = accuracy_curves(pairs)
    if tau is not None:
        return calibration_at(stats, tau, delta)
    try:
        tau = select_tau(stats)
    except NoFeasibleThresholdError:
        tau = _top_dominated_tau(stats, both_sides=False)
        if tau is None:
            warnings.warn(
                "no usable accuracy curve; falling back to tau=0.9, sigma=0",
                stacklevel=2,
            )
            return Calibration(tau_star=0.9, sigma=0.0, delta=delta)
        warnings.warn(
            "one rounded set was always empty; tau selected one-sidedly",
            stacklevel=2,
        )
    cal = Calibration(
        tau_star=tau, sigma=sigma_from_stats(stats, tau), delta=delta, stats=stats
    )
    cal.validate()
    return cal


def cut_settings(
    predictor: str,
    cal: Calibration | None = None,
    tau: float | None = None,
    delta: float | None = None,
    sigma: float | None = None,
    tightened: bool | None = None,
) -> tuple[Calibration, bool]:
    """The calibration and the tightened flag a partition solve runs with.

    A given ``cal`` (a calibration file, or ``bench``'s own calibration)
    supplies tau and delta unless ``tau`` or ``delta`` is given; a new
    ``tau`` takes its sigma from the calibration's stats
    (``calibration_at``), or keeps its sigma when it has none.
    Otherwise tau defaults to 0.9, sigma is 0, and delta defaults to
    1e-8 for a data-free predictor (``lp-root-*``) and to 0.05 for any
    other.  Cuts are tightened by default only for a data-free predictor
    without a calibration.  A user ``sigma`` replaces the calibrated one
    and drops the accuracy stats, whose variance no longer bounds it.
    """
    data_free = cal is None and predictor.startswith("lp-root")
    if cal is not None:
        delta = cal.delta if delta is None else delta
        if tau is None or tau == cal.tau_star:
            cal = replace(cal, delta=delta)
        elif sigma is None and cal.stats is not None:
            cal = calibration_at(cal.stats, tau, delta)
        else:
            cal = Calibration(tau, cal.sigma, delta)
    else:
        delta = (1e-8 if data_free else 0.05) if delta is None else delta
        cal = Calibration(0.9 if tau is None else tau, 0.0, delta)
    if sigma is not None:
        cal = Calibration(cal.tau_star, sigma, cal.delta)
    return cal, data_free if tightened is None else tightened


def _stats_to_doc(stats: AccuracyStats) -> dict:
    def col(arr):
        return [None if (isinstance(v, float) and math.isnan(v)) else float(v) for v in arr]

    return {
        "tau_grid": [float(v) for v in stats.tau_grid],
        "mean_alpha_l": col(stats.mean_alpha_l),
        "var_alpha_l": col(stats.var_alpha_l),
        "mean_alpha_u": col(stats.mean_alpha_u),
        "var_alpha_u": col(stats.var_alpha_u),
        "mean_size_l": [float(v) for v in stats.mean_size_l],
        "mean_size_u": [float(v) for v in stats.mean_size_u],
        "num_valid_l": [int(v) for v in stats.num_valid_l],
        "num_valid_u": [int(v) for v in stats.num_valid_u],
    }


def _stats_from_doc(doc: dict) -> AccuracyStats:
    def col(vals):
        return np.array([np.nan if v is None else float(v) for v in vals])

    return AccuracyStats(
        tau_grid=np.array([float(v) for v in doc["tau_grid"]]),
        mean_alpha_l=col(doc["mean_alpha_l"]),
        var_alpha_l=col(doc["var_alpha_l"]),
        mean_alpha_u=col(doc["mean_alpha_u"]),
        var_alpha_u=col(doc["var_alpha_u"]),
        mean_size_l=np.asarray(doc["mean_size_l"], dtype=float),
        mean_size_u=np.asarray(doc["mean_size_u"], dtype=float),
        num_valid_l=np.asarray(doc["num_valid_l"], dtype=int),
        num_valid_u=np.asarray(doc["num_valid_u"], dtype=int),
    )


def save_calibration(cal: Calibration, path: str | Path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "tau_star": cal.tau_star,
        "sigma": cal.sigma,
        "delta": cal.delta,
        "stats": None if cal.stats is None else _stats_to_doc(cal.stats),
    }
    Path(path).write_text(json.dumps(doc))


def load_calibration(path: str | Path) -> Calibration:
    doc = json.loads(Path(path).read_text())
    cal = Calibration(
        tau_star=float(doc["tau_star"]),
        sigma=float(doc["sigma"]),
        delta=float(doc["delta"]),
        stats=None if doc.get("stats") is None else _stats_from_doc(doc["stats"]),
    )
    cal.validate()
    return cal


@dataclass
class CardinalityHyperplane:
    """sum_{j in indices} y_j >=/<= rhs_int, rounded conservatively from zeta."""

    indices: np.ndarray
    sense: str  # ">=" or "<="
    zeta: float
    rhs_int: int


def _make_hyperplane(indices: np.ndarray, sense: str, zeta: float) -> CardinalityHyperplane:
    if sense == ">=":
        rhs = math.floor(zeta + _ROUND_EPS)
    else:
        rhs = math.ceil(zeta - _ROUND_EPS)
    rhs = min(max(rhs, 0), len(indices))
    return CardinalityHyperplane(indices=indices, sense=sense, zeta=zeta, rhs_int=rhs)


def build_hyperplanes(
    p: Prediction | np.ndarray,
    tau: float,
    sigma: float,
    delta: float,
    mode: str = "plain",
) -> tuple[CardinalityHyperplane | None, CardinalityHyperplane | None]:
    """The two cardinality cuts induced by rounding p at threshold tau.

    plain mode uses the guaranteed mass tau|U| (resp. (1-tau)|L|);
    tightened mode replaces it with the actual probability mass over the
    set.  Both subtract/add the Chebyshev margin sigma|S|/sqrt(delta).
    Hyperplane intercepts round conservatively (floor for >=, ceil for <=)
    so the integer cut relaxes the real one.  A side with an empty set
    yields None.
    """
    if mode not in ("plain", "tightened"):
        raise ValueError(f"bad mode {mode!r}")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    probs = p.probabilities if isinstance(p, Prediction) else np.asarray(p, dtype=float)
    up, down, _ = round_prediction(probs, tau)
    cut_up = None
    cut_down = None
    if len(up):
        base = probs[up].sum() if mode == "tightened" else tau * len(up)
        zeta1 = base - sigma * len(up) / math.sqrt(delta)
        cut_up = _make_hyperplane(up, ">=", zeta1)
    if len(down):
        base = probs[down].sum() if mode == "tightened" else (1.0 - tau) * len(down)
        zeta2 = base + sigma * len(down) / math.sqrt(delta)
        cut_down = _make_hyperplane(down, "<=", zeta2)
    return cut_up, cut_down


def partition_regions(
    cut_up: CardinalityHyperplane | None, cut_down: CardinalityHyperplane | None
) -> list[tuple[str, list[tuple[int, int]]]]:
    """The partition's regions as (label, one count interval per hyperplane).

    A >= r cut keeps t_S in [r, |S|] and flips to its integer complement
    [0, r-1]; a <= r cut keeps [0, r] and flips to [r+1, |S|].  The
    regions are keep/flip over each hyperplane that exists, in the order
    keep_keep, keep_flip, flip_keep, flip_flip (keep, flip for one
    hyperplane; all for none), so every 0/1 point lies in exactly one.
    A region with an empty interval is left out.
    """
    sides = []
    for h in (cut_up, cut_down):
        if h is None:
            continue
        r, size = h.rhs_int, len(h.indices)
        if h.sense == ">=":
            sides.append((("keep", (r, size)), ("flip", (0, r - 1))))
        else:
            sides.append((("keep", (0, r)), ("flip", (r + 1, size))))
    return [
        ("_".join(label for label, _ in choice) or "all", [box for _, box in choice])
        for choice in itertools.product(*sides)
        if all(lo <= hi for _, (lo, hi) in choice)
    ]


@dataclass
class RegionRecord:
    """Nodes and seconds the tree spent below one region's root."""

    label: str
    nodes: int
    seconds: float


@dataclass
class PartitionReport:
    """The tree's solve report plus the per-region records and the cuts used."""

    best: SolveReport
    regions: list[RegionRecord]
    best_region: str | None  # label of the region that held the best solution
    hyperplanes: tuple[CardinalityHyperplane | None, CardinalityHyperplane | None]
    mode: str


def partition_solve(
    instance: MipInstance,
    prediction: Prediction,
    calibration: Calibration,
    options: SolveOptions | None = None,
    mode: str = "exact",
    tightened: bool = False,
) -> PartitionReport:
    """Solve via the probabilistic partition, as one branch-and-bound tree.

    One continuous count column t_S = sum_{j in S} y_j is appended per
    hyperplane, with an equality row and bounds [0, |S|], so each region
    is a box on these columns (``partition_regions``).  Exact mode roots
    the tree at every non-empty region; the regions cover every 0/1
    point, so the shared incumbent is the plain optimum.  Heuristic mode
    roots it at the first region alone and reports "feasible".  The
    count columns are stripped from the returned solution.
    """
    if mode not in ("heuristic", "exact"):
        raise ValueError(f"bad mode {mode!r}")
    calibration.validate()
    cut_up, cut_down = build_hyperplanes(
        prediction,
        calibration.tau_star,
        calibration.sigma,
        calibration.delta,
        mode="tightened" if tightened else "plain",
    )
    planes = [h for h in (cut_up, cut_down) if h is not None]
    n = instance.num_vars
    counted = replace(
        instance,
        num_continuous=instance.num_continuous + len(planes),
        rows=instance.rows + [
            LinearRow([(int(j), 1.0) for j in h.indices] + [(n + k, -1.0)], "=", 0.0)
            for k, h in enumerate(planes)
        ],
        continuous_bounds=instance.continuous_bounds
        + [(0.0, float(len(h.indices))) for h in planes],
    )
    regions = partition_regions(cut_up, cut_down)
    if mode == "heuristic":
        regions = regions[:1]
    boxes = []
    for _, counts in regions:
        lb, ub = counted.bounds_arrays()
        for k, (lo, hi) in enumerate(counts):
            lb[n + k], ub[n + k] = lo, hi
        boxes.append((lb, ub))
    rep = solve_mip(counted, options=options, roots=boxes)

    status = "feasible" if mode == "heuristic" and rep.status == "optimal" else rep.status
    solution = rep.best_solution
    if solution is not None:
        solution = replace(solution, values=solution.values[:n],
                           status="optimal" if status == "optimal" else "feasible")
    return PartitionReport(
        best=replace(rep, best_solution=solution, status=status),
        regions=[RegionRecord(label, nodes, secs)
                 for (label, _), nodes, secs in zip(regions, rep.root_nodes, rep.root_seconds)],
        best_region=None if rep.best_root is None else regions[rep.best_root][0],
        hyperplanes=(cut_up, cut_down),
        mode=mode,
    )
