"""Probabilistic cardinality branching: calibration, hyperplanes and the
four-region solve.

From per-variable probabilities we round a confident-up set U (p >= tau)
and a confident-down set L (p <= 1 - tau), pool their risk into two
cardinality hyperplanes

    sum_{j in U} y_j >= zeta_1      sum_{j in L} y_j <= zeta_2

whose intercepts carry a Chebyshev-style slack sigma|S|/sqrt(delta), and
partition the feasible region by the two cuts and their integer
complements.  The partition is a branching disjunction: each region is
a box on one count column per hyperplane, a child of the root LP of a
single branch-and-bound tree.  Searching all of them preserves
exactness; searching the cut region alone is the heuristic.  Exact mode
takes the disjunction only when it beats branching on a variable at the
root (``bnb``'s root gate) and otherwise searches one plain tree.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bnb import GATE_RATIO, Gate, SolveOptions, SolveReport, solve_mip
from .model import (FORMAT_VERSION, LinearRow, MalformedDocumentError, MipInstance, _decode_real,
                    _is_integer, decode)
from .predict import Prediction

# Threshold grid used for calibration curves; thresholds must exceed 0.5
# so the rounded-up and rounded-down sets cannot overlap.
DEFAULT_TAU_GRID = np.round(np.arange(51, 101) / 100.0, 2)

_ROUND_EPS = 1e-9  # absorbs float noise before the conservative rounding


class NoFeasibleThresholdError(ValueError):
    """No grid threshold dominates both mean accuracy curves."""


def _rounding_masks(probs: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The rounding rule, on probabilities of any shape: (up, down) masks
    with up where p >= tau (inclusive) and down where p <= 1 - tau.

    Requires tau in (0.5, 1], so no probability is rounded both ways.
    """
    if not 0.5 < tau <= 1.0:
        raise ValueError(f"tau must be in (0.5, 1], got {tau}")
    return probs >= tau, probs <= 1.0 - tau


def round_prediction(
    p: Prediction | np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split variable indices into (up, down, unrounded) sets at threshold tau
    (``_rounding_masks``)."""
    probs = p.probabilities if isinstance(p, Prediction) else np.asarray(p, dtype=float)
    up, down = _rounding_masks(probs, tau)
    return np.nonzero(up)[0], np.nonzero(down)[0], np.nonzero(~(up | down))[0]


@dataclass
class AccuracyStats:
    """Mean/variance of the rounded-set accuracies along the threshold grid.

    Instances whose set is empty at a grid point are skipped on that side
    (the num_valid arrays keep the bookkeeping); grid points with no valid
    instance report NaN means and variances.  Every column has one entry
    per grid point, and the field order is the key order of a calibration
    file's ``stats``; a column is float unless its field says otherwise.
    """

    tau_grid: np.ndarray
    mean_alpha_l: np.ndarray
    var_alpha_l: np.ndarray
    mean_alpha_u: np.ndarray
    var_alpha_u: np.ndarray
    mean_size_l: np.ndarray
    mean_size_u: np.ndarray
    num_valid_l: np.ndarray = field(metadata={"dtype": int})
    num_valid_u: np.ndarray = field(metadata={"dtype": int})

    def validate(self) -> None:
        g = self.tau_grid
        for f in fields(self):
            if (n := len(getattr(self, f.name))) != len(g):
                raise ValueError(f"stats column {f.name} has {n} entries for {len(g)} grid points")
        if not np.all(np.diff(g) > 0):
            raise ValueError("tau grid must be strictly increasing")
        if not np.all((g > 0.5) & (g <= 1.0)):
            raise ValueError("tau grid must lie in (0.5, 1]")
        for arr in (self.var_alpha_l, self.var_alpha_u):
            if np.any(arr[~np.isnan(arr)] < 0):
                raise ValueError("variances must be non-negative")
        for arr in (self.mean_size_l, self.mean_size_u):
            if np.any(np.diff(arr) > 1e-9):
                raise ValueError("mean set sizes must be non-increasing in tau")

    def index_of(self, tau: float) -> int:
        """The grid index of tau; a tau off the grid has no measured variance."""
        hits = np.nonzero(np.isclose(self.tau_grid, tau, rtol=0, atol=1e-12))[0]
        if not len(hits):
            g = self.tau_grid
            raise ValueError(
                f"tau={tau} is not on the calibration grid ({g[0]:g}, {g[min(1, len(g) - 1)]:g}, "
                f"..., {g[-1]:g}), so no variance gives its sigma; choose a grid tau "
                "or give sigma yourself (--sigma)")
        return int(hits[0])


def accuracy_curves(
    pairs: list[tuple[Prediction | np.ndarray, np.ndarray]],
    tau_grid: np.ndarray | None = None,
) -> AccuracyStats:
    """Per-threshold accuracy statistics over (prediction, true solution) pairs.

    For each instance and threshold, the up-accuracy is the fraction of the
    rounded-up set whose true value is 1 (and symmetrically for the
    rounded-down set); means and population variances are taken over the
    instances where the respective set is non-empty.  Each threshold
    rounds all pairs at once, as one (pairs x variables) mask per side,
    and reduces the per-instance accuracies, one array per side, in
    instance order, so the statistics equal those of rounding each
    instance on its own bit for bit.
    """
    if len(pairs) < 2:
        raise ValueError("need at least two (prediction, solution) pairs")
    grid = DEFAULT_TAU_GRID if tau_grid is None else np.asarray(tau_grid, dtype=float)
    probs = [p.probabilities if isinstance(p, Prediction) else np.asarray(p, dtype=float)
             for p, _ in pairs]
    truths = [np.round(np.asarray(y, dtype=float)) for _, y in pairs]
    if any(pv.shape != yv.shape for pv, yv in zip(probs, truths)):
        raise ValueError("prediction and solution lengths differ")
    if len({pv.shape for pv in probs}) > 1:
        raise ValueError("inconsistent lengths across pairs")
    probs, truths = np.array(probs), np.array(truths)

    # row 0 is the up side, row 1 the down side: a 1 rounded up is right,
    # and so is a 0 rounded down
    right = (truths == 1, truths == 0)
    k = len(grid)
    mean, var = np.full((2, k), np.nan), np.full((2, k), np.nan)
    size, valid = np.zeros((2, k)), np.zeros((2, k), dtype=int)
    for i, tau in enumerate(grid):
        for s, rounded in enumerate(_rounding_masks(probs, float(tau))):
            sizes = rounded.sum(axis=1)
            some = sizes > 0
            alphas = (rounded & right[s]).sum(axis=1)[some] / sizes[some]
            size[s, i], valid[s, i] = np.mean(sizes), len(alphas)
            if len(alphas):
                mean[s, i], var[s, i] = np.mean(alphas), np.var(alphas)

    out = AccuracyStats(
        tau_grid=grid,
        mean_alpha_l=mean[1], var_alpha_l=var[1], mean_alpha_u=mean[0], var_alpha_u=var[0],
        mean_size_l=size[1], mean_size_u=size[0], num_valid_l=valid[1], num_valid_u=valid[0],
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
    """Variance-bound sigma at grid tau: sqrt of the larger accuracy
    variance over the sides with a valid instance, 0 when neither has one."""
    i = stats.index_of(tau)
    sides = ((stats.var_alpha_l, stats.num_valid_l), (stats.var_alpha_u, stats.num_valid_u))
    return float(math.sqrt(max((var[i] for var, num_valid in sides if num_valid[i]), default=0.0)))


def check_margin(sigma: float | None, delta: float | None) -> None:
    """The Chebyshev margin sigma|S|/sqrt(delta) needs a finite sigma >= 0
    and delta in (0, 1); written so that NaN fails, and None (not given)
    passes."""
    if sigma is not None and not 0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and non-negative")
    if delta is not None and not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")


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
        check_margin(self.sigma, self.delta)
        if self.stats is not None:
            self.stats.validate()
        worst = 0.0 if self.stats is None else sigma_from_stats(self.stats, self.tau_star) ** 2
        if self.sigma**2 < worst - 1e-12:
            raise ValueError("sigma^2 is below the accuracy variance at tau_star")


def calibration_at(stats: AccuracyStats, tau: float, delta: float) -> Calibration:
    """The calibration at a given grid tau: sigma from the variance there, no stats kept.

    sigma is 0 when no instance is valid at tau.  A tau off the grid has
    no measured variance, so it raises ValueError (``index_of``) rather
    than taking the narrowest margin.
    """
    cal = Calibration(tau_star=tau, sigma=sigma_from_stats(stats, tau), delta=delta)
    cal.validate()
    return cal


def calibrate(
    pairs: list[tuple[Prediction | np.ndarray, np.ndarray]], delta: float = 0.05
) -> Calibration:
    """Pick tau* from accuracy curves and bound sigma by the variance there.

    tau* is the largest grid threshold that both mean accuracy curves
    reach (``select_tau``).  When none qualifies, tau* is the largest
    grid threshold where one rounded set is empty on every instance and
    the other curve reaches it, with a warning; when there is none
    either, tau* = 0.9 and sigma = 0, with a warning.
    """
    stats = accuracy_curves(pairs)
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
) -> tuple[Calibration, bool, float | None]:
    """The calibration and the tightened flag a partition solve runs with,
    and the delta that ``solve`` and ``bench`` claim for its cuts.

    A given ``cal`` (a calibration file, or ``bench``'s own calibration)
    supplies tau and delta unless ``tau`` or ``delta`` is given; a new
    ``tau`` takes its sigma from the calibration's stats
    (``calibration_at``), or keeps its sigma when it has none.
    Otherwise tau defaults to 0.9, sigma is 0, and delta defaults to
    1e-8 for a data-free predictor (``lp-root-*``) and to 0.05 for any
    other.  Cuts are tightened by default only for a data-free predictor
    without a calibration.  A user ``sigma`` replaces the calibrated one
    and drops the accuracy stats, whose variance no longer bounds it.

    The claimed delta is None for a data-free predictor without a
    calibration and with sigma 0: its cuts then carry no Chebyshev
    margin, so no delta bounds how often they miss the optimum.  The
    returned calibration keeps its delta (1e-8 by default), which the
    cut arithmetic still reads.  It is validated, so a tau, sigma or
    delta out of range raises ValueError before any prediction or solve.
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
    cal.validate()
    claimed = None if data_free and cal.sigma == 0 else cal.delta
    return cal, data_free if tightened is None else tightened, claimed


def _stats_to_doc(stats: AccuracyStats) -> dict:
    def column(f):
        vals = np.asarray(getattr(stats, f.name), f.metadata.get("dtype", float)).tolist()
        return [None if v != v else v for v in vals]  # NaN is written as null

    return {f.name: column(f) for f in fields(AccuracyStats)}


def _stats_from_doc(doc: dict) -> AccuracyStats:
    def column(f):
        where = f"stats column {f.name}"
        if f.metadata.get("dtype") is int:
            bad = [v for v in doc[f.name] if not _is_integer(v)]
            if bad:
                raise MalformedDocumentError(f"{where}: {bad[0]!r} is not an integer")
            return np.array(doc[f.name], dtype=int)
        # a float column writes NaN as null
        return np.array([np.nan if v is None else _decode_real(v, where) for v in doc[f.name]])

    return AccuracyStats(**{f.name: column(f) for f in fields(AccuracyStats)})


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
    cal = decode(Path(path).read_bytes(), lambda doc: Calibration(
        tau_star=_decode_real(doc["tau_star"], "tau_star"),
        sigma=_decode_real(doc["sigma"], "sigma"),
        delta=_decode_real(doc["delta"], "delta"),
        stats=None if doc.get("stats") is None else _stats_from_doc(doc["stats"]),
    ))
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
    tightened: bool = False,
) -> tuple[CardinalityHyperplane | None, CardinalityHyperplane | None]:
    """The two cardinality cuts induced by rounding p at threshold tau.

    The cuts use the guaranteed mass tau|U| (resp. (1-tau)|L|); tightened
    cuts replace it with the actual probability mass over the set.  Both
    subtract/add the Chebyshev margin sigma|S|/sqrt(delta).
    Hyperplane intercepts round conservatively (floor for >=, ceil for <=)
    so the integer cut relaxes the real one.  A side with an empty set
    yields None.
    """
    check_margin(sigma, delta)
    probs = p.probabilities if isinstance(p, Prediction) else np.asarray(p, dtype=float)
    up, down, _ = round_prediction(probs, tau)
    cut_up = None
    cut_down = None
    if len(up):
        base = probs[up].sum() if tightened else tau * len(up)
        zeta1 = base - sigma * len(up) / math.sqrt(delta)
        cut_up = _make_hyperplane(up, ">=", zeta1)
    if len(down):
        base = probs[down].sum() if tightened else (1.0 - tau) * len(down)
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

    @property
    def gate(self) -> Gate | None:
        """The root gate's decision and scores, None where it did not apply."""
        return self.best.gate


def partition_solve(
    instance: MipInstance,
    prediction: Prediction,
    calibration: Calibration,
    options: SolveOptions | None = None,
    mode: str = "exact",
    tightened: bool = False,
    gate: float | None = GATE_RATIO,
) -> PartitionReport:
    """Solve via the probabilistic partition, as one branch-and-bound tree.

    One continuous count column t_S = sum_{j in S} y_j is appended per
    hyperplane, with an equality row and bounds [0, |S|], so each region
    is a box on these columns (``partition_regions``).  Exact mode roots
    the tree at every non-empty region; the regions cover every 0/1
    point, so the shared incumbent is the plain optimum.  With a ``gate``
    ratio, ``solve_mip``'s root gate may instead root the tree at the
    whole box, reported as the one region "all"; ``gate=None`` always
    takes the regions, the paper's rule.  Heuristic mode
    roots it at the first region alone and reports "feasible".  The
    count columns are stripped from the returned solution.
    """
    if mode not in ("heuristic", "exact"):
        raise ValueError(f"bad mode {mode!r}")
    if len(prediction.probabilities) != instance.num_binary:
        raise ValueError(f"the prediction has {len(prediction.probabilities)} probabilities "
                         f"for the instance's {instance.num_binary} binaries")
    calibration.validate()
    cut_up, cut_down = build_hyperplanes(prediction, calibration.tau_star, calibration.sigma,
                                         calibration.delta, tightened)
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
    rep = solve_mip(counted, options=options, roots=boxes, gate=gate)
    if rep.gate is not None and not rep.gate.taken:
        regions = [("all", [])]

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
    )
