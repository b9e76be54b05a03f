"""Per-variable probability predictors for binary MIP solutions.

Three sources: per-variable logistic models trained on solved instances
of a family, the LP root relaxation (simplex or interior point), and
external prediction files.  All produce a Prediction whose entries live
in [0, 1].

The logistic models of all variables are fitted together by batched
damped Newton steps in the row space of the standardized features, while
each model keeps its own line search, stopping rule and iteration count.
"""

from __future__ import annotations

import contextlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lp
from .model import (FORMAT_VERSION, MalformedDocumentError, MipInstance, _check_sparse,
                    _decode_real, _decode_reals, decode)

_P_FLOOR = 1e-9  # probability clamp for intercept-only models


@dataclass
class Prediction:
    """Per-binary-variable probabilities."""

    probabilities: np.ndarray

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        # written so that NaN, which fails every comparison, is rejected too
        if not np.all((self.probabilities >= 0) & (self.probabilities <= 1)):
            raise ValueError("probabilities must lie in [0, 1]")


@dataclass
class LogisticModel:
    """One logistic classifier per binary variable over standardized features."""

    weights: np.ndarray  # (num_vars, num_features)
    intercepts: np.ndarray  # (num_vars,)
    feature_mean: np.ndarray
    feature_std: np.ndarray
    regularization: float
    iterations: list[int] = field(default_factory=list)
    loss_trace: list[list[float]] = field(default_factory=list)
    fitted_on: list[str] = field(default_factory=list)  # names of the fit part's instances

    @property
    def num_vars(self) -> int:
        return self.weights.shape[0]

    @property
    def num_features(self) -> int:
        return self.weights.shape[1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # at most 1, so it never overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def logistic_loss(w: np.ndarray, b, x: np.ndarray, y: np.ndarray, reg: float):
    """Mean logistic loss plus (reg/2)*||w||^2 (the intercept is unpenalized).

    ``w`` is one weight vector, or a (k, f) stack of them with ``b`` a
    k-vector and ``y`` an (n, k) label matrix; a stack gives its k losses.
    """
    z = x @ w.T + b
    # softplus(z) - y z is the negative log-likelihood per sample
    nll = (np.logaddexp(0.0, z) - y * z).sum(axis=0) / len(x)
    loss = nll + 0.5 * reg * np.einsum("...i,...i", w, w)
    return float(loss) if np.ndim(w) == 1 else loss


def logistic_gradient(w: np.ndarray, b, x: np.ndarray, y: np.ndarray, reg: float):
    """Gradient of ``logistic_loss`` in (w, b), for one weight vector or a stack."""
    r = _sigmoid(x @ w.T + b) - y
    gw = r.T @ x / len(x) + reg * w
    gb = r.sum(axis=0) / len(x)
    return gw, (float(gb) if np.ndim(w) == 1 else gb)


def _newton_directions(hess: np.ndarray, grad: np.ndarray, gnorm2: np.ndarray):
    """Each model's Newton direction H^-1 g and decrement g^T H^-1 g.

    A model whose Hessian is singular, or whose direction is not finite
    or not a descent direction, takes its gradient g and ||g||^2 instead.
    """
    try:
        direction = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # some Hessian is exactly singular: solve one by one
        direction = np.full_like(grad, np.nan)
        for j in range(len(grad)):
            with contextlib.suppress(np.linalg.LinAlgError):
                direction[j] = np.linalg.solve(hess[j], grad[j])
    decrement = np.einsum("ij,ij->i", grad, direction)
    ascent = ~(np.isfinite(decrement) & (decrement > 0.0))
    direction[ascent], decrement[ascent] = grad[ascent], gnorm2[ascent]
    return direction, decrement


def logistic_train(
    dataset: list[tuple[np.ndarray, np.ndarray]],
    reg: float = 1e-4,
    max_iters: int = 500,
    tol: float = 1e-6,
) -> LogisticModel:
    """Train one logistic model per binary variable on (features, labels) pairs.

    Features are standardized with the training-set mean/std.  Variables
    whose labels are constant across the dataset short-circuit to an
    intercept-only model.  The others are fitted together by damped
    Newton steps from zero weights.  The penalized optimum lies in the
    row space of the standardized features (stationarity gives
    w = -Xs^T r / (n reg)), so with the thin SVD Xs = U S V^T each model
    fits coefficients c on Xs V, over the r <= n directions with a
    non-negligible singular value, and w = V c: an exact
    reparametrization in which one step solves one (r+1)-square system
    per model.  A model whose Newton direction is not finite or not a
    descent direction takes its gradient for that step.  Each model
    takes its own backtracking (Armijo) step on its Newton decrement and
    stops on its own, when its gradient norm reaches ``tol``, after
    ``max_iters`` steps, or when no productive step is left, and a
    stopped model never moves again.  Training is deterministic.
    """
    if len(dataset) < 2:
        raise ValueError("need at least two training samples")
    x = np.asarray([np.asarray(f, dtype=float) for f, _ in dataset])
    labels = np.asarray([np.asarray(y, dtype=float) for _, y in dataset])
    if x.ndim != 2 or labels.ndim != 2:
        raise ValueError("inconsistent feature or label dimensions")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    xs = (x - mean) / std
    _, sv, vt = np.linalg.svd(xs, full_matrices=False)
    v = vt[sv > sv.max(initial=0.0) * max(xs.shape) * np.finfo(float).eps].T
    z = xs @ v  # (n, r): the samples in the row-space coordinates
    design = np.column_stack([z, np.ones(len(z))])  # the intercept is the last coordinate
    penalty = np.append(np.full(v.shape[1], reg), 0.0)

    n_vars = labels.shape[1]
    const = np.all(labels == labels[0], axis=0)
    p = np.clip(labels[0, const], _P_FLOOR, 1.0 - _P_FLOOR)
    weights = np.zeros((n_vars, x.shape[1]))
    intercepts = np.zeros(n_vars)
    intercepts[const] = np.log(p / (1.0 - p))
    loss = logistic_loss(weights, intercepts, xs, labels, reg)
    history = [loss.copy()]
    iterations = np.zeros(n_vars, dtype=int)
    # the models still descending, their (c, b) rows, labels and losses
    live = np.flatnonzero(~const)
    theta, y, f = np.zeros((live.size, design.shape[1])), labels[:, live], loss[live]
    for it in range(max_iters):
        if not live.size:
            break
        c, b = theta[:, :-1], theta[:, -1]
        grad = np.column_stack(logistic_gradient(c, b, z, y, reg))
        logit = z @ c.T + b  # (n, k)
        # p (1 - p) as sigma(z) sigma(-z), which keeps its precision where p rounds to 1
        curv = _sigmoid(logit) * _sigmoid(-logit)
        hess = np.einsum("si,sk,sj->kij", design, curv, design) / len(z) + np.diag(penalty)
        gnorm2 = np.einsum("ij,ij->i", grad, grad)
        direction, decrement = _newton_directions(hess, grad, gnorm2)
        # every model still searching tries the same step, 1.0 halved each round
        moved = np.zeros(live.size, dtype=bool)
        search = np.flatnonzero(np.sqrt(gnorm2) > tol)
        step = 1.0
        while search.size and step > 1e-12:
            trial_theta = theta[search] - step * direction[search]
            trial = logistic_loss(
                trial_theta[:, :-1], trial_theta[:, -1], z, y[:, search], reg
            )
            # a tie is no step, though the Armijo term may round away against f
            ok = (trial <= f[search] - 1e-4 * step * decrement[search]) & (trial < f[search])
            hit = search[ok]
            theta[hit], f[hit], moved[hit] = trial_theta[ok], trial[ok], True
            search = search[~ok]
            step *= 0.5
        if not moved.all():  # a model that took no step has stopped for good
            done = live[~moved]
            weights[done] = theta[~moved, :-1] @ v.T
            intercepts[done], iterations[done] = theta[~moved, -1], it
            live, theta, y, f = live[moved], theta[moved], y[:, moved], f[moved]
        loss[live] = f
        history.append(loss.copy())
    # the models still live stopped at the cap
    weights[live] = theta[:, :-1] @ v.T
    intercepts[live], iterations[live] = theta[:, -1], max_iters
    history = np.asarray(history)
    return LogisticModel(
        weights=weights,
        intercepts=intercepts,
        feature_mean=mean,
        feature_std=std,
        regularization=reg,
        iterations=iterations.tolist(),
        loss_trace=[history[: k + 1, j].tolist() for j, k in enumerate(iterations)],
    )


def logistic_predict(model: LogisticModel, xi: np.ndarray) -> Prediction:
    """Probabilities for one feature vector under the trained model."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (model.num_features,):
        raise ValueError(
            f"feature vector has shape {xi.shape}, expected ({model.num_features},)"
        )
    z = model.weights @ ((xi - model.feature_mean) / model.feature_std) + model.intercepts
    p = np.clip(_sigmoid(z), 1e-15, 1.0 - 1e-15)
    return Prediction(probabilities=p)


def lp_root_predict(instance: MipInstance, backend: str = "simplex") -> Prediction:
    """Use the LP root relaxation values of the binaries as probabilities."""
    if backend == "simplex":
        sol = lp.solve_simplex(instance)
    elif backend == "ipm":
        sol = lp.solve_ipm(instance)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if sol.status != "optimal":
        raise ValueError(f"root relaxation is {sol.status}; cannot predict")
    p = np.clip(sol.primal[: instance.num_binary], 0.0, 1.0)
    return Prediction(probabilities=p)


def predictor(name: str, model: LogisticModel | None = None):
    """The function instance -> Prediction behind a predictor name.

    Names: ``logistic`` (needs ``model``; features are the instance's
    ``param_tag``), ``lp-root-simplex``, ``lp-root-ipm`` and
    ``file:<dir>`` (``<dir>/<instance-name>.pred.json`` files).
    """
    if name == "logistic":
        if model is None:
            raise ValueError("the logistic predictor needs a model")
        return lambda inst: logistic_predict(model, np.array(inst.param_tag))
    if name in ("lp-root-simplex", "lp-root-ipm"):
        backend = name[len("lp-root-"):]
        return lambda inst: lp_root_predict(inst, backend=backend)
    if name.startswith("file:"):
        pred_dir = name[len("file:"):]
        return lambda inst: load_prediction_from_dir(pred_dir, inst)
    raise ValueError(f"unknown predictor {name!r}")


def save_prediction(prediction: Prediction, path: str | Path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "predictions": [
            {"index": j, "probability": float(p)}
            for j, p in enumerate(prediction.probabilities)
        ],
    }
    Path(path).write_text(json.dumps(doc))


def load_prediction_from_dir(pred_dir: str | Path, instance) -> Prediction:
    """The instance's prediction from a directory of ``<name>.pred.json`` files."""
    return load_prediction(Path(pred_dir) / f"{instance.name}.pred.json", instance.num_binary)


def load_prediction(path: str | Path, n: int) -> Prediction:
    """Load an external prediction file for an instance with n binaries.

    Every index 0..n-1 must appear exactly once, as an integer, with a
    finite probability (``model._check_sparse``).  Out-of-range
    probabilities are clamped into [0, 1] with a warning rather than
    rejected.
    """
    entries = decode(Path(path).read_bytes(), lambda doc: [
        (entry["index"], _decode_real(entry["probability"], "prediction"))
        for entry in doc["predictions"]
    ])
    _check_sparse(entries, n, "prediction")
    if len(entries) < n:
        raise ValueError(f"prediction file covers {len(entries)} of {n} variables")
    p = np.array([val for _, val in sorted(entries)])  # one entry per index 0..n-1
    clipped = np.clip(p, 0.0, 1.0)
    if np.any(clipped != p):
        bad = int(np.sum(clipped != p))
        warnings.warn(
            f"{bad} prediction(s) outside [0, 1] were clamped", stacklevel=2
        )
    return Prediction(probabilities=clipped)


def save_model(model: LogisticModel, path: str | Path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "weights": model.weights.tolist(),
        "intercepts": model.intercepts.tolist(),
        "feature_mean": model.feature_mean.tolist(),
        "feature_std": model.feature_std.tolist(),
        "regularization": model.regularization,
        "iterations": model.iterations,
        "fitted_on": model.fitted_on,
    }
    Path(path).write_text(json.dumps(doc))


def load_model(path: str | Path) -> LogisticModel:
    """Read a model file.  Its arrays and regularization hold JSON numbers;
    weights must be (k, f), intercepts (k,), and feature_mean and
    feature_std (f,), all finite, with feature_std > 0.  A field that
    breaks this is a MalformedDocumentError naming it."""
    model = decode(Path(path).read_bytes(), lambda doc: LogisticModel(
        weights=_decode_reals(doc["weights"], "weights"),
        intercepts=_decode_reals(doc["intercepts"], "intercepts"),
        feature_mean=_decode_reals(doc["feature_mean"], "feature_mean"),
        feature_std=_decode_reals(doc["feature_std"], "feature_std"),
        regularization=_decode_real(doc["regularization"], "regularization"),
        iterations=list(doc.get("iterations", [])),
        fitted_on=list(doc.get("fitted_on", [])),
    ))
    if model.weights.ndim != 2:
        raise MalformedDocumentError(f"weights: shape {model.weights.shape} is not (k, f)")
    k, f = model.weights.shape
    for name, shape in (("weights", (k, f)), ("intercepts", (k,)), ("feature_mean", (f,)),
                        ("feature_std", (f,))):
        arr = getattr(model, name)
        if arr.shape != shape:
            raise MalformedDocumentError(f"{name}: shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise MalformedDocumentError(f"{name}: every entry must be finite")
    if not np.all(model.feature_std > 0):
        raise MalformedDocumentError("feature_std: every entry must be positive")
    return model
