"""Spans around the program's layer entry points, and the per-layer metrics.

The tracer wraps public functions from outside the program: each target
function is replaced, in every ``probranch`` module that holds a
reference to it, by a wrapper that records a span (name, start, end,
parent, attributes).  The wrappers are in place only between
``install`` and ``uninstall``, so untraced work runs the program's own
functions.  Spans stay in memory until the run writes them.  A target
that no longer exists is skipped, and the metrics that need it are left
out of the result.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


def _nodes(rep):
    return {"nodes": rep.nodes}


def _iterations(res):
    return {"iterations": res.iterations}


def _logistic_iters(model):
    return {"iterations": int(sum(model.iterations))}


# (module, function, span name, attributes read off the return value)
TARGETS = [
    ("probranch.cli", "main", "cli", None),
    ("probranch.model", "serialize", "model.serialize", None),
    ("probranch.model", "deserialize", "model.deserialize", None),
    ("probranch.generators", "gen_mkp", "generators.gen", None),
    ("probranch.generators", "gen_scp", "generators.gen", None),
    ("probranch.generators", "gen_ca", "generators.gen", None),
    ("probranch.generators", "gen_knapsack_uniform", "generators.gen", None),
    ("probranch.generators", "write_family", "generators.family_io", None),
    ("probranch.generators", "read_family", "generators.family_io", None),
    ("probranch._simplex", "solve_bounded_lp", "lp.simplex", _iterations),
    ("probranch.lp", "solve_ipm", "lp.ipm", None),
    ("probranch.lp", "fractional_knapsack", "lp.fractional_knapsack", None),
    ("probranch.bnb", "solve_mip", "bnb", _nodes),
    ("probranch.predict", "logistic_train", "predict.logistic_train", _logistic_iters),
    ("probranch.predict", "lp_root_predict", "predict.lp_root", None),
    ("probranch.branching", "partition_solve", "branching.partition", None),
    ("probranch.branching", "accuracy_curves", "branching.calibration", None),
    ("probranch.branching", "select_tau", "branching.calibration", None),
    ("probranch.branching", "calibrate", "branching.calibration", None),
    ("probranch.bench", "run_benchmark", "bench.run_benchmark", None),
    ("probranch.bench", "verify_lemma", "bench.validators", None),
    ("probranch.bench", "verify_knapsack_rounding", "bench.validators", None),
]

@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self.present: set[str] = set()  # span names whose target exists
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                out = fn(*args, **kwargs)
                if attrs_of is not None:
                    span.attrs = attrs_of(out)
                return out
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, attrs_of in TARGETS:
            try:
                fn = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(fn, name, attrs_of)
            self.present.add(name)
            for mod in list(sys.modules.values()):
                mod_name_ = getattr(mod, "__name__", "")
                if mod_name_ != "probranch" and not mod_name_.startswith("probranch."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._undo):
            setattr(mod, key, fn)
        self._undo.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, **s.attrs}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded; absent targets drop out."""
        by_id = {s.id: s for s in self.spans}
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)

        def named(name):
            return [s for s in self.spans if s.name == name]

        def inclusive(name):
            # outermost spans only, so nested calls are not counted twice
            total = 0.0
            for s in named(name):
                p = s.parent
                while p is not None and by_id[p].name != name:
                    p = by_id[p].parent
                if p is None:
                    total += s.seconds
            return total

        def self_time(name):
            return sum((s.seconds - sum(c.seconds for c in children.get(s.id, []))
                        for s in named(name)), 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        have = self.present.__contains__
        if have("model.deserialize"):
            out["model.deserialize_s"] = inclusive("model.deserialize")
            out["model.deserialize_calls"] = len(named("model.deserialize"))
        if have("model.serialize"):
            out["model.serialize_s"] = inclusive("model.serialize")
        if have("generators.gen"):
            out["generators.gen_s"] = inclusive("generators.gen")
        if have("generators.family_io"):
            out["generators.family_io_s"] = inclusive("generators.family_io")
        simplex = named("lp.simplex")
        if have("lp.simplex"):
            iters = sum(s.attrs.get("iterations", 0) for s in simplex)
            secs = inclusive("lp.simplex")
            out["lp.simplex_calls"] = len(simplex)
            out["lp.simplex_s"] = secs
            out["lp.simplex_iters"] = iters
            out["lp.simplex_iters_per_call"] = ratio(iters, len(simplex))
            out["lp.simplex_us_per_iter"] = ratio(1e6 * secs, iters)
        if have("lp.ipm"):
            out["lp.ipm_calls"] = len(named("lp.ipm"))
            out["lp.ipm_s"] = inclusive("lp.ipm")
        if have("lp.fractional_knapsack"):
            out["lp.fractional_knapsack_s"] = inclusive("lp.fractional_knapsack")
        if have("bnb"):
            solves = named("bnb")
            nodes = sum(s.attrs.get("nodes", 0) for s in solves)
            secs = inclusive("bnb")
            out["bnb.solves"] = len(solves)
            out["bnb.nodes"] = nodes
            if have("lp.simplex"):
                in_tree = sum(s.attrs.get("iterations", 0) for s in simplex
                              if s.parent is not None and by_id[s.parent].name == "bnb")
                out["bnb.lp_iters_per_node"] = ratio(in_tree, nodes)
            out["bnb.s"] = secs
            out["bnb.self_s"] = self_time("bnb")
            out["bnb.nodes_per_s"] = ratio(nodes, secs)
        if have("predict.logistic_train"):
            fits = named("predict.logistic_train")
            out["predict.logistic_train_s"] = inclusive("predict.logistic_train")
            out["predict.logistic_iters"] = sum(s.attrs.get("iterations", 0) for s in fits)
        if have("predict.lp_root"):
            out["predict.lp_root_s"] = inclusive("predict.lp_root")
        if have("branching.partition"):
            parts = named("branching.partition")
            regions = [[c for c in children.get(p.id, []) if c.name == "bnb"] for p in parts]
            out["branching.partition_solves"] = len(parts)
            out["branching.partition_s"] = inclusive("branching.partition")
            out["branching.partition_self_s"] = self_time("branching.partition")
            out["branching.region_solves"] = sum(len(r) for r in regions)
            out["branching.first_region_nodes"] = sum(
                r[0].attrs.get("nodes", 0) for r in regions if r)
            out["branching.other_region_nodes"] = sum(
                c.attrs.get("nodes", 0) for r in regions for c in r[1:])
        if have("branching.calibration"):
            out["branching.calibration_s"] = inclusive("branching.calibration")
        if have("bench.run_benchmark"):
            out["bench.run_benchmark_s"] = inclusive("bench.run_benchmark")
        if have("bench.validators"):
            out["bench.validators_s"] = inclusive("bench.validators")
            out["bench.validators_self_s"] = self_time("bench.validators")
        if have("cli"):
            out["cli.self_s"] = self_time("cli")
        return out
