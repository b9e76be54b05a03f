"""The three workloads: their inputs, their requests and the checks on each.

A workload writes its inputs in ``setup`` and then lists one round of
requests.  Each request is one ``probranch`` command line; its check
runs after the timed section and returns the problems it found.
Every input is derived from the workload seed, and a round is the same
list of requests each time it runs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from checks import check_verify, exact_tails, highs_optimum, not_better, same_objective

# Far above any request's run time, so a "limit" status means a fault.
TIME_LIMIT = "600"


@dataclass
class Result:
    rc: int
    out: str
    err: str
    seconds: float


@dataclass
class Op:
    """One CLI request; ``check`` sees its result and the round's earlier ones."""

    key: str
    argv: list[str]
    check: Callable[[Result, dict], list[str]]
    nodes: Callable[[Result], int] = lambda r: 0


def _solve_doc(res: Result) -> dict:
    return json.loads(res.out)


def _solve_nodes(res: Result) -> int:
    return int(_solve_doc(res)["nodes"])


def solve_check(path: Path, same_as: str | None = None):
    """A solve must be optimal, match HiGHS and, if named, an earlier solve."""

    def check(res: Result, earlier: dict) -> list[str]:
        doc = _solve_doc(res)
        problems = []
        if doc["status"] != "optimal":
            problems.append(f"status {doc['status']}")
        opt = highs_optimum(path)
        if not same_objective(doc["objective"], opt):
            problems.append(f"objective {doc['objective']} != HiGHS {opt}")
        if same_as is not None:
            other = _solve_doc(earlier[same_as])["objective"]
            if not same_objective(doc["objective"], other):
                problems.append(f"objective {doc['objective']} != {same_as} {other}")
        return problems

    return check


@dataclass
class Workload:
    name: str
    seed: int
    size: dict

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def warmup(self, work: Path) -> list[str]:
        raise NotImplementedError

    def ops(self, work: Path, out: Path) -> list[Op]:
        raise NotImplementedError


class PipelineCa(Workload):
    """The README walkthrough, command by command, on auction families.

    Family f keeps the bundle structure of ``gen_ca``'s template for seed
    f + 1 whatever the workload seed; the workload seed draws every bid
    value, by ``gen_ca``'s own recipe (base value times U[0.8, 1.2]).  A
    structure is one random draw that sets most of a family's cost, so
    fixing the structures, and walking through several small families
    in a round, keeps the seed-to-seed spread low.
    """

    def _family(self, work: Path, f: int) -> Path:
        return work / f"ca_{f:02d}"

    def setup(self, work):
        from probranch import generators

        s = self.size
        for f in range(s["families"]):
            fam = generators.gen_ca(s["items"], s["bids"], 0, seed=f + 1)
            base = np.array([v for _, v in fam.template.objective])
            rng = np.random.default_rng([self.seed, f])
            for i in range(s["count"]):
                values = base * rng.uniform(0.8, 1.2, size=len(base))
                fam.instances.append((values, replace(
                    fam.template, name=f"ca_{f:02d}_{i:03d}",
                    objective=[(j, float(v)) for j, v in enumerate(values)],
                    param_tag=[float(v) for v in values])))
            fam.seed = self.seed
            generators.write_family(fam, self._family(work, f))

    def warmup(self, work):
        inst = self._family(work, 0) / f"instance_{self.size['train']:04d}.json"
        return ["solve", "--instance", str(inst), "--predictor", "lp-root-ipm",
                "--mode", "exact", "--time-limit", TIME_LIMIT]

    def ops(self, work, out):
        s = self.size
        ops: list[Op] = []
        for f in range(s["families"]):
            fam = self._family(work, f)
            dst = out / fam.name
            dst.mkdir(parents=True, exist_ok=True)
            model, calib, report = dst / "model.json", dst / "calib.json", dst / "bench"
            train = ["--train-count", str(s["train"]), "--time-limit", TIME_LIMIT]
            ops.append(Op(f"{fam.name}/train",
                          ["train", "--family", str(fam), *train, "--out", str(model)],
                          _file_check(model, lambda d: len(d["weights"]) == s["bids"])))
            ops.append(Op(f"{fam.name}/calibrate",
                          ["calibrate", "--family", str(fam), "--model", str(model), *train,
                           "--out", str(calib)],
                          _file_check(calib, lambda d: 0.5 < d["tau_star"] <= 1.0)))
            tests = [fam / f"instance_{i:04d}.json" for i in range(s["train"], s["count"])]
            for pred, extra in (("logistic", ["--model", str(model), "--calibration", str(calib)]),
                                ("lp-root-ipm", [])):
                for inst in tests:
                    ops.append(Op(f"{fam.name}/{inst.stem}/{pred}",
                                  ["solve", "--instance", str(inst), "--predictor", pred, *extra,
                                   "--mode", "exact", "--time-limit", TIME_LIMIT],
                                  solve_check(inst), _solve_nodes))
            ops.append(Op(f"{fam.name}/bench",
                          ["bench", "--family", str(fam), "--predictor", "logistic",
                           "--mode", "heuristic", "--test-count", str(len(tests)),
                           "--time-limit", TIME_LIMIT, "--out", str(report)],
                          self._bench_check(report, tests),
                          lambda r, p=report: _bench_nodes(p)))
        return ops

    def _bench_check(self, report: Path, tests: list[Path]):
        def check(res, earlier):
            rows = _bench_rows(report)
            if [r["instance"] for r in rows] != [_name_of(p) for p in tests]:
                return ["bench rows do not match the test split"]
            problems = []
            for row, inst in zip(rows, tests):
                sense = json.loads(inst.read_text())["sense"]
                if row["status_plain"] != "optimal":
                    problems.append(f"{row['instance']}: plain status {row['status_plain']}")
                if row["status_method"] == "infeasible":
                    continue  # the cut region can be empty; heuristic mode then finds nothing
                if row["status_method"] not in ("feasible", "optimal"):
                    problems.append(f"{row['instance']}: method status {row['status_method']}")
                    continue
                opt = highs_optimum(inst)
                if not not_better(float(row["objective"]), opt, sense):
                    problems.append(f"{row['instance']}: heuristic {row['objective']} beats {opt}")
            return problems

        return check


def _name_of(path: Path) -> str:
    return json.loads(path.read_text())["name"]


def _bench_rows(report: Path) -> list[dict]:
    with open(report.with_suffix(".csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def _bench_nodes(report: Path) -> int:
    return sum(int(r["nodes_method"]) + int(r["nodes_plain"]) for r in _bench_rows(report))


def _file_check(path: Path, valid: Callable[[dict], bool]):
    def check(res, earlier):
        try:
            ok = valid(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{path.name}: {exc}"]
        return [] if ok else [f"{path.name}: unexpected content"]

    return check


class ExactMkp(Workload):
    """Tight multi-knapsacks (Chu-Beasley b_i = 0.25 sum_j A_ij), plain and exact.

    The benchmark draws these itself and writes them with the model
    layer's serializer, so the inputs do not move when the program's
    own MKP generator changes.
    """

    def setup(self, work):
        from probranch import model

        s = self.size
        m, n = s["m"], s["n"]
        rng = np.random.default_rng([self.seed, m, n])
        for i in range(s["count"]):
            a = rng.integers(1, 1001, size=(m, n)).astype(float)
            c = a.mean(axis=0) + rng.integers(1, 501, size=n)
            b = 0.25 * a.sum(axis=1)
            inst = model.MipInstance(
                name=f"mkp_{m}x{n}_{i:04d}", sense="maximize", num_binary=n, num_continuous=0,
                objective=[(j, float(c[j])) for j in range(n)],
                rows=[model.LinearRow([(j, float(a[r, j])) for j in range(n)], "<=", float(b[r]))
                      for r in range(m)],
            )
            (work / f"{inst.name}.json").write_bytes(model.serialize(inst))

    def _instances(self, work):
        s = self.size
        return [work / f"mkp_{s['m']}x{s['n']}_{i:04d}.json" for i in range(s["count"])]

    def warmup(self, work):
        return ["solve", "--instance", str(self._instances(work)[0]),
                "--predictor", "lp-root-simplex", "--mode", "exact", "--time-limit", TIME_LIMIT]

    def ops(self, work, out):
        ops = []
        for inst in self._instances(work):
            plain = f"{inst.stem}/plain"
            ops.append(Op(plain, ["solve", "--instance", str(inst), "--mode", "plain",
                                  "--time-limit", TIME_LIMIT],
                          solve_check(inst), _solve_nodes))
            ops.append(Op(f"{inst.stem}/exact",
                          ["solve", "--instance", str(inst), "--predictor", "lp-root-simplex",
                           "--mode", "exact", "--time-limit", TIME_LIMIT],
                          solve_check(inst, same_as=plain), _solve_nodes))
        return ops


class KnapsackVerify(Workload):
    """Uniform knapsacks solved plain, then one Monte-Carlo ``verify --check all``.

    The knapsacks come from the program's own generator,
    ``gen_knapsack_uniform(n, gamma, seed)`` (what ``generate --kind
    knapsack`` writes), one generator seed each: ``first_seed``,
    ``first_seed + 1``, ...  They do not depend on the workload seed.
    On real weights the solver now and then returns a point that
    overfills the knapsack within its feasibility tolerance and beats
    the true optimum (see CHANGES.md); this fixed set holds one such
    instance, so that wrong answer is counted as a failed request, the
    same share of every run.  The workload seed drives ``verify``.
    """

    VERIFY = {"n": 100, "p": 0.5, "t": 10.0, "delta": 0.05, "gamma": 0.3}

    def _instances(self, work):
        return [work / f"knap_{i:04d}.json" for i in range(self.size["count"])]

    def setup(self, work):
        from probranch import generators, model

        s = self.size
        for i, path in enumerate(self._instances(work)):
            uk = generators.gen_knapsack_uniform(s["n"], s["gamma"], s["first_seed"] + i)
            path.write_bytes(model.serialize(uk.instance))

    def warmup(self, work):
        return ["solve", "--instance", str(self._instances(work)[0]), "--mode", "plain",
                "--time-limit", TIME_LIMIT]

    def ops(self, work, out):
        ops = [Op(f"{p.stem}/plain", ["solve", "--instance", str(p), "--mode", "plain",
                                      "--time-limit", TIME_LIMIT],
                  solve_check(p), _solve_nodes)
               for p in self._instances(work)]
        v = {**self.VERIFY, "trials": self.size["trials"]}
        n_list = self.size["kr_n_list"]
        argv = ["verify", "--check", "all", "--seed", str(self.seed),
                "--kr-trials", str(self.size["kr_trials"]),
                "--n-list", ",".join(map(str, n_list))]
        for k in ("trials", "n", "p", "t", "delta", "gamma"):
            argv += [f"--{k}", str(v[k])]
        ops.append(Op("verify", argv, lambda res, earlier: check_verify(
            res.out, exact_tails(v["n"], v["p"], v["t"], v["delta"]), v["trials"], n_list)))
        return ops


# Full sizes and the smoke sizes the benchmark's own tests use.
SIZES = {
    "pipeline-ca": (PipelineCa, {"families": 10, "items": 20, "bids": 60, "count": 16, "train": 10},
                    {"families": 2, "items": 10, "bids": 20, "count": 11, "train": 8}),
    "exact-mkp": (ExactMkp, {"m": 5, "n": 15, "count": 80},
                  {"m": 3, "n": 8, "count": 3}),
    "knapsack-verify": (KnapsackVerify, {"n": 50, "gamma": 0.3, "count": 300, "first_seed": 110_000,
                                         "trials": 100_000, "kr_trials": 2, "kr_n_list": [50, 100]},
                        {"n": 30, "gamma": 0.3, "count": 3, "first_seed": 110_000,
                         "trials": 10_000, "kr_trials": 1, "kr_n_list": [20]}),
}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    cls, full, small = SIZES[name]
    return cls(name, seed, small if smoke else full)
