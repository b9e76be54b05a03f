"""Tests of the benchmark itself: smoke runs, failure accounting, repeatable nodes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from checks import check_verify, exact_tails  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int = 0, seed: int = 3) -> dict:
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_checked_and_repeats_its_nodes(workload):
    first, second = smoke(workload), smoke(workload)
    for res in (first, second):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: m["unit"] for k, m in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in res["metrics"].values())
    assert first["metrics"]["nodes"]["value"] == second["metrics"]["nodes"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    res = smoke(workload, trace=1)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def _mkp_round(tmp_path):
    from probranch import cli

    wl = workloads.make("exact-mkp", seed=5, smoke=True)
    wl.setup(tmp_path)
    ops = wl.ops(tmp_path, tmp_path / "round0")
    return ops, [run.call(cli, op.argv) for op in ops]


def _with_doc(res, **changes):
    doc = {**json.loads(res.out), **changes}
    return workloads.Result(res.rc, json.dumps(doc), res.err, res.seconds)


def test_wrong_answers_and_limits_count_as_failed(tmp_path):
    ops, results = _mkp_round(tmp_path)
    assert run.assess(ops, results)[0] == 0
    plain, exact, rest = results[0], results[1], results[2:]
    obj = json.loads(exact.out)["objective"]
    for bad in (_with_doc(exact, objective=obj * (1 + 1e-4)),
                _with_doc(exact, status="limit"),
                workloads.Result(1, "", "error: boom", 0.0)):
        assert run.assess(ops, [plain, bad, *rest])[0] == 1
    # the exact solve is held to HiGHS and to the plain solve before it
    failed, _, problems = run.assess(ops, [plain, _with_doc(exact, objective=obj + 1.0), *rest])
    assert failed == 1 and "HiGHS" in problems[0] and "/plain" in problems[0]
    # a wrong plain answer also fails the exact solve that must match it
    assert run.assess(ops, [_with_doc(plain, objective=obj + 1.0), exact, *rest])[0] == 2


def test_verify_check_rejects_a_shifted_tail():
    tails = exact_tails(100, 0.5, 10.0, 0.05)
    good = (f"hoeffding: empirical={tails['hoeffding']:.4f} bound=0.1353 exact=x\n"
            f"bernstein: empirical={tails['bernstein']:.4f} bound=0.3916 exact=x\n"
            "chebyshev: empirical=0.0000 bound=0.3333 exact=x\n"
            f"uniform_bins: empirical={tails['uniform_bins']:.4f} bound=0.1348 exact=x\n"
            "knapsack-rounding n=100: violations=0+0 margin=178.9 (vacuous) -> pass\n")
    assert check_verify(good, tails, 100_000, [100]) == []
    shifted = good.replace(f"hoeffding: empirical={tails['hoeffding']:.4f}",
                           f"hoeffding: empirical={tails['hoeffding'] + 0.01:.4f}")
    assert check_verify(shifted, tails, 100_000, [100])
    assert check_verify(good.replace("violations=0+0", "violations=1+0"), tails, 100_000, [100])


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0 and proc.stdout.strip() == ""
