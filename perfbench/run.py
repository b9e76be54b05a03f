"""Benchmark: drive the probranch CLI in-process and report end-to-end metrics.

    python3 perfbench/run.py --workload exact-mkp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  One request runs at a time in this process (a closed loop),
with BLAS pinned to one thread.  Set-up, one discarded warm-up request
and the timed rounds come first; every answer is checked afterwards.
The last line of standard output is the JSON result.  ``--trace 1``
runs three rounds, the middle one traced (two if a third would not end
within TRACE_BUDGET_S), and reports per-layer metrics.

Times are speed-adjusted: a fixed reference loop runs between requests,
and each request's wall time is scaled by REF_LOOP_S over the loop's
time around it.  On a shared host the core's speed swings by up to 1.6x
from second to second; the scaling takes that out, the program's own
work stays in.  Raw wall times are kept in the run's result.json.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TRACE_BUDGET_S = 130  # a traced run skips its third round rather than pass this
TAIL_BEYOND = 10  # op_ms_tail: the slowest request with ten slower ones beyond it
REF_LOOP_N = 20_000
REF_LOOP_S = 1.1e-3  # the reference loop's time on an idle core of a 2-core x86-64 VM


def ref_loop() -> float:
    """Seconds the fixed reference loop takes now (the faster of two tries)."""
    best = float("inf")
    for _ in range(2):
        t = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP_N):
            acc += i * i
        best = min(best, time.perf_counter() - t)
    return best


def adjusted(seconds: float, loop_before: float, loop_after: float) -> float:
    """Wall seconds scaled to the speed at which the reference loop takes REF_LOOP_S."""
    return seconds * REF_LOOP_S / (0.5 * (loop_before + loop_after))


def import_seconds() -> float:
    """Speed-adjusted time to import the CLI in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import probranch.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    before = ref_loop()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return adjusted(float(proc.stdout), before, ref_loop())


def timed_requests(cli, ops):
    """Results of one round of requests, and the speed-adjusted time of each."""
    results, times = [], []
    before = ref_loop()
    for op in ops:
        results.append(call(cli, op.argv))
        after = ref_loop()
        times.append(adjusted(results[-1].seconds, before, after))
        before = after
    return results, times


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["pipeline-ca", "exact-mkp", "knapsack-verify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    return p.parse_args(argv)


def call(cli, argv):
    """One request through the CLI front end, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return workloads.Result(rc, out.getvalue(), err.getvalue(), time.perf_counter() - t)


@contextlib.contextmanager
def traced_with(tracer):
    """The tracer's wrappers in place for the block; nothing if tracer is None."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def tail_index(n: int) -> int:
    """Index in ascending order of the request with TAIL_BEYOND slower ones."""
    return max(0, n - TAIL_BEYOND - 1)


def assess(ops, results):
    """(failed, nodes of each request, problems) for the results of one round.

    A request fails when it exits non-zero or one of its checks fails
    (a ``limit`` status fails the status check); failures are counted
    per attempt, so a deterministic fault costs the same share of every run.
    """
    failed = 0
    nodes = [0] * len(ops)
    problems = []
    earlier = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        found = [f"exit code {res.rc}: {res.err.strip()[-300:]}"] if res.rc else []
        if not found:
            try:
                found = op.check(res, earlier)
                nodes[i] = op.nodes(res)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                found = [f"unreadable output: {exc!r}"]
        earlier[op.key] = res
        if found:
            failed += 1
            problems.append(f"{op.key}: {'; '.join(found)}")
    return failed, nodes, problems


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    with contextlib.suppress(KeyError, TypeError):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown"
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        sha = ((ROOT / ".git" / head[5:]).read_text().strip()
               if head.startswith("ref: ") else head)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": sha,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "probranch" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from probranch import cli

    tag = f"{args.workload}-s{args.seed}" + ("-smoke" if args.smoke else "")
    tag += "-trace" if args.trace else ""
    work = ROOT / ".bench_work" / tag
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    wl = workloads.make(args.workload, args.seed, smoke=args.smoke)
    tracer = Tracer() if args.trace else None

    phases = {"start": time.perf_counter()}
    setups = []
    for k in range(SETUP_REPEATS):
        traced = tracer is not None and k == SETUP_REPEATS - 1
        imported = import_seconds()
        before = ref_loop()
        t = time.perf_counter()
        with traced_with(tracer if traced else None):
            wl.setup(inputs)
            call(cli, wl.warmup(inputs))
        setups.append(imported + adjusted(time.perf_counter() - t, before, ref_loop()))

    phases["setup"] = time.perf_counter()
    threads = len(os.listdir("/proc/self/task"))
    ops_per_round, rounds, op_s, wall_s = [], [], [], []
    t_run = time.perf_counter()
    while True:
        ops = wl.ops(inputs, work / f"round{len(rounds)}")
        gc.collect()
        t = time.perf_counter()
        with traced_with(tracer if tracer is not None and len(rounds) == 1 else None):
            results, times = timed_requests(cli, ops)
        wall_s.append(time.perf_counter() - t)
        rounds.append(results)
        op_s.append(times)
        ops_per_round.append(ops)
        if tracer:
            # untraced, traced, untraced; the last only if it ends in time
            if len(rounds) == 3 or (len(rounds) == 2 and time.perf_counter() - phases["start"]
                                    + max(wall_s) > TRACE_BUDGET_S):
                break
        elif time.perf_counter() - t_run + statistics.median(wall_s) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the speed adjustment assumes every request runs on this one thread
    threads_left = len(os.listdir("/proc/self/task")) - threads
    phases["rounds"] = time.perf_counter()

    failed, op_nodes, problems = 0, [], []
    for ops, results in zip(ops_per_round, rounds):
        f, n, p = assess(ops, results)
        failed += f
        op_nodes.append(n)
        problems += p
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    correct = all(n == op_nodes[0] for n in op_nodes)
    if not correct:
        print("error: node counts differ between rounds", file=sys.stderr)
    if threads_left > 0:
        correct = False
        print("error: the program left threads running", file=sys.stderr)
    round_s = [sum(times) for times in op_s]
    phases["checks"] = time.perf_counter()

    if tracer:
        metrics = tracer.metrics()
        # the traced round against the mean of the untraced rounds around it
        untraced = statistics.mean([round_s[0], *round_s[2:]])
        metrics["trace.overhead_pct"] = 100.0 * (round_s[1] / untraced - 1.0)
        tracer.write(work / "trace.jsonl")
    else:
        latency = sorted(statistics.median(times[i] for times in op_s)
                         for i in range(len(op_s[0])))
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(round_s),
            "op_ms_p50": 1e3 * statistics.median(latency),
            "op_ms_tail": 1e3 * latency[tail_index(len(latency))],
            "nodes": sum(op_nodes[0]),
            "peak_rss_mb": peak_rss_mb,
        }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": correct,
        "attempted": sum(len(r) for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(rounds), "ops_per_round": len(rounds[0]),
              "environment": environment(), "round_s": round_s, "wall_round_s": wall_s,
              "wall_phase_s": {k: phases[k] - phases[p]
                               for p, k in zip(phases, list(phases)[1:])},
              "ops": [{"key": op.key, "s": t, "wall_s": r.seconds, "nodes": n}
                      for op, t, r, n in zip(ops_per_round[0], op_s[0], rounds[0], op_nodes[0])],
              **result}
    (work / "result.json").write_text(json.dumps(record, indent=2))
    print(json.dumps({"environment": record["environment"], "rounds": len(rounds),
                      "ops_per_round": len(rounds[0])}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
