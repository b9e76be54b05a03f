"""Command-line front end: generate, train, calibrate, solve, bench, verify.

Exit codes: 0 on success, 2 when a validation check fails, 1 on any
other error (including bad usage).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from . import branching, predict
from .bnb import SolveOptions, solve_mip
from .generators import (
    gen_ca,
    gen_knapsack_uniform,
    gen_mkp,
    gen_scp,
    read_family,
    write_family,
)
from .model import deserialize, serialize


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are errors, not validation failures
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(p):
    p.add_argument("--out", type=str, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing does not modify it."""
    parser = _Parser(prog="probranch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a seeded instance family")
    g.add_argument("--kind", choices=["mkp", "scp", "ca", "knapsack"], required=True)
    g.add_argument("--m", type=int, default=5, help="rows (mkp/scp)")
    g.add_argument("--n", type=int, default=20, help="columns / items")
    g.add_argument("--density", type=float, default=0.2, help="scp matrix density")
    g.add_argument("--items", type=int, default=10, help="ca items")
    g.add_argument("--bids", type=int, default=30, help="ca bids")
    g.add_argument("--gamma", type=float, default=0.3, help="knapsack capacity fraction")
    g.add_argument("--count", type=int, default=20, help="family size")
    g.add_argument("--seed", type=int, default=0)
    _add_common(g)

    t = sub.add_parser("train", help="train the per-variable logistic models")
    t.add_argument("--family", required=True)
    t.add_argument("--train-count", type=int, default=None)
    t.add_argument("--reg", type=float, default=1e-4)
    t.add_argument("--max-iters", type=int, default=500,
                   help="Newton steps per model at most")
    t.add_argument("--tol", type=float, default=1e-6)
    t.add_argument("--time-limit", type=float, default=bench_mod.DEFAULT_TIME_LIMIT)
    _add_common(t)

    c = sub.add_parser("calibrate", help="pick tau*/sigma from accuracy curves")
    c.add_argument("--family", required=True)
    c.add_argument("--model", required=True)
    c.add_argument("--train-count", type=int, default=None)
    c.add_argument("--delta", type=float, default=0.05)
    c.add_argument("--time-limit", type=float, default=bench_mod.DEFAULT_TIME_LIMIT)
    _add_common(c)

    s = sub.add_parser("solve", help="solve one instance, optionally with cuts")
    s.add_argument("--instance", required=True)
    s.add_argument("--predictor", default="lp-root-simplex")
    s.add_argument("--model", default=None, help="model file for the logistic predictor")
    s.add_argument("--calibration", default=None)
    s.add_argument("--tau", type=float, default=None)
    s.add_argument("--delta", type=float, default=None)
    s.add_argument("--sigma", type=float, default=None)
    s.add_argument("--mode", choices=["heuristic", "exact", "plain"], default="exact")
    s.add_argument("--tightened", action="store_true", default=None)
    s.add_argument("--time-limit", type=float, default=bench_mod.DEFAULT_TIME_LIMIT)
    _add_common(s)

    b = sub.add_parser("bench", help="family benchmark with SGM and speedup")
    b.add_argument("--family", required=True)
    b.add_argument("--predictor", default="logistic")
    b.add_argument("--mode", choices=["heuristic", "exact", "plain"], default="heuristic")
    b.add_argument("--tau", type=float, default=None)
    b.add_argument("--delta", type=float, default=None)
    b.add_argument("--sigma", type=float, default=None)
    b.add_argument("--tightened", action="store_true", default=None)
    b.add_argument("--time-limit", type=float, default=bench_mod.DEFAULT_TIME_LIMIT)
    b.add_argument("--train-count", type=int, default=None)
    b.add_argument("--test-count", type=int, default=20)
    _add_common(b)

    v = sub.add_parser("verify", help="Monte-Carlo validation of the tail bounds")
    v.add_argument(
        "--check",
        choices=["hoeffding", "bernstein", "chebyshev", "uniform-bins",
                 "knapsack-rounding", "all"],
        default="all",
    )
    v.add_argument("--trials", type=int, default=100_000)
    v.add_argument("--n", type=int, default=100)
    v.add_argument("--p", type=float, default=0.5)
    v.add_argument("--t", type=float, default=10.0)
    v.add_argument("--delta", type=float, default=0.05)
    v.add_argument("--gamma", type=float, default=0.3)
    v.add_argument("--n-list", type=str, default="100,200,400")
    v.add_argument("--kr-trials", type=int, default=50)
    v.add_argument("--seed", type=int, default=0)
    _add_common(v)

    return parser


def _cmd_generate(args) -> int:
    out = Path(args.out or f"{args.kind}_family")
    if args.kind == "mkp":
        fam = gen_mkp(args.m, args.n, args.count, args.seed)
    elif args.kind == "scp":
        fam = gen_scp(args.m, args.n, args.density, args.count, args.seed)
    elif args.kind == "ca":
        fam = gen_ca(args.items, args.bids, args.count, args.seed)
    else:
        uk = gen_knapsack_uniform(args.n, args.gamma, args.seed)
        out.parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_bytes(serialize(uk.instance))
        print(f"wrote {out}")
        return 0
    write_family(fam, out)
    print(f"wrote {len(fam.instances)} instances to {out}")
    return 0


def _train_slice(family, train_count):
    total = len(family.instances)
    n_train = train_count if train_count is not None else max(1, total - 20)
    return family.instances[: min(n_train, total)]


def _cmd_train(args) -> int:
    family = read_family(args.family)
    fit, _ = bench_mod.calibration_split(_train_slice(family, args.train_count))
    model, n_labeled = bench_mod.fit_model(
        fit, args.time_limit, reg=args.reg, max_iters=args.max_iters, tol=args.tol
    )
    out = Path(args.out or "model.json")
    predict.save_model(model, out)
    fitted = [k for k in model.iterations if k > 0]
    at_cap = fitted.count(args.max_iters)
    print(
        f"trained {model.num_vars} per-variable models on {n_labeled} instances "
        f"({len(fitted)} fitted, {at_cap} at --max-iters) -> {out}"
    )
    return 0


def _cmd_calibrate(args) -> int:
    family = read_family(args.family)
    model = predict.load_model(args.model)
    _, val = bench_mod.calibration_split(_train_slice(family, args.train_count))
    cal = bench_mod.calibrate_model(model, val, args.delta, args.time_limit)
    out = Path(args.out or "calibration.json")
    branching.save_calibration(cal, out)
    print(f"tau*={cal.tau_star} sigma={cal.sigma:.6g} delta={cal.delta} -> {out}")
    return 0


def _cmd_solve(args) -> int:
    inst = deserialize(Path(args.instance).read_bytes())
    opts = SolveOptions(time_limit=args.time_limit)
    if args.mode == "plain":
        rep = solve_mip(inst, options=opts)
        doc = {
            "instance": inst.name,
            "mode": "plain",
            "status": rep.status,
            "objective": None if rep.best_solution is None else rep.objective,
            "best_bound": rep.best_bound,
            "nodes": rep.nodes,
            "fixed": rep.fixed,
            "closed": rep.closed,
            "wall_time": rep.wall_time,
        }
    else:
        cal, tightened = branching.cut_settings(
            args.predictor,
            branching.load_calibration(args.calibration) if args.calibration else None,
            tau=args.tau, delta=args.delta, sigma=args.sigma,
            tightened=args.tightened,
        )
        model = predict.load_model(args.model) if args.model else None
        part = branching.partition_solve(
            inst, predict.predictor(args.predictor, model)(inst), cal, options=opts,
            mode=args.mode, tightened=tightened,
        )
        rep = part.best
        doc = {
            "instance": inst.name,
            "mode": args.mode,
            "predictor": args.predictor,
            "tau": cal.tau_star,
            "sigma": cal.sigma,
            "delta": cal.delta,
            "tightened": tightened,
            "status": rep.status,
            "objective": None if rep.best_solution is None else rep.objective,
            "best_bound": rep.best_bound,
            "nodes": rep.nodes,
            "fixed": rep.fixed,
            "closed": rep.closed,
            "wall_time": rep.wall_time,
            "regions": [
                {"label": r.label, "nodes": r.nodes, "seconds": r.seconds}
                for r in part.regions
            ],
            "best_region": part.best_region,
        }
    text = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _cmd_bench(args) -> int:
    config = bench_mod.BenchConfig(
        family_dir=args.family,
        predictor=args.predictor,
        mode=args.mode,
        tau=args.tau,
        delta=args.delta,
        sigma=args.sigma,
        tightened=args.tightened,
        time_limit=args.time_limit,
        train_count=args.train_count,
        test_count=args.test_count,
    )
    report = bench_mod.run_benchmark(config)
    prefix = Path(args.out or "bench_report")
    csv_path, json_path = bench_mod.report_emit(report, prefix)
    print(
        f"rows={len(report.rows)} sgm_method={report.sgm_method} "
        f"sgm_original={report.sgm_original} speedup={report.speedup} "
        f"sgm_nodes_method={report.sgm_nodes_method} "
        f"sgm_nodes_original={report.sgm_nodes_original} node_ratio={report.node_ratio} "
        f"not_reached={report.not_reached} failed={report.failed}"
    )
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_verify(args) -> int:
    failures = 0
    lines = []
    checks = (
        ["hoeffding", "bernstein", "chebyshev", "uniform-bins", "knapsack-rounding"]
        if args.check == "all"
        else [args.check]
    )
    for check in checks:
        if check == "knapsack-rounding":
            n_list = [int(v) for v in args.n_list.split(",") if v]
            rep = bench_mod.verify_knapsack_rounding(
                n_list, args.gamma, args.kr_trials, args.seed
            )
            for row in rep.rows:
                ok = row.violations_up == 0 and row.violations_down == 0
                failures += 0 if ok else 1
                vacuity = {(True, True): " (vacuous)", (True, False): " (vacuous up)",
                           (False, True): " (vacuous down)"}.get(
                    (row.vacuous_up, row.vacuous_down), "")
                lines.append(
                    f"knapsack-rounding n={row.n}: violations="
                    f"{row.violations_up}+{row.violations_down} margin={row.margin:.1f}"
                    f"{vacuity} "
                    f"median|U\\U*|={row.median_mispick} -> {'pass' if ok else 'FAIL'}"
                )
            continue
        if check == "hoeffding" or check == "bernstein":
            params = {"n": args.n, "p": args.p, "t": args.t}
        elif check == "chebyshev":
            params = {"t": min(args.t, 0.5)}
        else:
            params = {"n": max(args.n, 400), "delta": args.delta}
        rep = bench_mod.verify_lemma(
            check.replace("-", "_"), params, args.trials, args.seed
        )
        failures += 0 if rep.passed else 1
        lines.append(
            f"{rep.name}: empirical={rep.empirical:.4f} bound={rep.bound:.4f} "
            f"exact={rep.exact if rep.exact is None else round(rep.exact, 5)} "
            f"-> {'pass' if rep.passed else 'FAIL'}"
        )
    out = "\n".join(lines)
    print(out)
    if args.out:
        Path(args.out).write_text(out + "\n")
    return 2 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "generate": _cmd_generate,
            "train": _cmd_train,
            "calibrate": _cmd_calibrate,
            "solve": _cmd_solve,
            "bench": _cmd_bench,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # CLI boundary: report and signal an error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
