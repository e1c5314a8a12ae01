"""Command-line interface: run, profile, and inspect MiniJ programs.

Usage::

    python -m repro run program.mj            # execute, print output
    python -m repro profile program.mj        # PEP(64,17) profile
    python -m repro profile --perfect p.mj    # full-instrumentation profile
    python -m repro profile --adaptive --inject opt-compile=0.1 p.mj
                                              # adaptive run under faults
    python -m repro disasm program.mj         # compiled bytecode listing
    python -m repro bench-list                # the paper's workload suite
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_program(path: str):
    from repro.lang import compile_source

    with open(path) as fh:
        return compile_source(fh.read(), name=path)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.adaptive.optimizing import optimize_method
    from repro.vm.costs import CostModel
    from repro.vm.runtime import VirtualMachine

    program = _load_program(args.source)
    costs = CostModel()
    code = {}
    for method in program.iter_methods():
        cm, _ = optimize_method(method, program, args.opt, None, costs)
        code[method.name] = cm
    vm = VirtualMachine(code, program.main, costs=costs)
    result = vm.run()
    for value in result.output:
        print(value)
    print(
        f"[exit {result.return_value}; {result.cycles:.0f} virtual cycles]",
        file=sys.stderr,
    )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro import api
    from repro.resilience import FaultPlan

    fault_plan = None
    if args.inject:
        fault_plan = FaultPlan.parse(args.inject, seed=args.fault_seed)

    program = _load_program(args.source)
    if args.adaptive:
        report = api.profile_adaptive(
            program,
            samples=args.samples,
            stride=args.stride,
            ticks=args.ticks,
            fault_plan=fault_plan,
        )
        mode = f"adaptive PEP({args.samples},{args.stride})"
    else:
        report = api.profile(
            program,
            samples=args.samples,
            stride=args.stride,
            ticks=args.ticks,
            perfect=args.perfect,
            fault_plan=fault_plan,
        )
        mode = (
            "perfect" if args.perfect else f"PEP({args.samples},{args.stride})"
        )
    engagement = report.engagement()
    if args.json:
        import json

        payload = {
            "mode": mode,
            "source": args.source,
            "overhead": report.overhead,
            "samples": report.result.samples_taken,
            "distinct_paths": report.paths.distinct_paths(),
            "hot_paths": [
                {"method": method, "path": number, "flow": flow}
                for (method, number), flow in report.hot_paths()[: args.top]
            ],
            "branch_biases": {
                str(branch): bias
                for branch, bias in sorted(
                    report.branch_biases().items(), key=lambda kv: str(kv[0])
                )
            },
            "engagement": engagement,
            "health": (
                report.health.to_dict() if report.health is not None else None
            ),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"# {mode} profile of {args.source}")
    print(f"overhead: {report.overhead * 100:.2f}%")
    if not args.perfect:
        print(f"samples:  {report.result.samples_taken}")
    print(f"paths:    {report.paths.distinct_paths()} distinct")
    print()
    print("hot paths (method, path number, flow):")
    for (method, number), flow in report.hot_paths()[: args.top]:
        print(f"  {method:24s} {number:<6d} {flow:12.0f}")
    print()
    print("branch biases:")
    for branch, bias in sorted(report.branch_biases().items()):
        print(f"  {str(branch):28s} {bias * 100:6.1f}% taken")
    if engagement:
        totals = engagement["totals"]
        print()
        print("tier engagement:")
        coverage = totals.get("fold_coverage")
        print(
            f"  blockjit={totals['blockjit_methods']} "
            f"min_coverage={totals['min_coverage_methods']} "
            f"probes={totals['probes_placed']}/{totals['probes_full']}"
        )
        print(
            f"  fold: certified={totals['fold_certified']} "
            f"rejected={totals['fold_rejected']} "
            "coverage="
            + (f"{coverage:.3f}" if coverage is not None else "n/a")
        )
        for name, row in engagement["methods"].items():
            backend = "blockjit" if row["blockjit"] else "interp"
            extras = []
            if row["probe_mode"]:
                extras.append(f"probes={row['probe_mode']}")
            if row["fold"] != "certified":
                extras.append(f"fold={row['fold']}")
            suffix = (" " + " ".join(extras)) if extras else ""
            print(
                f"  {name:24s} v{row['version']} {row['tier']:10s} "
                f"{backend}{suffix}"
            )
    if report.health is not None:
        print()
        print("run health:")
        for line in report.health.summary().splitlines():
            print(f"  {line}")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    from repro.bytecode.disasm import disassemble_program

    print(disassemble_program(_load_program(args.source)))
    return 0


def cmd_bench_list(_args: argparse.Namespace) -> int:
    from repro.workloads.suite import benchmark_suite

    for workload in benchmark_suite():
        print(f"{workload.name:12s} {workload.group:10s} "
              f"ticks_target={workload.ticks_target}")
    return 0


def _parse_sweep_config(token: str):
    from repro.harness.experiment import (
        BASE,
        CLASSIC_BLPP,
        INSTR_ONLY,
        PERFECT_EDGE,
        PERFECT_PATH,
        pep_config,
    )

    named = {
        "base": BASE,
        "instr": INSTR_ONLY,
        "perfect-path": PERFECT_PATH,
        "perfect-edge": PERFECT_EDGE,
        "classic-blpp": CLASSIC_BLPP,
    }
    if token in named:
        return named[token]
    if token.startswith("pep:"):
        try:
            samples, stride = token[4:].split(",", 1)
            return pep_config(int(samples), int(stride))
        except ValueError:
            pass
    raise SystemExit(
        f"unknown config {token!r} (use base, instr, perfect-path, "
        f"perfect-edge, classic-blpp, or pep:SAMPLES,STRIDE)"
    )


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf-trajectory recorder (scripts/bench_perf.py).

    A thin passthrough so measurements are launchable from the installed
    CLI (``repro bench --stage sampling``) without knowing the scripts
    layout.  The script is loaded by file path: it is not a package
    module, and must stay runnable standalone.
    """
    import importlib.util
    import os

    script = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        "scripts",
        "bench_perf.py",
    )
    if not os.path.exists(script):
        print(f"repro bench: bench_perf.py not found at {script}")
        return 2
    spec = importlib.util.spec_from_file_location("bench_perf", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    forwarded = []
    if args.quick:
        forwarded.append("--quick")
    for stage in args.stage or []:
        forwarded += ["--stage", stage]
    if args.out is not None:
        forwarded += ["--out", args.out]
    if args.check is not None:
        forwarded += ["--check", args.check]
    if args.history is not None:
        forwarded += ["--history", args.history]
    return module.main(forwarded)


def cmd_sweep(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.engine import ExperimentPool, make_sweep_cells
    from repro.harness.experiment import config_to_spec
    from repro.resilience import FaultPlan
    from repro.workloads.suite import benchmark_suite, get_workload

    if args.workloads:
        names = [get_workload(n).name for n in args.workloads]
    else:
        names = [w.name for w in benchmark_suite()]
    configs = [_parse_sweep_config(t) for t in (args.configs or ["base", "pep:64,17"])]
    fault_plan = None
    if args.inject:
        fault_plan = FaultPlan.parse(args.inject, seed=args.fault_seed)
    cells = make_sweep_cells(
        names,
        [config_to_spec(c) for c in configs],
        scale=args.scale,
        trials=args.trials,
        master_seed=args.seed,
    )
    pool = ExperimentPool(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        fault_plan=fault_plan,
        max_worker_restarts=args.max_worker_restarts,
    )
    start = time.perf_counter()
    results = pool.run(cells, resume_path=args.resume)
    elapsed = time.perf_counter() - start

    if args.json:
        payload = {
            "jobs": pool.jobs,
            "scale": args.scale,
            "seed": args.seed,
            "wall_seconds": elapsed,
            "health": pool.health.to_dict(),
            "cells": [
                {
                    "index": r.index,
                    "workload": r.workload,
                    "config": r.config,
                    "trial": r.trial,
                    "ok": r.ok,
                    "error": r.error,
                    "attempts": r.attempts,
                    "metrics": r.metrics,
                }
                for r in results
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if all(r.ok for r in results) else 1

    print(f"# sweep: {len(results)} cells, {pool.jobs} job(s), "
          f"{elapsed:.2f}s wall")
    print(f"{'workload':12s} {'config':24s} {'trial':>5s} "
          f"{'normalized':>10s} {'samples':>8s}")
    failed = 0
    for r in results:
        if r.ok:
            print(
                f"{r.workload:12s} {r.config:24s} {r.trial:5d} "
                f"{r.metrics['normalized']:10.4f} "
                f"{r.metrics['samples_taken']:8d}"
            )
        else:
            failed += 1
            print(f"{r.workload:12s} {r.config:24s} {r.trial:5d} "
                  f"FAILED[{r.error_type}]: {r.error}")
    if pool.health.supervision_events() or pool.health.resumed_cells:
        print()
        print("sweep health:")
        for line in pool.health.summary().splitlines():
            print(f"  {line}")
    if failed:
        print(f"# {failed} cell(s) failed", file=sys.stderr)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PEP continuous path and edge profiling (MICRO 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a MiniJ program")
    run_p.add_argument("source")
    run_p.add_argument("--opt", type=int, default=2, choices=(0, 1, 2))
    run_p.set_defaults(func=cmd_run)

    prof_p = sub.add_parser("profile", help="profile a MiniJ program with PEP")
    prof_p.add_argument("source")
    prof_p.add_argument("--samples", type=int, default=64)
    prof_p.add_argument("--stride", type=int, default=17)
    prof_p.add_argument("--ticks", type=_positive_int, default=200)
    prof_p.add_argument("--top", type=int, default=10)
    prof_p.add_argument("--perfect", action="store_true")
    prof_p.add_argument(
        "--json",
        action="store_true",
        help="emit the full report (including per-method tier-engagement "
        "counters) as JSON",
    )
    prof_p.add_argument(
        "--adaptive",
        action="store_true",
        help="profile under the full adaptive system (baseline -> opt "
        "promotion, resilience layer always on)",
    )
    prof_p.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="SITE=PROB[:MAX]",
        help="inject deterministic faults, e.g. --inject opt-compile=0.1 "
        "--inject path-reconstruct=0.05:3 (sites: opt-compile, sample, "
        "path-reconstruct, path-table, advice-load)",
    )
    prof_p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault-injection RNG streams (default 0)",
    )
    prof_p.set_defaults(func=cmd_profile)

    dis_p = sub.add_parser("disasm", help="print compiled bytecode")
    dis_p.add_argument("source")
    dis_p.set_defaults(func=cmd_disasm)

    bench_p = sub.add_parser("bench-list", help="list the workload suite")
    bench_p.set_defaults(func=cmd_bench_list)

    perf_p = sub.add_parser(
        "bench",
        help="run the perf recorder (scripts/bench_perf.py) — e.g. "
        "`repro bench --stage sampling --quick`",
    )
    perf_p.add_argument("--quick", action="store_true", help="CI-sized run")
    perf_p.add_argument(
        "--stage",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named stage (repeatable; see bench_perf.py)",
    )
    perf_p.add_argument("--out", default=None, help="report output path")
    perf_p.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="regression-gate against a baseline BENCH_perf.json",
    )
    perf_p.add_argument(
        "--history", default=None, metavar="PATH",
        help="history JSONL path ('' disables the append)",
    )
    perf_p.set_defaults(func=cmd_bench)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a (workload x config x trial) sweep on the parallel "
        "experiment engine",
    )
    sweep_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: os.cpu_count(); 1 = serial)",
    )
    sweep_p.add_argument("--scale", type=float, default=2.0)
    sweep_p.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        metavar="NAME",
        help="workload subset (default: the full 17-benchmark suite)",
    )
    sweep_p.add_argument(
        "--configs",
        nargs="*",
        default=None,
        metavar="CONFIG",
        help="configs: base, instr, perfect-path, perfect-edge, "
        "classic-blpp, pep:SAMPLES,STRIDE (default: base pep:64,17)",
    )
    sweep_p.add_argument("--trials", type=int, default=1)
    sweep_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell wall-clock budget in seconds",
    )
    sweep_p.add_argument("--retries", type=int, default=1)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument(
        "--resume",
        metavar="JOURNAL",
        default=None,
        help="append checksummed per-cell receipts to this sweep journal "
        "and, if it already holds receipts for this exact cell list, "
        "skip those cells (crash-safe interrupt/resume)",
    )
    sweep_p.add_argument(
        "--max-worker-restarts",
        type=int,
        default=16,
        help="total worker respawns allowed before the sweep degrades "
        "remaining cells to errors (default 16)",
    )
    sweep_p.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="SITE=PROB[:MAX]",
        help="inject deterministic engine faults, e.g. --inject "
        "worker-crash=0.5 --inject worker-hang=1.0:1 (sites: "
        "worker-crash, worker-hang, receipt-write)",
    )
    sweep_p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault-injection RNG streams (default 0)",
    )
    sweep_p.add_argument("--json", action="store_true")
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
