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


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (0.0 < value < float("inf")):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}"
        )
    return value


def _fault_spec(text: str, sites):
    """One ``--inject SITE=PROB[:MAX]`` value, at one of ``sites``."""
    from repro.errors import ReproError
    from repro.resilience import FaultPlan

    try:
        (spec,) = FaultPlan.parse([text]).specs.values()
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if spec.site not in sites:
        raise argparse.ArgumentTypeError(
            f"{spec.site!r} is not a site this command injects "
            f"(sites: {', '.join(sites)})"
        )
    return spec


def _profile_fault(text: str):
    """An ``--inject`` value of ``repro profile``: a site its runs check."""
    from repro.resilience.faults import SAMPLER_FAULT_SITES

    return _fault_spec(text, ("opt-compile",) + SAMPLER_FAULT_SITES)


def _sweep_fault(text: str):
    """An ``--inject`` value of ``repro sweep``: an engine site."""
    from repro.resilience.faults import ENGINE_FAULT_SITES

    return _fault_spec(text, ENGINE_FAULT_SITES)


def _fault_plan(args: argparse.Namespace):
    """The plan of a command's ``--inject`` specs, or None without any."""
    from repro.errors import ReproError
    from repro.resilience import FaultPlan

    if not args.inject:
        return None
    try:
        return FaultPlan(args.inject, seed=args.fault_seed)
    except ReproError as exc:  # the same site twice
        args.usage_error(str(exc))


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

    fault_plan = _fault_plan(args)
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


def cmd_sweep(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.engine import ExperimentPool, make_sweep_cells
    from repro.errors import EngineError
    from repro.harness.experiment import config_to_spec
    from repro.workloads.suite import benchmark_suite, get_workload

    if args.workloads:
        names = [get_workload(n).name for n in args.workloads]
    else:
        names = [w.name for w in benchmark_suite()]
    configs = [_parse_sweep_config(t) for t in (args.configs or ["base", "pep:64,17"])]
    fault_plan = _fault_plan(args)
    cells = make_sweep_cells(
        names,
        [config_to_spec(c) for c in configs],
        scale=args.scale,
        trials=args.trials,
        master_seed=args.seed,
    )
    try:
        pool = ExperimentPool(
            jobs=args.jobs,
            timeout=args.timeout,
            fault_plan=fault_plan,
            max_worker_restarts=args.max_worker_restarts,
        )
    except EngineError as exc:
        # The argument types already rule out the pool's other errors.
        args.usage_error(str(exc))
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
        type=_profile_fault,
        default=[],
        metavar="SITE=PROB[:MAX]",
        help="inject deterministic faults, e.g. --inject opt-compile=0.1 "
        "--inject path-reconstruct=0.05:3 (sites: opt-compile, sample, "
        "path-reconstruct, path-table)",
    )
    prof_p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault-injection RNG streams (default 0)",
    )
    prof_p.set_defaults(func=cmd_profile, usage_error=prof_p.error)

    dis_p = sub.add_parser("disasm", help="print compiled bytecode")
    dis_p.add_argument("source")
    dis_p.set_defaults(func=cmd_disasm)

    bench_p = sub.add_parser("bench-list", help="list the workload suite")
    bench_p.set_defaults(func=cmd_bench_list)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a (workload x config x trial) sweep on the parallel "
        "experiment engine",
    )
    sweep_p.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="supervised worker processes (default: os.cpu_count())",
    )
    sweep_p.add_argument("--scale", type=_positive_float, default=2.0)
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
    sweep_p.add_argument("--trials", type=_positive_int, default=1)
    sweep_p.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        help="per-cell wall-clock budget in seconds",
    )
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
        type=_non_negative_int,
        default=16,
        help="total worker respawns allowed before the sweep degrades "
        "remaining cells to errors (default 16; 0 never respawns)",
    )
    sweep_p.add_argument(
        "--inject",
        action="append",
        type=_sweep_fault,
        default=[],
        metavar="SITE=PROB[:MAX]",
        help="inject deterministic engine faults, e.g. --inject "
        "worker-crash=0.5 --inject worker-hang=1.0:1 (sites: "
        "worker-crash, worker-hang, receipt-write; worker-hang needs "
        "--timeout)",
    )
    sweep_p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault-injection RNG streams (default 0)",
    )
    sweep_p.add_argument("--json", action="store_true")
    sweep_p.set_defaults(func=cmd_sweep, usage_error=sweep_p.error)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
