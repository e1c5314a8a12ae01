#!/usr/bin/env python
"""Performance trajectory recorder: writes ``BENCH_perf.json``.

Times the hot layers the perf PRs touched — guest execution under the
blockjit engine and the tuple interpreter, the path-guided superblock
trace stacked on top of it, the fixed-point fold-coverage census
(DESIGN.md §15), the minimum-coverage probe saving (DESIGN.md §14), the
yieldpoint/sampling-check overhead, lowering with and without the
compilation cache, path reconstruction with cold vs warm memos, and a
small fig6 sweep through the experiment engine serial vs parallel — and
records them, normalized by a pure-Python calibration loop so numbers
are comparable across machines.  Every run also appends one summary
line (git SHA + headline metrics) to ``BENCH_history.jsonl`` so the
perf trend is trackable across PRs.

Usage::

    python scripts/bench_perf.py                 # full run
    python scripts/bench_perf.py --quick         # CI-sized run
    python scripts/bench_perf.py --quick --check BENCH_perf.json
                                                 # regression gate

``--check BASELINE`` compares the calibration-normalized execution rate
against the baseline file and exits non-zero on a >25% regression; it
also enforces the parallel-sweep speedup floor, but only on multi-core
runners — on ``cpu_count == 1`` machines ``parallel_speedup ≈ 1.0`` is
the *expected* outcome and the gate is skipped rather than flaking.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

SCHEMA = 11
REGRESSION_TOLERANCE = 0.25  # fail --check on >25% normalized slowdown
# Minimum acceptable serial/parallel speedup when the runner actually
# has cores to parallelize over (generous: contention on loaded CI
# runners is normal; outright slower-than-serial is the regression).
PARALLEL_SPEEDUP_FLOOR = 0.8
# Absolute ceiling for the sampled/unsampled wall ratio on a full run
# (schema 2 measured 1.77x; the countdown+buffered datapath of
# DESIGN.md §10 brought it under 1.3x).  Quick runs are shorter and
# noisier, so the ceiling only gates full runs.  Recalibrated for
# schema 7: universal fold certification (DESIGN.md §15) shaved ~10%
# off the *unsampled* denominator, so the same fixed per-tick sampling
# cost reads as a higher ratio (1.33-1.42x measured across repeated
# full runs on a 1-core runner) with zero new sampling work.  The
# ceiling still sits well under the 1.77x pre-§10 shape it guards
# against.
SAMPLING_OVERHEAD_CEILING = 1.50
# --check also fails if the sampled/unsampled ratio regressed by more
# than this fraction over the baseline report's ratio.
SAMPLING_REGRESSION_TOLERANCE = 0.10
# Minimum hot-loop speedup of a path-guided superblock trace over plain
# blockjit on full runs (DESIGN.md §11); quick runs are too short for
# the ratio to gate without flaking, so they only report it.
SUPERBLOCK_SPEEDUP_FLOOR = 1.2


# -- calibration ------------------------------------------------------------


def calibrate() -> dict:
    """Rate of a fixed pure-Python loop, used to normalize every metric.

    The interpreter is pure Python too, so machine speed and Python
    version shift both in lockstep; their *ratio* is what the regression
    gate compares.
    """
    n = 2_000_000
    best = float("inf")
    for _ in range(3):
        acc = 0
        i = 0
        t0 = time.perf_counter()
        while i < n:
            acc += i
            i += 1
        best = min(best, time.perf_counter() - t0)
    return {"pyops_per_sec": n / best, "loop_iterations": n}


# -- interpreter throughput -------------------------------------------------


def _lower_image(program, costs):
    from repro.instrument.yieldpoints import insert_yieldpoints
    from repro.vm.interpreter import lower_method

    code = {}
    for method in program.iter_methods():
        clone = method.clone()
        insert_yieldpoints(clone)
        code[method.name] = lower_method(clone, "opt2", costs)
    return code


def bench_interpreter(quick: bool) -> dict:
    from repro.vm.costs import CostModel
    from repro.vm.runtime import VirtualMachine
    from repro.workloads.suite import get_workload

    # compress is the tight-loop workload; ps has the branchiest CFG,
    # so together they bracket how much dispatch cost matters.  One
    # image per workload runs on both engines: the blockjit engine (the
    # default) and the tuple interpreter.
    names = ["compress", "ps"]
    scale = 1.0 if quick else 3.0
    reps = 3 if quick else 8
    costs = CostModel()
    programs = [get_workload(name).build(scale) for name in names]
    images = [(program, _lower_image(program, costs)) for program in programs]
    rates = {}
    totals = {}
    for label, use_blockjit in (("blockjit", True), ("interp", False)):
        warm = 0.0
        for program, code in images:  # warmup (and parity probe)
            vm = VirtualMachine(
                code, program.main, costs=costs, blockjit=use_blockjit
            )
            warm += vm.run().cycles
        totals[label] = warm
        cycles = 0.0
        t0 = time.perf_counter()
        for _ in range(reps):
            for program, code in images:
                vm = VirtualMachine(
                    code, program.main, costs=costs, blockjit=use_blockjit
                )
                cycles += vm.run().cycles
        wall = time.perf_counter() - t0
        rates[label] = cycles / wall
    # Bit-identity safety net: both engines must account the exact same
    # virtual cycles, else the timings compare different work.
    if len(set(totals.values())) != 1:
        raise AssertionError(f"engine cycle totals diverged: {totals}")
    return {
        "workloads": names,
        "scale": scale,
        "reps": reps,
        # Primary throughput metric: the default engine (blockjit).
        "vcycles_per_sec": rates["blockjit"],
        "blockjit_vcycles_per_sec": rates["blockjit"],
        "interp_vcycles_per_sec": rates["interp"],
        "blockjit_speedup": rates["blockjit"] / rates["interp"],
    }


# -- yieldpoint / sampling-check overhead ------------------------------------


def bench_sampling(quick: bool) -> dict:
    """Isolate the cost of armed yieldpoints: same image, sampler on/off.

    Yieldpoint *sites* are present in both runs (they are part of the
    lowered image and cost virtual cycles either way); what differs is
    the tick clock being armed, so the delta is the wall-clock price of
    the sampling checks plus sample-taking itself.

    Timing is best-of-reps per variant, with the variants' reps
    interleaved: each rep is a full VM run timed on its own, and the
    reported ratio compares the two minima.  Like :func:`calibrate`'s
    best-of-3, the minimum discards scheduler contention (which only
    ever *adds* wall time) instead of averaging it into the ratio.
    Contention on this host comes in multi-second steal/frequency
    phases, so the rep count is sized (12 interleaved pairs, quick mode
    included — the stage still costs about a second) for both variants
    to catch a clean window even inside a slow phase; measured spread
    across repeated invocations is ~1.24-1.27x.

    The cyclic GC is paused around the timed reps (exactly as
    ``timeit`` does by default): collection pauses land on whichever
    variant happens to cross the allocation threshold — in practice the
    sampled side, which allocates sample records — and a best-of-reps
    minimum cannot shed them because the threshold is crossed on
    *every* rep, not just unlucky ones.
    """
    import gc

    from repro.instrument.pep import apply_pep
    from repro.instrument.yieldpoints import insert_yieldpoints
    from repro.sampling.arnold_grove import make_sampler
    from repro.vm.costs import CostModel
    from repro.vm.interpreter import lower_method
    from repro.vm.runtime import VirtualMachine
    from repro.workloads.suite import get_workload

    # Quick mode changes nothing here: the ratio is scale-sensitive
    # (per-tick costs amortize over run length) and rep-sensitive (see
    # above), and --check compares a quick run's ratio against the
    # committed full-run baseline, so the two must measure the same
    # thing.  The whole stage costs about a second.
    scale = 2.0
    reps = 12
    program = get_workload("compress").build(scale)
    costs = CostModel()
    code = {}
    for method in program.iter_methods():
        clone = method.clone()
        insert_yieldpoints(clone)
        inst = apply_pep(clone, None)
        cm = lower_method(clone, "opt2", costs)
        if inst is not None:
            cm.attach_dag(inst.dag)
        code[method.name] = cm

    base_cycles = VirtualMachine(code, program.main, costs=costs).run().cycles
    tick = base_cycles / 200.0  # ~200 ticks per run

    def make_vm(sampled):
        return VirtualMachine(
            code,
            program.main,
            costs=costs,
            tick_interval=tick if sampled else None,
            sampler=make_sampler(64, 17) if sampled else None,
        )

    results = {
        label: {"best": float("inf"), "total": 0.0, "ticks": 0}
        for label in ("unsampled", "sampled")
    }
    for label in results:  # warmup both variants before timing either
        make_vm(label == "sampled").run()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            for label, entry in results.items():
                vm = make_vm(label == "sampled")
                t0 = time.perf_counter()
                res = vm.run()
                wall = time.perf_counter() - t0
                entry["best"] = min(entry["best"], wall)
                entry["total"] += wall
                entry["ticks"] += res.ticks
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "workload": "compress",
        "scale": scale,
        "reps": reps,
        "tick_interval": tick,
        "sampled_ticks": results["sampled"]["ticks"],
        # Throughput fields keep the schema-2 aggregate methodology
        # (total cycles / total wall) so they stay comparable across
        # baselines; only the headline ratio uses the noise-robust
        # best-of-reps walls.
        "sampled_vcycles_per_sec": (
            reps * base_cycles / results["sampled"]["total"]
        ),
        "unsampled_vcycles_per_sec": (
            reps * base_cycles / results["unsampled"]["total"]
        ),
        "sampling_wall_overhead": (
            results["sampled"]["best"] / results["unsampled"]["best"]
        ),
    }


# -- path-guided superblocks -------------------------------------------------


def _hot_loop_program(calls: int, inner: int):
    """main calls a loop-heavy helper ``calls`` times (DESIGN.md §11).

    The helper re-enters on every call, so its PEP sample points fire
    and its inner loop's cyclic Ball-Larus path dominates the profile —
    the exact shape superblock formation targets.
    """
    from repro.bytecode.builder import ProgramBuilder

    pb = ProgramBuilder("hotloop")
    helper = pb.function("helper", ["n"])
    n = helper.p("n")
    acc = helper.local(0)

    def body(i):
        helper.assign(acc, acc + i)
        helper.assign(acc, acc + n)
        helper.assign(acc, acc * 1)
        helper.assign(acc, acc + 2)
        helper.assign(acc, acc - 1)
        helper.assign(acc, acc + i)
        helper.assign(acc, acc + 1)
        helper.assign(acc, acc + i)
        helper.assign(acc, acc + 1)
        helper.assign(acc, acc + i)

    helper.for_range(0, inner, 1, body)
    helper.ret(acc)

    f = pb.function("main")
    total = f.local(0)
    f.for_range(0, calls, 1,
                lambda i: f.assign(total, total + f.call("helper", i)))
    f.emit(total)
    f.ret(total)
    return pb.build()


def bench_superblock(quick: bool) -> dict:
    """Hot-loop throughput: plain blockjit vs the superblock trace.

    A pilot *sampled* run over the plain image collects the helper's
    path profile; the dominant path (the real promotion decision, via
    :func:`find_dominant_path`) is then stitched into a superblock on a
    second, otherwise identical image.  Both images run unsampled for
    the timed reps — the comparison isolates the trace's execution win
    (registers as locals, no per-block dispatch), not sampling costs.
    A cycle-parity probe asserts both images account the exact same
    virtual cycles before any timing is trusted.
    """
    import gc

    from repro.instrument.pep import apply_pep
    from repro.instrument.yieldpoints import insert_yieldpoints
    from repro.sampling.arnold_grove import make_sampler
    from repro.util.flags import superblock_enabled
    from repro.vm.costs import CostModel
    from repro.vm.interpreter import lower_method
    from repro.vm.runtime import VirtualMachine
    from repro.vm.superblock import find_dominant_path, install_superblock

    calls = 200 if quick else 400
    reps = 4 if quick else 8
    program = _hot_loop_program(calls=calls, inner=64)
    costs = CostModel()

    def pep_image():
        code = {}
        for method in program.iter_methods():
            clone = method.clone()
            insert_yieldpoints(clone)
            inst = apply_pep(clone, None)
            cm = lower_method(clone, "opt2", costs)
            if inst is not None:
                cm.attach_dag(inst.dag)
            code[method.name] = cm
        return code

    # Pilot: sample the plain image to find the helper's dominant path.
    pilot_code = pep_image()
    pilot_vm = VirtualMachine(pilot_code, program.main, costs=costs)
    pilot_cycles = pilot_vm.run().cycles
    sampled_vm = VirtualMachine(
        pilot_code, program.main, costs=costs,
        tick_interval=pilot_cycles / 200.0, sampler=make_sampler(64, 17),
    )
    sampled_vm.run()
    helper_key = pilot_code["helper"].profile_key
    dominant = find_dominant_path(
        sampled_vm.path_profile.method_paths(helper_key), 0.5, 8.0
    )
    if dominant is None or not superblock_enabled():
        return {
            "workloads": ["hotloop"],
            "superblock_installed": False,
            "note": "no dominant path sampled or REPRO_SUPERBLOCK=0",
        }

    images = {"plain": pep_image(), "superblock": pep_image()}
    if not install_superblock(images["superblock"]["helper"], dominant):
        return {
            "workloads": ["hotloop"],
            "superblock_installed": False,
            "note": f"path {dominant} is not an installable loop trace",
        }

    # Cycle-parity probe (also the warmup): the trace must account the
    # exact virtual cycles of plain blockjit or the timing is invalid.
    probes = {}
    for label, code in images.items():
        vm = VirtualMachine(code, program.main, costs=costs, blockjit=True)
        res = vm.run()
        probes[label] = (res.cycles, res.return_value, tuple(vm.output))
    if probes["plain"] != probes["superblock"]:
        raise AssertionError(f"superblock diverged from blockjit: {probes}")

    best = {label: float("inf") for label in images}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            for label, code in images.items():
                vm = VirtualMachine(
                    code, program.main, costs=costs, blockjit=True
                )
                t0 = time.perf_counter()
                vm.run()
                best[label] = min(best[label], time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    cycles = probes["plain"][0]
    return {
        "workloads": ["hotloop"],
        "calls": calls,
        "reps": reps,
        "dominant_path": dominant,
        "superblock_installed": True,
        "cycles": cycles,
        "plain_vcycles_per_sec": cycles / best["plain"],
        "superblock_vcycles_per_sec": cycles / best["superblock"],
        "superblock_speedup": best["plain"] / best["superblock"],
    }


# -- fixed-point fold coverage (DESIGN.md §15) -------------------------------


def bench_foldcov(quick: bool) -> dict:
    """Fold-coverage census: every suite method at every tier.

    Deterministic (no timing): lowers the whole 17-workload suite at all
    four tiers under the default cost model and reports the fraction of
    methods certified for Q20 fixed-point folding.  Gated at exactly
    1.0 on every run — the recalibrated grid puts every default charge
    on the grid, so a single rejection means a cost constant drifted
    off it.
    """
    from repro.instrument.yieldpoints import insert_yieldpoints
    from repro.vm.costs import FOLD_SHIFT, CostModel
    from repro.vm.interpreter import lower_method
    from repro.workloads.suite import benchmark_suite

    scale = 0.3 if quick else 0.5
    tiers = ("baseline", "opt0", "opt1", "opt2")
    costs = CostModel()
    certified = rejected = 0
    workloads = benchmark_suite()
    for workload in workloads:
        program = workload.build(scale)
        for tier in tiers:
            for method in program.iter_methods():
                clone = method.clone()
                insert_yieldpoints(clone)
                cm = lower_method(clone, tier, costs)
                if cm.fold_q == FOLD_SHIFT:
                    certified += 1
                else:
                    rejected += 1
    total = certified + rejected
    return {
        "workloads": len(workloads),
        "tiers": list(tiers),
        "scale": scale,
        "fold_certified": certified,
        "fold_rejected": rejected,
        "fold_coverage": certified / total if total else None,
    }


# -- profile-guided optimization ---------------------------------------------


def bench_pgo(quick: bool) -> dict:
    """Minimum-coverage probe saving on the one-shot edges pipeline.

    The pipeline compiles a workload with ``REPRO_PGO_PROBES`` on and
    off (DESIGN.md §14); the probed image places counters on a
    spanning-tree complement only, so it both *places* fewer probes and
    *charges* fewer edge_count cycles for the same reconstructed
    profile.  That pair of reductions is the metric — arithmetic over
    the compiled plans, not a timing.
    """
    from repro.adaptive.replay import (
        record_advice,
        replay_compile,
        run_iteration,
    )
    from repro.util import flags
    from repro.vm import pgo
    from repro.workloads.suite import get_workload

    probe_program = get_workload("compress").build(1.0 if quick else 2.0)
    plan_stats = {}
    saved = flags.PGO_PROBES
    try:
        for label, enable in (("on", True), ("off", False)):
            flags.PGO_PROBES = enable
            advice = record_advice(probe_program, tick_interval=400.0)
            image = replay_compile(
                probe_program, advice, instrumentation="edges"
            )
            totals = pgo.engagement_summary(image.code)["totals"]
            plan_stats[label] = {
                "placed": totals["probes_placed"],
                "cycles": run_iteration(image).cycles,
            }
    finally:
        flags.PGO_PROBES = saved

    placed = plan_stats["on"]["placed"]
    # The flag-off twin instruments every arm, so its placement count is
    # the full baseline (and equals its own full_probes by construction).
    full = plan_stats["off"]["placed"]
    off_cycles = plan_stats["off"]["cycles"]
    return {
        "probe_workload": "compress",
        "probes_placed": placed,
        "probes_full": full,
        "probe_reduction": 1.0 - placed / full if full else 0.0,
        "probe_cycles_saved_frac": (
            (off_cycles - plan_stats["on"]["cycles"]) / off_cycles
            if off_cycles
            else 0.0
        ),
    }


# -- lowering and the compilation cache -------------------------------------


def bench_lowering(quick: bool) -> dict:
    from repro.adaptive.optimizing import optimize_method
    from repro.vm import codecache
    from repro.vm.costs import CostModel
    from repro.workloads.suite import get_workload

    program = get_workload("db").build(1.0)
    costs = CostModel()
    methods = list(program.iter_methods())
    reps = 20 if quick else 100
    cache = codecache.GLOBAL

    def one_pass():
        for method in methods:
            optimize_method(method, program, 2, None, costs)

    cache.clear()
    t0 = time.perf_counter()
    for _ in range(reps):
        cache.clear()  # every compile is a miss
        one_pass()
    cold_wall = time.perf_counter() - t0

    cache.clear()
    one_pass()  # warm the cache once
    t0 = time.perf_counter()
    for _ in range(reps):
        one_pass()  # every compile is a hit
    warm_wall = time.perf_counter() - t0

    compiles = reps * len(methods)
    return {
        "workload": "db",
        "methods": len(methods),
        "reps": reps,
        "cold_compiles_per_sec": compiles / cold_wall,
        "warm_compiles_per_sec": compiles / warm_wall,
        "cache_speedup": cold_wall / warm_wall,
    }


# -- path reconstruction ----------------------------------------------------


def bench_reconstruction(quick: bool) -> dict:
    from repro.instrument.blpp_full import apply_full_blpp
    from repro.instrument.yieldpoints import insert_yieldpoints
    from repro.profiling.regenerate import PathResolver
    from repro.vm.costs import CostModel
    from repro.vm.interpreter import lower_method
    from repro.vm.runtime import VirtualMachine
    from repro.workloads.suite import get_workload

    # Full (non-sampled) path profiling records every completed path, so
    # one run yields the method's observed path-number population.
    program = get_workload("db").build(1.0)
    costs = CostModel()
    code = {}
    dags = {}
    for method in program.iter_methods():
        clone = method.clone()
        insert_yieldpoints(clone)
        inst = apply_full_blpp(clone, None)
        cm = lower_method(clone, "opt2", costs)
        if inst is not None:
            cm.attach_dag(inst.dag)
            dags[cm.profile_key] = inst.dag
        code[method.name] = cm
    vm = VirtualMachine(code, program.main, costs=costs)
    vm.run()
    observed = [
        (key, number)
        for key, number, _ in vm.path_profile.items()
        if key in dags
    ]
    if not observed:
        return {"resolved_paths": 0}

    reps = 30 if quick else 150
    t0 = time.perf_counter()
    for _ in range(reps):
        # Fresh unshared resolvers: every resolution is a memo miss.
        resolvers = {key: PathResolver(dag, shared=False) for key, dag in dags.items()}
        for key, number in observed:
            resolvers[key].branch_events(number)
    cold_wall = time.perf_counter() - t0

    resolvers = {key: PathResolver(dag, shared=False) for key, dag in dags.items()}
    for key, number in observed:
        resolvers[key].branch_events(number)  # warm the memo
    t0 = time.perf_counter()
    for _ in range(reps):
        for key, number in observed:
            resolvers[key].branch_events(number)
    warm_wall = time.perf_counter() - t0

    events = reps * len(observed)
    return {
        "workload": "db",
        "distinct_paths": len(observed),
        "reps": reps,
        "cold_resolutions_per_sec": events / cold_wall,
        "warm_resolutions_per_sec": events / warm_wall,
        "memo_speedup": cold_wall / warm_wall,
    }


# -- the engine: serial vs parallel sweep -----------------------------------


def bench_sweep(quick: bool, jobs: int) -> dict:
    from repro.engine import ExperimentPool, make_sweep_cells
    from repro.harness.experiment import BASE, config_to_spec, pep_config

    names = ["compress", "db"] if quick else ["compress", "db", "fop", "jess"]
    specs = [config_to_spec(BASE), config_to_spec(pep_config(64, 17))]
    scale = 1.0 if quick else 2.0
    cells = make_sweep_cells(names, specs, scale=scale)

    # Parallel first: the serial pass in the parent must not pre-warm
    # contexts that forked workers would then inherit.
    t0 = time.perf_counter()
    parallel = ExperimentPool(jobs=jobs, strict=True).run(cells)
    parallel_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = ExperimentPool(jobs=1, strict=True).run(cells)
    serial_wall = time.perf_counter() - t0

    digests_match = all(
        s.metrics["digest"] == p.metrics["digest"]
        for s, p in zip(serial, parallel)
    )
    return {
        "workloads": names,
        "cells": len(cells),
        "scale": scale,
        "jobs": jobs,
        "serial_wall_seconds": serial_wall,
        "parallel_wall_seconds": parallel_wall,
        "parallel_speedup": serial_wall / parallel_wall,
        "digests_match": digests_match,
    }


# -- driver -----------------------------------------------------------------


def normalized_interp_rate(report: dict) -> float:
    interp = report["metrics"]["interpreter"]
    # Schema 2 reports the default engine's rate as ``vcycles_per_sec``;
    # schema 1 baselines only have the fused tuple-interpreter rate.
    rate = interp.get("vcycles_per_sec", interp.get("fused_vcycles_per_sec"))
    return rate / report["calibration"]["pyops_per_sec"]


def git_sha() -> "str | None":
    try:
        proc = subprocess.run(
            ["git", "-C", _ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def append_history(report: dict, path: str) -> None:
    """Append one summary line per run to the perf-trajectory log.

    The log is append-only JSONL: each line carries the git SHA plus the
    headline metrics, so ``BENCH_history.jsonl`` reads as the repo's
    performance trend over commits without diffing full reports.
    """
    metrics = report["metrics"]
    interp = metrics.get("interpreter", {})
    sweep = metrics.get("sweep", {})
    sampling = metrics.get("sampling", {})
    line = {
        "schema": report["schema"],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "quick": report["quick"],
        "python": report["python"],
        "cpu_count": report["cpu_count"],
        "pyops_per_sec": report["calibration"]["pyops_per_sec"],
        "normalized_interp_rate": report.get("normalized_interp_rate"),
        "vcycles_per_sec": interp.get("vcycles_per_sec"),
        "blockjit_speedup": interp.get("blockjit_speedup"),
        "sampling_wall_overhead": sampling.get("sampling_wall_overhead"),
        "superblock_speedup": metrics.get("superblock", {}).get(
            "superblock_speedup"
        ),
        "fold_coverage": metrics.get("foldcov", {}).get("fold_coverage"),
        "probe_reduction": metrics.get("pgo", {}).get("probe_reduction"),
        "cache_speedup": metrics.get("lowering", {}).get("cache_speedup"),
        "memo_speedup": metrics.get("reconstruction", {}).get("memo_speedup"),
        "parallel_speedup": sweep.get("parallel_speedup"),
        "digests_match": sweep.get("digests_match"),
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


def check_regression(report: dict, baseline_path: str) -> int:
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        reference = normalized_interp_rate(baseline)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"bench_perf: unusable baseline {baseline_path!r}: {exc}")
        return 2
    current = normalized_interp_rate(report)
    ratio = current / reference
    floor = 1.0 - REGRESSION_TOLERANCE
    verdict = "OK" if ratio >= floor else "REGRESSION"
    print(
        f"bench_perf check: normalized interpreter rate "
        f"{current:.4f} vs baseline {reference:.4f} "
        f"(ratio {ratio:.2f}, floor {floor:.2f}) -> {verdict}"
    )
    rc = 0 if ratio >= floor else 1

    # Sampling-overhead gate: the sampled/unsampled wall ratio is
    # already machine-normalized (both walls move with the machine), so
    # it compares across runs directly.  A schema-2 baseline predates
    # the countdown datapath — its 1.77x would make any regression
    # invisible — so the gate needs a schema-3 baseline.
    base_sampling = baseline.get("metrics", {}).get("sampling", {})
    base_overhead = base_sampling.get("sampling_wall_overhead")
    overhead = report["metrics"]["sampling"]["sampling_wall_overhead"]
    if baseline.get("schema", 0) < 3 or not base_overhead:
        print(
            "bench_perf check: sampling overhead gate skipped "
            f"(baseline schema {baseline.get('schema')}, needs >= 3)"
        )
        return rc
    ceiling = base_overhead * (1.0 + SAMPLING_REGRESSION_TOLERANCE)
    verdict = "OK" if overhead <= ceiling else "REGRESSION"
    print(
        f"bench_perf check: sampling wall overhead {overhead:.3f}x vs "
        f"baseline {base_overhead:.3f}x (ceiling {ceiling:.3f}x) "
        f"-> {verdict}"
    )
    return rc or (0 if overhead <= ceiling else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--out",
        default=os.path.join(_ROOT, "BENCH_perf.json"),
        help="output path (default: BENCH_perf.json at the repo root)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="worker count for the parallel sweep comparison (default 4)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="compare against a baseline BENCH_perf.json; exit 1 on a "
        f">{REGRESSION_TOLERANCE:.0%}".replace("%", "%%")
        + " normalized interpreter regression",
    )
    parser.add_argument(
        "--history",
        metavar="PATH",
        default=os.path.join(_ROOT, "BENCH_history.jsonl"),
        help="append-only JSONL perf trajectory (default: "
        "BENCH_history.jsonl at the repo root; pass '' to disable)",
    )
    parser.add_argument(
        "--stage",
        action="append",
        choices=[
            "interpreter", "sampling", "superblock", "foldcov",
            "pgo", "lowering", "reconstruction", "sweep",
        ],
        default=None,
        help="run only the named stage (repeatable; default: all). "
        "Partial runs skip the history append and the cross-stage "
        "gates — they are for iterating on one measurement",
    )
    args = parser.parse_args(argv)

    report = {
        "schema": SCHEMA,
        "generated_by": "scripts/bench_perf.py",
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "calibration": calibrate(),
        "metrics": {},
    }
    stages = [
        ("interpreter", lambda: bench_interpreter(args.quick)),
        ("sampling", lambda: bench_sampling(args.quick)),
        ("superblock", lambda: bench_superblock(args.quick)),
        ("foldcov", lambda: bench_foldcov(args.quick)),
        ("pgo", lambda: bench_pgo(args.quick)),
        ("lowering", lambda: bench_lowering(args.quick)),
        ("reconstruction", lambda: bench_reconstruction(args.quick)),
        ("sweep", lambda: bench_sweep(args.quick, args.jobs)),
    ]
    if args.stage:
        stages = [(name, fn) for name, fn in stages if name in args.stage]
    partial = args.stage is not None
    for name, stage in stages:
        t0 = time.perf_counter()
        report["metrics"][name] = stage()
        print(
            f"bench_perf: {name} done in "
            f"{time.perf_counter() - t0:.1f}s", flush=True
        )

    metrics = report["metrics"]
    cpu_count = report["cpu_count"] or 1
    sweep = metrics.get("sweep")
    if sweep is not None:
        # Record whether the parallel-speedup floor is enforceable on
        # this runner *in the report itself* — a green check on a
        # single-core runner must not read as a passed gate.
        if cpu_count > 1 and sweep["jobs"] > 1:
            sweep["parallel_speedup_gate"] = "enforced"
        elif cpu_count <= 1:
            sweep["parallel_speedup_gate"] = "skipped_single_core"
        else:
            sweep["parallel_speedup_gate"] = "skipped_single_job"
    if "interpreter" in metrics:
        report["normalized_interp_rate"] = normalized_interp_rate(report)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"bench_perf: wrote {args.out}")
    if args.history and not partial:
        append_history(report, args.history)
        print(f"bench_perf: appended history line to {args.history}")

    if partial:
        for name in args.stage:
            stage_metrics = metrics.get(name, {})
            if "superblock_speedup" in stage_metrics:
                print(
                    f"bench_perf: superblock_speedup "
                    f"{stage_metrics['superblock_speedup']:.2f}x"
                )
            if "probe_reduction" in stage_metrics:
                print(
                    f"bench_perf: probe_reduction "
                    f"{stage_metrics['probe_reduction']:.3f}"
                )
            if stage_metrics.get("fold_coverage") is not None:
                print(
                    f"bench_perf: fold_coverage "
                    f"{stage_metrics['fold_coverage']:.3f}"
                )
        return 0

    interp = metrics["interpreter"]
    sampling = metrics["sampling"]
    superblock = metrics["superblock"]
    foldcov = metrics["foldcov"]
    pgo = metrics["pgo"]
    sb_text = (
        f"{superblock['superblock_speedup']:.2f}x"
        if superblock.get("superblock_installed")
        else "n/a"
    )
    fc_text = (
        f"{foldcov['fold_coverage']:.3f}"
        if foldcov.get("fold_coverage") is not None
        else "n/a"
    )
    print(
        f"bench_perf: blockjit speedup {interp['blockjit_speedup']:.2f}x "
        f"over the tuple interpreter, sampling wall overhead "
        f"{sampling['sampling_wall_overhead']:.2f}x, superblock hot-loop "
        f"speedup {sb_text} over plain blockjit, fold coverage {fc_text}, "
        f"min-coverage probes {pgo['probes_placed']}/{pgo['probes_full']}, "
        f"parallel speedup "
        f"{sweep['parallel_speedup']:.2f}x ({sweep['jobs']} jobs on "
        f"{cpu_count} cores), digests_match={sweep['digests_match']}"
    )
    if not sweep["digests_match"]:
        print("bench_perf: FATAL parallel results diverged from serial")
        return 1
    rc = 0
    # Absolute sampling-overhead ceiling (full runs only: quick runs are
    # too short for the ratio to be trustworthy at 1.3x resolution).
    overhead = sampling["sampling_wall_overhead"]
    if not args.quick and overhead > SAMPLING_OVERHEAD_CEILING:
        print(
            f"bench_perf: FATAL sampling wall overhead {overhead:.3f}x "
            f"exceeds the {SAMPLING_OVERHEAD_CEILING:.2f}x ceiling"
        )
        rc = 1
    # Superblock hot-loop floor (full runs only, and only when a trace
    # actually installed — REPRO_SUPERBLOCK=0 runs report n/a).
    if not args.quick and superblock.get("superblock_installed"):
        if superblock["superblock_speedup"] < SUPERBLOCK_SPEEDUP_FLOOR:
            print(
                f"bench_perf: FATAL superblock hot-loop speedup "
                f"{superblock['superblock_speedup']:.3f}x below the "
                f"{SUPERBLOCK_SPEEDUP_FLOOR:.2f}x floor"
            )
            rc = 1
    # Fold coverage is deterministic, so it gates quick runs too: the
    # recalibrated grid certifies every default-model method, and any
    # value below 1.0 means a cost constant drifted off the Q20 grid.
    if foldcov.get("fold_coverage") is not None:
        if foldcov["fold_coverage"] != 1.0:
            print(
                f"bench_perf: FATAL fold coverage "
                f"{foldcov['fold_coverage']:.3f} != 1.0 "
                f"({foldcov['fold_rejected']} methods rejected)"
            )
            rc = 1
    # The probe-placement saving (full runs only).
    if not args.quick and pgo["probe_reduction"] <= 0.0:
        print(
            f"bench_perf: FATAL min-coverage placed "
            f"{pgo['probes_placed']} probes vs {pgo['probes_full']} "
            f"full — no reduction"
        )
        rc = 1
    if args.check:
        # Keep the worst verdict: a floor that already failed above
        # must not be masked by a passing baseline comparison.
        rc = max(rc, check_regression(report, args.check))
        # The parallel-speedup floor only means something when the
        # runner can actually run workers concurrently; on a single
        # core, parallel ≈ serial (plus pool overhead) is the expected
        # outcome, so the gate is skipped instead of flaking.  The skip
        # is recorded in the report (parallel_speedup_gate) and
        # surfaced as a CI annotation so it never masquerades as a
        # pass.
        if sweep["parallel_speedup_gate"] == "enforced":
            if sweep["parallel_speedup"] < PARALLEL_SPEEDUP_FLOOR:
                print(
                    f"bench_perf check: parallel speedup "
                    f"{sweep['parallel_speedup']:.2f}x below floor "
                    f"{PARALLEL_SPEEDUP_FLOOR:.2f}x -> REGRESSION"
                )
                rc = rc or 1
            else:
                print(
                    f"bench_perf check: parallel speedup "
                    f"{sweep['parallel_speedup']:.2f}x >= floor "
                    f"{PARALLEL_SPEEDUP_FLOOR:.2f}x -> OK"
                )
        else:
            print(
                "bench_perf check: parallel speedup gate skipped "
                f"(cpu_count={cpu_count}, jobs={sweep['jobs']}; "
                "needs a multi-core runner to be meaningful)"
            )
            print(
                "::notice::bench_perf parallel-speedup gate "
                f"{sweep['parallel_speedup_gate']} on this runner "
                f"(cpu_count={cpu_count}, jobs={sweep['jobs']}) — "
                "the floor was NOT enforced"
            )
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
