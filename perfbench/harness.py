"""Timed passes, the oracle check, and the metrics the benchmark reports.

One benchmark run is, in order:

1. set-up timing of ``import repro`` in five fresh interpreters
   (untraced runs only);
2. a warm-up pass, checked but not timed, so lazy imports and memo
   population stay out of the figures;
3. measured passes until ``--seconds`` have elapsed and at least the
   workload's ``min_passes`` ran (the corpus runs its fixed pool once,
   whatever ``--seconds`` says).  A traced run alternates untraced and
   traced passes over the same programs, so ``trace.overhead`` compares
   like with like;
4. the oracle: every program profiled above runs once more on the tuple
   interpreter, and every measured run's digest must equal it.

Each guest program profiled is one operation.  It fails if it raises,
if its digest differs from the oracle's, or if its scores differ from
another pass of the same program.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

from perfbench import calibrate
from perfbench.calibrate import Measured, Meter
from perfbench.spans import Tracer
from perfbench.workloads import make_workload

MIN_TRACED_PASSES = 2
IMPORT_PROBES = 5

# Runs in a fresh interpreter: times ``import repro`` between two
# calibration loops of that same process.
IMPORT_PROBE = """\
import importlib
from perfbench.calibrate import Meter

MODULES = ("repro.api", "repro.harness.accuracy", "repro.persist",
           "repro.workloads.generator")
_, m = Meter().time(lambda: [importlib.import_module(n) for n in MODULES])
print(m.raw_s, m.rate_before, m.rate_after)
"""

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "vcycles_per_s": "vcycles/s",
    "peak_rss_mb": "MB",
    "pep_overhead_pct": "%",
}


class Op:
    """One guest program profiled in one pass."""

    __slots__ = ("key", "outcome", "error", "setup", "run")

    def __init__(self, key, outcome=None, error: Optional[str] = None,
                 setup: Optional[Measured] = None,
                 run: Optional[Measured] = None) -> None:
        self.key = key
        self.outcome = outcome
        self.error = error
        self.setup = setup
        self.run = run


class PassRecord:
    """Calibrated timings, operations and (traced) layer figures of a pass."""

    def __init__(self, index: int, traced: bool) -> None:
        self.index = index
        self.traced = traced
        self.ops: List[Op] = []
        # Layer name -> [calls, self_s, total_s, truthy]; traced passes.
        self.layers: Dict[str, list] = {}
        self.cache_stats: Dict[str, int] = {}

    def measured(self, phase: str) -> List[Measured]:
        return [getattr(op, phase) for op in self.ops if op.outcome is not None]

    @property
    def run_s(self) -> float:
        return sum(m.seconds for m in self.measured("run"))

    def audit(self) -> dict:
        """Raw wall time and loop rates beside each calibrated figure."""
        setup, run = self.measured("setup"), self.measured("run")
        rates = [m.rate for m in run]
        return {
            "audit": "pass",
            "index": self.index,
            "traced": self.traced,
            "programs": len(self.ops),
            "setup_s": sum(m.seconds for m in setup),
            "setup_raw_s": sum(m.raw_s for m in setup),
            "run_s": self.run_s,
            "run_raw_s": sum(m.raw_s for m in run),
            "loop_rate_min": min(rates) if rates else None,
            "loop_rate_median": statistics.median(rates) if rates else None,
            "reference_rate": calibrate.REFERENCE_RATE,
        }


def _cache():
    from repro.vm.codecache import active_cache

    return active_cache()


def run_pass(workload, seed: int, index: int, keys, states: dict,
             tracer: Optional[Tracer] = None) -> PassRecord:
    """Set up and profile each program of one pass, timing both phases."""
    record = PassRecord(index, tracer is not None)
    cache = _cache()
    if cache is not None:
        # Every pass starts like a fresh process: no compiled code cached.
        cache.clear()
    for key in keys:
        if tracer is not None:
            tracer.reset()
        # Garbage of earlier programs is collected outside the timed
        # regions; long-lived objects were frozen after the warm-up.
        gc.collect()
        try:
            meter = Meter()
            state, setup = meter.time(lambda: workload.setup(key, seed))
            run, measured = meter.time(lambda: workload.run(state, seed))
            outcome = workload.outcome(state, run)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            record.ops.append(Op(key, error=traceback.format_exc(limit=1)))
            continue
        del run
        states[key] = state
        record.ops.append(Op(key, outcome, setup=setup, run=measured))
        if tracer is not None:
            _accumulate(record.layers, tracer, measured.factor)
    if cache is not None:
        record.cache_stats = dict(cache.stats())
    return record


def _accumulate(layers: Dict[str, list], tracer: Tracer, factor: float) -> None:
    for name, stats in tracer.stats.items():
        acc = layers.setdefault(name, [0, 0.0, 0.0, 0])
        acc[0] += stats.calls
        acc[1] += stats.self_s * factor
        acc[2] += stats.total_s * factor
        acc[3] += stats.truthy


def time_imports(src: str, probes: int = IMPORT_PROBES) -> List[Measured]:
    """Calibrated ``import repro`` time in ``probes`` fresh interpreters."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root, src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    timings = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        raw, before, after = map(float, done.stdout.split()[-3:])
        timings.append(Measured(raw, before, after))
    return timings


def check_ops(workload, seed: int, records: List[PassRecord],
              states: dict, oracle=None) -> int:
    """Count failed operations: errors, oracle mismatches, score drift."""
    oracle = oracle if oracle is not None else workload.oracle
    cache = _cache()
    expected: Dict[object, Optional[str]] = {}
    scores: Dict[object, tuple] = {}
    failed = 0
    for record in records:
        for op in record.ops:
            if op.error is not None:
                failed += 1
                continue
            if op.key not in expected:
                if cache is not None:
                    cache.clear()
                try:
                    expected[op.key] = oracle(states[op.key], seed)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    expected[op.key] = None
            first = scores.setdefault(op.key, op.outcome.scores)
            if op.outcome.digest != expected[op.key] or op.outcome.scores != first:
                print(f"perfbench: {workload.name} program {op.key!r} "
                      f"(pass {record.index}) differs from the oracle "
                      "or from an earlier pass",
                      file=sys.stderr)
                failed += 1
    return failed


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def by_program(records: List[PassRecord]) -> Dict[object, List[Op]]:
    """Successful operations of the given passes, grouped by program."""
    groups: Dict[object, List[Op]] = {}
    for record in records:
        for op in record.ops:
            if op.outcome is not None:
                groups.setdefault(op.key, []).append(op)
    return groups


def end_to_end(records: List[PassRecord], imports: List[Measured]) -> dict:
    """The user-visible metrics of the untraced passes.

    A program's time is the median of its calibrated times over the
    passes that ran it; ``run_s`` and ``setup_s`` sum those medians over
    the workload's distinct programs (17 curated workloads, or the
    corpus pool).  Guest cycles and overheads are exact per seed.
    """
    groups = by_program(records)
    run_s = sum(_median([op.run.seconds for op in ops]) for ops in groups.values())
    firsts = [ops[0].outcome for ops in groups.values()]
    values = {
        "run_s": run_s,
        "setup_s": _median([m.seconds for m in imports]) + sum(
            _median([op.setup.seconds for op in ops]) for ops in groups.values()
        ),
        "vcycles_per_s": (
            sum(out.vcycles for out in firsts) / run_s if run_s else 0.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Mean per-program overhead, as Figs. 6 and 11 average benchmarks.
        "pep_overhead_pct": statistics.fmean(
            [100.0 * (out.cycles / out.base_cycles - 1.0) for out in firsts]
        ) if firsts else 0.0,
    }
    return {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
            for name in END_TO_END_UNITS}


# -- per-layer metrics ------------------------------------------------------

def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "coverage", "accuracy", "overhead")):
        return "ratio"
    return "count"


def _pass_layers(record: PassRecord) -> Dict[str, float]:
    layers = record.layers

    def calls(name):
        return layers.get(name, [0, 0.0, 0.0, 0])[0]

    def self_s(name):
        return layers.get(name, [0, 0.0, 0.0, 0])[1]

    def total_s(name):
        return layers.get(name, [0, 0.0, 0.0, 0])[2]

    outcomes = [op.outcome for op in record.ops if op.outcome is not None]
    tiers: Dict[str, float] = {}
    for out in outcomes:
        for key, value in out.engagement.items():
            if isinstance(value, (int, float)):
                tiers[key] = tiers.get(key, 0) + value
    folded = tiers.get("fold_certified", 0) + tiers.get("fold_rejected", 0)
    installs = calls("superblock.install")
    hits = record.cache_stats.get("hits", 0)
    misses = record.cache_stats.get("misses", 0)
    scored = [out.scores for out in outcomes if out.scores]
    return {
        "runtime.exec_self_s": self_s("runtime.exec"),
        "runtime.tick_self_s": self_s("runtime.tick"),
        "runtime.tick_calls": calls("runtime.tick"),
        "runtime.yieldpoint_self_s": self_s("runtime.yieldpoint"),
        "runtime.yieldpoint_calls": calls("runtime.yieldpoint"),
        "sampler.yieldpoint_self_s": self_s("sampler.yieldpoint"),
        "sampler.yieldpoint_calls": calls("sampler.yieldpoint"),
        "sampler.tick_self_s": self_s("sampler.tick"),
        "sampler.tick_calls": calls("sampler.tick"),
        "sampler.flush_self_s": self_s("sampler.flush"),
        "sampler.samples": sum(out.samples for out in outcomes),
        "sampler.strides": sum(out.strides for out in outcomes),
        "resolver.branch_events_self_s": self_s("resolver.branch_events"),
        "resolver.branch_events_calls": calls("resolver.branch_events"),
        "controller.self_s": self_s("controller"),
        "controller.calls": calls("controller"),
        "controller.recompiles": sum(out.recompiles for out in outcomes),
        "controller.trace_promotions": sum(out.trace_promotions for out in outcomes),
        "controller.ktrace_promotions": sum(out.ktrace_promotions for out in outcomes),
        "controller.warm_promotions": sum(out.warm_promotions for out in outcomes),
        "optimizing.compile_self_s": self_s("optimizing.compile"),
        "optimizing.compile_calls": calls("optimizing.compile"),
        "baseline.compile_self_s": self_s("baseline.compile"),
        "baseline.compile_calls": calls("baseline.compile"),
        "superblock.install_self_s": self_s("superblock.install"),
        "superblock.install_calls": installs,
        "superblock.install_ratio": (
            layers.get("superblock.install", [0, 0, 0, 0])[3] / installs
            if installs else 0.0
        ),
        "blockjit.ensure_jit_self_s": self_s("blockjit.ensure_jit"),
        "blockjit.ensure_jit_calls": calls("blockjit.ensure_jit"),
        "codecache.hits": hits,
        "codecache.misses": misses,
        "codecache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "replay.record_advice_s": total_s("replay.record_advice"),
        "replay.compile_s": total_s("replay.compile"),
        "replay.iter2_s": total_s("replay.iter2"),
        "accuracy.perfect_s": total_s("accuracy.perfect"),
        "accuracy.score_s": total_s("accuracy.path_score")
        + total_s("accuracy.edge_score"),
        "path_accuracy": statistics.fmean(s[0] for s in scored) if scored else 0.0,
        "edge_accuracy": statistics.fmean(s[1] for s in scored) if scored else 0.0,
        "tiers.tracefast_methods": tiers.get("tracefast_installs", 0),
        "tiers.warm_methods": tiers.get("warmjit_installs", 0),
        "tiers.blockjit_methods": tiers.get("blockjit_methods", 0),
        "tiers.inline_sites": tiers.get("pgo_inline_sites", 0),
        "tiers.fold_coverage": (
            tiers.get("fold_certified", 0) / folded if folded else 0.0
        ),
    }


def per_layer(records: List[PassRecord]) -> dict:
    """Per-layer figures: means over the traced passes.

    ``trace.overhead`` divides the traced passes' run time by that of
    the untraced passes over the same programs.
    """
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    rows = [_pass_layers(r) for r in traced]
    values = {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}
    plain_s = sum(r.run_s for r in plain)
    values["trace.overhead"] = (
        sum(r.run_s for r in traced) / plain_s if plain_s else 0.0
    )
    return {name: {"value": value, "unit": _unit(name)}
            for name, value in values.items()}


# -- the benchmark ----------------------------------------------------------


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", src: Optional[str] = None,
                  emit=print, oracle=None) -> dict:
    """One benchmark run; returns the result object the CLI prints last."""
    workload = make_workload(name, size)
    imports = [] if trace or src is None else time_imports(src)
    for m in imports:
        emit(_json({"audit": "import", "s": m.seconds, "raw_s": m.raw_s,
                    "loop_rate": m.rate}))
    states: dict = {}
    warmup = run_pass(workload, seed, 0, workload.keys(seed, 0), states)
    gc.collect()
    gc.freeze()
    try:
        records = _measured_passes(workload, seed, seconds, trace, states)
    finally:
        gc.unfreeze()
    for record in records:
        emit(_json(record.audit()))
    metrics = per_layer(records) if trace else end_to_end(records, imports)
    everything = [warmup] + records
    failed = check_ops(workload, seed, everything, states, oracle)
    attempted = sum(len(r.ops) for r in everything)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _measured_passes(workload, seed: int, seconds: float, trace: bool,
                     states: dict) -> List[PassRecord]:
    records: List[PassRecord] = []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    index = 1
    while True:
        keys = workload.keys(seed, index)
        if tracer is None:
            records.append(run_pass(workload, seed, index, keys, states))
        else:
            # Alternate which side runs first so neither gains from the
            # other's warmed memos.
            for traced in ((False, True) if index % 2 else (True, False)):
                if traced:
                    with tracer:
                        records.append(
                            run_pass(workload, seed, index, keys, states, tracer)
                        )
                else:
                    records.append(run_pass(workload, seed, index, keys, states))
        if workload.max_passes is not None and index >= workload.max_passes:
            break
        index += 1
        enough = MIN_TRACED_PASSES if tracer is not None else workload.min_passes
        if len(records) >= enough and time.perf_counter() - start >= seconds:
            break
    return records


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True)
