"""The benchmark's workloads, and the tuple-interpreter oracle they share.

Each workload is a list of guest programs per pass.  For every program
the harness calls ``setup`` (timed as set-up), ``run`` (timed as the
measured run), ``outcome`` (untimed: digests and counters), and, after
all timed passes, ``oracle`` — the same pipeline on the same program
and seed under the tuple interpreter (``REPRO_BLOCKJIT=0``), whose
digest every measured run must equal.

Only public functions of the program are called.  Calls that the span
tracer wraps go through their module (``optimizing.optimize_method``,
``experiment.run_config``, ...) so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import os
from typing import List, Sequence

from perfbench import WORKLOADS
from repro.adaptive import controller, optimizing
from repro.harness import accuracy, experiment
from repro.metrics import overlap, wall
from repro.persist import edge_profile_to_dict, path_profile_to_dict, payload_checksum
from repro.resilience import ResilienceManager
from repro.sampling.arnold_grove import SamplingConfig
from repro.vm import blockjit, pgo
from repro.vm.costs import CostModel
from repro.vm.runtime import VirtualMachine
from repro.vm.superblock import is_kpath
from repro.workloads.generator import GeneratorSpec, random_program
from repro.workloads.suite import benchmark_suite, get_workload

#: PEP(64,17), the paper's production sampling configuration.
SAMPLES, STRIDE = 64, 17

#: Fig. 11's timer phase noise (fraction of one tick interval).
TICK_JITTER = 0.2

#: Corpus program shape: every seed in 0-79 completes, ~0.1 s a program.
CORPUS_SPEC = GeneratorSpec(
    n_helpers=8, max_depth=2, max_stmts=5, max_trip=3, work_budget=300
)

#: Timer ticks per corpus program: ``api.profile_adaptive``'s default.
CORPUS_TICKS = 200


@contextlib.contextmanager
def interpreter_only():
    """Run the enclosed pipeline on the tuple interpreter (the oracle)."""
    saved = os.environ.get(blockjit.ENV_DISABLE)
    os.environ[blockjit.ENV_DISABLE] = "0"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(blockjit.ENV_DISABLE, None)
        else:
            os.environ[blockjit.ENV_DISABLE] = saved


def run_digest(vm: VirtualMachine, result, base_cycles: float) -> str:
    """Cycles, output, return value and path/edge profiles of one run."""
    return payload_checksum(
        {
            "paths": path_profile_to_dict(vm.path_profile),
            "edges": edge_profile_to_dict(vm.edge_profile),
            "output": list(vm.output),
            "return_value": result.return_value,
            "cycles": result.cycles,
            "base_cycles": base_cycles,
        }
    )


class Outcome:
    """What one measured program produced, reduced to plain numbers."""

    __slots__ = (
        "digest", "scores", "cycles", "vcycles", "base_cycles", "samples",
        "strides", "recompiles", "trace_promotions", "ktrace_promotions",
        "warm_promotions", "engagement",
    )

    def __init__(self, digest: str, cycles: float, vcycles: float,
                 base_cycles: float, result, engagement: dict) -> None:
        self.digest = digest
        # Pass-invariant scores (replay accuracies); compared across passes.
        self.scores: tuple = ()
        self.cycles = cycles
        # Guest cycles of every profiled run in the measured region.
        self.vcycles = vcycles
        self.base_cycles = base_cycles
        self.samples = result.samples_taken
        self.strides = result.strides_skipped
        self.recompiles = 0
        self.trace_promotions = 0
        self.ktrace_promotions = 0
        self.warm_promotions = 0
        self.engagement = engagement


# -- the adaptive path (suite-adaptive, corpus-startup) ---------------------


def profile_adaptive(program, ticks: int, jitter_seed: int):
    """The calls ``api.profile_adaptive`` makes, with Fig. 11's jitter.

    An opt-2 dry run calibrates the timer to ``ticks`` ticks, then the
    adaptive system with a resilience manager and PEP(64,17) runs the
    program from baseline code.
    """
    costs = CostModel()
    base_code = {}
    for method in program.iter_methods():
        base_code[method.name], _ = optimizing.optimize_method(
            method, program, 2, None, costs, instrumentation=None, injector=None
        )
    base = VirtualMachine(base_code, program.main, costs=costs).run()
    system = controller.AdaptiveSystem(
        program,
        costs=costs,
        config=controller.AdaptiveConfig(pep=SamplingConfig(SAMPLES, STRIDE)),
        resilience=ResilienceManager(),
    )
    vm = system.make_vm(
        tick_interval=max(base.cycles / ticks, 1.0),
        tick_jitter=TICK_JITTER,
        jitter_seed=jitter_seed,
    )
    result = vm.run()
    return base, system, vm, result


def adaptive_outcome(run) -> Outcome:
    base, system, vm, result = run
    out = Outcome(
        run_digest(vm, result, base.cycles),
        result.cycles,
        result.cycles + base.cycles,
        base.cycles,
        result,
        pgo.engagement_summary(system.code)["totals"],
    )
    out.recompiles = len(system.compile_log)
    for _name, _key, path in system.superblock_log:
        if is_kpath(path):
            out.ktrace_promotions += 1
        else:
            out.trace_promotions += 1
    out.warm_promotions = len(system.warmjit_log)
    return out


class SuiteAdaptive:
    """Fig. 11's production configuration over the curated suite."""

    name = "suite-adaptive"
    min_passes, max_passes = 2, None

    def __init__(self, scale: float, names: Sequence[str]) -> None:
        self.scale = scale
        self.names = list(names)

    def keys(self, seed: int, pass_index: int) -> List[str]:
        return list(self.names)

    def setup(self, key: str, seed: int):
        workload = get_workload(key)
        return workload, workload.build(self.scale)

    def run(self, state, seed: int):
        workload, program = state
        return profile_adaptive(program, workload.ticks_target, seed)

    def outcome(self, state, run) -> Outcome:
        return adaptive_outcome(run)

    def oracle(self, state, seed: int) -> str:
        with interpreter_only():
            return self.outcome(state, self.run(state, seed)).digest


#: Generator seeds of the warm-up programs, disjoint from the pool.
CORPUS_WARMUP_BASE = 10_000


class CorpusStartup:
    """Many short generated programs: the start-up regime.

    The corpus is a fixed pool of generated programs (generator seeds
    ``0 .. pool-1``), profiled once each, in batches of ``batch``; the
    benchmark seed seeds every program's timer jitter.  The pool is
    fixed because per-program cost varies widely (CV about 0.75): a
    corpus drawn afresh per seed moved run_s by 12% from seed to seed.
    """

    name = "corpus-startup"

    def __init__(self, pool: int, batch: int) -> None:
        if pool % batch:
            raise ValueError("corpus pool must be whole batches")
        self.batch = batch
        self.min_passes = self.max_passes = pool // batch

    def keys(self, seed: int, pass_index: int) -> List[int]:
        if pass_index == 0:
            first = CORPUS_WARMUP_BASE
        else:
            first = (pass_index - 1) % self.max_passes * self.batch
        return list(range(first, first + self.batch))

    def setup(self, key: int, seed: int):
        return random_program(key, CORPUS_SPEC)

    def run(self, program, seed: int):
        return profile_adaptive(program, CORPUS_TICKS, seed)

    def outcome(self, program, run) -> Outcome:
        return adaptive_outcome(run)

    def oracle(self, program, seed: int) -> str:
        with interpreter_only():
            return self.outcome(program, self.run(program, seed)).digest


# -- the replay methodology (suite-replay) ----------------------------------


class SuiteReplay:
    """``prepare`` as set-up; PEP iteration 2, perfect profiles, scoring."""

    name = "suite-replay"
    min_passes, max_passes = 2, None

    def __init__(self, scale: float, names: Sequence[str]) -> None:
        self.scale = scale
        self.names = list(names)
        self.config = experiment.pep_config(SAMPLES, STRIDE)

    def keys(self, seed: int, pass_index: int) -> List[str]:
        return list(self.names)

    def setup(self, key: str, seed: int):
        return experiment.prepare(get_workload(key), scale=self.scale, use_cache=False)

    def _iteration2(self, ctx, seed: int):
        return experiment.run_config(
            ctx, self.config, tick_jitter=TICK_JITTER, jitter_seed=seed
        )

    def run(self, ctx, seed: int):
        vm, result = self._iteration2(ctx, seed)
        perfect = accuracy.collect_perfect_profiles(ctx)
        path_acc = wall.path_profile_accuracy(
            perfect.paths, vm.path_profile, perfect.resolvers
        )
        edge_acc = overlap.relative_overlap(perfect.edges, vm.edge_profile)
        return vm, result, path_acc, edge_acc

    def outcome(self, ctx, run) -> Outcome:
        vm, result, path_acc, edge_acc = run
        out = Outcome(
            run_digest(vm, result, ctx.base_cycles),
            result.cycles,
            result.cycles,
            ctx.base_cycles,
            result,
            pgo.engagement_summary(ctx.image("pep").code)["totals"],
        )
        out.scores = (path_acc, edge_acc)
        return out

    def oracle(self, ctx, seed: int) -> str:
        with interpreter_only():
            vm, result = self._iteration2(ctx, seed)
        return run_digest(vm, result, ctx.base_cycles)


#: Sizes: ``full`` is the benchmark of record; ``tiny`` is a smoke test.
_SUITE_TINY = ("compress", "zigzag")


def make_workload(name: str, size: str = "full"):
    """The named workload at the benchmark's size (or a tiny smoke size)."""
    tiny = size == "tiny"
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    everything = [w.name for w in benchmark_suite()]
    if name == "suite-adaptive":
        return SuiteAdaptive(0.3 if tiny else 6.0,
                             _SUITE_TINY if tiny else everything)
    if name == "corpus-startup":
        return CorpusStartup(6, 3) if tiny else CorpusStartup(96, 16)
    if name == "suite-replay":
        return SuiteReplay(0.3 if tiny else 4.0,
                           _SUITE_TINY if tiny else everything)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
