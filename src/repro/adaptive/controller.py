"""The adaptive optimization system (paper section 4.1).

Methods start baseline-compiled; timer-driven method samples accumulate,
and crossing a threshold triggers recompilation at the next optimization
level using the edge profile available *at that moment* — the one-time
baseline profile in a stock configuration, or the continuously updated
profile when PEP is collecting (section 6.5 / figure 11).  Compile time
is charged to the running program, as on the paper's single test machine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bytecode.method import Program
from repro.errors import CompilationError
from repro.profiling.regenerate import PathResolver
from repro.sampling.arnold_grove import (
    ArnoldGroveSampler,
    SamplingConfig,
    TimerMethodSampler,
)
from repro.adaptive.baseline import compile_baseline
from repro.adaptive.optimizing import optimize_method
from repro.vm.costs import CostModel
from repro.vm.interpreter import CompiledMethod
from repro.vm.runtime import VirtualMachine


class AdaptiveConfig:
    """Knobs of the adaptive system."""

    __slots__ = ("thresholds", "pep", "instrumentation")

    def __init__(
        self,
        thresholds: Tuple[Tuple[int, int], ...] = ((2, 0), (6, 1), (14, 2)),
        pep: Optional[SamplingConfig] = None,
        instrumentation: Optional[str] = None,
    ) -> None:
        # thresholds: (samples needed, opt level), ascending.
        self.thresholds = thresholds
        # PEP sampling configuration; implies "pep" instrumentation.
        self.pep = pep
        self.instrumentation = (
            instrumentation if instrumentation is not None
            else ("pep" if pep is not None else None)
        )


class AdaptiveSystem:
    """Owns the code cache and reacts to method samples."""

    def __init__(
        self,
        program: Program,
        costs: Optional[CostModel] = None,
        config: Optional[AdaptiveConfig] = None,
        resilience=None,
    ) -> None:
        self.program = program
        self.costs = costs if costs is not None else CostModel()
        self.config = config if config is not None else AdaptiveConfig()
        # Fault-injection + degradation layer (repro.resilience).  When
        # present, a failed opt-compile keeps the current body and backs
        # off instead of aborting the run.
        self.resilience = resilience
        self.samples: Dict[str, int] = {}
        self.levels: Dict[str, Optional[int]] = {}  # None = baseline
        self.versions: Dict[str, int] = {}
        self.compile_log: List[Tuple[str, int]] = []
        # Resolver of every PEP-instrumented compiled version, keyed by
        # profile key, so path profiles of superseded versions stay
        # interpretable after recompilation.
        self.resolvers: Dict[str, PathResolver] = {}
        self.startup_compile_cycles = 0.0
        self.code: Dict[str, CompiledMethod] = {}
        # Always empty: superblock traces (DESIGN.md §11) and the warm
        # ladder (§15) are retired.  The benchmark still reads both for
        # its promotion counts; the benchmark change of ROADMAP item 2
        # drops them.
        self.superblock_log: List[Tuple[str, str, int]] = []
        self.warmjit_log: List[Tuple[str, str]] = []
        self._bootstrap()

    def _bootstrap(self) -> None:
        """Baseline-compile every method and charge every compile to
        start-up (paper §4.1 charges compilation to the run).

        ``compile_baseline`` prices a method at once but builds its
        body at its first entry, as Jikes RVM compiles a method when it
        is first invoked: a method the run never enters is never built,
        and a pipeline error surfaces at the first entry.
        """
        for method in self.program.iter_methods():
            cm, cycles = compile_baseline(method, self.costs, version=0)
            self.code[method.name] = cm
            self.levels[method.name] = None
            self.versions[method.name] = 0
            self.startup_compile_cycles += cycles

    def make_vm(
        self,
        tick_interval: float,
        tick_jitter: float = 0.0,
        jitter_seed: int = 0,
    ) -> VirtualMachine:
        """A VM wired to this system's code cache and sample listener."""
        if self.config.pep is not None:
            sampler = ArnoldGroveSampler(self.config.pep)
        else:
            sampler = TimerMethodSampler()
        vm = VirtualMachine(
            self.code,
            self.program.main,
            costs=self.costs,
            tick_interval=tick_interval,
            sampler=sampler,
            method_sample_listener=self.on_method_sample,
            tick_jitter=tick_jitter,
            jitter_seed=jitter_seed,
            resilience=self.resilience,
        )
        # Startup (baseline) compilation happened before main ran, but it
        # is part of the program's wall-clock just the same.
        vm.cycles += self.startup_compile_cycles
        vm.compile_cycles += self.startup_compile_cycles
        return vm

    # -- the sample listener -------------------------------------------------

    def on_method_sample(self, vm: VirtualMachine, source_name: str) -> float:
        """Count a sample; recompile when a threshold is crossed.

        Returns the compile cycles charged (0.0 when nothing compiled).
        """
        count = self.samples.get(source_name, 0) + 1
        self.samples[source_name] = count

        target: Optional[int] = None
        for needed, level in self.config.thresholds:
            if count >= needed:
                target = level
        if target is None:
            return 0.0
        current = self.levels.get(source_name)
        if current is not None and current >= target:
            return 0.0

        method = self.program.methods.get(source_name)
        if method is None:
            return 0.0

        resilience = self.resilience
        instrumentation = self.config.instrumentation
        injector = None
        if resilience is not None:
            if not resilience.compile_allowed(source_name, count):
                # Blacklisted, or still inside the retry backoff window:
                # keep running the current (baseline or lower-tier) body.
                return 0.0
            instrumentation = resilience.instrumentation_for(
                source_name, instrumentation
            )
            injector = resilience.injector

        version = self.versions[source_name] + 1
        try:
            cm, compile_cycles = optimize_method(
                method,
                self.program,
                target,
                vm.edge_profile,
                self.costs,
                version=version,
                instrumentation=instrumentation,
                injector=injector,
            )
        except CompilationError as exc:
            if resilience is None:
                raise
            # Jikes-style fallback: the method keeps its current body and
            # the controller retries later with exponential backoff.
            resilience.note_compile_failure(source_name, count, exc)
            return 0.0
        if resilience is not None:
            resilience.note_compile_success(source_name)
        vm.code[source_name] = cm
        self.code[source_name] = cm
        self.levels[source_name] = target
        self.versions[source_name] = version
        self.compile_log.append((source_name, target))
        if cm.resolver is not None:
            self.resolvers[cm.profile_key] = cm.resolver
        vm.charge_compile(compile_cycles)
        return compile_cycles
