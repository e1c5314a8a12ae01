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
from repro.profiling.regenerate import PathResolver, dag_fingerprint
from repro.sampling.arnold_grove import (
    ArnoldGroveSampler,
    SamplingConfig,
    TimerMethodSampler,
)
from repro.adaptive.baseline import compile_baseline
from repro.adaptive.optimizing import optimize_method
from repro.util.flags import kblpp_enabled, kblpp_k, superblock_enabled
from repro.vm.costs import CostModel
from repro.vm.superblock import (
    encode_kpath,
    find_dominant_kpath,
    find_dominant_path,
    install_superblock,
    trace_blocks,
)
from repro.vm.interpreter import CompiledMethod
from repro.vm.runtime import VirtualMachine


class AdaptiveConfig:
    """Knobs of the adaptive system."""

    __slots__ = (
        "thresholds",
        "pep",
        "instrumentation",
        "superblock",
        "superblock_threshold",
        "superblock_min_samples",
        "kpath_threshold",
    )

    def __init__(
        self,
        thresholds: Tuple[Tuple[int, int], ...] = ((2, 0), (6, 1), (14, 2)),
        pep: Optional[SamplingConfig] = None,
        instrumentation: Optional[str] = None,
        superblock: Optional[bool] = None,
        superblock_threshold: float = 0.5,
        superblock_min_samples: float = 8.0,
        kpath_threshold: Optional[float] = None,
    ) -> None:
        # thresholds: (samples needed, opt level), ascending.
        self.thresholds = thresholds
        # PEP sampling configuration; implies "pep" instrumentation.
        self.pep = pep
        self.instrumentation = (
            instrumentation if instrumentation is not None
            else ("pep" if pep is not None else None)
        )
        # Path-guided superblock formation (DESIGN.md §11): None defers
        # to REPRO_SUPERBLOCK; a method's dominant sampled path is
        # stitched into a straight-line trace once it holds >= the
        # threshold fraction of >= min_samples path samples.
        self.superblock = superblock
        self.superblock_threshold = superblock_threshold
        self.superblock_min_samples = superblock_min_samples
        # Dominance threshold over the k-path window table (DESIGN.md
        # §16).  None derives ``superblock_threshold / k``: overlapping
        # windows split a cyclic kernel's mass across its k rotations
        # (an alternating loop's EO and OE windows each hold ~half the
        # iteration-pair mass), so a window holding 1/k-th of the
        # 1-path threshold marks a kernel holding the full threshold's
        # share of iterations, up to burst-boundary dilution.
        self.kpath_threshold = kpath_threshold


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
        # Superblock promotion events: (source_name, profile_key, path).
        self.superblock_log: List[Tuple[str, str, int]] = []
        # Always empty: the warm ladder is retired (DESIGN.md §15).  The
        # benchmark still reads it for ``controller.warm_promotions``;
        # the benchmark change of ROADMAP item 2 drops both.
        self.warmjit_log: List[Tuple[str, str]] = []
        # Profile keys already considered for formation (one decision
        # per compiled version; recompiles get a fresh key).
        self._sb_attempted: set = set()
        self._superblock = superblock_enabled(self.config.superblock)
        # k-iteration fallback (DESIGN.md §16): when no 1-path dominates
        # a method, its k-path table may still show a dominant
        # multi-iteration window worth stitching.  Only consulted when
        # superblock formation itself is on.
        self._kblpp = self._superblock and kblpp_enabled()
        self._kpath_threshold = (
            self.config.kpath_threshold
            if self.config.kpath_threshold is not None
            else self.config.superblock_threshold / kblpp_k()
        )
        # (profile key, encoded k-path) pairs that failed trace
        # eligibility — cached so the controller does not re-expand the
        # same unstitchable window at every later sample.
        self._kpath_rejected: set = set()
        self._bootstrap()

    def _bootstrap(self) -> None:
        """Baseline-compile every method, as class loading would."""
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

        After the (possible) recompile, hot-path superblock formation is
        considered — it charges no virtual cycles and touches no
        profiles, so it never perturbs the recompile cost returned here.
        """
        cost = self._maybe_recompile(vm, source_name)
        self._maybe_superblock(vm, source_name)
        return cost

    def _maybe_recompile(self, vm: VirtualMachine, source_name: str) -> float:
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

        # Superblock advice: if the outgoing version had a hot trace,
        # hand its path number (plus the DAG fingerprint it belongs to)
        # to the recompile so the replacement starts hot when its P-DAG
        # numbers paths identically; a changed DAG misses cleanly.
        superblock_advice = None
        if self._superblock:
            old_cm = self.code.get(source_name)
            if (
                old_cm is not None
                and old_cm.sb_path is not None
                and old_cm.dag is not None
            ):
                superblock_advice = (
                    old_cm.sb_path,
                    dag_fingerprint(old_cm.dag),
                )

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
                superblock_advice=superblock_advice,
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

    # -- superblock formation -----------------------------------------------

    def _maybe_superblock(self, vm: VirtualMachine, source_name: str) -> None:
        """Promote a dominant sampled path into a superblock trace.

        One decision per compiled version, taken once the method's path
        profile clears the configured sample floor.  Zero virtual
        cycles, no profile writes, no RNG draws on unconfigured fault
        plans — bit-identical whether or not it runs (the kill switch
        only moves wall clock).
        """
        if not self._superblock or not vm.use_blockjit:
            return
        cm = vm.code.get(source_name)
        if cm is None or cm.dag is None or cm.resolver is None:
            return
        if cm.sb_entry is not None:
            return
        key = cm.profile_key
        if key in self._sb_attempted:
            return
        counts = vm.path_profile.method_paths(key)
        path = find_dominant_path(
            counts,
            self.config.superblock_threshold,
            self.config.superblock_min_samples,
        )
        if path is None and self._kblpp:
            # k-iteration fallback (DESIGN.md §16): a bimodal loop whose
            # 1-paths split the samples may still have a dominant
            # k-window.  Eligibility is checked *before* the dominance
            # verdict is burned, so an unstitchable k-path (multi-header
            # window, fault-demoted table) leaves 1-path dominance open.
            path = self._find_kpath(vm, cm, key)
        if path is None:
            # No dominant path (yet): the method stays on plain blockjit
            # and a later sample may still find one.
            return
        # A dominance verdict is final for this version: mark before the
        # attempt so a structurally ineligible path (or an injected
        # fault) degrades to plain blockjit permanently, not per-sample.
        self._sb_attempted.add(key)
        resilience = self.resilience
        injector = resilience.injector if resilience is not None else None
        if injector is not None and injector.should_fire(
            "superblock-compile", key
        ):
            resilience.health.record_degradation(
                "superblock-degrade",
                f"{source_name}: injected superblock-compile fault; "
                "staying on plain blockjit",
            )
            return
        try:
            installed = install_superblock(cm, path)
        except Exception as exc:
            if resilience is not None:
                resilience.health.record_degradation(
                    "superblock-degrade",
                    f"{source_name}: superblock compile failed ({exc}); "
                    "staying on plain blockjit",
                )
                return
            raise
        if installed:
            self.superblock_log.append((source_name, key, path))

    def _find_kpath(
        self, vm: VirtualMachine, cm: CompiledMethod, key: str
    ) -> Optional[int]:
        """A stitchable dominant k-path, encoded, or None.

        Reads the shadow ``vm.kpath_profile`` under the same dominance
        rule as 1-paths, then pre-validates trace expansion so only a
        window the backend can actually stitch (a mono-header cyclic
        window) reaches promotion.  Pure reads, zero virtual cycles;
        rejected windows are memoised per (version, number).
        """
        kpath = find_dominant_kpath(
            vm.kpath_profile.method_paths(key),
            self._kpath_threshold,
            self.config.superblock_min_samples,
        )
        if kpath is None:
            return None
        encoded = encode_kpath(kpath)
        if (key, encoded) in self._kpath_rejected:
            return None
        if trace_blocks(cm, encoded) is None:
            self._kpath_rejected.add((key, encoded))
            return None
        return encoded
