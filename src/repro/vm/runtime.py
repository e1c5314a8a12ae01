"""The virtual machine: code cache, timer, profiles, and run orchestration.

:class:`VirtualMachine` ties together the interpreter, the virtual timer
(which sets the thread-switch flag, paper section 4.1), a *sampler* (the
yieldpoint handler strategy — timer-based, Arnold-Grove, or none), and a
*method-sample listener* (the adaptive system's hotness input).

The timer is virtual: after every ``tick_interval`` virtual cycles, the
next executed yieldpoint observes ``cycles >= next_tick`` and calls
:meth:`on_tick`, which raises the flag exactly the way Jikes RVM's timer
interrupt handler does.  Yieldpoints executed while the flag is set invoke
the sampler, which charges (dilated) handler cycles and eventually clears
the flag — the set-don't-reset trick of Arnold-Grove sampling.

When many intervals have elapsed since the last yieldpoint (a compile
charge lands as one jump in ``cycles``), :meth:`on_tick` catches the
timer up in one step: ``ticks`` counts every interval, while the sampler
and the once-per-tick method sample see a single tick — every tick after
the first would land with the flag already up and change nothing.
:func:`advance_timer` replays the jittered schedule bit for bit
(DESIGN.md §10, timer catch-up).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import VMError
from repro.profiling.callgraph import CallGraphProfile
from repro.profiling.edges import EdgeProfile
from repro.profiling.paths import PathProfile
from repro.util.rng import JUMP_BLOCK, DeterministicRng
from repro.vm.blockjit import blockjit_enabled, execute_blockjit
from repro.vm.costs import CostModel
from repro.vm.interpreter import CompiledMethod, execute

try:  # NumPy is optional: without it every catch-up takes the scalar loop.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by NumPy-free installs
    _np = None

DEFAULT_FUEL = 500_000_000

#: Catch-ups spanning at least this many nominal intervals take the
#: NumPy block path; shorter ones loop (DESIGN.md §10, timer catch-up).
BULK_MIN_INTERVALS = 48


def advance_timer(
    next_tick: float,
    cycles: float,
    interval: float,
    jitter: float,
    rng: Optional[DeterministicRng],
) -> Tuple[int, float]:
    """Advance ``next_tick`` past ``cycles``; return ``(ticks, next_tick)``.

    Each tick adds ``interval * (1.0 + (draw - 0.5) * 2 * jitter)``,
    drawing from ``rng`` (no jitter when ``rng`` is None).  Both paths
    make the same draws and the same left-to-right float additions, so
    the result and the RNG state are bit-identical whichever runs.
    """
    if _np is not None and cycles - next_tick >= BULK_MIN_INTERVALS * interval:
        return _advance_blocks(next_tick, cycles, interval, jitter, rng)
    count = 0
    if rng is None:
        while cycles >= next_tick:
            next_tick += interval
            count += 1
    else:
        draw = rng.random
        while cycles >= next_tick:
            next_tick += interval * (1.0 + (draw() - 0.5) * 2 * jitter)
            count += 1
    return count, next_tick


def _advance_blocks(
    next_tick: float,
    cycles: float,
    interval: float,
    jitter: float,
    rng: Optional[DeterministicRng],
) -> Tuple[int, float]:
    """The block form of :func:`advance_timer`'s loop.

    Intervals are positive, so the running sums never decrease and the
    ticks taken are the leading sums at or below ``cycles``.  A block is
    sized to the most intervals the gap can hold (no jittered interval
    is shorter than ``interval * (1 - jitter)``), capped at
    ``JUMP_BLOCK``; draws past the last tick taken are never committed.
    """
    shortest = interval * (1.0 - jitter)
    count = 0
    while True:
        size = int(min((cycles - next_tick) / shortest + 2.0, JUMP_BLOCK))
        sums = _np.empty(size + 1)
        sums[0] = next_tick
        steps = sums[1:]
        if rng is None:
            steps.fill(interval)
        else:
            scale = rng.random_block(size)
            scale -= 0.5
            scale *= 2
            scale *= jitter
            scale += 1.0
            _np.multiply(scale, interval, out=steps)
        # add.accumulate is a sequential scan: sums[i] = sums[i-1] + step.
        _np.add.accumulate(sums, out=sums)
        taken = min(int(_np.searchsorted(sums, cycles, side="right")), size)
        count += taken
        next_tick = float(sums[taken])
        if rng is not None:
            rng.skip(taken)
        if next_tick > cycles:
            return count, next_tick


class RunResult:
    """Snapshot of a finished run's outcome and accounting."""

    __slots__ = (
        "return_value",
        "cycles",
        "output",
        "ticks",
        "samples_taken",
        "strides_skipped",
        "path_count_updates",
        "compile_cycles",
        "recompilations",
        "health",
    )

    def __init__(
        self,
        return_value: int,
        cycles: float,
        output: List[int],
        ticks: int,
        samples_taken: int,
        strides_skipped: int,
        path_count_updates: int,
        compile_cycles: float,
        recompilations: int,
        health=None,
    ) -> None:
        self.return_value = return_value
        self.cycles = cycles
        self.output = output
        self.ticks = ticks
        self.samples_taken = samples_taken
        self.strides_skipped = strides_skipped
        self.path_count_updates = path_count_updates
        self.compile_cycles = compile_cycles
        self.recompilations = recompilations
        # HealthReport of the run's ResilienceManager, or None when the
        # run had no resilience layer attached.
        self.health = health

    def __repr__(self) -> str:
        return (
            f"<RunResult cycles={self.cycles:.0f} ticks={self.ticks} "
            f"samples={self.samples_taken}>"
        )


class VirtualMachine:
    """Executes a compiled program under a cost model and timer."""

    def __init__(
        self,
        code: Dict[str, CompiledMethod],
        main: str,
        costs: Optional[CostModel] = None,
        tick_interval: Optional[float] = None,
        sampler: Optional["SamplerLike"] = None,
        method_sample_listener: Optional[Callable[["VirtualMachine", str], float]] = None,
        max_stack_depth: int = 4000,
        tick_jitter: float = 0.0,
        jitter_seed: int = 0,
        resilience=None,
        blockjit: Optional[bool] = None,
    ) -> None:
        if main not in code:
            raise VMError(f"code cache has no main method {main!r}")
        # The timer must move forward on every tick: a non-positive (or
        # NaN) interval, or jitter that can stretch an interval to zero
        # or below, would never catch up with the clock.
        if tick_interval is not None and not tick_interval > 0.0:
            raise VMError(f"tick_interval must be > 0, got {tick_interval!r}")
        if not 0.0 <= tick_jitter < 1.0:
            raise VMError(f"tick_jitter must be in [0, 1), got {tick_jitter!r}")
        self.code = code
        self.main = main
        self.costs = costs if costs is not None else CostModel()
        self.sampler = sampler
        self.method_sample_listener = method_sample_listener
        self.max_stack_depth = max_stack_depth
        # Fault-injection + graceful-degradation layer (see
        # repro.resilience); the sampler and adaptive controller consult
        # it, and its HealthReport travels on the RunResult.
        self.resilience = resilience
        # Engine selection: the template-compiled block engine
        # (repro.vm.blockjit) by default, the tuple interpreter when
        # disabled explicitly or via REPRO_BLOCKJIT=0.  Both engines are
        # bit-identical in every observable, so this only moves wall
        # clock (tests/test_blockjit.py proves it).
        self.use_blockjit = (
            blockjit_enabled() if blockjit is None else bool(blockjit)
        )

        # Profiles being collected during this run.
        self.edge_profile = EdgeProfile()
        self.path_profile = PathProfile()
        self.call_graph = CallGraphProfile()
        # (profile_key, path) -> tuple of edge-profile arm slots: the
        # sampler's drain replays a path's branch events as one integer
        # loop (DESIGN.md §10).  Per-VM, like the profiles the slots
        # index into.
        self.edge_slot_cache: Dict = {}
        self.guest_stack: Optional[list] = None  # set by execute()

        # Timer state.  Jitter models the real timer's phase noise relative
        # to program progress — the source of run-to-run variation in the
        # paper's *adaptive* methodology (its replay methodology exists to
        # remove exactly this nondeterminism).
        self.tick_interval = tick_interval
        self.tick_jitter = tick_jitter
        self._jitter_rng = DeterministicRng(jitter_seed) if tick_jitter else None
        self.cycles = 0.0
        self.next_tick = tick_interval if tick_interval is not None else math.inf
        self.flag = False
        self.ticks = 0

        # Accounting.
        self.output: List[int] = []
        self.samples_taken = 0
        self.strides_skipped = 0
        self.path_count_updates = 0
        # (profile_key, path number) pairs whose expansion this VM has
        # already paid for.  First-expansion cost accounting is per-VM so
        # that virtual-cycle charges never depend on how warm the shared
        # (process-global) PathResolver memo happens to be.
        self.expanded_paths: set = set()
        self.compile_cycles = 0.0
        self.recompilations = 0
        self._tick_method_sampled = False

    # -- timer/yieldpoint plumbing (called from the interpreter) -----------

    def on_tick(self) -> None:
        """The virtual timer interrupt: raise the flag, notify the sampler.

        Every interval that has elapsed counts in ``ticks``, but the
        sampler hears one tick per catch-up (see :class:`SamplerLike`).
        """
        if self.cycles < self.next_tick:
            return
        count, self.next_tick = advance_timer(
            self.next_tick,
            self.cycles,
            self.tick_interval,
            self.tick_jitter,
            self._jitter_rng,
        )
        self.ticks += count
        self._tick_method_sampled = False
        if self.sampler is not None:
            self.sampler.on_tick(self)

    def dispatch_yieldpoint(
        self, cm: CompiledMethod, path_reg: int, is_sample_point: bool
    ) -> float:
        """Yieldpoint handler entry; returns the cycles it consumed."""
        cost = 0.0
        if not self._tick_method_sampled:
            # The adaptive system samples the executing method once per
            # tick (section 4.1): it examines the stack, updating the
            # dynamic call graph, and recompilation may happen here, with
            # its compile time charged to the run.
            self._tick_method_sampled = True
            cost += self.costs.scaled_handler(self.costs.handler_method_sample)
            stack = self.guest_stack
            caller = (
                stack[-2].cm.source_name
                if stack is not None and len(stack) >= 2
                else None
            )
            self.call_graph.record(caller, cm.source_name)
            if self.method_sample_listener is not None:
                cost += self.method_sample_listener(self, cm.source_name)
        if self.sampler is not None:
            cost += self.sampler.on_yieldpoint(self, cm, path_reg, is_sample_point)
        else:
            self.flag = False
        return cost

    # -- running --------------------------------------------------------------

    def run(self, fuel: int = DEFAULT_FUEL) -> RunResult:
        """Execute main to completion and return the result snapshot."""
        engine = execute_blockjit if self.use_blockjit else execute
        error: Optional[VMError] = None
        try:
            return_value = engine(self, fuel)
        except VMError as exc:
            error = exc
            raise
        finally:
            # Buffered samplers drain at tick boundaries; the tail of
            # the final burst drains here, so profiles observed after a
            # run (even one that trapped) are always complete.
            sampler = self.sampler
            if sampler is not None:
                flush = getattr(sampler, "flush", None)
                if flush is not None:
                    flush(self)
            self._drain_probe_plans(error)
        return RunResult(
            return_value=return_value,
            cycles=self.cycles,
            output=self.output,
            ticks=self.ticks,
            samples_taken=self.samples_taken,
            strides_skipped=self.strides_skipped,
            path_count_updates=self.path_count_updates,
            compile_cycles=self.compile_cycles,
            recompilations=self.recompilations,
            health=(
                self.resilience.health if self.resilience is not None else None
            ),
        )

    def _drain_probe_plans(self, error: Optional[VMError]) -> None:
        """Rebuild full edge counts for minimum-coverage methods.

        Methods instrumented with spanning-tree probe placement
        (DESIGN.md §14) recorded only the complement arms during the
        run; flow conservation recovers the rest once frames stuck
        mid-method (an aborted run's guest stack) are balanced in.
        Runs with no probe plans — every configuration except the
        one-shot edges mode — skip this.
        """
        plans = [cm for cm in self.code.values() if cm.probe_plan is not None]
        if not plans:
            return
        from repro.vm import pgo

        stuck = pgo.stuck_blocks(self, error)
        for cm in plans:
            pgo.reconstruct_probed_edges(
                cm.probe_plan, self.edge_profile, stuck.get(cm)
            )

    def charge_compile(self, cycles: float) -> float:
        """Record compile-time cycles; returns them for handler charging."""
        self.compile_cycles += cycles
        self.recompilations += 1
        return cycles


class SamplerLike:
    """Interface samplers implement (see :mod:`repro.sampling`).

    The VM calls ``on_tick`` once per timer catch-up, however many
    intervals elapsed (``vm.ticks`` counts them all).  That is exact
    only if a tick arriving while the sampler's burst is still armed is
    a no-op: two back-to-back ``on_tick`` calls with no yieldpoint
    between must equal one.  The in-tree samplers guarantee it
    (``tests/test_sampling.py`` pins it).
    """

    def on_tick(self, vm: VirtualMachine) -> None:  # pragma: no cover
        raise NotImplementedError

    def on_yieldpoint(
        self,
        vm: VirtualMachine,
        cm: CompiledMethod,
        path_reg: int,
        is_sample_point: bool,
    ) -> float:  # pragma: no cover
        raise NotImplementedError
