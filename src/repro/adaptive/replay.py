"""Replay compilation (paper section 5).

The adaptive methodology is non-deterministic: exactly when the timer
fires changes which methods get recompiled and when.  Replay compilation
records *advice* from a well-performing adaptive run — the final
optimization level of every method plus the edge profile collected by
baseline-compiled code — and then compiles deterministically from that
advice:

* iteration 1 ("first iteration of replay compilation") compiles all
  advised methods up front, charging compile cycles, then runs the
  application once: the figure 7 measurement (compilation + execution);
* iteration 2 runs the already-compiled image: the figure 6/8/9/10
  measurement (execution only).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bytecode.method import Program
from repro.profiling.callgraph import CallGraphProfile
from repro.profiling.edges import EdgeProfile
from repro.profiling.regenerate import PathResolver
from repro.sampling.arnold_grove import ArnoldGroveSampler, SamplingConfig
from repro.adaptive.baseline import compile_baseline
from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
from repro.adaptive.optimizing import optimize_method
from repro.errors import AdviceError
from repro.vm import pgo
from repro.vm.costs import CostModel
from repro.vm.interpreter import CompiledMethod
from repro.vm.runtime import RunResult, VirtualMachine


class Advice:
    """What a recorded adaptive run learned.

    Mirrors the paper's advice files (section 5): per-method optimization
    levels, the dynamic call graph profile, and the edge profile produced
    by baseline-compiled code.
    """

    __slots__ = ("levels", "onetime_profile", "samples", "call_graph")

    def __init__(
        self,
        levels: Dict[str, Optional[int]],
        onetime_profile: EdgeProfile,
        samples: Dict[str, int],
        call_graph: Optional[CallGraphProfile] = None,
    ) -> None:
        self.levels = levels
        self.onetime_profile = onetime_profile
        self.samples = samples
        self.call_graph = call_graph if call_graph is not None else CallGraphProfile()

    def optimized_methods(self):
        return [name for name, level in self.levels.items() if level is not None]

    def __repr__(self) -> str:
        return f"<Advice {len(self.optimized_methods())} optimized methods>"


class ReplayImage:
    """A deterministically compiled program plus its compile-cost bill."""

    __slots__ = ("code", "main", "compile_cycles", "costs")

    def __init__(
        self,
        code: Dict[str, CompiledMethod],
        main: str,
        compile_cycles: float,
        costs: CostModel,
    ) -> None:
        self.code = code
        self.main = main
        self.compile_cycles = compile_cycles
        self.costs = costs

    def resolvers(self) -> Dict[str, PathResolver]:
        """PathResolvers keyed by profile key, for accuracy evaluation."""
        return {
            cm.profile_key: cm.resolver
            for cm in self.code.values()
            if cm.resolver is not None
        }


def record_advice(
    program: Program,
    tick_interval: float,
    costs: Optional[CostModel] = None,
    fuel: int = 500_000_000,
) -> Advice:
    """Run the stock adaptive system once and capture its decisions.

    Without PEP, the run's edge profile contains exactly what baseline
    instrumentation collected — the paper's "edge profile produced by
    baseline-compiled code".
    """
    costs = costs if costs is not None else CostModel()
    system = AdaptiveSystem(program, costs=costs, config=AdaptiveConfig())
    vm = system.make_vm(tick_interval)
    vm.run(fuel=fuel)
    return Advice(
        levels=dict(system.levels),
        onetime_profile=vm.edge_profile.copy(),
        samples=dict(system.samples),
        call_graph=vm.call_graph.copy(),
    )


def replay_compile(
    program: Program,
    advice: Advice,
    costs: Optional[CostModel] = None,
    instrumentation: Optional[str] = None,
    profile_override: Optional[EdgeProfile] = None,
) -> ReplayImage:
    """Compile every method per the advice; deterministic by construction.

    ``profile_override`` substitutes the edge profile driving optimization
    (perfect-continuous or flipped profiles for figure 10); by default the
    advice's one-time profile is used, as in the paper's replay runs.
    """
    costs = costs if costs is not None else CostModel()
    profile = profile_override if profile_override is not None else advice.onetime_profile
    code: Dict[str, CompiledMethod] = {}
    compile_cycles = 0.0
    for method in program.iter_methods():
        if method.name not in advice.levels:
            raise AdviceError(f"advice missing method {method.name!r}")
        level = advice.levels[method.name]
        if level is None:
            cm, cycles = compile_baseline(method, costs, version=0)
        else:
            cm, cycles = optimize_method(
                method,
                program,
                level,
                profile,
                costs,
                version=0,
                instrumentation=instrumentation,
                # Replay images are one-shot: no sample listener, so no
                # mid-run recompiles — the only pipeline where
                # minimum-coverage probe placement (DESIGN.md §14) is
                # sound, because each method's edge counters see exactly
                # one placement for the whole run.  Only the edges mode
                # places probes.
                min_coverage=True,
            )
        code[method.name] = cm
        compile_cycles += cycles
    # Plan soundness is an image property: the optimizer's inliner copies
    # callee branches (origins included) into callers, and a probe plan
    # over any multiply-occurring origin double-books the reconstructed
    # counts.  Those methods are recompiled with full instrumentation.
    # Compile cost is mask-independent, so the already-charged cycles
    # stay those of the probed compile; the recompile moves wall clock
    # only.  The scan reads every method's branches, which builds the
    # deferred ones, so an image without probe plans (``probe_plan`` is
    # a head slot) skips it.
    probed = any(cm.probe_plan is not None for cm in code.values())
    for name in sorted(pgo.shared_origin_fallbacks(code) if probed else ()):
        if code[name].probe_plan is None:
            continue
        code[name], _ = optimize_method(
            program.methods[name],
            program,
            advice.levels[name],
            profile,
            costs,
            version=0,
            instrumentation=instrumentation,
            min_coverage=False,
        )
    return ReplayImage(code, program.main, compile_cycles, costs)


def run_iteration(
    image: ReplayImage,
    tick_interval: Optional[float] = None,
    sampling: Optional[SamplingConfig] = None,
    include_compile_cycles: bool = False,
    fuel: int = 500_000_000,
    tick_jitter: float = 0.0,
    jitter_seed: int = 0,
) -> RunResult:
    """Run one replay iteration on a fresh VM.

    ``include_compile_cycles=True`` models iteration 1 (compilation +
    execution); ``False`` models iteration 2 (execution only).
    """
    _, result = run_iteration_with_vm(
        image,
        tick_interval=tick_interval,
        sampling=sampling,
        include_compile_cycles=include_compile_cycles,
        fuel=fuel,
        tick_jitter=tick_jitter,
        jitter_seed=jitter_seed,
    )
    return result


def run_iteration_with_vm(
    image: ReplayImage,
    tick_interval: Optional[float] = None,
    sampling: Optional[SamplingConfig] = None,
    include_compile_cycles: bool = False,
    fuel: int = 500_000_000,
    tick_jitter: float = 0.0,
    jitter_seed: int = 0,
):
    """Like :func:`run_iteration` but also returns the VM (for profiles).

    ``tick_jitter`` > 0 offsets the *first* timer tick by a deterministic
    fraction (up to ±jitter/2 of one interval) drawn from a
    :class:`~repro.util.rng.DeterministicRng` stream seeded by
    ``jitter_seed``.  Multi-trial experiment cells use this to decorrelate
    timer phase across trials while staying bit-reproducible: the same
    (image, seed) always yields the same run, regardless of which process
    executes it.
    """
    sampler = ArnoldGroveSampler(sampling) if sampling is not None else None
    vm = VirtualMachine(
        dict(image.code),
        image.main,
        costs=image.costs,
        tick_interval=tick_interval,
        sampler=sampler,
    )
    if tick_interval is not None and tick_jitter > 0.0:
        from repro.util.rng import DeterministicRng

        rng = DeterministicRng.from_name("tick-jitter", salt=jitter_seed)
        vm.next_tick = tick_interval * (
            1.0 + tick_jitter * (rng.random() - 0.5)
        )
    if include_compile_cycles:
        vm.cycles += image.compile_cycles
        vm.compile_cycles += image.compile_cycles
    result = vm.run(fuel=fuel)
    return vm, result
