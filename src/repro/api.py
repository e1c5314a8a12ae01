"""High-level convenience API: profile a guest program with PEP.

For users who just want profiles, without assembling the compiler
pipeline by hand::

    from repro import api
    from repro.bytecode import ProgramBuilder

    pb = ProgramBuilder("demo")
    ...
    report = api.profile(pb.build())
    for (method, path), flow in report.hot_paths()[:10]:
        print(method, path, flow)

``profile`` compiles every method with the optimizing compiler (PEP
instrumentation as the final pass), calibrates a virtual timer from an
uninstrumented dry run, executes the program under simplified
Arnold-Grove sampling, and returns the collected path and edge profiles
plus accessors for the quantities the paper's evaluation uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bytecode.method import BranchRef, Program
from repro.bytecode.validate import verify_program
from repro.instrument.pep import apply_pep
from repro.instrument.blpp_full import apply_full_blpp
from repro.instrument.yieldpoints import insert_yieldpoints
from repro.metrics.wall import DEFAULT_THRESHOLD, hot_paths as _hot_path_set
from repro.profiling.edges import EdgeProfile
from repro.profiling.flow import profile_flows
from repro.profiling.paths import PathProfile
from repro.profiling.regenerate import PathResolver, derive_edge_profile
from repro.resilience import DegradationPolicy, FaultPlan, ResilienceManager
from repro.sampling.arnold_grove import ArnoldGroveSampler, SamplingConfig
from repro.adaptive.baseline import compile_baseline
from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
from repro.adaptive.optimizing import optimize_method
from repro.errors import CompilationError, ReproError
from repro.vm.costs import CostModel
from repro.vm.interpreter import CompiledMethod
from repro.vm.runtime import RunResult, VirtualMachine


class ProfileReport:
    """Everything a PEP profiling run produced."""

    def __init__(
        self,
        paths: PathProfile,
        edges: EdgeProfile,
        resolvers: Dict[str, PathResolver],
        result: RunResult,
        base_cycles: float,
        code: Optional[Dict[str, CompiledMethod]] = None,
    ) -> None:
        self.paths = paths
        self.edges = edges
        self.resolvers = resolvers
        self.result = result
        self.base_cycles = base_cycles
        # The run's final compiled image, for tier-engagement reporting.
        self.code = code

    @property
    def overhead(self) -> float:
        """Fractional execution overhead vs the uninstrumented dry run."""
        return self.result.cycles / self.base_cycles - 1.0

    @property
    def health(self):
        """The run's :class:`~repro.resilience.HealthReport`, or None."""
        return self.result.health

    def flows(self) -> Dict[Tuple[str, int], float]:
        """Branch-flow of every profiled path (freq x branch length)."""
        return profile_flows(self.paths, self.resolvers)

    def hot_paths(
        self, threshold: float = DEFAULT_THRESHOLD
    ) -> List[Tuple[Tuple[str, int], float]]:
        """Hot paths by descending flow, Wall-style thresholding."""
        flows = self.flows()
        hot = _hot_path_set(flows, threshold)
        ranked = sorted(
            ((key, flows[key]) for key in hot), key=lambda item: -item[1]
        )
        return ranked

    def path_blocks(self, method_key: str, path_number: int) -> List[str]:
        """The block labels along one profiled path (for display)."""
        resolver = self.resolvers[method_key]
        from repro.profiling.regenerate import reconstruct_path

        edges = reconstruct_path(resolver.dag, path_number)
        labels = [edges[0].src] if edges else []
        labels.extend(edge.dst for edge in edges)
        return labels

    def branch_biases(self) -> Dict[BranchRef, float]:
        """Taken-bias of every profiled bytecode branch."""
        return {branch: self.edges.bias(branch) for branch in self.edges.branches()}

    def engagement(self) -> dict:
        """Per-method tier-engagement counters (DESIGN.md §14).

        Which backend each method's final code came from, its
        probe-placement mode and fold verdict, and fleet totals;
        ``{}`` when the run did not retain its compiled image.
        """
        if self.code is None:
            return {}
        from repro.vm import pgo

        return pgo.engagement_summary(self.code)

    def __repr__(self) -> str:
        return (
            f"<ProfileReport {self.paths.distinct_paths()} paths, "
            f"{len(self.edges)} branches, {self.result.samples_taken} samples>"
        )


def _compile_all(
    program: Program,
    costs: CostModel,
    instrumentation: Optional[str],
    opt_level: int,
    resilience: Optional[ResilienceManager] = None,
) -> Dict[str, CompiledMethod]:
    injector = resilience.injector if resilience is not None else None
    code: Dict[str, CompiledMethod] = {}
    for method in program.iter_methods():
        inst = instrumentation
        if resilience is not None:
            inst = resilience.instrumentation_for(method.name, inst)
        try:
            cm, _cycles = optimize_method(
                method, program, opt_level, None, costs,
                instrumentation=inst, injector=injector,
            )
        except CompilationError as exc:
            if resilience is None:
                raise
            # Failed opt-compile: keep going with a baseline body, as the
            # paper's substrate does.
            resilience.note_compile_failure(method.name, 0, exc)
            cm, _cycles = compile_baseline(method, costs, version=0)
        code[method.name] = cm
    return code


def _make_resilience(
    fault_plan: Optional[FaultPlan],
    resilience: Optional[ResilienceManager],
    policy: Optional[DegradationPolicy] = None,
) -> Optional[ResilienceManager]:
    if resilience is not None:
        if fault_plan is not None or policy is not None:
            # The manager already owns its plan and policy; silently
            # dropping these would run without the faults asked for.
            raise ReproError(
                "pass either resilience or fault_plan/policy, not both"
            )
        return resilience
    if fault_plan is not None or policy is not None:
        return ResilienceManager(plan=fault_plan, policy=policy)
    return None


def _check_ticks(ticks: int) -> None:
    # The timer interval is the dry run's cycles over ``ticks``.
    if ticks < 1:
        raise ReproError(f"ticks must be >= 1, got {ticks}")


def profile(
    program: Program,
    samples: int = 64,
    stride: int = 17,
    ticks: int = 200,
    opt_level: int = 2,
    perfect: bool = False,
    costs: Optional[CostModel] = None,
    fuel: int = 500_000_000,
    fault_plan: Optional[FaultPlan] = None,
    resilience: Optional[ResilienceManager] = None,
) -> ProfileReport:
    """Profile ``program`` with PEP(samples, stride); see module docstring.

    ``perfect=True`` uses full instrumentation-based path profiling
    instead of sampling (section 5.1): exact profiles, much higher
    overhead.

    ``fault_plan`` (or a prebuilt ``resilience`` manager) attaches the
    fault-injection + graceful-degradation layer: injected compile and
    profiling faults are absorbed by the degradation policies and the
    report's :attr:`~ProfileReport.health` ledger records them.  Passing
    both raises :class:`~repro.errors.ReproError`.
    """
    _check_ticks(ticks)
    verify_program(program)
    costs = costs if costs is not None else CostModel()
    resilience = _make_resilience(fault_plan, resilience)

    # Dry run: measure Base cycles to calibrate the timer (and overhead).
    # Deliberately compiled without the injector — calibration is not part
    # of the system under test.
    base_code = _compile_all(program, costs, None, opt_level)
    base_vm = VirtualMachine(base_code, program.main, costs=costs)
    base_result = base_vm.run(fuel=fuel)

    mode = "full-path" if perfect else "pep"
    code = _compile_all(program, costs, mode, opt_level, resilience)
    if perfect:
        vm = VirtualMachine(
            code, program.main, costs=costs, resilience=resilience
        )
    else:
        vm = VirtualMachine(
            code,
            program.main,
            costs=costs,
            tick_interval=max(base_result.cycles / ticks, 1.0),
            sampler=ArnoldGroveSampler(SamplingConfig(samples, stride)),
            resilience=resilience,
        )
    result = vm.run(fuel=fuel)

    resolvers = {
        cm.profile_key: cm.resolver
        for cm in code.values()
        if cm.resolver is not None
    }
    # Perfect mode records paths via count[r]++; derive the edge profile
    # offline, as the paper does for ground truth (section 5.1).
    edges = (
        derive_edge_profile(vm.path_profile, resolvers)
        if perfect
        else vm.edge_profile
    )
    return ProfileReport(
        paths=vm.path_profile,
        edges=edges,
        resolvers=resolvers,
        result=result,
        base_cycles=base_result.cycles,
        code=code,
    )


def profile_adaptive(
    program: Program,
    samples: int = 64,
    stride: int = 17,
    ticks: int = 200,
    costs: Optional[CostModel] = None,
    fuel: int = 500_000_000,
    thresholds: Optional[Tuple[Tuple[int, int], ...]] = None,
    fault_plan: Optional[FaultPlan] = None,
    policy: Optional[DegradationPolicy] = None,
    resilience: Optional[ResilienceManager] = None,
) -> ProfileReport:
    """Profile ``program`` under the full adaptive system (section 4.1).

    Methods start baseline-compiled and are promoted by timer samples,
    with PEP collecting continuously — the paper's production
    configuration.  Unlike :func:`profile`, the resilience layer is
    *always* attached (a production VM degrades, it does not crash), so
    the returned report's :attr:`~ProfileReport.health` is never None;
    pass ``fault_plan`` to additionally inject deterministic faults into
    opt-compilation, sampling, and path regeneration.  A prebuilt
    ``resilience`` manager carries its own plan and policy, so passing
    it with ``fault_plan`` or ``policy`` raises
    :class:`~repro.errors.ReproError`.
    """
    _check_ticks(ticks)
    verify_program(program)
    costs = costs if costs is not None else CostModel()
    resilience = _make_resilience(fault_plan, resilience, policy)
    if resilience is None:
        resilience = ResilienceManager()

    # Dry run on plain optimized code: calibrates the timer and the
    # overhead denominator, exactly as profile() does.
    base_code = _compile_all(program, costs, None, 2)
    base_vm = VirtualMachine(base_code, program.main, costs=costs)
    base_result = base_vm.run(fuel=fuel)

    config = (
        AdaptiveConfig(
            thresholds=thresholds, pep=SamplingConfig(samples, stride)
        )
        if thresholds is not None
        else AdaptiveConfig(pep=SamplingConfig(samples, stride))
    )
    system = AdaptiveSystem(
        program, costs=costs, config=config, resilience=resilience
    )
    vm = system.make_vm(tick_interval=max(base_result.cycles / ticks, 1.0))
    result = vm.run(fuel=fuel)

    return ProfileReport(
        paths=vm.path_profile,
        edges=vm.edge_profile,
        resolvers=dict(system.resolvers),
        result=result,
        base_cycles=base_result.cycles,
        code=system.code,
    )
