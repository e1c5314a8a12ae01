"""Per-workload experiment preparation and the configuration space.

``prepare`` reproduces the paper's methodology pipeline for one workload:

1. build the guest program at the chosen scale;
2. run the stock adaptive system once to record *advice* (section 5);
3. replay-compile the Base image and measure its execution cycles
   (iteration 2 semantics);
4. calibrate the virtual timer so the run receives the workload's target
   number of ticks — the scaled equivalent of "one tick per 20 ms".

Default-cost contexts are cached per (workload, scale): every figure for
a benchmark reuses the same advice and the same tick interval, exactly as
the paper reuses one advice file across configurations.  A context built
with a caller's ``CostModel`` is neither looked up nor stored.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bytecode.method import Program
from repro.adaptive.replay import (
    Advice,
    ReplayImage,
    record_advice,
    replay_compile,
    run_iteration_with_vm,
)
from repro.sampling.arnold_grove import SamplingConfig
from repro.vm.costs import CostModel
from repro.vm.runtime import RunResult, VirtualMachine
from repro.workloads.suite import Workload

# Cycles per workload at scale 1.0, used only to seed the advice run's
# provisional tick interval (the final interval is calibrated from Base).
_NOMINAL_CYCLES_AT_SCALE_1 = 200_000.0


class RunConfig:
    """One bar of a figure: instrumentation mode + sampling configuration."""

    __slots__ = ("name", "instrumentation", "sampling")

    def __init__(
        self,
        name: str,
        instrumentation: Optional[str],
        sampling: Optional[SamplingConfig] = None,
    ) -> None:
        self.name = name
        self.instrumentation = instrumentation
        self.sampling = sampling

    def __repr__(self) -> str:
        return f"<RunConfig {self.name}>"


def pep_config(samples: int, stride: int, simplified: bool = True) -> RunConfig:
    """The paper's PEP(SAMPLES, STRIDE) configuration."""
    config = SamplingConfig(samples, stride, simplified=simplified)
    return RunConfig(config.name, "pep", config)


BASE = RunConfig("Base", None)
INSTR_ONLY = RunConfig("PEP instrumentation", "pep")
PERFECT_PATH = RunConfig("Perfect path (instr)", "full-path")
PERFECT_EDGE = RunConfig("Perfect edge (instr)", "edges")
CLASSIC_BLPP = RunConfig("Classic BLPP", "classic-blpp")
PEP_HOT = RunConfig("PEP hot placement", "pep-hot")
PEP_NOSMART = RunConfig("PEP plain numbering", "pep-nosmart")


class ExperimentContext:
    """Everything needed to measure one workload under any configuration."""

    __slots__ = (
        "workload",
        "scale",
        "costs",
        "program",
        "advice",
        "base_cycles",
        "tick_interval",
        "_images",
    )

    def __init__(
        self,
        workload: Workload,
        scale: float,
        costs: CostModel,
        program: Program,
        advice: Advice,
        base_cycles: float,
        tick_interval: float,
    ) -> None:
        self.workload = workload
        self.scale = scale
        self.costs = costs
        self.program = program
        self.advice = advice
        self.base_cycles = base_cycles
        self.tick_interval = tick_interval
        self._images: Dict[Optional[str], ReplayImage] = {}

    def image(
        self,
        instrumentation: Optional[str],
        profile_override=None,
        cache: bool = True,
    ) -> ReplayImage:
        """Replay-compile (and cache) an image for one instrumentation mode.

        An image compiled from a ``profile_override`` is never cached: the
        override is a mutable :class:`~repro.profiling.edges.EdgeProfile`,
        so no key could tell its later contents apart.
        """
        cache = cache and profile_override is None
        if cache and instrumentation in self._images:
            return self._images[instrumentation]
        image = replay_compile(
            self.program,
            self.advice,
            costs=self.costs,
            instrumentation=instrumentation,
            profile_override=profile_override,
        )
        if cache:
            self._images[instrumentation] = image
        return image


_CONTEXT_CACHE: Dict[Tuple[str, float], ExperimentContext] = {}


def prepare(
    workload: Workload,
    scale: float,
    costs: Optional[CostModel] = None,
    use_cache: bool = True,
) -> ExperimentContext:
    """Build, record advice, measure Base, calibrate the timer."""
    key = (workload.name, scale)
    # Only default-cost contexts are cached: the key has no cost model.
    use_cache = use_cache and costs is None
    if use_cache and key in _CONTEXT_CACHE:
        return _CONTEXT_CACHE[key]
    costs = costs if costs is not None else CostModel()

    program = workload.build(scale)
    provisional_tick = (
        _NOMINAL_CYCLES_AT_SCALE_1 * scale / workload.ticks_target
    )
    advice = record_advice(program, tick_interval=provisional_tick, costs=costs)

    base_image = replay_compile(program, advice, costs=costs)
    _, base_result = run_iteration_with_vm(base_image)
    base_cycles = base_result.cycles
    tick_interval = base_cycles / workload.ticks_target

    ctx = ExperimentContext(
        workload, scale, costs, program, advice, base_cycles, tick_interval
    )
    ctx._images[None] = base_image
    if use_cache and key not in _CONTEXT_CACHE:
        _CONTEXT_CACHE[key] = ctx
    return ctx


def run_config(
    ctx: ExperimentContext,
    config: RunConfig,
    include_compile_cycles: bool = False,
    profile_override=None,
    tick_jitter: float = 0.0,
    jitter_seed: int = 0,
) -> Tuple[VirtualMachine, RunResult]:
    """Execute one configuration of a prepared workload.

    Sampling configurations get the calibrated timer; non-sampling
    configurations run untimed (no ticks), like the paper's second replay
    iteration of Base and instrumentation-only runs.
    """
    # Images are cached even for sampled runs: first-time expansion
    # costs are accounted per-VM (vm.expanded_paths), so one run's
    # path->edges expansion warmth cannot subsidise another's handler
    # charges even when compiled code (and its resolver memo) is shared.
    image = ctx.image(config.instrumentation, profile_override=profile_override)
    tick = ctx.tick_interval if config.sampling is not None else None
    from repro.adaptive.replay import run_iteration_with_vm as _run

    return _run(
        image,
        tick_interval=tick,
        sampling=config.sampling,
        include_compile_cycles=include_compile_cycles,
        tick_jitter=tick_jitter,
        jitter_seed=jitter_seed,
    )


# -- experiment cells (the parallel engine's unit of work) ------------------


def config_to_spec(config: RunConfig) -> Dict:
    """A picklable, process-portable description of a RunConfig."""
    spec: Dict = {
        "name": config.name,
        "instrumentation": config.instrumentation,
    }
    if config.sampling is not None:
        spec["sampling"] = {
            "samples": config.sampling.samples,
            "stride": config.sampling.stride,
            "simplified": config.sampling.simplified,
        }
    return spec


def config_from_spec(spec: Dict) -> RunConfig:
    sampling = None
    raw = spec.get("sampling")
    if raw is not None:
        sampling = SamplingConfig(
            raw["samples"], raw["stride"], simplified=raw.get("simplified", True)
        )
    return RunConfig(spec["name"], spec.get("instrumentation"), sampling)


def measure_cell(
    workload_name: str,
    scale: float,
    config_spec: Dict,
    seed: int = 0,
    tick_jitter: float = 0.0,
    collect_profiles: bool = False,
    include_compile_cycles: bool = False,
) -> Dict:
    """Measure one (workload, config) cell; returns plain picklable data.

    This is the unit the engine ships to its supervised worker
    processes: the worker re-prepares the workload context from scratch
    (deterministic), runs the configuration, and returns metrics plus a
    SHA-256 digest of the run's profiles and outputs — the digest is
    what the engine's determinism checks compare between sweeps and
    in-process :func:`~repro.engine.cells.run_cell` calls.
    """
    from repro.persist import (
        edge_profile_to_dict,
        path_profile_to_dict,
        payload_checksum,
    )
    from repro.workloads.suite import get_workload

    workload = get_workload(workload_name)
    ctx = prepare(workload, scale=scale)
    config = config_from_spec(config_spec)
    vm, result = run_config(
        ctx,
        config,
        include_compile_cycles=include_compile_cycles,
        tick_jitter=tick_jitter,
        jitter_seed=seed,
    )
    paths = path_profile_to_dict(vm.path_profile)
    edges = edge_profile_to_dict(vm.edge_profile)
    digest = payload_checksum(
        {
            "paths": paths,
            "edges": edges,
            "output": list(vm.output),
            "return_value": result.return_value,
            "cycles": result.cycles,
        }
    )
    metrics: Dict = {
        "workload": workload_name,
        "config": config.name,
        "scale": scale,
        "seed": seed,
        "cycles": result.cycles,
        "base_cycles": ctx.base_cycles,
        "normalized": result.cycles / ctx.base_cycles,
        "ticks": result.ticks,
        "samples_taken": result.samples_taken,
        "strides_skipped": result.strides_skipped,
        "path_count_updates": result.path_count_updates,
        "return_value": result.return_value,
        "compile_cycles": result.compile_cycles,
        "recompilations": result.recompilations,
        "health": (
            result.health.summary() if result.health is not None else None
        ),
        # Structured form of the same report, so sweep-level aggregation
        # (SweepHealth.absorb_cell_health) doesn't have to parse text.
        "health_dict": (
            result.health.to_dict() if result.health is not None else None
        ),
        "digest": digest,
    }
    if collect_profiles:
        metrics["paths"] = paths
        metrics["edges"] = edges
    return metrics
