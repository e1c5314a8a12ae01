"""Experiment cells: the engine's unit of schedulable work.

A :class:`CellSpec` is a fully self-describing, picklable recipe for one
measurement — workload name, scale, configuration spec, trial index, and
a deterministic seed.  Workers rebuild everything else (program, advice,
calibrated timer) from scratch, so a cell produces the same bytes no
matter which process runs it, in what order, or after which other cells.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import EngineError
from repro.util.rng import DeterministicRng

# Trials beyond the first decorrelate timer phase by this fraction of one
# tick interval (trial 0 always runs at canonical phase so single-trial
# sweeps are bit-identical to plain harness runs).
DEFAULT_TICK_JITTER = 0.5


def cell_seed(master_seed: int, index: int) -> int:
    """A 64-bit per-cell seed derived from a named RNG stream.

    Uses :meth:`DeterministicRng.from_name` so the seed depends only on
    (master seed, cell index) — never on process identity, scheduling
    order, or worker count.
    """
    rng = DeterministicRng.from_name(f"engine-cell-{index}", salt=master_seed)
    return (rng.next_u32() << 32) | rng.next_u32()


class CellSpec:
    """One (workload, configuration, trial) measurement to perform."""

    __slots__ = (
        "index",
        "workload",
        "scale",
        "config_spec",
        "trial",
        "seed",
        "tick_jitter",
        "collect_profiles",
        "include_compile_cycles",
    )

    def __init__(
        self,
        index: int,
        workload: str,
        scale: float,
        config_spec: Dict,
        trial: int = 0,
        seed: int = 0,
        tick_jitter: float = 0.0,
        collect_profiles: bool = False,
        include_compile_cycles: bool = False,
    ) -> None:
        self.index = index
        self.workload = workload
        self.scale = scale
        self.config_spec = config_spec
        self.trial = trial
        self.seed = seed
        self.tick_jitter = tick_jitter
        self.collect_profiles = collect_profiles
        self.include_compile_cycles = include_compile_cycles

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state) -> None:
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)

    def __repr__(self) -> str:
        return (
            f"<CellSpec #{self.index} {self.workload}/"
            f"{self.config_spec.get('name')} trial={self.trial}>"
        )


class CellResult:
    """Outcome of one cell: metrics on success, an error record otherwise."""

    __slots__ = (
        "index",
        "workload",
        "config",
        "trial",
        "metrics",
        "error",
        "error_type",
        "attempts",
        "duration",
    )

    def __init__(
        self,
        index: int,
        workload: str,
        config: str,
        trial: int,
        metrics: Optional[Dict] = None,
        error: Optional[str] = None,
        error_type: Optional[str] = None,
        attempts: int = 1,
        duration: float = 0.0,
    ) -> None:
        self.index = index
        self.workload = workload
        self.config = config
        self.trial = trial
        self.metrics = metrics
        self.error = error
        self.error_type = error_type
        self.attempts = attempts
        self.duration = duration

    @property
    def ok(self) -> bool:
        return self.metrics is not None

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state) -> None:
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"error={self.error_type}"
        return (
            f"<CellResult #{self.index} {self.workload}/{self.config} "
            f"{status}>"
        )


def make_sweep_cells(
    workload_names: Iterable[str],
    config_specs: Iterable[Dict],
    scale: float,
    trials: int = 1,
    master_seed: int = 0,
    tick_jitter: float = DEFAULT_TICK_JITTER,
    collect_profiles: bool = False,
    include_compile_cycles: bool = False,
) -> List[CellSpec]:
    """Enumerate the (workload x config x trial) cells of a sweep.

    Cell order — and therefore cell index and cell seed — is fixed by
    the argument order alone, so a sweep's cell list is identical in
    every process that constructs it.  ``trials`` must be at least 1.
    """
    if trials < 1:
        raise EngineError(f"trials must be at least 1, got {trials!r}")
    specs = list(config_specs)
    cells: List[CellSpec] = []
    index = 0
    for workload in workload_names:
        for spec in specs:
            for trial in range(trials):
                cells.append(
                    CellSpec(
                        index=index,
                        workload=workload,
                        scale=scale,
                        config_spec=spec,
                        trial=trial,
                        seed=cell_seed(master_seed, index),
                        tick_jitter=tick_jitter if trial > 0 else 0.0,
                        collect_profiles=collect_profiles,
                        include_compile_cycles=include_compile_cycles,
                    )
                )
                index += 1
    return cells


def run_cell(spec: CellSpec) -> Dict:
    """Execute one cell in the current process; raises on failure."""
    from repro.harness.experiment import measure_cell

    return measure_cell(
        spec.workload,
        spec.scale,
        spec.config_spec,
        seed=spec.seed,
        tick_jitter=spec.tick_jitter,
        collect_profiles=spec.collect_profiles,
        include_compile_cycles=spec.include_compile_cycles,
    )
