"""Fault injection and graceful degradation for the adaptive VM.

The paper's argument is that PEP is cheap enough to leave on *forever*
in a production VM; that only holds if the profiler's own machinery
degrades instead of crashing when something faults.  This package
provides

* :class:`FaultPlan` / :class:`FaultInjector` — deterministic, seeded
  fault injection at fixed sites in the hot layers (opt-compilation,
  sample handling, path regeneration, advice load);
* :class:`DegradationPolicy` / :class:`ResilienceManager` — the
  fallback policies those faults prove out (compile blacklist with
  exponential backoff, K-strikes path-profiling disable with edge-only
  fallback, corrupt-advice degrade);
* :class:`HealthReport` — the per-run ledger of faults and
  degradations, surfaced on :class:`~repro.vm.runtime.RunResult`.

See DESIGN.md section 7 for the model.
"""

from repro.resilience.faults import (
    ENGINE_FAULT_SITES,
    FAULT_SITES,
    SAMPLER_FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    plan_site_faults,
)
from repro.resilience.health import HealthReport, SweepHealth
from repro.resilience.manager import DegradationPolicy, ResilienceManager

__all__ = [
    "ENGINE_FAULT_SITES",
    "FAULT_SITES",
    "SAMPLER_FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "HealthReport",
    "SweepHealth",
    "DegradationPolicy",
    "ResilienceManager",
    "plan_site_faults",
]
