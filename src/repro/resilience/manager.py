"""Graceful-degradation policies, and the manager that owns them.

Jikes RVM (the paper's substrate) survives profiler and compiler
hiccups by quietly falling back: a failed opt-compile keeps the baseline
body, a bad sample is dropped, a corrupt advice file means a plain run.
:class:`ResilienceManager` gives this reproduction the same posture.  It
bundles

* an optional :class:`~repro.resilience.faults.FaultInjector` (proving
  the policies out under deterministic injected faults),
* a :class:`DegradationPolicy` (the knobs), and
* the :class:`~repro.resilience.health.HealthReport` ledger,

and exposes the three policies the hot layers consult:

* **compile blacklist + backoff** — a failed opt-compile leaves the
  method at its current tier; retries are allowed only after an
  exponentially growing (capped) number of further method samples, and
  after ``max_compile_attempts`` failures the method is permanently
  blacklisted.  Execution continues at baseline either way.
* **K-strikes path disable** — ``max_reconstruction_failures``
  *consecutive* :class:`~repro.errors.PathReconstructionError`\\ s on one
  method disable PEP path profiling for that method; subsequent
  recompiles fall back to per-branch edge instrumentation (edge-only
  profiling), so an edge profile keeps flowing.
* **advice degrade** — a corrupt/truncated advice file becomes a
  no-advice run with a recorded warning (see
  :func:`repro.persist.load_advice_or_none`).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.resilience.faults import SAMPLER_FAULT_SITES, FaultInjector, FaultPlan
from repro.resilience.health import HealthReport

#: Instrumentation modes that depend on path regeneration; when a method's
#: path profiling is disabled these degrade to plain edge counters.
_PATH_MODES = ("pep", "pep-nosmart", "pep-hot", "full-path", "classic-blpp")


class DegradationPolicy:
    """Knobs for the graceful-degradation policies."""

    __slots__ = (
        "max_reconstruction_failures",
        "compile_backoff_base",
        "compile_backoff_cap",
        "max_compile_attempts",
    )

    def __init__(
        self,
        max_reconstruction_failures: int = 3,
        compile_backoff_base: int = 4,
        compile_backoff_cap: int = 64,
        max_compile_attempts: int = 3,
    ) -> None:
        if max_reconstruction_failures < 1:
            raise ValueError("max_reconstruction_failures must be >= 1")
        if compile_backoff_base < 1:
            raise ValueError("compile_backoff_base must be >= 1")
        if compile_backoff_cap < compile_backoff_base:
            raise ValueError("compile_backoff_cap must be >= the base")
        if max_compile_attempts < 1:
            raise ValueError("max_compile_attempts must be >= 1")
        self.max_reconstruction_failures = max_reconstruction_failures
        self.compile_backoff_base = compile_backoff_base
        self.compile_backoff_cap = compile_backoff_cap
        self.max_compile_attempts = max_compile_attempts

    def backoff_for(self, failures: int) -> int:
        """Extra samples required before retry attempt ``failures + 1``."""
        return min(
            self.compile_backoff_base * (2 ** max(failures - 1, 0)),
            self.compile_backoff_cap,
        )


class ResilienceManager:
    """The one object the VM, controller, and sampler consult."""

    __slots__ = (
        "policy",
        "health",
        "injector",
        "sampler_faults",
        "_retry_at",
        "_blacklisted",
        "_recon_streak",
        "_path_disabled",
    )

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        policy: Optional[DegradationPolicy] = None,
        health: Optional[HealthReport] = None,
    ) -> None:
        self.policy = policy if policy is not None else DegradationPolicy()
        self.health = health if health is not None else HealthReport()
        self.injector = (
            FaultInjector(plan, self.health) if plan is not None else None
        )
        # Whether the plan configures a site the sampler checks per
        # sample; only such runs must record samples one at a time.
        self.sampler_faults = plan is not None and any(
            site in plan.specs for site in SAMPLER_FAULT_SITES
        )
        # method -> sample count at which an opt-compile retry is allowed.
        self._retry_at: Dict[str, int] = {}
        self._blacklisted: Set[str] = set()
        # method -> consecutive reconstruction failures.
        self._recon_streak: Dict[str, int] = {}
        self._path_disabled: Set[str] = set()

    # -- compile blacklist + backoff ----------------------------------------

    def compile_allowed(self, method: str, sample_count: int) -> bool:
        """May the controller attempt an opt-compile of ``method`` now?"""
        if method in self._blacklisted:
            return False
        retry_at = self._retry_at.get(method)
        return retry_at is None or sample_count >= retry_at

    def note_compile_failure(
        self, method: str, sample_count: int, error: Exception
    ) -> None:
        """A (real or injected) opt-compile failed; schedule the fallback."""
        failures = self.health.record_compile_failure(method)
        if failures >= self.policy.max_compile_attempts:
            self._blacklisted.add(method)
            self.health.blacklisted.append(method)
            self.health.record_degradation(
                "compile-blacklist",
                f"{method}: opt-compile failed {failures} times; staying at "
                f"current tier permanently ({error})",
            )
        else:
            backoff = self.policy.backoff_for(failures)
            self._retry_at[method] = sample_count + backoff
            self.health.record_degradation(
                "compile-backoff",
                f"{method}: opt-compile attempt {failures} failed; retrying "
                f"after {backoff} more samples ({error})",
            )

    def note_compile_success(self, method: str) -> None:
        self._retry_at.pop(method, None)

    def is_blacklisted(self, method: str) -> bool:
        return method in self._blacklisted

    # -- K-strikes path disable ---------------------------------------------

    def note_reconstruction_failure(self, method: str, error: Exception) -> None:
        """A sampled path could not be regenerated; drop it, maybe disable."""
        self.health.reconstruction_failures += 1
        self.health.record_dropped_sample()
        streak = self._recon_streak.get(method, 0) + 1
        self._recon_streak[method] = streak
        limit = self.policy.max_reconstruction_failures
        if streak >= limit and method not in self._path_disabled:
            self._path_disabled.add(method)
            self.health.path_disabled.append(method)
            self.health.record_degradation(
                "path-disable",
                f"{method}: {streak} consecutive path-reconstruction "
                f"failures; falling back to edge-only profiling ({error})",
            )

    def note_reconstruction_success(self, method: str) -> None:
        if self._recon_streak.get(method):
            self._recon_streak[method] = 0

    def path_profiling_enabled(self, method: str) -> bool:
        return method not in self._path_disabled

    def instrumentation_for(
        self, method: str, default: Optional[str]
    ) -> Optional[str]:
        """The instrumentation a recompile of ``method`` should use."""
        if default in _PATH_MODES and method in self._path_disabled:
            return "edges"
        return default

    # -- misc ----------------------------------------------------------------

    def drop_sample(self) -> None:
        self.health.record_dropped_sample()

    def __repr__(self) -> str:
        return (
            f"<ResilienceManager injector={self.injector!r} "
            f"blacklisted={sorted(self._blacklisted)} "
            f"path_disabled={sorted(self._path_disabled)}>"
        )
