"""Deterministic fault injection for the adaptive VM.

A :class:`FaultPlan` names *sites* (fixed strings baked into the hot
layers — see :data:`FAULT_SITES`) and per-site firing probabilities; a
:class:`FaultInjector` is the plan's runtime, drawing from one
:class:`~repro.util.rng.DeterministicRng` stream per site.  Because a
site's stream advances exactly once per check at that site, and the
checks themselves are driven by the (deterministic) virtual machine, two
runs with the same plan, seed, and workload fire *identical* faults —
which is what lets tests replay a faulty run and assert an identical
:class:`~repro.resilience.health.HealthReport`.

Injected faults raise the library's ordinary error types
(:class:`~repro.errors.CompilationError`,
:class:`~repro.errors.PathReconstructionError`,
:class:`~repro.errors.AdviceError`) at the real raise layers, so the
degradation policies they exercise are the same ones real faults hit.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Union

from repro.errors import ReproError
from repro.util.rng import DeterministicRng

#: Injection sites threaded through the library.
#:
#: * ``opt-compile``        — optimizing compilation (adaptive recompile, api)
#: * ``sample``             — path-sample handling in the Arnold-Grove sampler
#: * ``path-reconstruct``   — path-number -> edge-sequence regeneration
#: * ``path-table``         — the path-profile table update for a sample
#: * ``advice-load``        — reading a replay-advice file
#: * ``superblock-compile`` — path-guided superblock formation, 1-path
#:   and k-path traces alike; firing degrades the method to plain
#:   blockjit (observables unchanged)
FAULT_SITES = (
    "opt-compile",
    "sample",
    "path-reconstruct",
    "path-table",
    "advice-load",
    "superblock-compile",
    "worker-crash",
    "worker-hang",
    "receipt-write",
    "cache-merge",
)

#: The sites the Arnold-Grove sampler checks for each recorded sample,
#: in the order it checks them.  Each check advances the site's stream,
#: so a plan that configures any of them pins the sampler to recording
#: one sample at a time; with none configured, the sampler's checks
#: return before drawing and samples may be buffered (DESIGN.md §10).
SAMPLER_FAULT_SITES = ("sample", "path-reconstruct", "path-table")

#: Engine-level sites exercised by the supervised sweep engine
#: (DESIGN.md section 12).  Unlike the VM-level sites above — which draw
#: from a per-site stream advanced once per check — engine sites are
#: *keyed*: whether a (cell, attempt) fires is a pure function of
#: (site, key, plan seed), so the injected fault schedule is identical
#: no matter how the parallel supervisor interleaves workers.
#:
#: * ``worker-crash``  — the worker SIGKILLs itself mid-cell (keyed by
#:   ``"<cell index>:<attempt>"``); the supervisor must detect the death,
#:   respawn, and retry the cell.
#: * ``worker-hang``   — the worker stalls past its per-cell wall budget
#:   (same keying); the supervisor must kill and respawn it.
#: * ``receipt-write`` — the journal append for a cell's receipt fails
#:   after writing a corrupt line (keyed by ``"<cell index>"``); the
#:   sweep continues, the resume machinery must skip the bad line.
#: * ``cache-merge``   — the compilation-cache entries a worker ships
#:   back at shutdown are dropped (keyed by ``"worker-<id>"``); the
#:   sweep stays correct, only cache warmth is lost.
ENGINE_FAULT_SITES = (
    "worker-crash",
    "worker-hang",
    "receipt-write",
    "cache-merge",
)


class FaultSpec:
    """One site's injection behaviour: probability and optional budget."""

    __slots__ = ("site", "probability", "max_faults")

    def __init__(
        self,
        site: str,
        probability: float,
        max_faults: Optional[int] = None,
    ) -> None:
        if site not in FAULT_SITES:
            raise ReproError(
                f"unknown fault site {site!r}; expected one of "
                f"{', '.join(FAULT_SITES)}"
            )
        if not 0.0 <= probability <= 1.0:
            raise ReproError(
                f"fault probability must be in [0, 1], got {probability}"
            )
        if max_faults is not None and max_faults < 0:
            raise ReproError(f"max_faults must be >= 0, got {max_faults}")
        self.site = site
        self.probability = probability
        self.max_faults = max_faults

    def __repr__(self) -> str:
        budget = "" if self.max_faults is None else f" max={self.max_faults}"
        return f"<FaultSpec {self.site} p={self.probability}{budget}>"


class FaultPlan:
    """A seeded set of :class:`FaultSpec`, one per site at most."""

    __slots__ = ("specs", "seed")

    def __init__(
        self,
        specs: Union[Iterable[FaultSpec], Dict[str, float]] = (),
        seed: int = 0,
    ) -> None:
        self.specs: Dict[str, FaultSpec] = {}
        self.seed = seed
        if isinstance(specs, dict):
            specs = [FaultSpec(site, prob) for site, prob in specs.items()]
        for spec in specs:
            if spec.site in self.specs:
                raise ReproError(f"duplicate fault site {spec.site!r}")
            self.specs[spec.site] = spec

    @classmethod
    def parse(cls, entries: Sequence[str], seed: int = 0) -> "FaultPlan":
        """Build a plan from CLI-style ``site=prob`` / ``site=prob:max``."""
        specs = []
        for entry in entries:
            site, _, rest = entry.partition("=")
            if not rest:
                raise ReproError(
                    f"bad fault spec {entry!r}; expected site=prob[:max]"
                )
            prob_text, _, max_text = rest.partition(":")
            try:
                probability = float(prob_text)
                max_faults = int(max_text) if max_text else None
            except ValueError:
                raise ReproError(
                    f"bad fault spec {entry!r}; expected site=prob[:max]"
                ) from None
            specs.append(FaultSpec(site.strip(), probability, max_faults))
        return cls(specs, seed=seed)

    def describe(self) -> str:
        parts = [
            f"{spec.site}={spec.probability}"
            + ("" if spec.max_faults is None else f":{spec.max_faults}")
            for spec in self.specs.values()
        ]
        return f"FaultPlan(seed={self.seed}; {', '.join(parts) or 'empty'})"

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


def plan_site_faults(
    plan: Optional["FaultPlan"], site: str, keys: Sequence[str]
) -> frozenset:
    """Deterministically choose which ``keys`` fire at an engine site.

    Each key's decision is an independent draw from an RNG seeded by
    (site, key, plan seed) — one draw per key, no shared stream — so the
    result is a pure function of the plan and the key set, independent of
    worker scheduling.  ``max_faults`` truncates in the *given key
    order*: budgets are allocated over potential fault slots
    deterministically, not over the (schedule-dependent) chronological
    firing order.
    """
    if plan is None:
        return frozenset()
    spec = plan.specs.get(site)
    if spec is None:
        return frozenset()
    fired = []
    for key in keys:
        rng = DeterministicRng.from_name(
            f"engine-fault:{site}:{key}", salt=plan.seed
        )
        if rng.chance(spec.probability):
            fired.append(key)
    if spec.max_faults is not None:
        fired = fired[: spec.max_faults]
    return frozenset(fired)


class FaultInjector:
    """Runtime for a :class:`FaultPlan`; one deterministic stream per site.

    ``should_fire(site, key)`` is the single question the instrumented
    layers ask.  It advances the site's RNG on *every* check of a
    configured site (even when the fault budget is exhausted), so the
    decision sequence depends only on the number of checks — not on what
    earlier faults did — keeping injection replayable.
    """

    __slots__ = ("plan", "health", "checks", "_rngs", "_fired")

    def __init__(self, plan: FaultPlan, health=None) -> None:
        self.plan = plan
        self.health = health
        self.checks = 0
        self._rngs: Dict[str, DeterministicRng] = {
            site: DeterministicRng.from_name(site, salt=plan.seed)
            for site in plan.specs
        }
        self._fired: Dict[str, int] = {site: 0 for site in plan.specs}

    def should_fire(self, site: str, key: str = "") -> bool:
        spec = self.plan.specs.get(site)
        if spec is None:
            return False
        self.checks += 1
        fire = self._rngs[site].chance(spec.probability)
        if not fire:
            return False
        if spec.max_faults is not None and self._fired[site] >= spec.max_faults:
            return False
        self._fired[site] += 1
        if self.health is not None:
            self.health.record_fault(site, key)
        return True

    def fired(self, site: str) -> int:
        """How many times ``site`` has actually injected a fault."""
        return self._fired.get(site, 0)

    def total_fired(self) -> int:
        return sum(self._fired.values())

    def __repr__(self) -> str:
        return (
            f"<FaultInjector {self.plan.describe()} "
            f"fired={self.total_fired()}/{self.checks} checks>"
        )
