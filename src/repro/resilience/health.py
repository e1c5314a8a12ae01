"""Run-health accounting: what went wrong, and what the VM did about it.

A production profiler must degrade, not crash, when its own machinery
faults (cf. PROMPT, and Jikes RVM's behaviour the paper relies on: a
failed opt-compile keeps the baseline body, a bad sample is dropped, the
program never notices).  :class:`HealthReport` is the ledger of those
events for one run — every injected fault, dropped sample, compile
blacklisting, and degradation policy taken — surfaced on
:class:`~repro.vm.runtime.RunResult` so harnesses can assert that a run
degraded *gracefully* rather than collapsing.

The report is deliberately plain data (JSON-clean ``to_dict``) and
order-preserving, so two runs with the same fault plan and seed produce
*identical* reports — the determinism the replay methodology needs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple


class HealthReport:
    """Ledger of faults observed and degradations taken during a run."""

    __slots__ = (
        "faults",
        "fault_log",
        "samples_dropped",
        "reconstruction_failures",
        "compile_failures",
        "blacklisted",
        "path_disabled",
        "degradations",
        "warnings",
    )

    def __init__(self) -> None:
        # site -> number of injected faults that fired there.
        self.faults: Dict[str, int] = {}
        # (site, key) per fired fault, in firing order.
        self.fault_log: List[Tuple[str, str]] = []
        # Path samples discarded instead of recorded (corrupt or unresolvable).
        self.samples_dropped = 0
        # PathReconstructionErrors absorbed (each also drops a sample).
        self.reconstruction_failures = 0
        # method -> failed opt-compile attempts.
        self.compile_failures: Dict[str, int] = {}
        # Methods permanently compile-blacklisted (stay at their current tier).
        self.blacklisted: List[str] = []
        # Methods whose PEP path profiling was disabled (edge-only fallback).
        self.path_disabled: List[str] = []
        # (policy, detail) per degradation decision, in order.
        self.degradations: List[Tuple[str, str]] = []
        # Human-readable warnings (e.g. a corrupt advice file ignored).
        self.warnings: List[str] = []

    # -- recording -----------------------------------------------------------

    def record_fault(self, site: str, key: str) -> None:
        self.faults[site] = self.faults.get(site, 0) + 1
        self.fault_log.append((site, key))

    def record_dropped_sample(self, count: int = 1) -> None:
        self.samples_dropped += count

    def record_compile_failure(self, method: str) -> int:
        failures = self.compile_failures.get(method, 0) + 1
        self.compile_failures[method] = failures
        return failures

    def record_degradation(self, policy: str, detail: str) -> None:
        self.degradations.append((policy, detail))

    def record_warning(self, text: str) -> None:
        self.warnings.append(text)

    # -- queries -------------------------------------------------------------

    def total_faults(self) -> int:
        return sum(self.faults.values())

    def events(self) -> int:
        """Total noteworthy events: faults, drops, and degradations."""
        return (
            self.total_faults()
            + self.samples_dropped
            + len(self.degradations)
            + len(self.warnings)
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean snapshot; also the identity used by ``__eq__``."""
        return {
            "faults": dict(sorted(self.faults.items())),
            "fault_log": [list(entry) for entry in self.fault_log],
            "samples_dropped": self.samples_dropped,
            "reconstruction_failures": self.reconstruction_failures,
            "compile_failures": dict(sorted(self.compile_failures.items())),
            "blacklisted": list(self.blacklisted),
            "path_disabled": list(self.path_disabled),
            "degradations": [list(entry) for entry in self.degradations],
            "warnings": list(self.warnings),
        }

    def summary(self) -> str:
        """Multi-line summary for CLI / log output."""
        lines = [
            f"faults injected:         {self.total_faults()}"
            + (
                " ("
                + ", ".join(
                    f"{site}={count}"
                    for site, count in sorted(self.faults.items())
                )
                + ")"
                if self.faults
                else ""
            ),
            f"samples dropped:         {self.samples_dropped}",
            f"reconstruction failures: {self.reconstruction_failures}",
            f"compile failures:        {sum(self.compile_failures.values())}"
            + (
                " ("
                + ", ".join(sorted(self.compile_failures))
                + ")"
                if self.compile_failures
                else ""
            ),
            f"methods blacklisted:     {len(self.blacklisted)}"
            + (f" ({', '.join(self.blacklisted)})" if self.blacklisted else ""),
            f"path profiling disabled: {len(self.path_disabled)}"
            + (
                f" ({', '.join(self.path_disabled)})"
                if self.path_disabled
                else ""
            ),
        ]
        for policy, detail in self.degradations:
            lines.append(f"degradation [{policy}]: {detail}")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HealthReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return (
            f"<HealthReport faults={self.total_faults()} "
            f"dropped={self.samples_dropped} "
            f"degradations={len(self.degradations)}>"
        )


class SweepHealth:
    """Sweep-level health: merged per-cell reports + supervision events.

    One :class:`HealthReport` describes a single VM run; a sweep is many
    runs plus the supervision machinery around them (worker restarts,
    quarantines, journal recoveries).  ``SweepHealth``
    aggregates both so ``repro sweep`` can print one ledger for the whole
    sweep, and tests can assert the supervisor took exactly the expected
    recovery actions under an injected fault plan.

    Per-cell aggregates (``cell_faults`` etc.) are deterministic for a
    given cell set and fault plan.  The supervision ``events`` list is
    chronological and therefore schedule-dependent in parallel sweeps;
    ``to_dict`` sorts it so reports from equivalent runs compare equal.
    """

    __slots__ = (
        "cells_total",
        "cells_failed",
        "resumed_cells",
        "worker_restarts",
        "worker_crashes",
        "worker_hangs",
        "quarantined",
        "journal_recoveries",
        "receipt_failures",
        "cell_faults",
        "cell_degradations",
        "cell_warnings",
        "events",
    )

    def __init__(self) -> None:
        self.cells_total = 0
        self.cells_failed = 0
        # Cells satisfied from a sweep journal instead of being re-run.
        self.resumed_cells = 0
        # Worker processes respawned after a crash/hang/dispatch loss.
        self.worker_restarts = 0
        self.worker_crashes = 0
        self.worker_hangs = 0
        # (cell index, reason) per quarantined cell.
        self.quarantined: List[Tuple[int, str]] = []
        # Corrupt/unusable journal lines skipped during resume.
        self.journal_recoveries: List[str] = []
        # Receipt appends that failed (the sweep continued without them).
        self.receipt_failures: List[str] = []
        # Aggregated over per-cell HealthReports: site -> fault count.
        self.cell_faults: Dict[str, int] = {}
        self.cell_degradations = 0
        self.cell_warnings = 0
        # (kind, detail) supervision log, chronological.
        self.events: List[Tuple[str, str]] = []

    # -- recording -----------------------------------------------------------

    def record_event(self, kind: str, detail: str) -> None:
        self.events.append((kind, detail))

    # Event text is keyed by *cell and attempt*, never by worker id:
    # which worker happens to run a cell is a scheduling accident, and
    # the replayability contract (same plan + same cells -> equal
    # SweepHealth) only holds if scheduling accidents stay out of the
    # event log.

    def record_crash(self, index: int, attempt: int) -> None:
        self.worker_crashes += 1
        self.record_event(
            "worker-crash",
            f"cell #{index} attempt {attempt} died with its worker",
        )

    def record_hang(self, index: int, attempt: int, budget: float) -> None:
        self.worker_hangs += 1
        self.record_event(
            "worker-hang",
            f"cell #{index} attempt {attempt} exceeded {budget:g}s; "
            f"worker killed",
        )

    def record_restart(self) -> None:
        self.worker_restarts += 1
        self.record_event("worker-restart", "worker respawned")

    def record_quarantine(self, index: int, reason: str) -> None:
        self.quarantined.append((index, reason))
        self.record_event("quarantine", f"cell #{index}: {reason}")

    def record_journal_recovery(self, detail: str) -> None:
        self.journal_recoveries.append(detail)
        self.record_event("journal-recovery", detail)

    def record_receipt_failure(self, detail: str) -> None:
        self.receipt_failures.append(detail)
        self.record_event("receipt-failure", detail)

    def record_resumed(self, count: int) -> None:
        self.resumed_cells += count

    def absorb_cell_health(self, health_dict) -> None:
        """Merge one cell's :meth:`HealthReport.to_dict` payload."""
        if not health_dict:
            return
        for site, count in health_dict.get("faults", {}).items():
            self.cell_faults[site] = self.cell_faults.get(site, 0) + count
        self.cell_degradations += len(health_dict.get("degradations", ()))
        self.cell_warnings += len(health_dict.get("warnings", ()))

    # -- queries -------------------------------------------------------------

    def supervision_events(self) -> int:
        return (
            self.worker_crashes
            + self.worker_hangs
            + len(self.quarantined)
            + len(self.journal_recoveries)
            + len(self.receipt_failures)
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean snapshot; event order normalized for comparison."""
        return {
            "cells_total": self.cells_total,
            "cells_failed": self.cells_failed,
            "resumed_cells": self.resumed_cells,
            "worker_restarts": self.worker_restarts,
            "worker_crashes": self.worker_crashes,
            "worker_hangs": self.worker_hangs,
            "quarantined": [list(entry) for entry in sorted(self.quarantined)],
            "journal_recoveries": sorted(self.journal_recoveries),
            "receipt_failures": sorted(self.receipt_failures),
            "cell_faults": dict(sorted(self.cell_faults.items())),
            "cell_degradations": self.cell_degradations,
            "cell_warnings": self.cell_warnings,
            "events": sorted([kind, detail] for kind, detail in self.events),
        }

    def summary(self) -> str:
        """Multi-line summary for the sweep CLI."""
        lines = [
            f"cells:                {self.cells_total} total, "
            f"{self.cells_failed} failed, {self.resumed_cells} resumed "
            f"from journal",
            f"worker restarts:      {self.worker_restarts} "
            f"(crashes={self.worker_crashes}, hangs={self.worker_hangs})",
            f"quarantined cells:    {len(self.quarantined)}"
            + (
                " ("
                + ", ".join(f"#{index}" for index, _ in sorted(self.quarantined))
                + ")"
                if self.quarantined
                else ""
            ),
            f"journal recoveries:   {len(self.journal_recoveries)}",
            f"receipt failures:     {len(self.receipt_failures)}",
        ]
        if self.cell_faults:
            lines.append(
                "cell faults:          "
                + ", ".join(
                    f"{site}={count}"
                    for site, count in sorted(self.cell_faults.items())
                )
            )
        if self.cell_degradations or self.cell_warnings:
            lines.append(
                f"cell degradations:    {self.cell_degradations} "
                f"(+{self.cell_warnings} warnings)"
            )
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepHealth):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __ne__(self, other: object):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return (
            f"<SweepHealth cells={self.cells_total} "
            f"restarts={self.worker_restarts} "
            f"quarantined={len(self.quarantined)}>"
        )
