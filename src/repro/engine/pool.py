"""The supervised experiment pool.

Scheduling: one task per *cell*, dispatched to long-lived supervised
worker processes (:class:`~repro.engine.supervisor.SweepSupervisor`),
whatever the worker count: ``jobs=1`` is one supervised worker, so a
sweep's outcome does not depend on ``jobs``.  The earlier engine
shipped whole workload shards through ``Pool.apply_async`` and blocked
per shard, so a single hung cell stalled its shard's budget and a
killed worker erased every outcome the shard had produced; per-cell
dispatch bounds the blast radius of any failure to one cell, and
workers amortize preparation costs across cells through the
per-process context cache exactly as the shard model did.

Determinism contract: a cell's result depends only on its
:class:`~repro.engine.cells.CellSpec` (workload, scale, config, seed) —
never on worker identity, scheduling, retries, or co-resident cells —
so the merged results of a sweep are byte-identical to running
:func:`~repro.engine.cells.run_cell` on each cell in process,
*including* sweeps whose workers were killed and respawned mid-flight.
``tests/test_engine.py`` and ``tests/test_supervisor.py`` assert this on
the profile digests.

Failure policy (the PR-1 philosophy — degrade, don't crash — applied to
the engine itself):

* a cell that *fails* (raises) is final: it produces an error
  :class:`~repro.engine.cells.CellResult` after one attempt (or raises
  :class:`~repro.errors.CellExecutionError` in strict mode);
* a cell that *kills its worker* (crash or budget overrun) is retried
  at once on a fresh worker and quarantined after the second kill —
  supervision events land on :attr:`ExperimentPool.health`;
* every completed cell appends a checksummed receipt to the sweep
  journal when one is configured, so ``run(..., resume_path=...)``
  re-runs only un-journaled cells after an interruption.
"""

from __future__ import annotations

import math
import os
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.engine.cells import CellResult, CellSpec
from repro.engine.journal import SweepJournal, sweep_fingerprint
from repro.engine.supervisor import QUARANTINE_KILLS, SweepSupervisor
from repro.errors import CellExecutionError, EngineError, JournalError
from repro.resilience.health import SweepHealth


class ExperimentPool:
    """Runs experiment cells across supervised workers, deterministically.

    ``jobs=None`` uses ``os.cpu_count()``; otherwise ``jobs`` must be at
    least 1, and ``jobs=1`` runs one supervised worker.  ``timeout`` is
    a per-cell wall-clock budget in seconds: the supervisor kills a
    worker that exceeds it.  A ``timeout`` that is not None must be a
    positive finite number: NaN and infinity cannot be waited on, and a
    budget of zero or less would declare every worker hung.
    ``fault_plan`` enables the engine-level injection sites
    (worker-crash, worker-hang, receipt-write); a plan that names
    worker-hang needs a ``timeout``, since only the budget detects a
    hung worker.  ``max_worker_restarts`` bounds total worker respawns;
    0 never respawns.

    After ``run``, :attr:`health` holds the sweep's
    :class:`~repro.resilience.health.SweepHealth` ledger.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        strict: bool = False,
        fault_plan=None,
        max_worker_restarts: int = 16,
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise EngineError(f"jobs must be at least 1, got {jobs!r}")
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise EngineError(
                f"timeout must be None or a positive finite number of "
                f"seconds, got {timeout!r}"
            )
        if max_worker_restarts < 0:
            raise EngineError(
                f"max_worker_restarts must be at least 0, got "
                f"{max_worker_restarts!r}"
            )
        if timeout is None and fault_plan is not None and (
            "worker-hang" in fault_plan.specs
        ):
            raise EngineError(
                "a worker-hang fault needs a per-cell timeout: only the "
                "budget detects a hung worker"
            )
        self.jobs = jobs
        self.timeout = timeout
        self.strict = strict
        self.fault_plan = fault_plan
        self.max_worker_restarts = max_worker_restarts
        self.health = SweepHealth()

    # -- public API ---------------------------------------------------------

    def run(
        self,
        cells: Sequence[CellSpec],
        resume_path: Optional[str] = None,
    ) -> List[CellResult]:
        """Execute every cell; results are ordered by cell index.

        ``resume_path`` names the sweep journal: receipts already present
        for *this* cell list are loaded and their cells skipped; every
        newly completed cell appends its own receipt, so an interrupted
        sweep loses at most the cells that were in flight.
        """
        self.health = SweepHealth()
        self.health.cells_total = len(cells)
        if not cells:
            return []
        results: Dict[int, CellResult] = {}
        journal = None
        if resume_path:
            fingerprint = sweep_fingerprint(cells)
            resumed, recoveries = SweepJournal.load(resume_path, fingerprint)
            for note in recoveries:
                self.health.record_journal_recovery(note)
            for index, result in resumed.items():
                results[index] = result
                if result.metrics is not None:
                    self.health.absorb_cell_health(
                        result.metrics.get("health_dict")
                    )
            self.health.record_resumed(len(resumed))
            journal = SweepJournal(resume_path, fingerprint)
            journal.open(meta={"jobs": self.jobs})
        remaining = [c for c in cells if c.index not in results]
        try:
            if remaining:
                self._run_supervised(remaining, results, journal)
        finally:
            if journal is not None:
                journal.close()
        ordered = [
            results[spec.index]
            for spec in sorted(cells, key=lambda s: s.index)
        ]
        self.health.cells_failed = sum(1 for r in ordered if not r.ok)
        return ordered

    # -- execution ----------------------------------------------------------

    def _plan_faults(self, site: str, keys: Sequence[str]) -> FrozenSet[str]:
        from repro.resilience.faults import plan_site_faults

        return plan_site_faults(self.fault_plan, site, keys)

    def _run_supervised(
        self,
        cells: Sequence[CellSpec],
        results: Dict[int, CellResult],
        journal: Optional[SweepJournal],
    ) -> None:
        indexes = [c.index for c in cells]
        receipt_faults = self._plan_faults(
            "receipt-write", [str(index) for index in indexes]
        )
        # Attempt-major key order: budget-limited plans spend their
        # faults on first attempts (which always happen) before retry
        # attempts (which only happen if the first attempt fired).
        attempt_keys = [
            f"{index}:{attempt}"
            for attempt in range(1, QUARANTINE_KILLS + 1)
            for index in indexes
        ]
        worker_faults = {
            site: self._plan_faults(site, attempt_keys)
            for site in ("worker-crash", "worker-hang")
        }
        supervisor = SweepSupervisor(
            jobs=self.jobs,
            timeout=self.timeout,
            worker_faults=worker_faults,
            health=self.health,
            max_worker_restarts=self.max_worker_restarts,
        )

        def on_outcome(spec: CellSpec, outcome: tuple) -> None:
            results[spec.index] = self._finish_cell(
                spec, outcome, journal, receipt_faults
            )

        supervisor.run(cells, on_outcome)

    # -- per-cell completion ------------------------------------------------

    def _finish_cell(
        self,
        spec: CellSpec,
        outcome: tuple,
        journal: Optional[SweepJournal],
        receipt_faults: FrozenSet[str],
    ) -> CellResult:
        """Enforce strictness, absorb cell health, journal the receipt."""
        metrics, error, error_type, duration, attempts = outcome
        if metrics is None and self.strict:
            raise CellExecutionError(
                f"cell #{spec.index} ({spec.workload}/"
                f"{spec.config_spec.get('name')}) failed after "
                f"{attempts} attempt(s): {error}"
            )
        result = CellResult(
            index=spec.index,
            workload=spec.workload,
            config=str(spec.config_spec.get("name")),
            trial=spec.trial,
            metrics=metrics,
            error=error,
            error_type=error_type,
            attempts=attempts,
            duration=duration,
        )
        if metrics is not None:
            self.health.absorb_cell_health(metrics.get("health_dict"))
        if journal is not None:
            corrupt = str(spec.index) in receipt_faults
            try:
                journal.append_receipt(result, corrupt=corrupt)
            except (JournalError, OSError) as exc:
                # The sweep carries the result in memory; only this
                # cell's resumability is lost, and a later resume will
                # drop the torn line and re-run the cell.
                self.health.record_receipt_failure(
                    f"cell #{spec.index}: {exc}"
                )
        return result
