"""The supervised experiment pool.

Scheduling: one task per *cell*, dispatched to long-lived supervised
worker processes (:class:`~repro.engine.supervisor.SweepSupervisor`).
The earlier engine shipped whole workload shards through
``Pool.apply_async`` and blocked per shard, so a single hung cell
stalled its shard's budget and a killed worker erased every outcome the
shard had produced; per-cell dispatch bounds the blast radius of any
failure to one cell, and workers amortize preparation costs across
cells through the per-process context cache exactly as the shard model
did.

Determinism contract: a cell's result depends only on its
:class:`~repro.engine.cells.CellSpec` (workload, scale, config, seed) —
never on worker identity, scheduling, retries, or co-resident cells —
so the merged results of a parallel sweep are byte-identical to a
serial sweep of the same cells, *including* sweeps whose workers were
killed and respawned mid-flight.  ``tests/test_engine.py`` and
``tests/test_supervisor.py`` assert this on the profile digests.

Failure policy (the PR-1 philosophy — degrade, don't crash — applied to
the engine itself):

* a cell that *fails* (raises) is retried up to ``retries`` times
  serially in the parent, under the per-cell wall budget when one is
  set; a cell that still fails produces an error
  :class:`~repro.engine.cells.CellResult` (or raises
  :class:`~repro.errors.CellExecutionError` in strict mode);
* a cell that *kills its worker* (crash or budget overrun) is retried
  with deterministic exponential backoff and quarantined after two
  kills — supervision events land on :attr:`ExperimentPool.health`;
* every completed cell appends a checksummed receipt to the sweep
  journal when one is configured, so ``run(..., resume_path=...)``
  re-runs only un-journaled cells after an interruption.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.engine.cells import CellResult, CellSpec, run_cell
from repro.engine.journal import SweepJournal, sweep_fingerprint
from repro.engine.supervisor import SweepSupervisor, run_cell_budgeted
from repro.errors import CellExecutionError, EngineError, JournalError
from repro.resilience.health import SweepHealth

# Attempts the engine-fault planner budgets for per cell: a cell is
# quarantined after two worker kills, so dispatch attempts never exceed
# this in practice.
_FAULT_PLAN_ATTEMPTS = 3


class ExperimentPool:
    """Runs experiment cells across supervised workers, deterministically.

    ``jobs=None`` uses ``os.cpu_count()``; ``jobs<=1`` runs serially in
    the current process (no subprocess round-trips at all).  ``timeout``
    is a per-cell wall-clock budget in seconds, enforced both on worker
    dispatches (the supervisor kills a worker that exceeds it) and on
    in-parent retries (run in a budgeted throwaway child).  ``retries``
    bounds the serial in-parent retries of failed or timed-out cells.
    ``journal_path`` names a sweep journal to append receipts to (and
    resume from, if it already exists); ``fault_plan`` enables the
    engine-level injection sites (worker-crash, worker-hang,
    receipt-write).  A ``timeout`` that is not None must be a positive
    finite number: NaN and infinity cannot be waited on, and a budget of
    zero or less would declare every worker hung.

    After ``run``, :attr:`health` holds the sweep's
    :class:`~repro.resilience.health.SweepHealth` ledger.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        strict: bool = False,
        journal_path: Optional[str] = None,
        fault_plan=None,
        max_worker_restarts: int = 16,
        backoff_base: float = 0.05,
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            jobs = 1
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise EngineError(
                f"timeout must be None or a positive finite number of "
                f"seconds, got {timeout!r}"
            )
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.strict = strict
        self.journal_path = journal_path
        self.fault_plan = fault_plan
        self.max_worker_restarts = max_worker_restarts
        self.backoff_base = backoff_base
        self.health = SweepHealth()

    # -- public API ---------------------------------------------------------

    def run(
        self,
        cells: Sequence[CellSpec],
        resume_path: Optional[str] = None,
    ) -> List[CellResult]:
        """Execute every cell; results are ordered by cell index.

        ``resume_path`` (or the constructor's ``journal_path``) names the
        sweep journal: receipts already present for *this* cell list are
        loaded and their cells skipped; every newly completed cell
        appends its own receipt, so an interrupted sweep loses at most
        the cell that was in flight.
        """
        self.health = SweepHealth()
        self.health.cells_total = len(cells)
        if not cells:
            return []
        journal_path = resume_path or self.journal_path
        results: Dict[int, CellResult] = {}
        journal = None
        if journal_path:
            fingerprint = sweep_fingerprint(cells)
            resumed, recoveries = SweepJournal.load(journal_path, fingerprint)
            for note in recoveries:
                self.health.record_journal_recovery(note)
            for index, result in resumed.items():
                results[index] = result
                if result.metrics is not None:
                    self.health.absorb_cell_health(
                        result.metrics.get("health_dict")
                    )
            self.health.record_resumed(len(resumed))
            journal = SweepJournal(journal_path, fingerprint)
            journal.open(meta={"jobs": self.jobs})
        remaining = [c for c in cells if c.index not in results]
        receipt_faults = self._plan_faults(
            "receipt-write", [str(c.index) for c in remaining]
        )
        try:
            if remaining:
                if self.jobs <= 1:
                    self._run_serial(remaining, results, journal, receipt_faults)
                else:
                    self._run_supervised(
                        remaining, results, journal, receipt_faults
                    )
        finally:
            if journal is not None:
                journal.close()
        ordered = [
            results[spec.index]
            for spec in sorted(cells, key=lambda s: s.index)
        ]
        self.health.cells_failed = sum(1 for r in ordered if not r.ok)
        return ordered

    # -- execution paths ----------------------------------------------------

    def _plan_faults(self, site: str, keys: Sequence[str]) -> FrozenSet[str]:
        from repro.resilience.faults import plan_site_faults

        return plan_site_faults(self.fault_plan, site, keys)

    def _run_serial(
        self,
        cells: Sequence[CellSpec],
        results: Dict[int, CellResult],
        journal: Optional[SweepJournal],
        receipt_faults: FrozenSet[str],
    ) -> None:
        """In-process execution (``jobs<=1``): no workers to supervise.

        The worker-crash/worker-hang sites need worker processes and are
        inert here; receipt-write still applies.
        """
        for spec in cells:
            start = time.perf_counter()
            try:
                metrics = run_cell(spec)
                outcome = (
                    metrics, None, None, time.perf_counter() - start, 1, False
                )
            except (KeyboardInterrupt, SystemExit):
                # Never swallow an interrupt into an error payload: the
                # user asked the sweep to stop, so stop — the journal
                # already holds receipts for everything completed.
                raise
            except BaseException as exc:  # noqa: BLE001 - payload, not policy
                outcome = (
                    None,
                    str(exc),
                    type(exc).__name__,
                    time.perf_counter() - start,
                    1,
                    False,
                )
            results[spec.index] = self._finish_cell(
                spec, outcome, journal, receipt_faults
            )

    def _run_supervised(
        self,
        cells: Sequence[CellSpec],
        results: Dict[int, CellResult],
        journal: Optional[SweepJournal],
        receipt_faults: FrozenSet[str],
    ) -> None:
        indexes = [c.index for c in cells]
        # Attempt-major key order: budget-limited plans spend their
        # faults on first attempts (which always happen) before retry
        # attempts (which only happen if the first attempt fired).
        attempt_keys = [
            f"{index}:{attempt}"
            for attempt in range(1, _FAULT_PLAN_ATTEMPTS + 1)
            for index in indexes
        ]
        worker_faults = {
            site: self._plan_faults(site, attempt_keys)
            for site in ("worker-crash", "worker-hang")
        }
        supervisor = SweepSupervisor(
            jobs=min(self.jobs, len(cells)),
            timeout=self.timeout,
            worker_faults=worker_faults,
            health=self.health,
            max_worker_restarts=self.max_worker_restarts,
            backoff_base=self.backoff_base,
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
        """Retry a failed outcome, enforce strictness, journal the receipt."""
        metrics, error, error_type, duration, attempts, final = outcome
        while metrics is None and not final and attempts <= self.retries:
            # Serial in-parent retry: deterministic cells make this a
            # pure re-execution, so it only helps with transient
            # worker-side failures (OOM kill, timeout contention).  The
            # per-cell wall budget applies here too — the retry runs in
            # a budgeted child rather than inline when one is set.
            attempts += 1
            start = time.perf_counter()
            if self.timeout is not None:
                metrics, error, error_type = run_cell_budgeted(
                    spec, self.timeout
                )
            else:
                try:
                    metrics = run_cell(spec)
                    error = error_type = None
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:  # noqa: BLE001
                    error = str(exc)
                    error_type = type(exc).__name__
            duration = time.perf_counter() - start
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
