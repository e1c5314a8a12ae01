"""Worker supervision for the sweep engine.

The pre-supervisor engine handed whole workload shards to a
``multiprocessing.Pool`` and blocked on each ``apply_async``: a hung
cell stalled its entire shard until the *shard* budget expired, and a
SIGKILLed worker erased every outcome the shard had already produced.
This module replaces that with per-cell tasks dispatched to long-lived
worker processes that the parent actively supervises.  It is the only
way the engine runs a cell: ``jobs=1`` is one supervised worker.

* each worker owns a duplex pipe and reports a ``done``/``fail``
  outcome per cell, so the parent always knows which single cell is in
  flight where; the per-cell deadline is armed when the task is sent;
* the parent's event loop multiplexes worker pipes *and* process
  sentinels through :func:`multiprocessing.connection.wait`, so a worker
  that dies (SIGKILL, OOM, segfault) is detected the moment its sentinel
  fires, and a worker that exceeds its per-cell wall budget is detected
  when its deadline passes — both are killed, joined, and respawned;
* a cell that raises is final: cells are pure functions of their spec,
  so a rerun would only raise again;
* the in-flight cell of a lost worker is retried at once on a fresh
  worker, and a cell that loses :data:`QUARANTINE_KILLS` workers is
  quarantined into an error outcome instead of looping the restart
  machinery;
* a lost worker is respawned for its requeued cell, or when no worker
  is left for a pending cell, and total respawns are bounded by
  ``max_worker_restarts``; exhausting the budget degrades the remaining
  cells to error outcomes — the sweep still returns, it does not crash
  or hang.

Determinism: a cell's *result* never depends on which worker ran it or
how many times it was retried (cells are pure functions of their spec),
so a sweep that survives any number of crashes merges to byte-identical
digests.  The injected-fault schedule (``worker-crash``/``worker-hang``
sites) is keyed per (cell, attempt) — see
:func:`repro.resilience.faults.plan_site_faults` — so chaos runs are
replayable regardless of worker interleaving.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from multiprocessing.connection import wait as mp_wait
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.engine.cells import CellSpec, run_cell
from repro.errors import (
    CellQuarantinedError,
    CellTimeoutError,
    WorkerCrashError,
)
from repro.resilience.health import SweepHealth

# A cell is quarantined when it has lost this many workers; it is also
# the number of dispatch attempts a cell can get, which sizes the fault
# planner's (cell, attempt) keys.
QUARANTINE_KILLS = 2
# How long to wait for an idle worker to exit after ``stop``.
_SHUTDOWN_GRACE = 10.0


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _worker_main(conn, hang_seconds: Optional[float]) -> None:
    """Long-lived worker loop: recv task, run cell, send outcome.

    Messages from the parent: ``("run", spec, attempt, fault_sites)`` or
    ``("stop",)``, on which the worker exits.  Messages to the parent:
    ``("done", index, attempt, metrics, duration)`` and
    ``("fail", index, attempt, error, error_type, duration)``.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, spec, attempt, fault_sites = message
        if "worker-crash" in fault_sites:
            # Model a hard worker death mid-cell: no cleanup, no goodbye.
            os.kill(os.getpid(), signal.SIGKILL)
        if "worker-hang" in fault_sites:
            # Stall well past the parent's per-cell budget.
            time.sleep(hang_seconds)
        start = time.perf_counter()
        try:
            metrics = run_cell(spec)
            payload = (
                "done",
                spec.index,
                attempt,
                metrics,
                time.perf_counter() - start,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - payload, not policy
            payload = (
                "fail",
                spec.index,
                attempt,
                str(exc),
                type(exc).__name__,
                time.perf_counter() - start,
            )
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """Parent-side handle for one supervised worker process."""

    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        # (spec, attempt) currently in flight, or None.
        self.task: Optional[Tuple[CellSpec, int]] = None
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.task is not None


class SweepSupervisor:
    """Dispatches cells to supervised workers; survives their deaths.

    ``run(cells, on_outcome)`` executes every cell and invokes
    ``on_outcome(spec, outcome)`` once per cell, where ``outcome`` is
    ``(metrics, error, error_type, duration, attempts)``.  Supervision
    events land on ``health``.
    """

    def __init__(
        self,
        jobs: int,
        timeout: Optional[float],
        worker_faults: Dict[str, FrozenSet[str]],
        health: SweepHealth,
        max_worker_restarts: int,
    ) -> None:
        self.jobs = jobs
        self.timeout = timeout
        self.worker_faults = worker_faults
        self.health = health
        self.max_worker_restarts = max_worker_restarts
        self._ctx = _mp_context()
        self._workers: List[_Worker] = []
        self._restarts = 0
        self._completed: set = set()
        # Only a budget detects a hang, so ExperimentPool rejects a
        # worker-hang fault without one; no hang fires when this is None.
        self._hang_seconds = max(timeout * 4.0, 1.0) if timeout else None

    # -- public API ----------------------------------------------------------

    def run(
        self,
        cells: Sequence[CellSpec],
        on_outcome: Callable[[CellSpec, tuple], None],
    ) -> None:
        # (spec, attempt); attempt is 1-based and counts dispatches, so
        # it only advances when a worker is lost with the cell in flight.
        pending: deque = deque((spec, 1) for spec in cells)
        self._completed = set()
        try:
            for _ in range(min(self.jobs, len(cells))):
                self._spawn_worker()
            while len(self._completed) < len(cells):
                self._dispatch(pending)
                if not any(w.busy for w in self._workers):
                    # Nothing could be dispatched: every worker is gone
                    # and the restart budget is spent.
                    self._abandon(pending, on_outcome)
                    break
                ready = set(self._wait())
                self._handle_ready(ready, pending, on_outcome)
                self._handle_deadlines(pending, on_outcome)
        finally:
            self._shutdown()

    # -- event loop pieces ---------------------------------------------------

    def _spawn_worker(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._hang_seconds),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._workers.append(_Worker(process, parent_conn))

    def _task_fault_sites(self, index: int, attempt: int) -> FrozenSet[str]:
        key = f"{index}:{attempt}"
        return frozenset(
            site
            for site in ("worker-crash", "worker-hang")
            if key in self.worker_faults[site]
        )

    def _dispatch(self, pending: deque) -> None:
        idle = [w for w in self._workers if not w.busy]
        while idle and pending:
            spec, attempt = pending.popleft()
            worker = idle.pop()
            sites = self._task_fault_sites(spec.index, attempt)
            try:
                worker.conn.send(("run", spec, attempt, sites))
            except (BrokenPipeError, OSError):
                # Worker died before it ever got the task; this is not
                # the cell's fault — requeue without a kill strike.
                pending.appendleft((spec, attempt))
                self._retire(worker)
                self._respawn()
                idle = [w for w in self._workers if not w.busy]
                continue
            worker.task = (spec, attempt)
            if self.timeout is not None:
                worker.deadline = time.monotonic() + self.timeout

    def _wait(self) -> list:
        """Block until a busy worker reports, dies, or hits its deadline."""
        handles = []
        deadlines = []
        for worker in self._workers:
            if worker.busy:
                handles += [worker.conn, worker.process.sentinel]
                if worker.deadline is not None:
                    deadlines.append(worker.deadline)
        timeout = None
        if deadlines:
            timeout = max(min(deadlines) - time.monotonic(), 0.0)
        return mp_wait(handles, timeout)

    def _handle_ready(self, ready: set, pending: deque, on_outcome) -> None:
        for worker in list(self._workers):
            if worker.conn in ready:
                self._drain_worker(worker, on_outcome)
            if worker.process.sentinel in ready:
                # Drain any buffered final message first: a worker that
                # completed its cell and *then* died mid-idle must not
                # lose the outcome it already sent.
                self._drain_worker(worker, on_outcome)
                self._worker_lost(worker, "crash", pending, on_outcome)

    def _drain_worker(self, worker: _Worker, on_outcome) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                return
            if worker.task is None:  # pragma: no cover - protocol bug
                continue
            spec = worker.task[0]
            worker.task = None
            worker.deadline = None
            if message[0] == "done":
                _, _index, attempt, metrics, duration = message
                outcome = (metrics, None, None, duration, attempt)
            else:
                _, _index, attempt, error, error_type, duration = message
                outcome = (None, error, error_type, duration, attempt)
            self._finish(spec, outcome, on_outcome)

    def _finish(self, spec: CellSpec, outcome: tuple, on_outcome) -> None:
        """Record a final outcome exactly once per cell.

        A kill/complete race (the worker's ``done`` landing in the pipe
        in the same instant the supervisor declares it hung) could
        otherwise double-report a cell; the first outcome wins.
        """
        if spec.index not in self._completed:
            self._completed.add(spec.index)
            on_outcome(spec, outcome)

    def _handle_deadlines(self, pending: deque, on_outcome) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            if (
                worker.busy
                and worker.deadline is not None
                and now >= worker.deadline
            ):
                # Drain first: an outcome already sitting in the pipe
                # means the cell finished just under the wire.
                self._drain_worker(worker, on_outcome)
                if worker.busy:
                    self._worker_lost(worker, "hang", pending, on_outcome)

    def _worker_lost(
        self, worker: _Worker, cause: str, pending: deque, on_outcome
    ) -> None:
        """A worker died or blew its deadline: requeue or quarantine its
        in-flight cell.

        A requeued cell gets a fresh worker.  Any other loss respawns
        only when no worker is left for a pending cell: pending cells
        wait for the surviving workers, so the restart count follows
        from the lost cells' fates, not from which worker freed up
        first, and the last cell's quarantine respawns nothing.
        """
        self._retire(worker)
        task = worker.task
        requeued = False
        # An outcome the cell already recorded stands.
        if task is not None and task[0].index not in self._completed:
            requeued = self._recover(task, cause, pending, on_outcome)
        if requeued or (pending and not self._workers):
            self._respawn()

    def _recover(
        self, task: tuple, cause: str, pending: deque, on_outcome
    ) -> bool:
        """Requeue a lost worker's cell (returns True), or quarantine it
        at its last attempt."""
        spec, attempt = task
        # Each lost worker costs the cell one attempt, so the attempt
        # number is also its kill count.
        if cause == "hang":
            self.health.record_hang(spec.index, attempt, self.timeout)
        else:
            self.health.record_crash(spec.index, attempt)
        if attempt < QUARANTINE_KILLS:
            pending.append((spec, attempt + 1))
            return True
        if cause == "hang":
            error_type = CellTimeoutError.__name__
            error = (
                f"quarantined after {attempt} worker kill(s): cell "
                f"exceeded its {self.timeout:g}s wall budget repeatedly"
            )
        else:
            error_type = WorkerCrashError.__name__
            error = (
                f"quarantined after {attempt} worker kill(s): cell "
                f"killed its worker repeatedly"
            )
        self.health.record_quarantine(spec.index, error)
        self._finish(spec, (None, error, error_type, 0.0, attempt), on_outcome)
        return False

    def _retire(self, worker: _Worker) -> None:
        """Kill, join and forget a worker."""
        self._workers.remove(worker)
        self._reap(worker)

    def _respawn(self) -> None:
        """Start a worker in place of a lost one, if the budget allows."""
        if self._restarts >= self.max_worker_restarts:
            self.health.record_event(
                "restart-budget",
                f"worker restart budget ({self.max_worker_restarts}) "
                f"exhausted; not respawning",
            )
            return
        self._restarts += 1
        self._spawn_worker()
        self.health.record_restart()

    def _abandon(self, pending: deque, on_outcome) -> None:
        """Restart budget exhausted with no workers left: degrade, don't hang."""
        while pending:
            spec, attempt = pending.popleft()
            error = (
                f"worker restart budget ({self.max_worker_restarts}) "
                f"exhausted before cell could run"
            )
            self.health.record_quarantine(spec.index, error)
            self._finish(
                spec,
                (None, error, CellQuarantinedError.__name__, 0.0, attempt),
                on_outcome,
            )

    # -- shutdown ------------------------------------------------------------

    @staticmethod
    def _reap(worker: _Worker) -> None:
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _shutdown(self) -> None:
        """Stop every worker; a busy one holds an abandoned cell, so kill it.

        Workers are busy here only when the sweep is being aborted (an
        interrupt, or a strict-mode error raised from ``on_outcome``).
        """
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for worker in self._workers:
            if worker.busy:
                continue
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                continue
        for worker in self._workers:
            if not worker.busy:
                worker.process.join(max(deadline - time.monotonic(), 0.1))
            self._reap(worker)
        self._workers = []
