"""Worker supervision for the sweep engine.

The pre-supervisor engine handed whole workload shards to a
``multiprocessing.Pool`` and blocked on each ``apply_async``: a hung
cell stalled its entire shard until the *shard* budget expired, and a
SIGKILLed worker erased every outcome the shard had already produced.
This module replaces that with per-cell tasks dispatched to long-lived
worker processes that the parent actively supervises:

* each worker owns a duplex pipe; it acknowledges every task with a
  ``start`` heartbeat and reports a ``done``/``fail`` outcome per cell,
  so the parent always knows which single cell is in flight where;
* the parent's event loop multiplexes worker pipes *and* process
  sentinels through :func:`multiprocessing.connection.wait`, so a worker
  that dies (SIGKILL, OOM, segfault) is detected the moment its sentinel
  fires, and a worker that exceeds its per-cell wall budget is detected
  when its deadline passes — both are killed, joined, and respawned;
* the in-flight cell of a lost worker is retried with deterministic
  exponential backoff (``backoff_base * 2**(kills-1)``, no jitter), and
  a cell that kills its worker ``quarantine_kills`` times (default 2) is
  quarantined into an error outcome instead of looping the restart
  machinery;
* total respawns are bounded by ``max_worker_restarts``; exhausting the
  budget degrades the remaining cells to error outcomes — the sweep
  still returns, it does not crash or hang.

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
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.engine.cells import CellSpec, run_cell
from repro.errors import (
    CellQuarantinedError,
    CellTimeoutError,
    WorkerCrashError,
)

# A worker that hangs (injected worker-hang fault) sleeps this long when
# no per-cell budget exists to derive a longer stall from; the sweep
# then completes late instead of deadlocking an unbudgeted run.
_DEFAULT_HANG_SECONDS = 5.0
# How long to wait for a stopping worker to exit.
_SHUTDOWN_GRACE = 10.0


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _worker_main(conn, hang_seconds: float) -> None:
    """Long-lived worker loop: recv task, ack, run cell, send outcome.

    Messages from the parent: ``("run", spec, attempt, fault_sites)`` or
    ``("stop",)``, on which the worker exits.  Messages to the parent:
    ``("start", index, attempt)`` (the heartbeat ack),
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
        try:
            conn.send(("start", spec.index, attempt))
        except (BrokenPipeError, OSError):
            return
        if "worker-crash" in fault_sites:
            # Model a hard worker death mid-cell: no cleanup, no goodbye.
            os.kill(os.getpid(), signal.SIGKILL)
        if "worker-hang" in fault_sites:
            # Stall well past the parent's per-cell budget; if the run
            # is unbudgeted the stall is bounded so the sweep still ends.
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


def run_cell_budgeted(
    spec: CellSpec, budget: float
) -> Tuple[Optional[Dict], Optional[str], Optional[str]]:
    """Run one cell in a throwaway child under a wall-clock budget.

    This is what enforces the per-cell ``timeout`` on in-parent retries
    (the old engine re-ran a timed-out cell inline with *no* budget): the
    child is SIGKILLed when the budget expires.  Returns the outcome
    triple ``(metrics, error, error_type)`` — a budget overrun becomes a
    ``CellTimeoutError`` entry, a dead child a ``WorkerCrashError`` one.
    """
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_budgeted_main, args=(child_conn, spec), daemon=True
    )
    proc.start()
    child_conn.close()
    try:
        if parent_conn.poll(budget):
            try:
                return parent_conn.recv()
            except (EOFError, OSError):
                return (
                    None,
                    f"retry process for cell #{spec.index} died",
                    WorkerCrashError.__name__,
                )
        return (
            None,
            f"cell #{spec.index} exceeded {budget:.1f}s wall-clock budget "
            f"on retry",
            CellTimeoutError.__name__,
        )
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join()
        parent_conn.close()


def _budgeted_main(conn, spec: CellSpec) -> None:
    try:
        metrics = run_cell(spec)
        conn.send((metrics, None, None))
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001
        conn.send((None, str(exc), type(exc).__name__))


class _Worker:
    """Parent-side handle for one supervised worker process."""

    __slots__ = ("process", "conn", "task", "deadline", "started")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        # (spec, attempt, fault_sites) currently in flight, or None.
        self.task: Optional[Tuple[CellSpec, int, FrozenSet[str]]] = None
        self.deadline: Optional[float] = None
        self.started = False  # saw the "start" heartbeat for this task

    @property
    def busy(self) -> bool:
        return self.task is not None


class SweepSupervisor:
    """Dispatches cells to supervised workers; survives their deaths.

    ``run(cells, on_outcome)`` executes every cell and invokes
    ``on_outcome(spec, outcome)`` as each reaches a final state, where
    ``outcome`` is ``(metrics, error, error_type, duration, attempts,
    final)``; ``final=True`` marks quarantined/abandoned cells the
    caller must not retry further.
    """

    def __init__(
        self,
        jobs: int,
        timeout: Optional[float] = None,
        worker_faults: Optional[Dict[str, FrozenSet[str]]] = None,
        health=None,
        max_worker_restarts: int = 16,
        backoff_base: float = 0.05,
        quarantine_kills: int = 2,
    ) -> None:
        self.jobs = max(jobs, 1)
        self.timeout = timeout
        self.worker_faults = worker_faults or {}
        self.health = health
        self.max_worker_restarts = max_worker_restarts
        self.backoff_base = backoff_base
        self.quarantine_kills = quarantine_kills
        self._ctx = _mp_context()
        self._workers: List[_Worker] = []
        self._restarts = 0
        self._completed: set = set()
        self._hang_seconds = (
            max(timeout * 4.0, 1.0) if timeout else _DEFAULT_HANG_SECONDS
        )

    # -- public API ----------------------------------------------------------

    def run(
        self,
        cells: Sequence[CellSpec],
        on_outcome: Callable[[CellSpec, tuple], None],
    ) -> None:
        if not cells:
            return
        # (spec, attempt, eligible_at); attempt is 1-based and counts
        # dispatches, i.e. it only advances when a worker is lost.
        pending: deque = deque((spec, 1, 0.0) for spec in cells)
        kills: Dict[int, int] = {}
        self._completed = set()
        total = len(cells)
        want = min(self.jobs, total)
        try:
            for _ in range(want):
                self._spawn_worker()
            while len(self._completed) < total:
                now = time.monotonic()
                self._dispatch_eligible(pending, now)
                if not any(w.busy for w in self._workers) and not pending:
                    # Nothing in flight and nothing queued, yet cells
                    # remain unfinished: the restart budget ran dry.
                    break
                if not self._workers and pending:
                    self._abandon_pending(pending, on_outcome)
                    continue
                ready = self._wait(pending, now)
                self._handle_ready(ready, pending, kills, on_outcome)
                self._handle_deadlines(pending, kills, on_outcome)
                if not self._workers and pending:
                    self._abandon_pending(pending, on_outcome)
        finally:
            self._shutdown()

    # -- event loop pieces ---------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._hang_seconds),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self._workers.append(worker)
        return worker

    def _task_fault_sites(self, index: int, attempt: int) -> FrozenSet[str]:
        key = f"{index}:{attempt}"
        return frozenset(
            site
            for site in ("worker-crash", "worker-hang")
            if key in self.worker_faults.get(site, frozenset())
        )

    def _dispatch_eligible(self, pending: deque, now: float) -> None:
        idle = [w for w in self._workers if not w.busy]
        while idle and pending:
            # Pending is kept in (eligible_at-agnostic) FIFO order; skip
            # over backoff-delayed tasks without starving ready ones.
            for _ in range(len(pending)):
                spec, attempt, eligible_at = pending[0]
                if eligible_at <= now:
                    pending.popleft()
                    break
                pending.rotate(-1)
            else:
                return  # every pending task is still backing off
            worker = idle.pop()
            sites = self._task_fault_sites(spec.index, attempt)
            try:
                worker.conn.send(("run", spec, attempt, sites))
            except (BrokenPipeError, OSError):
                # Worker died before it ever got the task; this is not
                # the cell's fault — requeue without a kill strike.
                pending.appendleft((spec, attempt, eligible_at))
                self._replace_worker(worker, respawn=True)
                idle = [w for w in self._workers if not w.busy]
                continue
            worker.task = (spec, attempt, sites)
            worker.started = False
            worker.deadline = (
                now + self.timeout if self.timeout is not None else None
            )

    def _wait(self, pending: deque, now: float):
        from multiprocessing.connection import wait as mp_wait

        handles = []
        for worker in self._workers:
            if worker.busy:
                handles.append(worker.conn)
                handles.append(worker.process.sentinel)
        timeout = None
        deadlines = [
            w.deadline
            for w in self._workers
            if w.busy and w.deadline is not None
        ]
        if deadlines:
            timeout = max(min(deadlines) - now, 0.0)
        if pending:
            eligible = min(entry[2] for entry in pending)
            idle_exists = any(not w.busy for w in self._workers)
            if idle_exists:
                backoff_wait = max(eligible - now, 0.0) + 0.001
                timeout = (
                    backoff_wait if timeout is None
                    else min(timeout, backoff_wait)
                )
        if not handles:
            if timeout:
                time.sleep(min(timeout, 1.0))
            return []
        return mp_wait(handles, timeout)

    def _handle_ready(
        self,
        ready,
        pending: deque,
        kills: Dict[int, int],
        on_outcome,
    ) -> int:
        completed = 0
        ready_set = set(ready)
        for worker in list(self._workers):
            if worker.conn in ready_set:
                completed += self._drain_worker(worker, on_outcome)
            if worker.process.sentinel in ready_set:
                # Drain any buffered final message first: a worker that
                # completed its cell and *then* died mid-idle must not
                # lose the outcome it already sent.
                completed += self._drain_worker(worker, on_outcome)
                if worker in self._workers:
                    completed += self._worker_lost(
                        worker, "crash", pending, kills, on_outcome
                    )
        return completed

    def _drain_worker(self, worker: _Worker, on_outcome) -> int:
        completed = 0
        while True:
            try:
                if not worker.conn.poll():
                    break
                message = worker.conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "start":
                worker.started = True
            elif kind in ("done", "fail"):
                if worker.task is None:  # pragma: no cover - protocol bug
                    continue
                spec = worker.task[0]
                worker.task = None
                worker.deadline = None
                if kind == "done":
                    _, _index, attempt, metrics, duration = message
                    outcome = (metrics, None, None, duration, attempt, False)
                else:
                    _, _index, attempt, error, error_type, duration = message
                    outcome = (
                        None, error, error_type, duration, attempt, False
                    )
                completed += self._finish(spec, outcome, on_outcome)
        return completed

    def _finish(self, spec: CellSpec, outcome: tuple, on_outcome) -> int:
        """Record a final outcome exactly once per cell.

        A kill/complete race (the worker's ``done`` landing in the pipe
        in the same instant the supervisor declares it hung) could
        otherwise double-report a cell; the first outcome wins.
        """
        if spec.index in self._completed:
            return 0
        self._completed.add(spec.index)
        on_outcome(spec, outcome)
        return 1

    def _handle_deadlines(
        self, pending: deque, kills: Dict[int, int], on_outcome
    ) -> int:
        now = time.monotonic()
        completed = 0
        for worker in list(self._workers):
            if (
                worker.busy
                and worker.deadline is not None
                and now >= worker.deadline
            ):
                # Drain first: an outcome already sitting in the pipe
                # means the cell finished just under the wire.
                completed += self._drain_worker(worker, on_outcome)
                if not worker.busy:
                    continue
                completed += self._worker_lost(
                    worker, "hang", pending, kills, on_outcome
                )
        return completed

    def _worker_lost(
        self,
        worker: _Worker,
        cause: str,
        pending: deque,
        kills: Dict[int, int],
        on_outcome,
    ) -> int:
        """A worker died or blew its deadline; recover its in-flight cell."""
        task = worker.task
        self._replace_worker(worker, respawn=True)
        if task is None:
            return 0
        spec, attempt, _sites = task
        if spec.index in self._completed:  # outcome already recorded
            return 0
        strikes = kills.get(spec.index, 0) + 1
        kills[spec.index] = strikes
        if self.health is not None:
            if cause == "hang":
                self.health.record_hang(
                    spec.index, attempt, self.timeout or 0.0
                )
            else:
                self.health.record_crash(spec.index, attempt)
        if strikes >= self.quarantine_kills:
            if cause == "hang":
                error_type = CellTimeoutError.__name__
                error = (
                    f"quarantined after {strikes} worker kill(s): cell "
                    f"exceeded its {self.timeout or 0.0:.1f}s wall budget "
                    f"repeatedly"
                )
            else:
                error_type = WorkerCrashError.__name__
                error = (
                    f"quarantined after {strikes} worker kill(s): cell "
                    f"killed its worker repeatedly"
                )
            if self.health is not None:
                self.health.record_quarantine(spec.index, error)
            return self._finish(
                spec, (None, error, error_type, 0.0, attempt, True), on_outcome
            )
        delay = self.backoff_base * (2 ** (strikes - 1))
        if self.health is not None:
            self.health.record_backoff(spec.index, delay)
        pending.append((spec, attempt + 1, time.monotonic() + delay))
        return 0

    def _replace_worker(self, worker: _Worker, respawn: bool) -> None:
        """Kill/join/forget a worker; respawn if the budget allows."""
        if worker in self._workers:
            self._workers.remove(worker)
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if not respawn:
            return
        if self._restarts >= self.max_worker_restarts:
            if self.health is not None:
                self.health.record_event(
                    "restart-budget",
                    f"worker restart budget ({self.max_worker_restarts}) "
                    f"exhausted; not respawning",
                )
            return
        self._restarts += 1
        self._spawn_worker()
        if self.health is not None:
            self.health.record_restart()

    def _abandon_pending(self, pending: deque, on_outcome) -> int:
        """Restart budget exhausted with no workers left: degrade, don't hang."""
        completed = 0
        while pending:
            spec, attempt, _eligible = pending.popleft()
            error = (
                f"worker restart budget ({self.max_worker_restarts}) "
                f"exhausted before cell could run"
            )
            if self.health is not None:
                self.health.record_quarantine(spec.index, error)
            completed += self._finish(
                spec,
                (None, error, CellQuarantinedError.__name__, 0.0, attempt, True),
                on_outcome,
            )
        return completed

    # -- shutdown ------------------------------------------------------------

    def _shutdown(self) -> None:
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                continue
        for worker in self._workers:
            worker.process.join(max(deadline - time.monotonic(), 0.1))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._workers = []
