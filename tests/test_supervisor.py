"""The crash-safe supervised sweep engine (DESIGN.md section 12).

Three load-bearing properties:

1. **Supervision**: a worker that dies (SIGKILL) or exceeds its
   per-cell wall budget is detected, killed, and respawned; the
   in-flight cell retries at once on a fresh worker and is quarantined
   after killing its worker twice — on one worker or several — and none
   of this changes a single byte of the sweep's output.
2. **Journaled resume**: every completed cell appends a checksummed
   receipt; an interrupted sweep resumed from its journal re-runs only
   un-journaled cells and merges to digests byte-identical to an
   uninterrupted sweep.  Corrupt lines (torn tail writes, injected
   receipt-write faults) are dropped and re-run, never trusted.
3. **Deterministic engine faults**: the worker-crash / worker-hang /
   receipt-write schedule is a pure function of the fault plan and the
   cell list — independent of worker scheduling — so chaos runs are
   replayable in CI.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.engine import (
    ExperimentPool,
    SweepJournal,
    make_sweep_cells,
    run_cell,
    sweep_fingerprint,
)
from repro.engine.cells import CellResult
from repro.errors import (
    CellExecutionError,
    CellQuarantinedError,
    CellTimeoutError,
    EngineError,
    JournalError,
    WorkerCrashError,
)
from repro.harness.experiment import BASE, config_to_spec, pep_config
from repro.resilience import FaultPlan, plan_site_faults
from repro.resilience.health import SweepHealth

_SPECS = [config_to_spec(BASE), config_to_spec(pep_config(64, 17))]
_SCALE = 1.0


def _cells(workloads=("compress", "db"), specs=_SPECS, **kwargs):
    return make_sweep_cells(list(workloads), specs, scale=_SCALE, **kwargs)


def _digests(results):
    return [r.metrics["digest"] for r in results]


@pytest.fixture(scope="module")
def serial_reference():
    """Digests of the standard cells, each run in process by ``run_cell``."""
    return [run_cell(cell)["digest"] for cell in _cells()]


# -- fault planning determinism ---------------------------------------------


def test_plan_site_faults_is_keyed_and_deterministic():
    plan = FaultPlan.parse(["worker-crash=0.5"], seed=7)
    keys = [f"{i}:1" for i in range(64)]
    first = plan_site_faults(plan, "worker-crash", keys)
    again = plan_site_faults(plan, "worker-crash", keys)
    assert first == again
    # Key order does not change per-key decisions (keyed, not streamed).
    shuffled = plan_site_faults(plan, "worker-crash", list(reversed(keys)))
    assert first == shuffled
    # p=0.5 over 64 keys fires a non-trivial, non-total subset.
    assert 0 < len(first) < 64
    # A different seed reshuffles the schedule.
    other = plan_site_faults(
        FaultPlan.parse(["worker-crash=0.5"], seed=8), "worker-crash", keys
    )
    assert first != other


def test_plan_site_faults_budget_truncates_in_key_order():
    plan = FaultPlan.parse(["worker-hang=1.0:3"], seed=0)
    keys = [f"{i}:1" for i in range(10)]
    fired = plan_site_faults(plan, "worker-hang", keys)
    assert fired == frozenset(keys[:3])


def test_plan_site_faults_empty_without_plan_or_site():
    assert plan_site_faults(None, "worker-crash", ["0:1"]) == frozenset()
    plan = FaultPlan.parse(["worker-crash=1.0"], seed=0)
    assert plan_site_faults(plan, "worker-hang", ["0:1"]) == frozenset()


def test_engine_sites_are_valid_fault_sites():
    # FaultSpec validates sites against FAULT_SITES; the engine sites
    # must parse through the same CLI grammar as the VM sites.
    plan = FaultPlan.parse(
        [
            "worker-crash=0.1",
            "worker-hang=0.2:1",
            "receipt-write=0.3",
        ],
        seed=1,
    )
    assert set(plan.specs) == {
        "worker-crash",
        "worker-hang",
        "receipt-write",
    }


# -- supervision: crash, hang, quarantine -----------------------------------


def test_sigkilled_workers_leave_digests_byte_identical(serial_reference):
    # Acceptance criterion: every cell SIGKILLs its first worker
    # mid-cell; the supervisor respawns and retries; the merged sweep is
    # byte-identical to running each cell in process.
    cells = _cells()
    plan = FaultPlan.parse([f"worker-crash=1.0:{len(cells)}"], seed=3)
    pool = ExperimentPool(jobs=2, strict=True, fault_plan=plan)
    results = pool.run(cells)
    assert _digests(results) == serial_reference
    # Every cell took exactly one crash + one successful retry.
    assert [r.attempts for r in results] == [2] * len(cells)
    assert pool.health.worker_crashes == len(cells)
    assert pool.health.worker_restarts == len(cells)
    assert pool.health.quarantined == []


def test_one_worker_takes_worker_faults():
    # Regression: one job used to run its cells in the parent, where the
    # worker fault sites did nothing; now it is one supervised worker.
    (cell,) = _cells(("compress",), [config_to_spec(BASE)])
    plan = FaultPlan.parse(["worker-crash=1.0:1"], seed=0)
    pool = ExperimentPool(jobs=1, strict=True, fault_plan=plan)
    (result,) = pool.run([cell])
    assert result.attempts == 2
    assert pool.health.worker_crashes == 1
    assert result.metrics["digest"] == run_cell(cell)["digest"]


def test_hung_worker_is_killed_and_cell_recovers(serial_reference):
    # Satellite: the slow-cell path.  One injected hang stalls the first
    # attempt past the per-cell budget; the supervisor kills the worker
    # and the retry produces the canonical bytes.
    cells = _cells()
    plan = FaultPlan.parse(["worker-hang=1.0:1"], seed=3)
    pool = ExperimentPool(jobs=2, strict=True, timeout=3.0, fault_plan=plan)
    results = pool.run(cells)
    assert _digests(results) == serial_reference
    assert pool.health.worker_hangs == 1
    assert pool.health.worker_restarts == 1
    hung = [r for r in results if r.attempts == 2]
    assert len(hung) == 1  # exactly the faulted cell retried


def test_cell_that_kills_its_worker_twice_is_quarantined():
    cells = _cells(("compress",), [config_to_spec(BASE)])
    plan = FaultPlan.parse(["worker-crash=1.0"], seed=1)  # every attempt
    pool = ExperimentPool(jobs=2, fault_plan=plan)
    (result,) = pool.run(cells)
    assert not result.ok
    assert result.error_type == WorkerCrashError.__name__
    assert "quarantined" in result.error
    assert pool.health.worker_crashes == 2
    assert pool.health.worker_restarts == 1  # none after the quarantine
    assert pool.health.quarantined == [(0, result.error)]


def test_repeated_hangs_quarantine_with_timeout_error():
    cells = _cells(("compress",), [config_to_spec(BASE)])
    plan = FaultPlan.parse(["worker-hang=1.0"], seed=1)
    pool = ExperimentPool(jobs=2, timeout=1.0, fault_plan=plan)
    (result,) = pool.run(cells)
    assert not result.ok
    assert result.error_type == CellTimeoutError.__name__
    assert "quarantined" in result.error
    assert pool.health.worker_hangs == 2


@pytest.mark.parametrize("budget", [1, 16])
def test_no_respawn_once_no_cell_is_pending(budget):
    # One cell hangs on both attempts.  Its first loss respawns a worker
    # for the retry; its second quarantines it with no cell left to run,
    # so nothing is respawned, and a budget of 1 is not exhausted.
    cells = _cells(("compress",), [config_to_spec(BASE)])
    plan = FaultPlan.parse(["worker-hang=1.0"], seed=1)
    pool = ExperimentPool(
        jobs=1, timeout=0.2, fault_plan=plan, max_worker_restarts=budget
    )
    (result,) = pool.run(cells)
    assert result.error_type == CellTimeoutError.__name__
    assert pool.health.worker_hangs == 2
    assert pool.health.worker_restarts == 1
    assert [kind for kind, _ in pool.health.events].count("restart-budget") == 0


def test_worker_hang_needs_a_timeout():
    # Only the per-cell budget detects a hung worker: without one, an
    # injected hang would stall its worker and leave no trace.
    plan = FaultPlan.parse(["worker-hang=1.0"], seed=0)
    with pytest.raises(EngineError, match="timeout"):
        ExperimentPool(jobs=1, fault_plan=plan)
    assert ExperimentPool(jobs=1, timeout=1.0, fault_plan=plan).timeout == 1.0


def test_quarantine_raises_in_strict_mode():
    cells = _cells(("compress",), [config_to_spec(BASE)])
    plan = FaultPlan.parse(["worker-crash=1.0"], seed=1)
    pool = ExperimentPool(jobs=2, strict=True, fault_plan=plan)
    with pytest.raises(CellExecutionError) as info:
        pool.run(cells)
    assert "quarantined" in str(info.value)


def test_restart_budget_exhaustion_degrades_not_hangs():
    # Two cells crash every attempt; with a restart budget of 1 the
    # second loss cannot respawn, and remaining cells degrade to error
    # results instead of the sweep hanging or crashing.
    cells = _cells(("compress",), [config_to_spec(BASE)], trials=2)
    plan = FaultPlan.parse(["worker-crash=1.0"], seed=1)
    pool = ExperimentPool(jobs=2, fault_plan=plan, max_worker_restarts=1)
    results = pool.run(cells)
    assert len(results) == 2
    assert not any(r.ok for r in results)
    assert {r.error_type for r in results} <= {
        WorkerCrashError.__name__,
        CellQuarantinedError.__name__,
    }
    assert pool.health.worker_restarts <= 1


def test_faulted_sweep_health_is_replayable():
    # Same plan + same cells -> identical SweepHealth (to_dict sorts the
    # chronological event log, so worker interleaving cannot leak in).
    # p=0.5 with no budget lets some cells crash twice and quarantine —
    # the quarantine schedule replays identically too.
    cells = _cells()
    plan = FaultPlan.parse(["worker-crash=0.5"], seed=11)
    healths = []
    for _ in range(2):
        pool = ExperimentPool(jobs=2, fault_plan=plan)
        pool.run(cells)
        healths.append(pool.health)
    assert healths[0] == healths[1]


# -- the sweep journal -------------------------------------------------------


def _result_for(spec, metrics=None, error=None, error_type=None):
    return CellResult(
        index=spec.index,
        workload=spec.workload,
        config=str(spec.config_spec.get("name")),
        trial=spec.trial,
        metrics=metrics,
        error=error,
        error_type=error_type,
        attempts=1,
        duration=0.5,
    )


def test_fingerprint_distinguishes_sweeps():
    cells = _cells()
    assert sweep_fingerprint(cells) == sweep_fingerprint(cells)
    other_seed = _cells(master_seed=1)
    assert sweep_fingerprint(cells) != sweep_fingerprint(other_seed)
    subset = cells[:-1]
    assert sweep_fingerprint(cells) != sweep_fingerprint(subset)


def test_journal_roundtrip_and_corrupt_line_recovery(tmp_path):
    cells = _cells(("compress",), [config_to_spec(BASE)], trials=3)
    path = str(tmp_path / "sweep.jsonl")
    fingerprint = sweep_fingerprint(cells)
    journal = SweepJournal(path, fingerprint)
    journal.open()
    for spec in cells:
        journal.append_receipt(_result_for(spec, metrics={"digest": "d"}))
    journal.close()

    loaded, recoveries = SweepJournal.load(path, fingerprint)
    assert sorted(loaded) == [c.index for c in cells]
    assert recoveries == []

    # Flip one byte inside the middle receipt: checksum catches it, the
    # line is dropped as a recovery, the other receipts survive.
    lines = open(path).read().splitlines()
    lines[2] = lines[2].replace('"d"', '"X"', 1)
    open(path, "w").write("\n".join(lines) + "\n")
    loaded, recoveries = SweepJournal.load(path, fingerprint)
    assert len(loaded) == len(cells) - 1
    assert len(recoveries) == 1
    assert "checksum mismatch" in recoveries[0]


def test_journal_rejects_wrong_sweep(tmp_path):
    cells = _cells(("compress",), [config_to_spec(BASE)])
    path = str(tmp_path / "sweep.jsonl")
    journal = SweepJournal(path, sweep_fingerprint(cells))
    journal.open()
    journal.close()
    other = sweep_fingerprint(_cells(master_seed=9))
    with pytest.raises(JournalError, match="different sweep"):
        SweepJournal.load(path, other)
    appender = SweepJournal(path, other)
    with pytest.raises(JournalError, match="different sweep"):
        appender.open()


def test_journal_missing_file_is_empty():
    loaded, recoveries = SweepJournal.load("/no/such/journal.jsonl", "f")
    assert loaded == {} and recoveries == []


def test_torn_tail_line_is_dropped(tmp_path):
    cells = _cells(("compress",), [config_to_spec(BASE)], trials=2)
    path = str(tmp_path / "sweep.jsonl")
    fingerprint = sweep_fingerprint(cells)
    journal = SweepJournal(path, fingerprint)
    journal.open()
    for spec in cells:
        journal.append_receipt(_result_for(spec, metrics={"digest": "d"}))
    journal.close()
    # Simulate a crash mid-append: the final line is torn in half.
    text = open(path).read().splitlines()
    text[-1] = text[-1][: len(text[-1]) // 2]
    open(path, "w").write("\n".join(text) + "\n")
    loaded, recoveries = SweepJournal.load(path, fingerprint)
    assert sorted(loaded) == [cells[0].index]
    assert len(recoveries) == 1


# -- interrupted + resumed sweeps -------------------------------------------


def test_interrupted_sweep_resumes_to_identical_digests(
    tmp_path, serial_reference
):
    # Acceptance criterion: interrupt a journaled sweep (simulated by
    # tearing the journal's tail), resume it, and the merged digests are
    # byte-identical to running each cell in process.
    cells = _cells()
    path = str(tmp_path / "sweep.jsonl")
    ExperimentPool(jobs=1, strict=True).run(cells, resume_path=path)
    lines = open(path).read().splitlines()
    # Drop the last receipt entirely and tear the one before it.
    kept, torn = lines[:-2], lines[-2]
    open(path, "w").write("\n".join(kept) + "\n" + torn[:30] + "\n")

    pool = ExperimentPool(jobs=2, strict=True)
    resumed = pool.run(cells, resume_path=path)
    assert _digests(resumed) == serial_reference
    # Two cells re-ran (the dropped + the torn); the rest resumed.
    assert pool.health.resumed_cells == len(cells) - 2
    assert len(pool.health.journal_recoveries) == 1


def test_fully_journaled_sweep_reruns_nothing(tmp_path, serial_reference):
    cells = _cells()
    path = str(tmp_path / "sweep.jsonl")
    ExperimentPool(jobs=1, strict=True).run(cells, resume_path=path)
    before = os.path.getsize(path)
    pool = ExperimentPool(jobs=2, strict=True)
    results = pool.run(cells, resume_path=path)
    assert _digests(results) == serial_reference
    assert pool.health.resumed_cells == len(cells)
    # Nothing re-ran, so nothing was appended.
    assert os.path.getsize(path) == before


def test_resume_refuses_a_different_sweeps_journal(tmp_path):
    cells = _cells(("compress",), [config_to_spec(BASE)])
    path = str(tmp_path / "sweep.jsonl")
    ExperimentPool(jobs=1, strict=True).run(cells, resume_path=path)
    other = _cells(("db",), [config_to_spec(BASE)])
    with pytest.raises(JournalError, match="different sweep"):
        ExperimentPool(jobs=1, strict=True).run(other, resume_path=path)


def test_receipt_write_fault_degrades_and_resume_heals(tmp_path):
    # The receipt-write site tears exactly one receipt; the sweep still
    # returns every result, and a resume re-runs only that cell.
    cells = _cells()
    path = str(tmp_path / "sweep.jsonl")
    plan = FaultPlan.parse(["receipt-write=1.0:1"], seed=2)
    pool = ExperimentPool(jobs=1, strict=True, fault_plan=plan)
    results = pool.run(cells, resume_path=path)
    assert all(r.ok for r in results)
    assert len(pool.health.receipt_failures) == 1

    clean = ExperimentPool(jobs=1, strict=True)
    resumed = clean.run(cells, resume_path=path)
    assert _digests(resumed) == _digests(results)
    assert clean.health.resumed_cells == len(cells) - 1
    assert len(clean.health.journal_recoveries) == 1


# -- sweep health aggregation ------------------------------------------------


def test_sweep_health_absorbs_cell_reports():
    health = SweepHealth()
    health.absorb_cell_health(
        {
            "faults": {"opt-compile": 2},
            "degradations": [["compile-blacklist", "m"]],
            "warnings": ["w"],
        }
    )
    health.absorb_cell_health({"faults": {"opt-compile": 1, "sample": 3}})
    health.absorb_cell_health(None)
    assert health.cell_faults == {"opt-compile": 3, "sample": 3}
    assert health.cell_degradations == 1
    assert health.cell_warnings == 1


def test_sweep_health_to_dict_is_json_clean_and_comparable():
    health = SweepHealth()
    health.cells_total = 4
    health.record_crash(0, 1)
    health.record_restart()
    health.record_quarantine(1, "boom")
    payload = health.to_dict()
    json.dumps(payload)  # JSON-clean
    clone = SweepHealth()
    clone.cells_total = 4
    # Same events in a different arrival order compare equal.
    clone.record_quarantine(1, "boom")
    clone.record_restart()
    clone.record_crash(0, 1)
    assert health == clone
    assert "restarts" in health.summary()
