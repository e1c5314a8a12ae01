"""The parallel experiment engine: determinism, ordering, degradation.

The load-bearing property is the determinism contract: a cell's result
depends only on its spec, so a sweep on any number of workers is
byte-identical (profile digests included) to running ``run_cell`` on
each cell in process.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine import (
    CellSpec,
    ExperimentPool,
    cell_seed,
    make_sweep_cells,
    run_cell,
)
from repro.errors import CellExecutionError, CellTimeoutError, EngineError
from repro.harness.experiment import BASE, config_to_spec, pep_config

_WORKLOADS = ["compress", "db"]
_SPECS = [config_to_spec(BASE), config_to_spec(pep_config(64, 17))]
_SCALE = 1.0


# -- seeding and cell enumeration -------------------------------------------


def test_cell_seed_deterministic_and_distinct():
    assert cell_seed(0, 3) == cell_seed(0, 3)
    seeds = {cell_seed(0, i) for i in range(32)}
    assert len(seeds) == 32  # no collisions across indexes
    assert cell_seed(1, 3) != cell_seed(0, 3)  # master seed matters
    assert cell_seed(0, 3) >> 32 != 0  # genuinely 64-bit


def test_make_sweep_cells_order_and_jitter():
    cells = make_sweep_cells(_WORKLOADS, _SPECS, scale=_SCALE, trials=2)
    assert len(cells) == len(_WORKLOADS) * len(_SPECS) * 2
    assert [c.index for c in cells] == list(range(len(cells)))
    # workload-major, then config, then trial.
    assert [c.workload for c in cells[:4]] == ["compress"] * 4
    assert cells[0].config_spec["name"] == "Base"
    assert cells[2].config_spec["name"] == "PEP(64,17)"
    # Trial 0 runs at canonical timer phase; later trials are jittered.
    for cell in cells:
        if cell.trial == 0:
            assert cell.tick_jitter == 0.0
        else:
            assert cell.tick_jitter > 0.0
    # Seeds are reproducible functions of (master_seed, index).
    again = make_sweep_cells(_WORKLOADS, _SPECS, scale=_SCALE, trials=2)
    assert [c.seed for c in cells] == [c.seed for c in again]


def test_cellspec_pickle_roundtrip():
    cells = make_sweep_cells(_WORKLOADS, _SPECS, scale=_SCALE, trials=2)
    for spec in cells:
        clone = pickle.loads(pickle.dumps(spec))
        for slot in CellSpec.__slots__:
            assert getattr(clone, slot) == getattr(spec, slot)


# -- the determinism contract -----------------------------------------------


def test_parallel_results_identical_to_serial():
    cells = make_sweep_cells(_WORKLOADS, _SPECS, scale=_SCALE)
    reference = [run_cell(c) for c in cells]
    for jobs in (1, 2):
        results = ExperimentPool(jobs=jobs, strict=True).run(cells)
        assert [r.index for r in results] == [c.index for c in cells]
        assert all(r.ok for r in results)
        # Not just the digest: every reported number matches.
        assert [r.metrics for r in results] == reference


def test_results_ordered_by_index_regardless_of_input_order():
    cells = make_sweep_cells(_WORKLOADS, _SPECS, scale=_SCALE)
    shuffled = list(reversed(cells))
    results = ExperimentPool(jobs=1, strict=True).run(shuffled)
    assert [r.index for r in results] == sorted(c.index for c in cells)


def test_trial_jitter_decorrelates_but_trial_zero_is_canonical():
    cells = make_sweep_cells(
        ["compress"], [config_to_spec(pep_config(64, 17))],
        scale=_SCALE, trials=2,
    )
    results = ExperimentPool(jobs=1, strict=True).run(cells)
    trial0, trial1 = results
    # Trial 0 matches a plain harness measurement bit for bit.
    canonical = run_cell(cells[0])
    assert trial0.metrics["digest"] == canonical["digest"]
    # Trial 1 ran at a different timer phase: same program semantics,
    # different sample placement.
    assert trial1.metrics["return_value"] == trial0.metrics["return_value"]
    assert trial1.metrics["digest"] != trial0.metrics["digest"]


# -- degradation and failure policy -----------------------------------------


def _bad_cell(index: int = 0) -> CellSpec:
    return CellSpec(
        index=index,
        workload="no-such-workload",
        scale=_SCALE,
        config_spec=config_to_spec(BASE),
    )


def test_failed_cell_degrades_to_error_result():
    results = ExperimentPool(jobs=1).run([_bad_cell()])
    (result,) = results
    assert not result.ok
    # A cell that raises is final: a rerun of a pure cell would only
    # raise again.
    assert result.attempts == 1
    assert result.error_type == "WorkloadError"
    assert "no-such-workload" in result.error


def test_failed_cell_raises_in_strict_mode():
    with pytest.raises(CellExecutionError) as info:
        ExperimentPool(jobs=1, strict=True).run([_bad_cell()])
    assert "no-such-workload" in str(info.value)
    # Engine errors slot into the PR-1 error taxonomy.
    assert isinstance(info.value, EngineError)


def test_failure_in_one_cell_does_not_poison_others():
    good = make_sweep_cells(["compress"], [config_to_spec(BASE)], scale=_SCALE)
    bad = _bad_cell(index=len(good))
    results = ExperimentPool(jobs=2).run(good + [bad])
    assert results[0].ok
    assert not results[-1].ok


@pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf")])
def test_pool_rejects_a_timeout_it_cannot_honour(timeout):
    # NaN and infinity cannot be waited on, and a budget of zero or less
    # would declare every worker hung and quarantine every cell.
    with pytest.raises(EngineError, match="timeout"):
        ExperimentPool(jobs=2, timeout=timeout)


@pytest.mark.parametrize(
    "kwargs",
    [{"jobs": 0}, {"jobs": -3}, {"max_worker_restarts": -1}],
    ids=["jobs=0", "jobs=-3", "max_worker_restarts=-1"],
)
def test_pool_rejects_a_size_it_cannot_honour(kwargs):
    # Zero or negative jobs used to run one worker silently, and a
    # negative restart budget quarantined the first crashed cell.
    (name,) = kwargs
    with pytest.raises(EngineError, match=name):
        ExperimentPool(**kwargs)
    # No respawns at all is a usable budget.
    assert ExperimentPool(jobs=1, max_worker_restarts=0).max_worker_restarts == 0


@pytest.mark.parametrize("trials", [0, -2])
def test_sweep_cells_reject_fewer_than_one_trial(trials):
    # Zero trials would run an empty sweep and report success.
    with pytest.raises(EngineError, match="trials"):
        make_sweep_cells(_WORKLOADS, _SPECS, scale=_SCALE, trials=trials)


def test_slow_cell_times_out_then_recovers_via_retry():
    # Regression for the timeout path: a slow first attempt must produce
    # a CellTimeoutError outcome, and the cell must then recover via
    # retry.  The injected worker-hang fault (one firing) stalls attempt
    # 1 past the 3s per-cell budget; the supervisor kills the worker and
    # the retry completes with the canonical bytes.
    from repro.resilience import FaultPlan

    cells = make_sweep_cells(
        ["compress"], [config_to_spec(BASE)], scale=_SCALE
    )
    canonical = run_cell(cells[0])
    plan = FaultPlan.parse(["worker-hang=1.0:1"], seed=0)
    pool = ExperimentPool(jobs=2, strict=True, timeout=3.0, fault_plan=plan)
    (result,) = pool.run(cells)
    assert result.ok
    assert result.attempts == 2  # timed out once, recovered on retry
    assert result.metrics["digest"] == canonical["digest"]
    assert pool.health.worker_hangs == 1


def test_one_worker_enforces_the_per_cell_budget():
    # Regression: one job used to run the cell in the parent with no
    # budget, so a cell that two jobs quarantined came back ok.  A slow
    # cell now overruns its budget on its first and its second worker,
    # whatever the worker count.
    (slow,) = make_sweep_cells(["compress"], [config_to_spec(BASE)], scale=12.0)
    outcomes = {}
    for jobs in (1, 2):
        pool = ExperimentPool(jobs=jobs, timeout=0.1)
        (result,) = pool.run([slow])
        assert not result.ok
        assert result.error_type == CellTimeoutError.__name__
        assert "quarantined" in result.error and "0.1s" in result.error
        assert result.attempts == 2
        assert pool.health.worker_hangs == 2
        outcomes[jobs] = (result.error, result.attempts, pool.health)
    assert outcomes[1] == outcomes[2]


def test_keyboard_interrupt_is_not_swallowed(monkeypatch):
    # Regression: the engine used to fold KeyboardInterrupt/SystemExit
    # into error payloads, so Ctrl-C kept the sweep grinding on.  Both
    # must propagate out of the parent's wait, and the aborted sweep
    # must leave no worker process behind.
    import multiprocessing

    from repro.engine import SweepSupervisor

    cells = make_sweep_cells(["compress"], [config_to_spec(BASE)], scale=_SCALE)
    for exc_type in (KeyboardInterrupt, SystemExit):
        def _interrupted(self, _exc=exc_type):
            raise _exc()

        monkeypatch.setattr(SweepSupervisor, "_wait", _interrupted)
        with pytest.raises(exc_type):
            ExperimentPool(jobs=1).run(cells)
        assert multiprocessing.active_children() == []


def test_make_sweep_cells_propagates_include_compile_cycles():
    # Regression: CellSpec accepted include_compile_cycles but the
    # enumerator never set it, so sweeps could not measure compile cost.
    plain = make_sweep_cells(_WORKLOADS, _SPECS, scale=_SCALE)
    assert all(not c.include_compile_cycles for c in plain)
    compiled = make_sweep_cells(
        _WORKLOADS, _SPECS, scale=_SCALE, include_compile_cycles=True
    )
    assert all(c.include_compile_cycles for c in compiled)
    # The flag is part of the sweep identity (journals must not confuse
    # the two sweeps).
    from repro.engine import sweep_fingerprint

    assert sweep_fingerprint(plain) != sweep_fingerprint(compiled)
