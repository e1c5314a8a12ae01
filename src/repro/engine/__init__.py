"""The parallel experiment engine.

Every figure in the paper is an embarrassingly parallel sweep over
(configuration x workload x trial) cells; this package dispatches those
cells to *supervised* long-lived worker processes — one or more, the
only way it runs a cell — with deterministic per-cell seeding, a
per-cell timeout, a retry only for a cell whose worker was lost,
journaled receipts for crash-safe resume, and an ordered result merge,
so a sweep's output is byte-identical to running :func:`run_cell` on
each cell in process — even when workers are killed mid-cell or the
sweep itself is interrupted and resumed (DESIGN.md section 12).
"""

from repro.engine.cells import (
    CellResult,
    CellSpec,
    cell_seed,
    make_sweep_cells,
    run_cell,
)
from repro.engine.journal import SweepJournal, sweep_fingerprint
from repro.engine.pool import ExperimentPool
from repro.engine.supervisor import SweepSupervisor

__all__ = [
    "CellResult",
    "CellSpec",
    "ExperimentPool",
    "SweepJournal",
    "SweepSupervisor",
    "cell_seed",
    "make_sweep_cells",
    "run_cell",
    "sweep_fingerprint",
]
