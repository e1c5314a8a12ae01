"""Shared infrastructure for the figure-regeneration benches.

Each bench file regenerates one of the paper's tables/figures: it runs the
relevant configurations over the full 14-benchmark suite, prints the
figure as a table (rows = benchmarks, columns = configurations), reports
the regeneration time through pytest-benchmark, and asserts the *shape*
of the paper's result (who wins, by roughly what factor).

Scale: figures run the suite at ``REPRO_BENCH_SCALE`` (default 6.0 here —
large enough for ~50-100 timer ticks per run).  Contexts and perfect
profiles are cached per scale and shared between bench files within one
pytest session.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.errors import ReproError
from repro.harness.accuracy import PerfectProfiles, collect_perfect_profiles
from repro.harness.experiment import ExperimentContext, prepare
from repro.workloads.suite import Workload, benchmark_suite

_BENCH_SCALE_DEFAULT = 6.0

_perfect_cache: Dict[str, PerfectProfiles] = {}


def bench_scale() -> float:
    """Workload scale for the figures (``REPRO_BENCH_SCALE``, default 6)."""
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if not raw:
        return _BENCH_SCALE_DEFAULT
    try:
        return float(raw)
    except ValueError:
        raise ReproError(
            f"REPRO_BENCH_SCALE must be a number, got {raw!r}"
        ) from None


def engine_jobs() -> int:
    """Worker count for sweep benches (``REPRO_JOBS``, default 1).

    Defaults to serial so pytest-benchmark timings stay comparable run to
    run; set ``REPRO_JOBS=0`` for ``os.cpu_count()``.
    """
    raw = os.environ.get("REPRO_JOBS")
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ReproError(
            f"REPRO_JOBS must be an integer, got {raw!r}"
        ) from None
    return (os.cpu_count() or 1) if jobs <= 0 else jobs


def sweep_journal_dir() -> str:
    """Directory for per-sweep journals (``REPRO_SWEEP_JOURNAL``).

    Empty (the default) disables journaling.  When set, every figure
    sweep appends crash-safe receipts to ``<dir>/<fingerprint>.jsonl``,
    so an interrupted ``pytest benchmarks/`` session resumes its sweeps
    instead of recomputing them (the journal fingerprint keys on the
    exact cell list, so scale or config changes never reuse stale
    receipts).
    """
    return os.environ.get("REPRO_SWEEP_JOURNAL", "")


def sweep_normalized(configs) -> Dict[str, Dict[str, float]]:
    """Run (suite x configs) through the engine; returns normalized cycles.

    The result is ``{config name: {workload name: cycles / Base cycles}}``
    — exactly what the fig6-style benches tabulate.  With
    ``engine_jobs() == 1`` this runs serially in-process; either way the
    numbers are byte-identical (the engine's determinism contract).
    """
    from repro.engine import ExperimentPool, make_sweep_cells, sweep_fingerprint
    from repro.harness.experiment import config_to_spec

    specs = [config_to_spec(config) for config in configs]
    cells = make_sweep_cells(
        [w.name for w in suite()], specs, scale=bench_scale()
    )
    resume_path = None
    journal_dir = sweep_journal_dir()
    if journal_dir:
        os.makedirs(journal_dir, exist_ok=True)
        resume_path = os.path.join(
            journal_dir, f"{sweep_fingerprint(cells)[:16]}.jsonl"
        )
    results = ExperimentPool(jobs=engine_jobs(), strict=True).run(
        cells, resume_path=resume_path
    )
    normalized: Dict[str, Dict[str, float]] = {}
    for result in results:
        normalized.setdefault(result.config, {})[result.workload] = (
            result.metrics["normalized"]
        )
    return normalized


def suite() -> List[Workload]:
    return benchmark_suite()


def context_for(workload: Workload) -> ExperimentContext:
    return prepare(workload, scale=bench_scale())


def perfect_for(workload: Workload) -> PerfectProfiles:
    ctx = context_for(workload)
    key = f"{workload.name}@{bench_scale()}"
    if key not in _perfect_cache:
        _perfect_cache[key] = collect_perfect_profiles(ctx)
    return _perfect_cache[key]


def average(values) -> float:
    values = list(values)
    return sum(values) / len(values)


FIGURES_PATH = os.environ.get(
    "REPRO_FIGURES", os.path.join(_ROOT, "bench_figures.txt")
)


def emit(text: str) -> None:
    """Print a rendered figure and append it to the figures file.

    pytest captures stdout of passing tests, so the canonical record of
    every regenerated figure is ``bench_figures.txt`` at the repo root
    (truncated at the start of each bench session by the conftest).
    """
    print(text)
    sys.stdout.flush()
    with open(FIGURES_PATH, "a") as fh:
        fh.write(text)
        fh.write("\n")
