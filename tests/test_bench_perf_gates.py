"""``scripts/bench_perf.py --check`` exits with the worst gate verdict.

Under ``--check`` (how CI runs the script) the baseline comparison runs
after the floor gates; a passing comparison must not overwrite a floor
that already failed.  The stages are stubbed, so the test times
nothing: it drives ``main`` over canned metrics.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The keys ``main`` and ``check_regression`` read from each stage.
#: Fold coverage is the one failing gate; everything else passes or
#: reports n/a.
STAGE_METRICS = {
    "interpreter": {"vcycles_per_sec": 1.0e6, "blockjit_speedup": 3.0},
    "sampling": {"sampling_wall_overhead": 1.2},
    "foldcov": {"fold_coverage": 0.5, "fold_rejected": 7},
    "pgo": {"probes_placed": 10, "probes_full": 16, "probe_reduction": 0.375},
    "sweep": {"jobs": 1, "parallel_speedup": 1.0, "digests_match": True},
}


def _load_bench_perf():
    path = ROOT / "scripts" / "bench_perf.py"
    spec = importlib.util.spec_from_file_location("bench_perf_gates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_keeps_a_failed_floor(tmp_path, monkeypatch):
    bench = _load_bench_perf()
    monkeypatch.setattr(bench, "calibrate", lambda: {"pyops_per_sec": 1.0e7})
    for name in dir(bench):
        if name.startswith("bench_"):
            metrics = STAGE_METRICS.get(name[len("bench_"):], {})
            monkeypatch.setattr(
                bench, name, lambda *args, metrics=metrics: dict(metrics)
            )
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "schema": bench.SCHEMA,
        "calibration": {"pyops_per_sec": 1.0e7},
        "metrics": {
            "interpreter": STAGE_METRICS["interpreter"],
            "sampling": STAGE_METRICS["sampling"],
        },
    }))
    out = tmp_path / "report.json"
    rc = bench.main([
        "--quick", "--out", str(out), "--history", "",
        "--check", str(baseline),
    ])
    # The baseline comparison alone passes ...
    report = json.loads(out.read_text())
    assert bench.check_regression(report, str(baseline)) == 0
    # ... so only the fold-coverage floor can have failed the run.
    assert rc == 1
