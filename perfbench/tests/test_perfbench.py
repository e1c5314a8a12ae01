"""Tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each workload runs at its ``tiny`` size, so the whole file takes well
under a minute; the figures such runs print are not comparable with the
benchmark of record.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import calibrate, spans  # noqa: E402
from perfbench.harness import run_benchmark  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _names(kind):
    return {metric["name"] for metric in SPEC[kind]}


def _tiny(workload, trace, **kwargs):
    return run_benchmark(workload, seed=3, seconds=0.0, trace=trace,
                         size="tiny", emit=lambda line: None, **kwargs)


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = _tiny(workload, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _names("end_to_end")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _tiny(workload, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    assert spans.installed_wrappers() == []


def test_perturbed_digest_counts_as_failed_operation():
    from perfbench.workloads import make_workload

    workload = make_workload("suite-adaptive", "tiny")

    def oracle(state, seed):
        digest = workload.oracle(state, seed)
        return digest + "-perturbed" if state[0].name == "compress" else digest

    result = _tiny("suite-adaptive", trace=False, oracle=oracle)
    # Every run of compress (warm-up plus each measured pass) fails; the
    # other program's runs still match.
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert result["failed"] * 2 == result["attempted"]


def test_wrappers_are_removed_after_traced_run():
    import repro.adaptive.controller as controller
    import repro.adaptive.optimizing as optimizing
    import repro.vm.blockjit as blockjit
    from repro.vm.runtime import VirtualMachine

    originals = (
        VirtualMachine.__dict__["run"],
        controller.optimize_method,
        optimizing.optimize_method,
        blockjit.ensure_jit,
    )
    tracer = spans.Tracer()
    with tracer:
        assert spans.installed_wrappers()
        assert controller.optimize_method is not originals[1]
    assert spans.installed_wrappers() == []
    _tiny("corpus-startup", trace=True)
    assert spans.installed_wrappers() == []
    assert (
        VirtualMachine.__dict__["run"],
        controller.optimize_method,
        optimizing.optimize_method,
        blockjit.ensure_jit,
    ) == originals


def test_self_time_excludes_wrapped_children():
    tracer = spans.Tracer()
    inner = tracer._wrap("blockjit.ensure_jit", lambda: time.sleep(0.02))
    outer = tracer._wrap("runtime.exec", lambda: (inner(), time.sleep(0.01)))
    outer()
    run, jit = tracer.stats["runtime.exec"], tracer.stats["blockjit.ensure_jit"]
    assert run.calls == jit.calls == 1
    assert run.child_s == jit.total_s
    assert run.self_s == pytest.approx(run.total_s - jit.total_s)
    assert run.self_s >= 0.009 and jit.self_s == jit.total_s >= 0.019


def test_calibration_scales_to_reference_rate():
    half_speed = calibrate.Measured(2.0, calibrate.REFERENCE_RATE / 2,
                                    calibrate.REFERENCE_RATE / 2)
    assert half_speed.seconds == pytest.approx(2.0 * 0.5 ** calibrate.SENSITIVITY)
    assert calibrate.Measured(2.0, calibrate.REFERENCE_RATE,
                              calibrate.REFERENCE_RATE).seconds == 2.0
    assert calibrate.loop_rate() > 0


def test_cli_without_program_source_fails_without_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-adaptive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cli_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-replay",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
