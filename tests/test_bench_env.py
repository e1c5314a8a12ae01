"""The figure benches read their settings from the environment
(``benchmarks/_common.py``); a malformed value fails with a
``ReproError`` that names the variable, not a bare ``ValueError``."""

from __future__ import annotations

import pytest

from benchmarks import _common
from repro.errors import ReproError


def test_bench_scale_rejects_a_non_number(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "abc")
    with pytest.raises(ReproError, match="REPRO_BENCH_SCALE"):
        _common.bench_scale()
    monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
    assert _common.bench_scale() == 2.5


@pytest.mark.parametrize("raw", ["abc", "2.5"])
def test_engine_jobs_rejects_a_non_integer(monkeypatch, raw):
    monkeypatch.setenv("REPRO_JOBS", raw)
    with pytest.raises(ReproError, match="REPRO_JOBS"):
        _common.engine_jobs()
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert _common.engine_jobs() == 3
