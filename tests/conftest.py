"""Fixtures that pin blockjit's compile threshold for a test."""

import pytest

from repro.vm import blockjit

from tests.helpers import COLD_ENTRIES


@pytest.fixture
def compile_at_first_entry(monkeypatch):
    """Compile each blockjit region at its first entry (threshold 0).

    A short test program enters most regions fewer than ``COLD_ENTRIES``
    times, so at the shipped threshold it would run them on the tuple
    interpreter's block loop, not the generated code a codegen test
    means to check.
    """
    monkeypatch.setattr(blockjit, "COLD_ENTRIES", 0)


@pytest.fixture
def tiered(monkeypatch):
    """The shipped threshold: each region runs its first ``COLD_ENTRIES``
    entries on the tuple interpreter's block loop, then compiles.

    The code memo starts empty too: a method whose source an earlier
    test compiled would bind its compiled regions at once.
    """
    monkeypatch.setattr(blockjit, "COLD_ENTRIES", COLD_ENTRIES)
    monkeypatch.setattr(blockjit, "_SEGMENT_CODE", {})
