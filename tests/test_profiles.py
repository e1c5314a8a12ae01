"""Tests for EdgeProfile and PathProfile."""

import pytest

from repro.bytecode.method import BranchRef
from repro.profiling.edges import EdgeProfile
from repro.profiling.paths import PathProfile

from tests.helpers import total_samples


B0 = BranchRef("m", 0)
B1 = BranchRef("m", 1)


def test_edge_profile_record_and_bias():
    p = EdgeProfile()
    p.record(B0, True, 3)
    p.record(B0, False, 1)
    assert p.arm_count(B0, True) == 3
    assert p.arm_count(B0, False) == 1
    assert p.total(B0) == 4
    assert p.bias(B0) == pytest.approx(0.75)
    assert len(p) == 1
    assert B0 in p and B1 not in p


def test_edge_profile_unknown_branch_defaults():
    p = EdgeProfile()
    assert p.bias(B0) == 0.5
    assert p.bias(B0, default=0.9) == 0.9
    assert p.arm_count(B0, True) == 0.0
    assert p.total(B0) == 0.0


def test_edge_profile_merge():
    a = EdgeProfile()
    a.record(B0, True, 2)
    b = EdgeProfile()
    b.record(B0, True, 1)
    b.record(B1, False, 5)
    a.merge(b)
    assert a.arm_count(B0, True) == 3
    assert a.arm_count(B1, False) == 5


def test_edge_profile_flipped():
    p = EdgeProfile()
    p.record(B0, True, 9)
    p.record(B0, False, 1)
    f = p.flipped()
    assert f.bias(B0) == pytest.approx(0.1)
    # Original untouched.
    assert p.bias(B0) == pytest.approx(0.9)


def test_edge_profile_copy_independent():
    p = EdgeProfile()
    p.record(B0, True)
    q = p.copy()
    q.record(B0, True)
    assert p.arm_count(B0, True) == 1
    assert q.arm_count(B0, True) == 2


def test_edge_profile_total_executions():
    p = EdgeProfile()
    p.record(B0, True, 2)
    p.record(B1, False, 3)
    assert p.total_executions() == 5


def test_path_profile_record_and_query():
    p = PathProfile()
    p.record("m#v0", 3)
    p.record("m#v0", 3)
    p.record("m#v0", 7, 2.5)
    assert p.frequency("m#v0", 3) == 2
    assert p.frequency("m#v0", 7) == 2.5
    assert p.frequency("m#v0", 99) == 0
    assert p.frequency("nope", 0) == 0
    assert p.distinct_paths() == 2
    assert total_samples(p) == pytest.approx(4.5)


def test_path_profile_merge_and_copy():
    a = PathProfile()
    a.record("m", 1)
    b = PathProfile()
    b.record("m", 1, 2)
    b.record("n", 0)
    a.merge(b)
    assert a.frequency("m", 1) == 3
    assert a.frequency("n", 0) == 1
    c = a.copy()
    c.record("m", 1)
    assert a.frequency("m", 1) == 3


def test_path_profile_clear():
    p = PathProfile()
    p.record("m", 0)
    p.clear()
    assert len(p) == 0
