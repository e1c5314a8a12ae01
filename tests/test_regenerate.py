"""Tests for path reconstruction, the PathResolver cache and path-derived
edge profiles."""

import pytest

from repro.bytecode.method import BranchRef
from repro.cfg.dag import DagEdge, PDag
from repro.errors import PathReconstructionError
from repro.profiling.ballarus import assign_ball_larus_values
from repro.profiling.edges import EdgeProfile
from repro.profiling import regenerate
from repro.profiling.paths import PathProfile
from repro.profiling.regenerate import (
    PathResolver,
    _SharedMemo,
    derive_edge_profile,
    reconstruct_path,
)

from tests.helpers import diamond_loop_method
from tests.test_cfg_dag import pep_dag_for
from tests.test_numbering import double_diamond_dag


def test_reconstruct_all_paths_of_double_diamond():
    dag = double_diamond_dag()
    n = assign_ball_larus_values(dag)
    seen = set()
    for number in range(n):
        edges = reconstruct_path(dag, number)
        assert sum(e.value for e in edges) == number
        seen.add(tuple((e.src, e.dst) for e in edges))
    assert len(seen) == n  # all distinct paths


def test_reconstruct_requires_numbering():
    dag = double_diamond_dag()
    with pytest.raises(PathReconstructionError):
        reconstruct_path(dag, 0)


def test_reconstruct_out_of_range():
    dag = double_diamond_dag()
    n = assign_ball_larus_values(dag)
    with pytest.raises(PathReconstructionError):
        reconstruct_path(dag, n)
    with pytest.raises(PathReconstructionError):
        reconstruct_path(dag, -1)


def test_resolver_branch_events_and_lengths():
    method = diamond_loop_method()
    dag, _ = pep_dag_for(method)
    n = assign_ball_larus_values(dag)
    resolver = PathResolver(dag)
    lengths = [resolver.branch_length(i) for i in range(n)]
    # The entry->head path crosses no branch; loop-body paths cross
    # head's branch is at the *end* (head is the path's endpoint, so its
    # branch belongs to the next path) — body paths traverse body's branch.
    assert min(lengths) >= 0
    assert max(lengths) >= 1
    for i in range(n):
        for branch, taken in resolver.branch_events(i):
            assert branch.method == "m"
            assert isinstance(taken, bool)


def test_resolver_caches(monkeypatch):
    method = diamond_loop_method()
    dag, _ = pep_dag_for(method)
    assign_ball_larus_values(dag)
    # A cold memo: another test may have warmed this DAG's shared one.
    monkeypatch.setattr(regenerate, "_SHARED_MEMOS", {})
    resolver = PathResolver(dag)
    assert len(resolver._memo) == 0
    resolver.branch_events(0)
    assert resolver._memo.get(0) is not None
    assert len(resolver._memo) == 1
    resolver.branch_events(0)
    assert len(resolver._memo) == 1


def test_resolvers_share_memo_across_instances(monkeypatch):
    method = diamond_loop_method()
    dag, _ = pep_dag_for(method)
    assign_ball_larus_values(dag)
    monkeypatch.setattr(regenerate, "_SHARED_MEMOS", {})
    first = PathResolver(dag)
    first.branch_events(0)
    # A second resolver over the same DAG shape (adaptive recompilation)
    # sees the warm memo instead of starting cold.
    second = PathResolver(dag)
    assert second._memo is first._memo
    assert second._memo.get(0) is not None
    assert second.branch_events(0) == first.branch_events(0)


def test_resolver_memo_lru_bound():
    memo = _SharedMemo(2)
    for i in range(3):
        memo.put(i, ([], i))
    assert len(memo) == 2
    assert memo.get(0) is None  # oldest evicted
    assert memo.get(1) == ([], 1) and memo.get(2) == ([], 2)
    # Touching an entry refreshes its recency.
    memo.get(1)
    memo.put(0, ([], 0))
    assert memo.get(2) is None
    assert memo.get(1) == ([], 1) and memo.get(0) == ([], 0)


def _split_dag() -> PDag:
    """``a`` branches (b0) to ``b`` or ``c``; each branches again, ``b``
    on b1 and ``c`` on b2, so the paths through b1 and b2 first record
    different branches."""
    dag = PDag("split#v0", "a")
    for node in "abcz":
        dag.add_node(node)
    b0, b1, b2 = (BranchRef("split", i) for i in range(3))
    for src, dst, origin, taken in [
        ("a", "b", b0, True),
        ("a", "c", b0, False),
        ("b", "z", b1, True),
        ("b", "z", b1, False),
        ("c", "z", b2, True),
        ("c", "z", b2, False),
    ]:
        dag.add_edge(DagEdge(src, dst, "real", origin, taken))
    assert assign_ball_larus_values(dag) == 4
    return dag


def test_derived_edge_profile_allocates_in_ascending_path_order():
    dag = _split_dag()
    resolver = PathResolver(dag)
    paths = PathProfile()
    for number in (3, 0, 2):
        paths.record(dag.method_name, number, float(number + 1))
    derived = derive_edge_profile(paths, {dag.method_name: resolver})

    def expansion(order):
        edges = EdgeProfile()
        for number in order:
            for branch, taken in resolver.branch_events(number):
                edges.record(branch, taken, float(number + 1))
        return list(edges.items())

    # Slots follow the ascending expansion, not the recording order,
    # and the two orders differ here.
    assert list(derived.items()) == expansion([0, 2, 3])
    assert expansion([0, 2, 3]) != expansion([3, 0, 2])
