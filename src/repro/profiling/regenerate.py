"""Greedy reconstruction of a path's edges from its path number.

Ball-Larus numbering has the property that, at every node, the outgoing
edge values are the prefix sums of the successor path counts.  Walking
from the entry and repeatedly taking the out-edge with the *largest value
not exceeding* the remaining number therefore recovers exactly the edge
sequence whose values sum to the path number (paper sections 3.2/3.3).

PEP computes a path's edges only on first sample and caches the result
(paper section 4.3); :class:`PathResolver` implements that cache.
:func:`derive_edge_profile` expands a whole path profile through those
resolvers into the edge profile it implies, which is how the perfect
edge profile is derived from the perfect path profile (section 5.1).

The memo is *shared* per (method name, DAG fingerprint): adaptive
recompilation produces a new :class:`~repro.vm.interpreter.CompiledMethod`
(and a new resolver) for every version bump, but the P-DAG — and therefore
every path expansion — is usually unchanged, so resolvers for structurally
identical DAGs attach to one process-wide LRU-bounded memo instead of
re-deriving every path from scratch.  Reconstruction is a pure function of
(DAG, path number), so sharing cannot change results; cost *accounting*
for first-time expansion is the VM's job (``vm.expanded_paths``), not the
memo's, which keeps virtual-cycle charges independent of process-global
cache warmth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bytecode.method import BranchRef
from repro.cfg.dag import DagEdge, PDag
from repro.errors import PathReconstructionError
from repro.profiling.edges import EdgeProfile
from repro.profiling.paths import PathProfile
from repro.util.rng import stable_hash

BranchEvent = Tuple[BranchRef, bool]

# Per-memo bound on cached path expansions.  Path-rich methods (the paper
# caps numbering at ~2**16 paths) could otherwise grow a memo without
# limit across a long adaptive run.
DEFAULT_MEMO_BOUND = 4096

# Bound on distinct (method, DAG) memos kept process-wide.
_REGISTRY_BOUND = 512


def reconstruct_path(
    dag: PDag, path_number: int, injector=None
) -> List[DagEdge]:
    """Return the edge sequence of ``path_number`` in ``dag``.

    Requires that path numbering has been applied (``dag.num_paths`` > 0).
    ``injector`` (a :class:`repro.resilience.FaultInjector`) may force a
    deterministic :class:`PathReconstructionError` at the
    ``path-reconstruct`` site, exercising the caller's sample-drop and
    path-disable degradation paths.
    """
    if injector is not None and injector.should_fire(
        "path-reconstruct", dag.method_name
    ):
        raise PathReconstructionError(
            f"{dag.method_name}: injected reconstruction fault "
            f"(path {path_number})"
        )
    if dag.num_paths <= 0:
        raise PathReconstructionError(
            f"{dag.method_name}: DAG has not been numbered"
        )
    if not 0 <= path_number < dag.num_paths:
        raise PathReconstructionError(
            f"{dag.method_name}: path number {path_number} outside "
            f"[0, {dag.num_paths})"
        )
    remaining = path_number
    node = dag.entry
    edges: List[DagEdge] = []
    while True:
        outs = dag.out_edges[node]
        if not outs:
            break
        best: Optional[DagEdge] = None
        for edge in outs:
            if edge.value <= remaining and (best is None or edge.value > best.value):
                best = edge
        if best is None:
            raise PathReconstructionError(
                f"{dag.method_name}: no edge at {node!r} with value <= "
                f"{remaining}"
            )
        remaining -= best.value
        edges.append(best)
        node = best.dst
    if remaining != 0:
        raise PathReconstructionError(
            f"{dag.method_name}: leftover value {remaining} after reaching "
            f"{node!r}"
        )
    return edges


def dag_fingerprint(dag: PDag) -> int:
    """A stable structural fingerprint of a numbered P-DAG.

    Two DAGs with the same fingerprint assign the same edge sequence to
    every path number, so their resolvers may share one expansion memo.
    Uses :func:`repro.util.rng.stable_hash` (process-salt-free), so the
    fingerprint is also identical across worker processes.
    """
    parts = [
        dag.method_name,
        str(dag.entry),
        str(dag.num_paths),
        str(dag.truncated),
    ]
    for edge in dag.edges:
        parts.append(
            f"{edge.src}>{edge.dst}|{edge.kind}|{edge.origin}"
            f"|{edge.taken}|{edge.value}"
        )
    return stable_hash("\x1f".join(parts))


class _SharedMemo:
    """A bounded LRU map from path number to (branch events, length)."""

    __slots__ = ("bound", "entries")

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.entries: Dict[int, Tuple[List[BranchEvent], int]] = {}

    def get(self, key: int) -> Optional[Tuple[List[BranchEvent], int]]:
        # Pop + reinsert keeps dict insertion order as recency order.
        entry = self.entries.pop(key, None)
        if entry is not None:
            self.entries[key] = entry
        return entry

    def put(self, key: int, value: Tuple[List[BranchEvent], int]) -> None:
        entries = self.entries
        if key in entries:
            entries.pop(key)
        elif len(entries) >= self.bound:
            entries.pop(next(iter(entries)))
        entries[key] = value

    def __len__(self) -> int:
        return len(self.entries)


_SHARED_MEMOS: Dict[Tuple[str, int], _SharedMemo] = {}


def _memo_for(dag: PDag, bound: int) -> _SharedMemo:
    key = (dag.method_name, dag_fingerprint(dag))
    memo = _SHARED_MEMOS.get(key)
    if memo is None:
        if len(_SHARED_MEMOS) >= _REGISTRY_BOUND:
            _SHARED_MEMOS.pop(next(iter(_SHARED_MEMOS)))
        memo = _SharedMemo(bound)
        _SHARED_MEMOS[key] = memo
    return memo


def clear_shared_memos() -> None:
    """Drop every shared expansion memo (tests; memory pressure)."""
    _SHARED_MEMOS.clear()


class PathResolver:
    """Memoising wrapper around :func:`reconstruct_path` for one method.

    Resolves a path number to its *branch events* — the (bytecode branch,
    taken?) pairs along the path — which is what the edge-profile update
    needs, plus the path's length in branches for the flow metric.

    With ``shared=True`` (the default) the memo is the process-wide one
    for this (method, DAG) shape, so recompiled versions of an unchanged
    method reuse prior expansion work; ``shared=False`` gives a private
    memo (tests that assert cold-cache behaviour).  Either way the memo
    is LRU-bounded to ``bound`` entries.
    """

    __slots__ = ("dag", "_memo")

    def __init__(
        self,
        dag: PDag,
        shared: bool = True,
        bound: int = DEFAULT_MEMO_BOUND,
    ) -> None:
        self.dag = dag
        self._memo = _memo_for(dag, bound) if shared else _SharedMemo(bound)

    def is_cached(self, path_number: int) -> bool:
        """True if this path has been resolved before (memo hit)."""
        return path_number in self._memo.entries

    def branch_events(self, path_number: int, injector=None) -> List[BranchEvent]:
        return self._resolve(path_number, injector)[0]

    def branch_length(self, path_number: int, injector=None) -> int:
        """Number of conditional-branch executions along the path (b_p)."""
        return self._resolve(path_number, injector)[1]

    def cached_count(self) -> int:
        return len(self._memo)

    def _resolve(
        self, path_number: int, injector=None
    ) -> Tuple[List[BranchEvent], int]:
        memo = self._memo
        hit = memo.get(path_number)
        if hit is not None:
            # The memo may be warm from another VM (shared across
            # compiled versions and runs), but fault injection models
            # *this run's* first expansion: callers pass an injector
            # exactly when the expansion is first-time for their VM, so
            # the site must fire here too or injection behaviour would
            # depend on process-global cache warmth.
            if injector is not None and injector.should_fire(
                "path-reconstruct", self.dag.method_name
            ):
                raise PathReconstructionError(
                    f"{self.dag.method_name}: injected reconstruction fault "
                    f"(path {path_number})"
                )
            return hit
        edges = reconstruct_path(self.dag, path_number, injector)
        events: List[BranchEvent] = [
            (edge.origin, bool(edge.taken))
            for edge in edges
            if edge.origin is not None
        ]
        entry = (events, len(events))
        memo.put(path_number, entry)
        return entry


def derive_edge_profile(
    paths: PathProfile,
    resolvers: Dict[str, PathResolver],
) -> EdgeProfile:
    """Expand a path profile into taken/not-taken counts (section 3.3).

    Paths of methods with no resolver are skipped.
    """
    edges = EdgeProfile()
    for key, path_number, freq in paths.items():
        resolver = resolvers.get(key)
        if resolver is None:
            continue
        for branch, taken in resolver.branch_events(path_number):
            edges.record(branch, taken, freq)
    return edges
