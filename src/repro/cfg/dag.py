"""Acyclic path-numbering graphs: the P-DAG and the classic Ball-Larus DAG.

Both constructions turn a method's CFG into a DAG whose entry-to-exit paths
are exactly the profiled acyclic paths:

* :func:`build_pep_dag` — PEP style (paper figure 3): every loop header has
  been *split* after its yieldpoint into a top part (label unchanged, holds
  the yieldpoint) and a bottom part; the top->bottom edge is truncated and
  replaced by dummy edges ENTRY->bottom and top->EXIT.  Paths therefore end
  whenever control reaches a loop header — PEP's sample points.

* :func:`build_classic_dag` — Ball-Larus style (paper figure 1): each back
  edge tail->header is truncated and replaced by dummy edges ENTRY->header
  and tail->EXIT.  Used by the full-BLPP baseline (section 2.2).

The DAG keeps, per edge, the provenance needed later: which bytecode branch
(and which arm) a real edge corresponds to, so that a reconstructed path can
update taken/not-taken counters (section 3.3); and the ``value`` assigned by
path numbering.  ``weight`` carries the estimated execution frequency used
by smart path numbering (section 3.4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.bytecode.instructions import Br, Jmp, Ret
from repro.bytecode.method import BranchRef, Method
from repro.errors import CFGError, NumberingError

EXIT_NODE = "__EXIT__"

# Edge kinds.
REAL = "real"  # an actual CFG edge (branch arm or jump)
EXIT_EDGE = "exit"  # ret-block -> EXIT
DUMMY_ENTRY = "dummy-entry"  # ENTRY -> loop body start (path begin)
DUMMY_EXIT = "dummy-exit"  # path end -> EXIT


class DagEdge:
    """One edge of a path-numbering DAG."""

    __slots__ = ("src", "dst", "kind", "origin", "taken", "value", "weight")

    def __init__(
        self,
        src: str,
        dst: str,
        kind: str,
        origin: Optional[BranchRef] = None,
        taken: Optional[bool] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.origin = origin  # bytecode branch this edge profiles to
        self.taken = taken  # which arm of that branch
        self.value = 0  # set by path numbering
        self.weight = 1.0  # estimated frequency, set before smart numbering

    def is_dummy(self) -> bool:
        return self.kind in (DUMMY_ENTRY, DUMMY_EXIT)

    def __repr__(self) -> str:
        return f"<{self.src}->{self.dst} {self.kind} val={self.value}>"


class PDag:
    """A path-numbering DAG plus bookkeeping for reconstruction.

    ``split_map`` records header-top -> header-bottom for the PEP
    construction (empty for the classic one); ``truncated`` lists the CFG
    edges that were cut, so instrumentation knows where the restored
    instrumentation goes.
    """

    __slots__ = (
        "method_name",
        "entry",
        "nodes",
        "edges",
        "out_edges",
        "split_map",
        "truncated",
        "num_paths",
    )

    def __init__(self, method_name: str, entry: str) -> None:
        self.method_name = method_name
        self.entry = entry
        self.nodes: List[str] = []
        self.edges: List[DagEdge] = []
        self.out_edges: Dict[str, List[DagEdge]] = {}
        self.split_map: Dict[str, str] = {}
        self.truncated: List[Tuple[str, str]] = []
        self.num_paths = 0

    def add_node(self, label: str) -> None:
        if label not in self.out_edges:
            self.nodes.append(label)
            self.out_edges[label] = []

    def add_edge(self, edge: DagEdge) -> DagEdge:
        if edge.src not in self.out_edges or edge.dst not in self.out_edges:
            raise CFGError(
                f"{self.method_name}: DAG edge {edge.src}->{edge.dst} "
                "references unknown node"
            )
        self.edges.append(edge)
        self.out_edges[edge.src].append(edge)
        return edge

    def in_degree(self) -> Dict[str, int]:
        degree = {node: 0 for node in self.nodes}
        for edge in self.edges:
            degree[edge.dst] += 1
        return degree

    def topo_order(self) -> List[str]:
        """Topological order; raises NumberingError if the graph is cyclic."""
        degree = self.in_degree()
        ready = [node for node in self.nodes if degree[node] == 0]
        order: List[str] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for edge in self.out_edges[node]:
                degree[edge.dst] -= 1
                if degree[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self.nodes):
            cyclic = [n for n in self.nodes if degree[n] > 0]
            raise NumberingError(
                f"{self.method_name}: P-DAG is cyclic through {cyclic[:5]}"
            )
        return order

    def enumerate_paths(self, limit: int = 100000) -> List[List[DagEdge]]:
        """All entry-to-sink edge sequences (test/debug helper)."""
        paths: List[List[DagEdge]] = []
        stack: List[Tuple[str, List[DagEdge]]] = [(self.entry, [])]
        while stack:
            node, prefix = stack.pop()
            outs = self.out_edges[node]
            if not outs:
                paths.append(prefix)
                if len(paths) > limit:
                    raise NumberingError("path enumeration limit exceeded")
                continue
            for edge in reversed(outs):
                stack.append((edge.dst, prefix + [edge]))
        return paths


def build_pep_dag(
    method: Method,
    header_bottoms: Dict[str, str],
) -> PDag:
    """Build the PEP-style P-DAG for a method with split loop headers.

    ``header_bottoms`` maps each loop-header label (the *top* half, which
    kept the original label and the yieldpoint) to the label of its bottom
    half.  The caller (the instrumentation pass) performs the physical
    split; this function only builds the numbering graph:

    * real edges: every terminator edge except header-top -> header-bottom;
    * exit edges: every ret block -> EXIT;
    * dummy edges: ENTRY -> header-bottom and header-top -> EXIT per header.
    """
    if method.entry is None:
        raise CFGError(f"{method.name}: method has no blocks")
    dag = PDag(method.name, method.entry)
    for label in method.blocks:
        dag.add_node(label)
    dag.add_node(EXIT_NODE)

    truncated = set()
    for top, bottom in header_bottoms.items():
        if top not in method.blocks or bottom not in method.blocks:
            raise CFGError(
                f"{method.name}: split map references unknown blocks "
                f"{top!r}/{bottom!r}"
            )
        truncated.add((top, bottom))

    for label, block in method.blocks.items():
        term = block.terminator
        if isinstance(term, Ret):
            dag.add_edge(DagEdge(label, EXIT_NODE, EXIT_EDGE))
        elif isinstance(term, Jmp):
            if (label, term.label) not in truncated:
                dag.add_edge(DagEdge(label, term.label, REAL))
        elif isinstance(term, Br):
            for taken, target in ((True, term.then_label), (False, term.else_label)):
                if (label, target) in truncated:
                    raise CFGError(
                        f"{method.name}: branch edge {label}->{target} "
                        "was truncated; headers must be split first"
                    )
                dag.add_edge(
                    DagEdge(label, target, REAL, origin=term.origin, taken=taken)
                )
        else:
            raise CFGError(f"{method.name}:{label}: block lacks a terminator")

    for top, bottom in header_bottoms.items():
        dag.add_edge(DagEdge(dag.entry, bottom, DUMMY_ENTRY))
        dag.add_edge(DagEdge(top, EXIT_NODE, DUMMY_EXIT))
        dag.split_map[top] = bottom
        dag.truncated.append((top, bottom))

    dag.topo_order()  # validates acyclicity early
    return dag


def build_classic_dag(
    method: Method,
    back_edges: Iterable[Tuple[str, str]],
) -> PDag:
    """Build the classic Ball-Larus DAG by truncating back edges."""
    if method.entry is None:
        raise CFGError(f"{method.name}: method has no blocks")
    dag = PDag(method.name, method.entry)
    for label in method.blocks:
        dag.add_node(label)
    dag.add_node(EXIT_NODE)

    truncated = set(back_edges)
    # Provenance for truncated branch arms: taking the back edge still means
    # one arm of a bytecode branch executed, so the dummy tail->EXIT edge
    # standing in for it must keep the (branch, arm) identity.
    provenance: Dict[Tuple[str, str], Tuple[Optional[BranchRef], Optional[bool]]] = {}
    for label, block in method.blocks.items():
        term = block.terminator
        if isinstance(term, Ret):
            dag.add_edge(DagEdge(label, EXIT_NODE, EXIT_EDGE))
        elif isinstance(term, Jmp):
            if (label, term.label) not in truncated:
                dag.add_edge(DagEdge(label, term.label, REAL))
        elif isinstance(term, Br):
            for taken, target in ((True, term.then_label), (False, term.else_label)):
                if (label, target) in truncated:
                    provenance[(label, target)] = (term.origin, taken)
                    continue
                dag.add_edge(
                    DagEdge(label, target, REAL, origin=term.origin, taken=taken)
                )
        else:
            raise CFGError(f"{method.name}:{label}: block lacks a terminator")

    seen_headers = set()
    for tail, header in truncated:
        if header not in seen_headers:
            seen_headers.add(header)
            dag.add_edge(DagEdge(dag.entry, header, DUMMY_ENTRY))
        origin, taken = provenance.get((tail, header), (None, None))
        dag.add_edge(
            DagEdge(tail, EXIT_NODE, DUMMY_EXIT, origin=origin, taken=taken)
        )
        dag.truncated.append((tail, header))

    dag.topo_order()
    return dag
