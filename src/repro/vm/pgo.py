"""Minimum-coverage probe placement and tier engagement (DESIGN.md §14).

* **Minimum-coverage probe placement**: in the dedicated one-shot
  edge-instrumentation mode (replay images compiled with
  ``instrumentation="edges"``, the ``perfect-edge`` configuration's
  among them), probe only a spanning-tree complement of the method's
  closed CFG (Knuth / Ball-Larus minimum instrumentation) and
  reconstruct the full edge profile from flow conservation at drain
  time.  Fewer probes means fewer ``edge_count`` charges for the same
  recoverable profile.  Baseline one-time instrumentation and the
  adaptive run never place probes.

* **Engagement counters** (:func:`engagement_summary`): which tier each
  method's code came from and how its edges were probed.

The probe plan travels on the compiled method (``cm.probe_plan``), so
the drain reconstructs a method's edge profile from that method alone.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from repro.bytecode.instructions import Br, Jmp, Ret
from repro.bytecode.method import Method
from repro.cfg.dag import EXIT_NODE
from repro.errors import InstrumentationError
from repro.profiling.edges import EdgeProfile
from repro.vm.interpreter import T_BR, CompiledMethod


# -- minimum-coverage probe placement ---------------------------------------


class PlanEdge:
    """One edge of a method's closed CFG multigraph.

    ``kind`` is ``"arm"`` for a conditional-branch arm (the only
    probeable kind; carries the branch ``origin`` and the ``taken``
    flag), ``"jmp"``/``"ret"`` for unconditional control transfers, and
    ``"virt"`` for the virtual EXIT->entry edge that closes the graph
    into a circulation.  ``probed`` marks spanning-tree *complement*
    arms — the ones that keep a counter.
    """

    __slots__ = ("src", "dst", "kind", "origin", "taken", "probed")

    def __init__(self, src, dst, kind, origin=None, taken=False, probed=False):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.origin = origin
        self.taken = taken
        self.probed = probed

    def __repr__(self) -> str:
        flag = "probed" if self.probed else "tree"
        return f"<PlanEdge {self.src}->{self.dst} {self.kind} {flag}>"


class ProbePlan:
    """Minimum-coverage placement for one method.

    ``probes`` counts instrumented arms, ``full_probes`` what classic
    full instrumentation would have placed (both arms of every branch);
    the difference is the measured probe-count reduction.
    """

    __slots__ = ("method", "entry", "edges", "probes", "full_probes")

    def __init__(self, method: str, entry: str, edges: Tuple[PlanEdge, ...]):
        self.method = method
        self.entry = entry
        self.edges = edges
        self.probes = sum(1 for e in edges if e.probed)
        # Every branch contributes exactly two arm edges, and full
        # instrumentation would probe both of them.
        self.full_probes = sum(1 for e in edges if e.kind == "arm")

    def __repr__(self) -> str:
        return (
            f"<ProbePlan {self.method} {self.probes}/{self.full_probes} probes>"
        )


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def find(self, node: str) -> str:
        parent = self._parent
        root = parent.setdefault(node, node)
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(self, a: str, b: str) -> bool:
        """Join the two components; False if already connected."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[rb] = ra
        return True


def plan_min_coverage(method: Method) -> Optional[ProbePlan]:
    """Spanning-tree probe placement over the closed CFG, or None.

    Builds the method's CFG multigraph closed by a virtual EXIT->entry
    edge, grows a deterministic spanning tree that contains *every*
    non-probeable edge (jumps, returns, the virtual edge), and marks
    the leftover branch arms — the tree complement — as the probes.
    Knuth's classic result gives ``E - V + 1`` probes, against the
    ``2 * branches`` of full instrumentation.  Returns None when the
    non-probeable edges alone contain an (undirected) cycle — then no
    spanning tree can absorb them all and the method keeps classic full
    instrumentation.
    """
    if method.entry is None or not method.blocks:
        return None
    edges: List[PlanEdge] = []
    for label, block in method.blocks.items():
        term = block.terminator
        if isinstance(term, Br):
            if term.origin is None:
                raise InstrumentationError(
                    f"{method.name}:{label}: branch lacks an origin; "
                    "seal the method before placing probes"
                )
            edges.append(PlanEdge(label, term.then_label, "arm", term.origin, True))
            edges.append(PlanEdge(label, term.else_label, "arm", term.origin, False))
        elif isinstance(term, Jmp):
            edges.append(PlanEdge(label, term.label, "jmp"))
        elif isinstance(term, Ret):
            edges.append(PlanEdge(label, EXIT_NODE, "ret"))
        else:
            return None
    edges.append(PlanEdge(EXIT_NODE, method.entry, "virt"))
    forest = _UnionFind()
    for edge in edges:
        if edge.kind != "arm" and not forest.union(edge.src, edge.dst):
            return None
    for edge in edges:
        if edge.kind == "arm":
            edge.probed = not forest.union(edge.src, edge.dst)
    return ProbePlan(method.name, method.entry, tuple(edges))


def apply_min_coverage(method: Method) -> Optional[ProbePlan]:
    """Instrument ``method`` with minimum-coverage probes.

    Sets each branch's ``count_arms`` to a per-arm mask (bit 0 = taken,
    bit 1 = not-taken; see ``interpreter._arm_mask``) so lowering and
    every codegen backend charge/record only the probed arms.  Returns
    the plan (to be attached as ``cm.probe_plan`` for drain-time
    reconstruction) or None, touching no branch, when the method is
    ineligible or the plan probes every arm (it would save no charge) —
    the caller falls back to classic full instrumentation.
    """
    plan = plan_min_coverage(method)
    if plan is None or plan.probes == plan.full_probes:
        return None
    masks: Dict[str, int] = {}
    for edge in plan.edges:
        if edge.kind == "arm" and edge.probed:
            masks[edge.src] = masks.get(edge.src, 0) | (1 if edge.taken else 2)
    for label, block in method.blocks.items():
        term = block.terminator
        if isinstance(term, Br):
            term.count_arms = masks.get(label, 0)
    return plan


def lowered_branch_origins(cm: CompiledMethod) -> List[object]:
    """Every branch origin present in the lowered method, with multiplicity.

    Occurrences are counted regardless of the arm mask: an unprobed arm
    still records its reconstructed count into the shared edge profile
    at drain time, so mere presence makes the origin observable.
    """
    origins: List[object] = []
    for block in cm.blocks.values():
        term = block.term
        if term[0] == T_BR and term[9] is not None:
            origins.append(term[9])
    return origins


def shared_origin_fallbacks(code: Dict[str, CompiledMethod]) -> Set[str]:
    """Methods whose min-coverage plans are unsound in this image.

    The level>=1 optimizer inlines small callee bodies into callers —
    branch origins included — so one origin key can be recorded by
    several compiled methods (the caller's inlined copy and the
    callee's own body), or several times within one method.
    Reconstruction assumes a plan's probed counts came only from its
    own CFG; a multiply-occurring origin merges foreign flow into that
    count and double-books the solved arms.  Soundness is therefore an
    *image* property: every method containing an origin that occurs
    more than once across the image must keep classic full
    instrumentation (whose per-arm recording is merge-correct by
    construction).
    """
    occurrences: Counter = Counter()
    per_method: Dict[str, List[object]] = {}
    for name, cm in code.items():
        origins = lowered_branch_origins(cm)
        per_method[name] = origins
        occurrences.update(origins)
    return {
        name
        for name, origins in per_method.items()
        if any(occurrences[origin] > 1 for origin in origins)
    }


def reconstruct_probed_edges(
    plan: ProbePlan,
    profile: EdgeProfile,
    stuck: Optional[Dict[str, float]] = None,
) -> None:
    """Recover the full edge profile from the probed complement.

    Flow conservation on the closed CFG determines every spanning-tree
    edge count from the probed counts by leaf elimination (the tree
    guarantees each step exposes a node with one unknown incident
    edge).  ``stuck`` maps block labels to the number of in-flight
    activations that entered the block but never ran its terminator —
    nonzero only when the run aborted (trap / fuel exhaustion); it
    enters each node's balance so reconstruction stays exact for
    aborted runs too.  Counts are integer-valued floats, so the solver
    arithmetic is exact and the result is bit-identical to full
    instrumentation.
    """
    stuck = stuck or {}
    total_stuck = sum(stuck.values())
    # Node balance: in(v) - out(v) = rhs(v).  The virtual edge carries
    # completed invocations; activations that never completed are the
    # stuck ones, charged at the entry node.
    rhs: Dict[str, float] = {}
    for label, count in stuck.items():
        rhs[label] = rhs.get(label, 0.0) + count
    rhs[plan.entry] = rhs.get(plan.entry, 0.0) - total_stuck

    # Per-node running balance of the KNOWN flow: in(v) - out(v) over
    # every edge whose count is known so far.  Self-loop arms (a branch
    # arm targeting its own block) contribute both signs and cancel —
    # exactly as they do in the conservation equation.
    balance: Dict[str, float] = {}
    unknown_at: Dict[str, List[int]] = {}

    def _apply(edge: PlanEdge, count: float) -> None:
        balance[edge.dst] = balance.get(edge.dst, 0.0) + count
        balance[edge.src] = balance.get(edge.src, 0.0) - count

    resolved: Dict[int, float] = {}
    for i, edge in enumerate(plan.edges):
        if edge.kind == "arm" and edge.probed:
            _apply(edge, profile.arm_count(edge.origin, edge.taken))
        else:
            unknown_at.setdefault(edge.src, []).append(i)
            unknown_at.setdefault(edge.dst, []).append(i)
            balance.setdefault(edge.src, 0.0)
            balance.setdefault(edge.dst, 0.0)

    # Leaf elimination: repeatedly solve a node with one unknown edge.
    unknown_count = {node: len(ids) for node, ids in unknown_at.items()}
    queue = sorted(node for node, n in unknown_count.items() if n == 1)
    while queue:
        node = queue.pop()
        if unknown_count.get(node) != 1:
            continue
        target = next(i for i in unknown_at[node] if i not in resolved)
        edge = plan.edges[target]
        # in(v) - out(v) = rhs(v); the one unknown edge closes the gap.
        gap = rhs.get(node, 0.0) - balance.get(node, 0.0)
        count = gap if edge.dst == node else -gap
        resolved[target] = count
        if count < 0:  # pragma: no cover - conservation violated
            raise InstrumentationError(
                f"{plan.method}: negative reconstructed edge count "
                f"({edge!r}: {count})"
            )
        _apply(edge, count)
        for endpoint in (edge.src, edge.dst):
            unknown_count[endpoint] -= 1
            if unknown_count[endpoint] == 1:
                queue.append(endpoint)
    # Fold the reconstructed arm counts into the profile.  Recording
    # only nonzero counts reproduces full instrumentation's allocation
    # behaviour exactly: a pair exists iff the branch executed.
    for i, edge in enumerate(plan.edges):
        if edge.kind != "arm" or edge.probed:
            continue
        count = resolved.get(i, 0.0)
        if count:
            profile.record(edge.origin, edge.taken, count)


def stuck_blocks(vm, error) -> Dict[CompiledMethod, Dict[str, float]]:
    """Per-method stuck-activation counts for an aborted run.

    A suspended frame sits exactly at a call site — it entered
    ``frame.block`` and has not run its terminator.  The top (faulting)
    frame's honest location is the error's ``block`` attribute when the
    error names that frame's method (``frame.block`` is only maintained
    at call boundaries); a stack-overflow trap locates the *caller*, in
    which case the freshly pushed callee frame really is sitting at its
    entry block, which is what ``frame.block`` holds.
    """
    stuck: Dict[CompiledMethod, Dict[str, float]] = {}
    stack = getattr(vm, "guest_stack", None) or []
    top = len(stack) - 1
    for i, frame in enumerate(stack):
        label = frame.block.label if frame.block is not None else None
        if i == top and error is not None:
            if (
                getattr(error, "method", None) == frame.cm.profile_key
                and getattr(error, "block", None) is not None
            ):
                label = error.block
        if label is None:
            continue
        per = stuck.setdefault(frame.cm, {})
        per[label] = per.get(label, 0.0) + 1.0
    return stuck


# -- tier-engagement summary ------------------------------------------------


def engagement_summary(code: Dict[str, CompiledMethod]) -> dict:
    """Per-method tier-engagement counters plus fleet totals.

    Reported by ``repro profile`` (text and ``--json``): whether each
    method ran on blockjit, and which probe-placement mode instrumented
    it.
    """
    methods = {}
    totals = {
        "blockjit_methods": 0,
        "min_coverage_methods": 0,
        "probes_placed": 0,
        "probes_full": 0,
        # Fixed-point fold coverage (DESIGN.md §15): methods whose
        # lowering certified the Q20 grid vs. methods whose cost model
        # put a charge off it, which never compile and run on the
        # interpreter's block loop.  ``fold_rejected`` is 0 under the
        # default cost model (tests/test_fixedcost.py pins it).
        "fold_certified": 0,
        "fold_rejected": 0,
    }
    for name in sorted(code):
        cm = code[name]
        probe_mode = None
        if cm.probe_plan is not None:
            probe_mode = "min-coverage"
            totals["min_coverage_methods"] += 1
            totals["probes_placed"] += cm.probe_plan.probes
            totals["probes_full"] += cm.probe_plan.full_probes
        else:
            for block in cm.blocks.values():
                term = block.term
                mask = term[10] if term[0] == T_BR else 0
                if mask:
                    probe_mode = "full"
                    totals["probes_placed"] += bin(mask).count("1")
                    totals["probes_full"] += 2
        if cm.jit_entries is not None:
            totals["blockjit_methods"] += 1
        fold = "certified" if cm.fold_q else "rejected"
        totals[f"fold_{fold}"] += 1
        methods[name] = {
            "version": cm.version,
            "tier": cm.tier,
            "blockjit": cm.jit_entries is not None,
            "probe_mode": probe_mode,
            "fold": fold,
        }
    certified = totals["fold_certified"]
    rejected = totals["fold_rejected"]
    totals["fold_coverage"] = (
        certified / (certified + rejected) if certified + rejected else None
    )
    return {"methods": methods, "totals": totals}
