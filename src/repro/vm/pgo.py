"""Profile-guided optimization advice (DESIGN.md §14).

The profiling side of this reproduction collects rich continuous edge
and path profiles (the paper's PEP); until now they only steered *when*
the adaptive controller recompiles, never *what* the generated code
looks like.  This module closes the loop with the three classic PGO
transforms, each behind its own flag and each bit-identical on/off:

* **Profile-guided layout** (``REPRO_PGO_LAYOUT``): a hot-first block
  order computed from the observed edge profile at compile time and
  attached to the compiled method as :data:`CompiledMethod.pgo_layout`.
  The blockjit backend emits its segment definitions in that order and
  the tracefast backend orders its token-ladder arms by it, so the hot
  successor is the first-tested arm.  Pure emission order — the
  semantic ``layout``/mislayout-penalty machinery of the interpreter is
  untouched.

* **Dominant-path callee inlining** (``REPRO_PGO_INLINE``): when a
  promoted trace contains a monomorphic hot call (the dynamic call
  graph knows the edge weight) whose callee has its own dominant
  acyclic Ball-Larus path, the adaptive controller attaches an
  :class:`InlineAdvice` plan per call site
  (:data:`CompiledMethod.pgo_inline`).  The tracefast backend splices
  the callee's dominant-path body into the caller's trace behind a
  guard that side-exits to the normal call machinery — cost, fuel, PEP
  and trap accounting bit-exact (see ``tracefast._emit_inline_call``).

* **Minimum-coverage probe placement** (``REPRO_PGO_PROBES``): in the
  dedicated one-shot edge-instrumentation mode, probe only a
  spanning-tree complement of the method's closed CFG (Knuth /
  Ball-Larus minimum instrumentation) and reconstruct the full edge
  profile from flow conservation at drain time.  Fewer probes means
  fewer ``edge_count`` charges for the same recoverable profile.
  Baseline one-time instrumentation and the sweep configurations are
  untouched, which is what keeps every sweep digest bit-identical
  under the flip.

Advice is *content*: it rides pickled CompiledMethods through the
codecache, resolved PGO flags participate in the cache keys (format 6),
and :func:`pgo_fingerprint` folds the advice into superblock/tracefast
fingerprints so a flag flip or advice change drops stale generated
sources wholesale instead of replaying them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from repro.bytecode.instructions import Br, Jmp, Ret
from repro.bytecode.method import Method
from repro.cfg.dag import EXIT_EDGE, EXIT_NODE, REAL
from repro.errors import InstrumentationError, ReproError
from repro.profiling.edges import EdgeProfile
from repro.profiling.regenerate import dag_fingerprint, reconstruct_path
from repro.util.flags import pgo_inline_enabled, pgo_layout_enabled
from repro.util.rng import stable_hash
from repro.vm.interpreter import (
    OP_CALL,
    T_BR,
    T_BRCMP,
    T_JMP,
    T_RET,
    CompiledMethod,
)

#: A sampled (caller, callee) call-graph edge must carry at least this
#: many samples before its callee is considered for inlining.
MIN_INLINE_CALLS = 2.0

#: Dominant callee paths longer than this are not worth splicing.
MAX_INLINE_BLOCKS = 16

#: At most this many call sites are inlined per promoted trace (each
#: site nests the remainder of the trace one level deeper).
MAX_INLINE_SITES = 2


# -- profile-guided layout --------------------------------------------------


def layout_order(
    cm: CompiledMethod, profile: Optional[EdgeProfile]
) -> Optional[Tuple[str, ...]]:
    """Hot-first block-label order for ``cm`` from the edge profile.

    Heat of a block is the observed count of branch arms targeting it;
    blocks only reachable through jumps keep heat 0 and their original
    relative order (the sort is stable on the block insertion index).
    With no profile the advice is the canonical block order, so the
    generated sources are byte-identical to the layout-free shape.
    """
    if not pgo_layout_enabled():
        return None
    labels = list(cm.blocks)
    heat = {label: 0.0 for label in labels}
    if profile is not None:
        for block in cm.blocks.values():
            term = block.term
            t = term[0]
            if t == T_BR:
                origin, then_blk, else_blk = term[9], term[5], term[6]
            elif t == T_BRCMP:
                origin, then_blk, else_blk = term[14], term[10], term[11]
            else:
                continue
            if origin is None:
                continue
            heat[then_blk.label] += profile.arm_count(origin, True)
            heat[else_blk.label] += profile.arm_count(origin, False)
    index = {label: i for i, label in enumerate(labels)}
    return tuple(sorted(labels, key=lambda lb: (-heat[lb], index[lb])))


# -- dominant-path callee inlining ------------------------------------------


class InlineAdvice:
    """Plan for splicing one callee's dominant path into a caller trace.

    Carries the callee CompiledMethod *object* (its lowered blocks are
    what the splice is generated from) plus enough identity —
    ``callee_key`` and the callee's DAG fingerprint via
    :func:`pgo_fingerprint` — that the generated source's guard can
    verify at run time it is about to execute the advised version and
    fall back to the normal call otherwise.
    """

    __slots__ = ("callee_name", "callee_key", "callee_cm", "path", "labels")

    def __init__(
        self,
        callee_name: str,
        callee_key: str,
        callee_cm: CompiledMethod,
        path: int,
        labels: Tuple[str, ...],
    ) -> None:
        self.callee_name = callee_name
        self.callee_key = callee_key
        self.callee_cm = callee_cm
        self.path = path
        self.labels = labels

    def __repr__(self) -> str:
        return (
            f"<InlineAdvice {self.callee_key} path={self.path} "
            f"blocks={list(self.labels)}>"
        )


def inline_path_blocks(
    callee: CompiledMethod, path_number: int
) -> Optional[Tuple[str, ...]]:
    """Expand a callee path into an inlinable full-invocation chain.

    Only *acyclic* paths qualify: the reconstructed edge sequence must
    run from the method entry to EXIT over real edges (one complete
    invocation that crosses no loop back edge), end in a ``ret`` block,
    and contain no calls — nested inlining would need re-entrant frame
    materialisation the guard side exit cannot express.  Every
    consecutive pair is validated against the lowered terminators so
    codegen can trust the chain.
    """
    dag = callee.dag
    if dag is None:
        return None
    if not 0 <= path_number < dag.num_paths:
        return None
    try:
        edges = reconstruct_path(dag, path_number)
    except ReproError:
        return None
    if not edges or edges[0].src != dag.entry:
        return None
    if edges[-1].kind != EXIT_EDGE or edges[-1].dst != EXIT_NODE:
        return None
    labels: List[str] = [edges[0].src]
    node = edges[0].src
    for edge in edges[:-1]:
        if edge.kind != REAL or edge.src != node:
            return None
        node = edge.dst
        labels.append(node)
    if edges[-1].src != node:
        return None
    if len(labels) != len(set(labels)) or len(labels) > MAX_INLINE_BLOCKS:
        return None
    if not _valid_inline_chain(callee, labels):
        return None
    return tuple(labels)


def _valid_inline_chain(callee: CompiledMethod, labels) -> bool:
    """Whether ``labels`` is a splice-able entry-to-ret chain in ``callee``.

    The structural half of :func:`inline_path_blocks`, shared with
    :func:`revalidate_inline_plan` so a plan can be re-checked against a
    *recompiled* callee without a path-number round trip (path numbers
    are DAG-relative; block labels survive recompilation).
    """
    if callee.entry is None or not labels or labels[0] != callee.entry.label:
        return False
    blocks = []
    for label in labels:
        block = callee.blocks.get(label)
        if block is None:
            return False
        if any(op[0] == OP_CALL for op in block.ops):
            return False
        blocks.append(block)
    for i, block in enumerate(blocks):
        term = block.term
        t = term[0]
        if i == len(blocks) - 1:
            if t != T_RET:
                return False
            continue
        nxt = blocks[i + 1].label
        if t == T_JMP:
            ok = term[2].label == nxt
        elif t == T_BR:
            ok = term[5].label == nxt or term[6].label == nxt
        elif t == T_BRCMP:
            ok = term[10].label == nxt or term[11].label == nxt
        else:
            ok = False
        if not ok:
            return False
    return True


def revalidate_inline_plan(
    plan: InlineAdvice, callee: Optional[CompiledMethod]
) -> Optional[InlineAdvice]:
    """Re-pin a plan to the callee's *current* compiled version.

    The splice's runtime guard compares the looked-up method object
    against the plan's pinned ``callee_cm`` by identity, so a callee
    recompile turns every guard into a permanent miss — correct but
    pointless.  Called by the adaptive controller when a callee is
    replaced: if the advised label chain still validates against the
    new lowering, a fresh plan pinned to the live object is returned
    (the caller's trace is then regenerated); otherwise ``None`` drops
    the site back to the normal call.  Pure wall-clock steering either
    way — a stale or dropped plan only changes which arm of the
    bit-exact guard executes.
    """
    if callee is None or callee.dag is None:
        return None
    if callee is plan.callee_cm:
        return plan
    if not _valid_inline_chain(callee, plan.labels):
        return None
    return InlineAdvice(
        plan.callee_name, callee.profile_key, callee, plan.path, plan.labels
    )


def compute_inline_advice(
    caller: CompiledMethod,
    trace_labels,
    code: Dict[str, CompiledMethod],
    call_graph,
    path_profile,
    threshold: float,
    min_samples: float,
) -> Optional[Dict[Tuple[str, int], InlineAdvice]]:
    """Inline plans for the hot monomorphic calls inside a trace.

    ``trace_labels`` is the promoted trace's block-label sequence;
    ``code`` the VM's live method table; hotness comes from the sampled
    dynamic call graph (paper section 4.1) and the callee's dominance
    from its own sampled path profile, judged by the same
    threshold/min-samples policy that promoted the caller.
    """
    from repro.vm.superblock import find_dominant_path

    if not pgo_inline_enabled():
        return None
    advice: Dict[Tuple[str, int], InlineAdvice] = {}
    for label in trace_labels:
        block = caller.blocks.get(label)
        if block is None:
            continue
        for j, op in enumerate(block.ops):
            if op[0] != OP_CALL:
                continue
            name = op[3]
            if call_graph.count(caller.source_name, name) < MIN_INLINE_CALLS:
                continue
            callee = code.get(name)
            if callee is None or callee is caller or callee.dag is None:
                continue
            counts = path_profile.method_paths(callee.profile_key)
            path = find_dominant_path(counts, threshold, min_samples)
            if path is None:
                continue
            labels = inline_path_blocks(callee, path)
            if labels is None:
                continue
            advice[(label, j)] = InlineAdvice(
                name, callee.profile_key, callee, path, labels
            )
            if len(advice) >= MAX_INLINE_SITES:
                return advice
    return advice or None


# -- advice fingerprint -----------------------------------------------------


def pgo_fingerprint(cm: CompiledMethod) -> int:
    """Hash of the resolved PGO flags plus the advice they shaped.

    Folded into :func:`superblock.superblock_fingerprint` (and echoed
    by the codecache keys), so flipping any ``REPRO_PGO*`` flag — or a
    change in the advice itself, including the advised callee's DAG —
    invalidates persisted generated sources wholesale.  With a flag
    off, its advice contributes nothing: the fingerprint collapses to
    the flag bits, matching sources generated with no advice attached.
    """
    parts = [f"L{int(pgo_layout_enabled())}"]
    if pgo_layout_enabled() and cm.pgo_layout:
        parts.append(",".join(cm.pgo_layout))
    parts.append(f"I{int(pgo_inline_enabled())}")
    if pgo_inline_enabled() and cm.pgo_inline:
        for (label, j), adv in sorted(cm.pgo_inline.items()):
            callee_fp = (
                dag_fingerprint(adv.callee_cm.dag)
                if adv.callee_cm.dag is not None
                else 0
            )
            parts.append(
                f"{label}:{j}:{adv.callee_key}:{adv.path}:{callee_fp}:"
                + ",".join(adv.labels)
            )
    return stable_hash("|".join(parts))


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
    reconstruction) or None when the method is ineligible — the caller
    falls back to classic full instrumentation.
    """
    plan = plan_min_coverage(method)
    if plan is None:
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
        t = term[0]
        if t == T_BR and term[9] is not None:
            origins.append(term[9])
        elif t == T_BRCMP and term[14] is not None:
            origins.append(term[14])
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

    Reported by ``repro profile`` (text and ``--json``): which backend
    each method's code actually came from, how many PGO-inline sites
    its trace carries, and which probe-placement mode instrumented it.
    """
    methods = {}
    totals = {
        "blockjit_methods": 0,
        "superblock_installs": 0,
        "tracefast_installs": 0,
        "pgo_inline_sites": 0,
        "min_coverage_methods": 0,
        "probes_placed": 0,
        "probes_full": 0,
        # Fixed-point fold coverage (DESIGN.md §15): methods whose
        # lowering certified the Q20 grid vs. methods that fell back to
        # float chains.  ``fold_rejected`` should be 0 under the
        # default cost model (the bench gates fold_coverage == 1.0);
        # ``fold_legacy`` counts methods lowered with the
        # REPRO_FIXEDCOST kill switch off.
        "fold_certified": 0,
        "fold_rejected": 0,
        "fold_legacy": 0,
    }
    for name in sorted(code):
        cm = code[name]
        backend = None
        if cm.sb_source is not None:
            if "def _m(" in cm.sb_source:
                backend = "tracefast"
            else:
                backend = "superblock"
        probe_mode = None
        if cm.probe_plan is not None:
            probe_mode = "min-coverage"
            totals["min_coverage_methods"] += 1
            totals["probes_placed"] += cm.probe_plan.probes
            totals["probes_full"] += cm.probe_plan.full_probes
        else:
            for block in cm.blocks.values():
                term = block.term
                t = term[0]
                mask = term[10] if t == T_BR else term[15] if t == T_BRCMP else 0
                if mask:
                    probe_mode = "full"
                    totals["probes_placed"] += bin(mask).count("1")
                    totals["probes_full"] += 2
        inline_sites = len(cm.pgo_inline) if cm.pgo_inline else 0
        if cm.jit_entries is not None:
            totals["blockjit_methods"] += 1
        if backend == "tracefast":
            totals["tracefast_installs"] += 1
        elif backend == "superblock":
            totals["superblock_installs"] += 1
        fold = (
            "certified" if cm.fold_q
            else "legacy" if cm.fold_q is None
            else "rejected"
        )
        totals[f"fold_{fold}"] += 1
        totals["pgo_inline_sites"] += inline_sites
        methods[name] = {
            "version": cm.version,
            "tier": cm.tier,
            "blockjit": cm.jit_entries is not None,
            "trace_backend": backend,
            "pgo_inline_sites": inline_sites,
            "probe_mode": probe_mode,
            "fold": fold,
        }
    certified = totals["fold_certified"]
    rejected = totals["fold_rejected"]
    totals["fold_coverage"] = (
        certified / (certified + rejected) if certified + rejected else None
    )
    return {"methods": methods, "totals": totals}
