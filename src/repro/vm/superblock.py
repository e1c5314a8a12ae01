"""Path-guided superblocks: hot Ball-Larus paths as straight-line traces.

PEP exists to feed cheap, continuously collected path profiles to online
optimizers; this module is the reproduction's first real PGO client.
When a method's :class:`~repro.profiling.paths.PathProfile` shows a
*dominant* sampled path that is one full loop iteration — the path
enters through the loop header's split bottom (``DUMMY_ENTRY``) and
terminates back at the header (``DUMMY_EXIT``) — the path number is
expanded over the P-DAG into its block sequence and the whole chain is
compiled into ONE generated-Python function:

* registers stay function locals across block boundaries (no per-block
  load/writeback traffic, the dominant cost of plain blockjit on small
  blocks);
* the loop-closing edge becomes a ``continue`` in a ``while True`` —
  zero trampoline dispatch on the hot path;
* intra-trace branches keep their exact compare as a guard: the
  on-trace arm falls through, the off-trace arm is a *side exit* that
  writes back every trace-dirty register and returns the successor's
  plain segment closure, falling back to the
  :func:`~repro.vm.blockjit.execute_blockjit` trampoline;
* per-block fuel charges, PEP increments, countdown-yieldpoint gates,
  trap guards, and per-op cost adds are baked in exactly as blockjit
  emits them today (the op/guard emitters are literally reused).

Bit-identity contract
---------------------
A superblock is an *alternative compilation of existing blocks*, never a
semantic change: virtual cycles stay float-exact (same per-op adds on
the same local accumulator chain), path/edge profiles, traps, fuel and
fault-injection ordering are unchanged, and formation itself charges
zero virtual cycles (it only moves wall clock, like blockjit codegen).
``REPRO_SUPERBLOCK=0`` is the kill switch; ``tests/test_superblock.py``
proves equality across all bundled workloads.

Installation rebinds the head block's ``_f{bi}_0`` name in the method's
shared segment namespace — segment returns resolve successor names
dynamically, so every jump/branch/driver lookup that targets the loop
header enters the superblock, including mid-run installs.

Persistence
-----------
The generated source (``sb_source``), its path number (``sb_path``) and
a fingerprint (``sb_fingerprint``, hashing the P-DAG fingerprint + path
number + resolved samplefast flag) ride pickled CompiledMethods through
the codecache (format 4).  ``ensure_jit`` revalidates the fingerprint on
warm loads, so stale superblock advice misses cleanly while the plain
blockjit entries still hit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cfg.dag import DUMMY_ENTRY, REAL, DUMMY_EXIT
from repro.errors import ReproError, VMError
from repro.profiling.regenerate import dag_fingerprint, reconstruct_path
from repro.util.flags import superblock_enabled
from repro.util.rng import stable_hash
from repro.vm.blockjit import (
    _mask,
    _MethodCodegen,
    _Segment,
    _cmp_text,
    compile_memo,
    ensure_jit,
)
from repro.vm.interpreter import (
    OP_CALL,
    T_BR,
    T_BRCMP,
    T_JMP,
    CompiledMethod,
    LoweredBlock,
)

#: Traces longer than this are not worth straight-lining (and generate
#: unboundedly large functions); fall back to plain blockjit.
MAX_TRACE_BLOCKS = 64

#: ``sb_path`` encoding for k-iteration traces (DESIGN.md §16): k-DAG
#: path number ``n`` is stored as ``KPATH_BASE - n``, keeping the whole
#: k space disjoint from 1-path numbers (``>= 0``).  -1 is unused: it
#: marked the retired warm ladder (DESIGN.md §15), and the base stays
#: at -2 so k-trace numbers and fingerprints keep their values.
KPATH_BASE = -2


def encode_kpath(knumber: int) -> int:
    """Encode a k-DAG path number for the ``sb_path``/promotion plumbing."""
    return KPATH_BASE - knumber


def is_kpath(path_number: Optional[int]) -> bool:
    """True when an ``sb_path`` value names a k-iteration trace."""
    return path_number is not None and path_number <= KPATH_BASE


def decode_kpath(path_number: int) -> int:
    """Inverse of :func:`encode_kpath`."""
    return KPATH_BASE - path_number


# -- dominance --------------------------------------------------------------


def find_dominant_path(
    counts: Dict[int, float], threshold: float, min_samples: float
) -> Optional[int]:
    """The path holding >= ``threshold`` of the method's sampled mass.

    ``counts`` is ``PathProfile.method_paths(profile_key)``.  Ties break
    to the smallest path number so the answer is independent of dict
    iteration order.  Returns None when the method has fewer than
    ``min_samples`` samples or no path dominates.
    """
    if not counts:
        return None
    total = 0.0
    best = -1.0
    best_path = -1
    for path, freq in counts.items():
        total += freq
        if freq > best or (freq == best and path < best_path):
            best = freq
            best_path = path
    if total < min_samples or total <= 0.0:
        return None
    if best / total < threshold:
        return None
    return best_path


def find_dominant_kpath(
    counts: Dict[int, float], threshold: float, min_samples: float
) -> Optional[int]:
    """Dominance over the shadow k-path table (``vm.kpath_profile``).

    Same statistic as :func:`find_dominant_path` — the k-table is just
    another path-number histogram — but read it only as a *fallback*
    when no 1-path dominates: a bimodal loop alternating arms A,B has
    two ~50% 1-paths yet a single dominant 2-window (overlapping
    windows put AB and BA at ~half the window mass each, and the
    threshold is inclusive, so either rotation qualifies; both stitch
    the same cyclic trace).  Returns the raw k-DAG number; promotion
    encodes it with :func:`encode_kpath`.
    """
    return find_dominant_path(counts, threshold, min_samples)


# -- trace extraction -------------------------------------------------------


def trace_blocks(
    cm: CompiledMethod, path_number: int
) -> Optional[List[LoweredBlock]]:
    """Expand a path number into an executable loop trace, or None.

    Only *cyclic* paths qualify: the reconstructed edge sequence must
    enter through a split loop header's bottom (``DUMMY_ENTRY``) and
    exit back at that same header (``DUMMY_EXIT``), i.e. the path is one
    full iteration of the loop.  The returned block order starts at the
    header (``[top, bottom, ...]``) — the label control transfers to —
    with the final real edge closing the loop.  Every consecutive pair
    is validated against the lowered terminators so codegen can trust
    the chain.
    """
    dag = cm.dag
    if dag is None or not dag.split_map:
        return None
    if is_kpath(path_number):
        return _ktrace_blocks(cm, path_number)
    if not 0 <= path_number < dag.num_paths:
        return None
    try:
        edges = reconstruct_path(dag, path_number)
    except ReproError:
        return None
    if len(edges) < 3:
        return None
    first = edges[0]
    last = edges[-1]
    if first.kind != DUMMY_ENTRY or last.kind != DUMMY_EXIT:
        return None
    top = last.src
    bottom = first.dst
    if dag.split_map.get(top) != bottom:
        return None
    labels = [top, bottom]
    node = bottom
    for edge in edges[1:-1]:
        if edge.kind != REAL or edge.src != node:
            return None
        node = edge.dst
        if node != top:
            labels.append(node)
    if node != top:
        return None
    if len(labels) != len(set(labels)):
        return None
    return _validated_blocks(cm, labels)


def _ktrace_blocks(
    cm: CompiledMethod, path_number: int
) -> Optional[List[LoweredBlock]]:
    """Expand an encoded k-path into a multi-iteration loop trace (§16).

    The k-DAG path must be a *mono-header cyclic window*: enter through
    one header's bottom, carry back into that same header's bottom at
    every window boundary, and end at that header's top — i.e. ``k``
    consecutive iterations of one loop.  The stitched block order is the
    1-trace shape repeated per slot, ``[top, bottom, mids0..., top,
    bottom, mids1...]``, with the final arrival at the top closing the
    loop to position 0; labels legitimately repeat (that is the
    unrolling), so only the per-position terminator validation applies.
    Mid-trace top positions replay the header's full yieldpoint/PEP
    sequence — the loop back edge becomes an intra-trace fall-through
    while every observable stays bit-identical.
    """
    from repro.cfg.dag import CARRY
    from repro.cfg.kdag import split_klabel
    from repro.profiling.kpaths import shared_schema
    from repro.util.flags import kblpp_k

    dag = cm.dag
    schema = shared_schema(dag, kblpp_k())
    if schema is None:
        return None
    knumber = decode_kpath(path_number)
    if not 0 <= knumber < schema.num_kpaths:
        return None
    try:
        edges = reconstruct_path(schema.kdag, knumber)
    except ReproError:
        return None
    if len(edges) < 3:
        return None
    first = edges[0]
    last = edges[-1]
    if first.kind != DUMMY_ENTRY or last.kind != DUMMY_EXIT:
        return None
    top = split_klabel(last.src)[0]
    bottom = split_klabel(first.dst)[0]
    if dag.split_map.get(top) != bottom:
        return None
    labels = [top, bottom]
    node = first.dst
    carries = 0
    for edge in edges[1:-1]:
        if edge.src != node:
            return None
        node = edge.dst
        if edge.kind == REAL:
            base = split_klabel(node)[0]
            if base != top:
                labels.append(base)
        elif edge.kind == CARRY:
            # A carry at a different header means the window wanders
            # between loops — numerable, but not stitchable into one
            # cyclic trace.
            if (
                split_klabel(edge.src)[0] != top
                or split_klabel(node)[0] != bottom
            ):
                return None
            carries += 1
            labels.append(top)
            labels.append(bottom)
        else:
            return None
    if node != last.src or carries != schema.k - 1:
        return None
    return _validated_blocks(cm, labels)


def _validated_blocks(
    cm: CompiledMethod, labels: List[str]
) -> Optional[List[LoweredBlock]]:
    """Fetch the lowered blocks and validate every consecutive pair
    against the terminators (positional, so repeated labels are fine)."""
    if len(labels) > MAX_TRACE_BLOCKS:
        return None
    blocks: List[LoweredBlock] = []
    for label in labels:
        block = cm.blocks.get(label)
        if block is None:
            return None
        blocks.append(block)
    for i, block in enumerate(blocks):
        nxt = blocks[(i + 1) % len(blocks)].label
        term = block.term
        t = term[0]
        if t == T_JMP:
            ok = term[2].label == nxt
        elif t == T_BR:
            ok = term[5].label == nxt or term[6].label == nxt
        elif t == T_BRCMP:
            ok = term[10].label == nxt or term[11].label == nxt
        else:
            ok = False
        if not ok:
            return None
    return blocks


# -- codegen ----------------------------------------------------------------


def _origin_names(cm: CompiledMethod) -> Dict[str, str]:
    """Block label -> positional ``_og{j}`` namespace name.

    Must replicate the traversal of :func:`blockjit._edge_origins` so
    trace code binds the same origin objects as the plain segments
    sharing its namespace.
    """
    names: Dict[str, str] = {}
    counter = 0
    for block in cm.blocks.values():
        term = block.term
        t = term[0]
        if (t == T_BR and term[10]) or (t == T_BRCMP and term[15]):
            names[block.label] = f"_og{counter}"
            counter += 1
    return names


def _emit_arm(
    cg: _MethodCodegen,
    seg: _Segment,
    taken: bool,
    layout_then: bool,
    penalty: float,
    origin: Optional[str],
    edge_cost: float,
    succ: LoweredBlock,
    next_label: str,
    is_last: bool,
    force_flush: bool = False,
) -> None:
    start = len(seg.body)
    if taken != layout_then:
        seg.cost(penalty, 2)
    if origin is not None:
        seg.emit(f"vm.edge_profile.record({origin}, {taken})", 2)
        seg.cost(edge_cost, 2)
    if succ.label == next_label:
        # On-trace: fall through into the next block's code (or close
        # the loop).  The guard charged its penalty/edge costs exactly
        # as the plain arm does; no writebacks, no dispatch.  Under
        # fixed-point accounting a loop close folds the pending chain
        # into the accumulator first (the loop body's text re-executes,
        # so costs cannot stay pending across the back edge); a
        # degenerate both-arms-fall-through branch flushes per arm
        # (``force_flush``) because the join cannot carry two different
        # pending chains.
        if is_last:
            if seg.pending:
                seg.emit(f"_cyc = {seg.cyc_expr()}", 2)
                seg.pending = []
            seg.emit("continue", 2)
        else:
            if force_flush and seg.pending:
                seg.emit(f"_cyc = {seg.cyc_expr()}", 2)
                seg.pending = []
            if len(seg.body) == start:
                seg.emit("pass", 2)
    else:
        # Side exit: flush every trace-dirty register (iteration >= 2
        # may hold values regs[] never saw) and fall back to the plain
        # segment trampoline.  ``cyc_expr`` folds any pending chain
        # into the store (legacy mode: the literal ``_cyc``).
        seg.writebacks(2)
        seg.emit(f"st.cyc = {seg.cyc_expr()}", 2)
        seg.pending = []
        seg.emit(f"return {cg._succ_name(succ)}", 2)


def _emit_term(
    cg: _MethodCodegen,
    seg: _Segment,
    block: LoweredBlock,
    origin_names: Dict[str, str],
    next_label: str,
    is_last: bool,
) -> None:
    term = block.term
    t = term[0]
    seg.cost(term[1])
    if t == T_JMP:
        # Validated on-trace: the jump is a fallthrough (or the loop
        # close) — the entire saving over plain blockjit.
        if is_last:
            if seg.pending:
                seg.emit(f"_cyc = {seg.cyc_expr()}")
                seg.pending = []
            seg.emit("continue")
    elif t == T_BR:
        a = seg.rd(term[3])
        b = seg.rd(term[4])
        mask = _mask(term[10])
        origin = origin_names.get(block.label)
        # Fixed-point accounting: each arm folds the shared pending
        # prefix plus its own penalty/edge constants independently
        # (mirrors blockjit's shared-pending branch handling); exactly
        # the on-trace fallthrough arm's pending survives the join.
        both = term[5].label == next_label and term[6].label == next_label
        shared = list(seg.pending)
        seg.emit(f"if {a} {_cmp_text(term[2])} {b}:")
        _emit_arm(
            cg, seg, True, term[7], term[8],
            origin if mask & 1 else None, term[11],
            term[5], next_label, is_last, both,
        )
        after_true = seg.pending
        seg.pending = list(shared)
        seg.emit("else:")
        _emit_arm(
            cg, seg, False, term[7], term[8],
            origin if mask & 2 else None, term[11],
            term[6], next_label, is_last, both,
        )
        after_false = seg.pending
        if term[5].label == next_label and not is_last and not both:
            seg.pending = after_true
        elif term[6].label == next_label and not is_last and not both:
            seg.pending = after_false
        else:
            seg.pending = []
    elif t == T_BRCMP:
        k = term[2]
        if k < 0:
            # const->br form: branch register read precedes the const
            # write, exactly as the unfused order demands.
            tvar = seg.rd(term[3])
        else:
            a = seg.rd(term[4])
            b = repr(term[5]) if term[6] else seg.rd(term[5])
            seg.emit(f"{seg.wr(term[3])} = 1 if {a} {_cmp_text(k)} {b} else 0")
            tvar = f"r{term[3]}"
        seg.emit(f"{seg.wr(term[7])} = {term[8]!r}")
        mask = _mask(term[15])
        origin = origin_names.get(block.label)
        both = term[10].label == next_label and term[11].label == next_label
        shared = list(seg.pending)
        seg.emit(f"if {tvar} {_cmp_text(term[9])} {term[8]!r}:")
        _emit_arm(
            cg, seg, True, term[12], term[13],
            origin if mask & 1 else None, term[16],
            term[10], next_label, is_last, both,
        )
        after_true = seg.pending
        seg.pending = list(shared)
        seg.emit("else:")
        _emit_arm(
            cg, seg, False, term[12], term[13],
            origin if mask & 2 else None, term[16],
            term[11], next_label, is_last, both,
        )
        after_false = seg.pending
        if term[10].label == next_label and not is_last and not both:
            seg.pending = after_true
        elif term[11].label == next_label and not is_last and not both:
            seg.pending = after_false
        else:
            seg.pending = []
    else:  # pragma: no cover - trace_blocks validated the terminators
        raise VMError(f"superblock cannot compile terminator {t}")


def _emit_trace(
    cg: _MethodCodegen,
    trace: List[LoweredBlock],
    seg: _Segment,
    origin_names: Dict[str, str],
) -> None:
    n_blocks = len(trace)
    for i, block in enumerate(trace):
        next_label = trace[(i + 1) % n_blocks].label
        is_last = i == n_blocks - 1
        ops = block.ops
        n = len(ops)
        label = block.label
        # Fuel is charged on every block (re)entry exactly like the
        # plain segment prologue; `_cyc` equals what `st.cyc` would
        # hold at this boundary (the store/load pair is skipped), so the
        # exhaustion raise is bit-identical.
        seg.emit(f"_fuel = st.fuel - {n + 1}")
        seg.emit("st.fuel = _fuel")
        seg.emit("if _fuel < 0:")
        # The cold raise observes the exact accumulated cycles; under
        # fixed-point accounting any pending chain folds into the read
        # without the hot path ever flushing.
        seg.emit(f"vm.cycles += {seg.cyc_expr()}", 2)
        seg.emit(
            "raise _Fuel('instruction budget exhausted', method=_pk, "
            f"block={label!r}, instruction_index=0, cycles=vm.cycles)",
            2,
        )
        called = False
        for j, op in enumerate(ops):
            if op[0] == OP_CALL:
                # A call leaves the trace through the plain machinery:
                # the callee resumes into the ordinary (block, ip)
                # segment, and control rejoins the superblock at the
                # next arrival at the loop header.
                cg._gen_call(seg, cg.block_index[label], block, j, op)
                called = True
                break
            cg._gen_op(seg, label, j, op)
        if called:
            return
        _emit_term(cg, seg, block, origin_names, next_label, is_last)


def generate_trace_source(
    cm: CompiledMethod, trace: List[LoweredBlock]
) -> str:
    """Generate the superblock function for ``trace`` (pure function of
    the lowered blocks, the trace order, and the resolved samplefast
    flag — content-addressable like blockjit sources)."""
    cg = _MethodCodegen(cm)
    origin_names = _origin_names(cm)
    # Pass 1 discovers the registers the whole trace touches / dirties.
    # Both passes inherit the method's fixed-point certification verdict
    # (DESIGN.md §15): a certified method's trace folds every
    # straight-line cost chain exactly like its plain segments do, and
    # the legacy (uncertified / kill-switch) text is byte-identical to
    # the pre-§15 backend.
    probe = _Segment()
    probe.fixed = cg._fixed
    _emit_trace(cg, trace, probe, origin_names)
    touched = sorted(probe._bound | probe.dirty)
    # Pass 2 emits the real body: all touched registers are pre-bound
    # (loaded once at entry), and the dirty set is seeded to the full
    # trace's so every side exit writes back everything it may have
    # changed on any earlier iteration.
    seg = _Segment()
    seg.fixed = cg._fixed
    seg._bound = set(touched)
    seg.dirty = set(probe.dirty)
    _emit_trace(cg, trace, seg, origin_names)
    lines = [
        "# Generated by repro.vm.superblock — one straight-line loop "
        f"trace over blocks {[b.label for b in trace]!r}.",
        "def _sb(vm, frame, regs, st):",
    ]
    for reg in touched:
        lines.append(f"    r{reg} = regs[{reg}]")
    lines.append("    _cyc = st.cyc")
    lines.append("    while True:")
    lines.extend("    " + line for line in seg.body)
    return "\n".join(lines) + "\n"


# -- fingerprint ------------------------------------------------------------


def superblock_fingerprint(cm: CompiledMethod, path_number: int) -> int:
    """Ties a trace artefact to this version's P-DAG and codegen flags.

    The samplefast flag is baked into the emitted yieldpoint template,
    so a source generated under one datapath must never install under
    the other (mirrors the codecache key's resolved flag).  The resolved
    tracefast flag is hashed for the same reason: the §11 superblock and
    §13 tracefast backends share the ``sb_*`` artefact slots, and a
    source generated by one backend must never install under the other
    — a flag flip misses cleanly, exactly like stale advice.
    """
    from repro.util.flags import (
        kblpp_k,
        samplefast_enabled,
        tracefast_enabled,
    )
    from repro.vm.pgo import pgo_fingerprint

    return stable_hash(
        "superblock|"
        f"{dag_fingerprint(cm.dag)}|{path_number}|"
        f"{int(samplefast_enabled())}|tf{int(tracefast_enabled())}|"
        # Format 6: the resolved PGO flags and the advice they shaped
        # (layout order, inline plans) are part of the generated source;
        # a flag flip or advice change must miss, never reuse.
        f"pgo{pgo_fingerprint(cm)}|"
        # Format 7: the fold verdict selects the tracefast chain shape
        # (fixed-point vs legacy-gated vs textual), so sources from
        # different verdicts — including a REPRO_FIXEDCOST flip, which
        # moves fold_q between None and 20 — must never cross.
        f"fq{cm.fold_q}"
        # k-iteration traces (DESIGN.md §16) additionally pin the
        # resolved window length: their path number lives in the k-DAG's
        # space, so a REPRO_KBLPP_K change must miss (and drop the
        # artefact) instead of decoding the number in the wrong space.
        # Plain traces omit the component entirely, keeping their
        # fingerprints byte-stable across k changes.
        + (f"|kb{kblpp_k()}" if is_kpath(path_number) else "")
    )


# -- installation -----------------------------------------------------------


def _head_index(cm: CompiledMethod, head_label: str) -> int:
    for bi, label in enumerate(cm.blocks):
        if label == head_label:
            return bi
    raise VMError(f"trace head {head_label!r} not in method")  # pragma: no cover


def _install(
    cm: CompiledMethod, source: str, head: LoweredBlock, entries: dict
) -> None:
    code_obj = compile_memo(source, "<superblock>")
    # The plain segments share one namespace per method; exec there so
    # the superblock sees _pk/_cm/_blk*/_og* and — crucially — rebinding
    # the head's global name retargets every dynamic successor lookup.
    ns = next(iter(entries.values())).__globals__
    exec(code_obj, ns)
    fn = ns["_sb"]
    ns[f"_f{_head_index(cm, head.label)}_0"] = fn
    entries[(head.label, 0)] = fn
    cm.sb_entry = fn


def install_superblock(
    cm: CompiledMethod, path_number: int, costs=None
) -> bool:
    """Generate + install the trace for ``path_number``; first-wins.

    Returns True when a trace artefact is installed (now or previously),
    False when the path is not an eligible loop trace.  Charges zero
    virtual cycles and touches no profiles: installation is observable
    only in wall clock.  Safe mid-run — the installed code is
    behaviorally identical to entering the head's plain segment.  The
    classic trace compiles here; a tracefast ladder compiles at its
    first entry (:func:`repro.vm.tracefast.install_source`).

    This is the tier-selecting front door (DESIGN.md §13): when the
    tracefast backend is enabled (``REPRO_TRACEFAST``, default on) the
    promotion compiles the *whole method* through
    :mod:`repro.vm.tracefast`; otherwise the classic single-trace
    superblock below is built.  Both backends share the promotion
    policy, the advice carry-over, and the ``sb_*`` persistence slots.
    ``costs`` (the run's :class:`~repro.vm.costs.CostModel`) is optional
    and only unlocks tracefast's exact cost-chain folding — omitting it
    is always safe, merely slower.
    """
    from repro.util.flags import tracefast_enabled

    if tracefast_enabled():
        from repro.vm import tracefast

        return tracefast.install_tracefast(cm, path_number, costs)
    if cm.sb_entry is not None:
        return True
    trace = trace_blocks(cm, path_number)
    if trace is None:
        return False
    entries = ensure_jit(cm)
    if cm.sb_entry is not None:
        # ensure_jit re-installed a persisted source just now.
        return True
    fingerprint = superblock_fingerprint(cm, path_number)
    if (
        cm.sb_source is not None
        and cm.sb_path == path_number
        and cm.sb_fingerprint == fingerprint
    ):
        source = cm.sb_source
    else:
        source = generate_trace_source(cm, trace)
    _install(cm, source, trace[0], entries)
    cm.sb_source = source
    cm.sb_path = path_number
    cm.sb_fingerprint = fingerprint
    return True


def reinstall_persisted(cm: CompiledMethod, entries: dict) -> None:
    """Hook for :func:`blockjit.ensure_jit`: revive a pickled superblock.

    Validates the stored fingerprint against the *current* DAG and
    codegen flags; on any mismatch or failure the stale artefacts are
    dropped (plain blockjit entries stay valid — a fresh dominance event
    may regenerate the trace) rather than risking a wrong install.
    """
    if not superblock_enabled():
        return
    path = cm.sb_path
    if is_kpath(path):
        # A persisted multi-iteration k-trace (DESIGN.md §16).  Under
        # the REPRO_KBLPP kill switch keep the artefacts untouched and
        # install nothing — as REPRO_SUPERBLOCK=0 does for every trace:
        # a later enabled process revives them.  When on, the generic
        # validation below applies; the fingerprint embeds the resolved
        # k, so a REPRO_KBLPP_K change misses and the stale trace is
        # dropped.
        from repro.util.flags import kblpp_enabled

        if not kblpp_enabled():
            return
    # A stale -1 (a retired warm ladder) fails ``trace_blocks`` below
    # and is dropped like any other stale trace.
    ok = False
    if path is not None and cm.dag is not None and cm.sb_source is not None:
        try:
            # The fingerprint embeds the resolved tracefast flag, so a
            # match guarantees the stored source was generated by the
            # currently selected backend — dispatch follows the flag.
            if cm.sb_fingerprint == superblock_fingerprint(cm, path):
                trace = trace_blocks(cm, path)
                if trace is not None:
                    from repro.util.flags import tracefast_enabled

                    if tracefast_enabled():
                        from repro.vm import tracefast

                        tracefast.install_source(
                            cm, cm.sb_source, trace, entries
                        )
                    else:
                        _install(cm, cm.sb_source, trace[0], entries)
                    ok = True
        except Exception:
            ok = False
    if not ok:
        cm.sb_source = None
        cm.sb_path = None
        cm.sb_fingerprint = None
        cm.sb_entry = None
