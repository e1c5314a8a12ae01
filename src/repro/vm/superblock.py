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
  continues into the successor's plain region code inline (nested
  under the arm, exactly as the successor's region would emit it), and
  leaves the trace where that code leaves its region: at a root, a call
  or a return, writing back every trace-dirty register and falling back
  to the :func:`~repro.vm.blockjit.execute_blockjit` trampoline;
* per-block fuel charges, PEP increments, countdown-yieldpoint gates,
  trap guards, and per-op cost adds are baked in exactly as blockjit
  emits them (each block's fuel prologue and ops come from the same
  emitter as a block inlined in a plain region).

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
shared region namespace.  A loop header is the entry block or has a
predecessor outside the loop besides its back edge, so it is always a
region root; region exits resolve successor names
dynamically, so every jump/branch/driver lookup that targets the loop
header enters the superblock, including mid-run installs.

Persistence
-----------
The generated source (``sb_source``), its path number (``sb_path``) and
a fingerprint (``sb_fingerprint``, see :func:`superblock_fingerprint`)
ride pickled CompiledMethods through the codecache (format 15).
``ensure_jit`` revalidates the fingerprint on warm loads, so stale
superblock advice misses cleanly while the plain blockjit entries still
hit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cfg.dag import DUMMY_ENTRY, REAL, DUMMY_EXIT
from repro.errors import ReproError, VMError
from repro.profiling.regenerate import dag_fingerprint, reconstruct_path
from repro.util.flags import superblock_enabled
from repro.util.rng import stable_hash
from repro.vm.blockjit import (
    _bits,
    _mask,
    _MethodCodegen,
    _Segment,
    _cmp_text,
    compile_memo,
    ensure_jit,
)
from repro.vm.interpreter import (
    T_BR,
    T_JMP,
    CompiledMethod,
    LoweredBlock,
)

#: Traces longer than this are not worth straight-lining (and generate
#: unboundedly large functions); fall back to plain blockjit.
MAX_TRACE_BLOCKS = 64


def is_kpath(path_number: Optional[int]) -> bool:
    """Always False: k-iteration traces are retired (DESIGN.md §16).

    The benchmark still calls it to count ``controller.ktrace_promotions``;
    the benchmark change of ROADMAP item 2 drops both.
    """
    return False


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
    if len(labels) != len(set(labels)) or len(labels) > MAX_TRACE_BLOCKS:
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
        else:
            ok = False
        if not ok:
            return None
    return blocks


# -- codegen ----------------------------------------------------------------


def _emit_arm(
    cg: _MethodCodegen,
    seg: _Segment,
    taken: bool,
    term: tuple,
    origin: Optional[str],
    succ: LoweredBlock,
    next_label: str,
    is_last: bool,
    both: bool,
) -> Optional[List[int]]:
    """One arm of a trace guard; returns the pending chain an on-trace
    fallthrough carries past the join (None when the arm leaves the
    trace's straight line)."""
    state = seg.fork()
    seg.indent += 1
    start = len(seg.body)
    cg._arm_prefix(seg, taken, term, origin)
    carried = None
    if succ.label == next_label:
        # On-trace: fall through into the next block's code (or close
        # the loop).  The guard charged its penalty/edge costs exactly
        # as the plain arm does; no writebacks, no dispatch.  Under
        # fixed-point accounting a loop close folds the pending chain
        # into the accumulator first (the loop body's text re-executes,
        # so costs cannot stay pending across the back edge); a
        # degenerate both-arms-fall-through branch flushes per arm
        # (``both``) because the join cannot carry two different
        # pending chains.
        if (is_last or both) and seg.pending:
            seg.emit(f"_cyc = {seg.cyc_expr()}")
            seg.pending = []
        if is_last:
            seg.emit("continue")
        else:
            if len(seg.body) == start:
                seg.emit("pass")
            carried = seg.pending
    else:
        # Side exit: continue into the successor's plain region code,
        # which exits to a root (or returns, or calls) with every
        # trace-dirty register written back: iteration >= 2 may hold
        # values regs[] never saw.
        cg._gen_succ(seg, succ)
    seg.indent -= 1
    seg.restore(state)
    return carried


def _emit_term(
    cg: _MethodCodegen,
    seg: _Segment,
    block: LoweredBlock,
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
        origin = cg._origin_names.get(block.label)
        # Fixed-point accounting: each arm folds the shared pending
        # prefix plus its own penalty/edge constants independently
        # (mirrors blockjit's shared-pending branch handling); exactly
        # the on-trace fallthrough arm's pending survives the join.
        both = term[5].label == next_label and term[6].label == next_label
        seg.emit(f"if {a} {_cmp_text(term[2])} {b}:")
        carried = _emit_arm(
            cg, seg, True, term, origin if mask & 1 else None,
            term[5], next_label, is_last, both,
        )
        seg.emit("else:")
        other = _emit_arm(
            cg, seg, False, term, origin if mask & 2 else None,
            term[6], next_label, is_last, both,
        )
        if carried is None:
            carried = other
        seg.pending = carried or []
    else:  # pragma: no cover - trace_blocks validated the terminators
        raise VMError(f"superblock cannot compile terminator {t}")


def _emit_trace(
    cg: _MethodCodegen, trace: List[LoweredBlock], seg: _Segment
) -> None:
    n_blocks = len(trace)
    for i, block in enumerate(trace):
        # The fuel prologue and ops come from the same emitter as a
        # block inlined in a plain region: `_fuel` and `_cyc` stay
        # locals across the trace, so the exhaustion exit sees the
        # exact accumulated cycles.  A call leaves the trace through
        # the plain machinery: the callee resumes into the ordinary
        # (block, ip) root, and control rejoins the superblock at the
        # next arrival at the loop header.
        if cg._gen_block(seg, block):
            return
        next_label = trace[(i + 1) % n_blocks].label
        _emit_term(cg, seg, block, next_label, i == n_blocks - 1)


def generate_trace_source(
    cm: CompiledMethod, trace: List[LoweredBlock]
) -> str:
    """Generate the superblock function for ``trace`` (pure function of
    the lowered blocks and the trace order — content-addressable like
    blockjit sources)."""
    cg = _MethodCodegen(cm)
    # Pass 1 discovers the registers the whole trace, side exits
    # included, touches / dirties.  Both passes inherit the method's
    # fixed-point certification verdict (DESIGN.md §15): a certified
    # method's trace folds every straight-line cost chain exactly like
    # its plain regions do, and a rejected one keeps textual per-op
    # chains.
    probe = _Segment(cg._fixed)
    _emit_trace(cg, trace, probe)
    touched = probe.uses | probe.defs
    # Pass 2 emits the real body: all touched registers are pre-bound
    # (loaded once at entry), and the dirty set is seeded to the full
    # trace's so every exit writes back everything it may have
    # changed on any earlier iteration.
    seg = _Segment(cg._fixed)
    seg.bound = touched
    seg.dirty = probe.defs
    _emit_trace(cg, trace, seg)
    lines = [
        "# Generated by repro.vm.superblock — one straight-line loop "
        f"trace over blocks {[b.label for b in trace]!r}.",
        "def _sb(vm, frame, regs, st):",
    ]
    for reg in _bits(touched):
        lines.append(f"    r{reg} = regs[{reg}]")
    lines.append("    _cyc = st.cyc")
    lines.append("    _fuel = st.fuel")
    lines.append("    while True:")
    lines.extend("    " + line for line in seg.body)
    return "\n".join(lines) + "\n"


# -- fingerprint ------------------------------------------------------------


def superblock_fingerprint(cm: CompiledMethod, path_number: int) -> int:
    """Ties a trace artefact to this version's P-DAG and codegen inputs.

    Three components: the P-DAG fingerprint, the path number and the
    fold verdict.  A change in any of them misses cleanly, exactly like
    stale advice.
    """
    return stable_hash(
        "superblock|"
        f"{dag_fingerprint(cm.dag)}|{path_number}|"
        # Format 7: the fold verdict selects the chain shape (folded at
        # fold_q 20, textual at 0), so sources from different verdicts
        # must never cross.
        f"fq{cm.fold_q}"
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
    # The plain regions share one namespace per method; exec there so
    # the superblock sees _pk/_cm/_blk*/_og* and — crucially — rebinding
    # the head's global name retargets every dynamic successor lookup.
    ns = next(iter(entries.values())).__globals__
    exec(code_obj, ns)
    fn = ns["_sb"]
    ns[f"_f{_head_index(cm, head.label)}_0"] = fn
    entries[(head.label, 0)] = fn
    cm.sb_entry = fn


def install_superblock(cm: CompiledMethod, path_number: int) -> bool:
    """Generate + install the trace for ``path_number``; first-wins.

    Returns True when a trace artefact is installed (now or previously),
    False when the path is not an eligible loop trace.  Charges zero
    virtual cycles and touches no profiles: installation is observable
    only in wall clock.  Safe mid-run — the installed code is
    behaviorally identical to entering the head's plain region.  The
    trace compiles here rather than at its first entry.
    """
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
    # A stale negative path (a retired warm ladder or k-trace) fails
    # ``trace_blocks`` below and is dropped like any other stale trace.
    ok = False
    if path is not None and cm.dag is not None and cm.sb_source is not None:
        try:
            if cm.sb_fingerprint == superblock_fingerprint(cm, path):
                trace = trace_blocks(cm, path)
                if trace is not None:
                    _install(cm, cm.sb_source, trace[0], entries)
                    ok = True
        except Exception:
            ok = False
    if not ok:
        cm.sb_source = None
        cm.sb_path = None
        cm.sb_fingerprint = None
        cm.sb_entry = None
