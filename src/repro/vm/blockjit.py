"""Template-compiled block bodies: exec-specialized block execution.

The tuple interpreter in :mod:`repro.vm.interpreter` pays a dispatch
ladder (tuple index + if/elif chain) per guest op.  This module removes
it by *generating Python source* for every :class:`LoweredBlock`:
operands are constant-folded into the text, registers become function
locals, trap guards are inlined with their exact messages and locations,
and PEP path-register adds / yieldpoint checks are baked in at their
exact positions.  The source is generated once per method, each of its
functions is ``compile()``-d at its first call, and the run loop becomes
region-level dispatch: call the region closure, follow the returned
successor closure.

Only the hot path is inlined.  The two cold exits every block can
take live out of line in module helpers bound into each method's
namespace: :func:`out_of_fuel` (the fuel counterpart of
``interpreter._trap``) and :func:`yieldpoint_slow` (the countdown
yieldpoint's tick/sample/dispatch sequence).

Bit-identity contract
---------------------
Generated code must be *bit-identical* to the interpreter in every
observable: virtual cycles, path/edge profiles, emitted output, trap
messages and locations, fuel accounting (charged per block (re)entry,
exactly as the interpreter does), and fault-injection behavior
(yieldpoints call the same ``vm.dispatch_yieldpoint``, so every
``repro.resilience`` site fires unchanged).  Cost accounting comes in
two certified-equal shapes (DESIGN.md §15): when the method's
fixed-point certification passed (``cm.fold_q`` truthy), straight-line
cost chains fold to one scaled-integer constant per flush point — exact
because every charge lies on the 2**-20 grid where float addition never
rounds; otherwise (``cm.fold_q == 0``: a caller's cost model put a
charge off the grid) float adds are emitted per-op, in the same order,
on a local accumulator — never pre-summed, because float addition is
non-associative off the grid.  ``tests/test_blockjit.py`` proves the
contract across all bundled workloads.

Regions
-------
Each generated function is a *region*: a root entry followed inline by
every block whose only CFG predecessor's terminator lies in that
function.  A jump to such a block falls through into its code; each
branch arm nests its successor under the arm's ``if``/``else``.  The
roots (:func:`region_roots`) are the entry block, every block with
other than one predecessor (a branch whose two arms share a target
counts twice), every call-resume point ``(block, ip > 0)``, and every
block that would nest more than :data:`MAX_REGION_DEPTH` arms deep
(CPython's tokenizer caps indentation at 100 levels).  A region is a
tree, so each block's code appears exactly once per method source.
Roots are named ``_f{bi}_{ip}``; a region exits by returning a root's
closure (jump/branch), the ``_CALL`` sentinel (guest call pushed; the
driver switches frames), or ``None`` (guest return; value in
``JitState.ret_value``).

Every block charges its fuel on entry exactly as the interpreter does:
``n - ip + 1`` at a root, including resumption after a callee returns,
and ``n + 1`` at an inlined block.  Fuel and cycles stay in the locals
``_fuel`` and ``_cyc`` across the region and reach ``st`` at its exits.

Registers live in locals, bound per path: a register is loaded at its
first read on each path, even if a sibling arm wrote it.  They reach
``frame.regs`` only at exits, and only when a later region can read
them: a backward liveness pass over the method's regions
(:func:`_live_in`) keeps, at each exit, the registers written on the
path to it that are live into its successor root (for a call, its
resume root, less the register the return writes).  Returns and traps
write nothing back; the frame is dead.

Compilation at first entry
--------------------------
:func:`ensure_jit` binds every root name to a *placeholder*
(:func:`placeholder`): a function over one shared template code object
whose first call compiles the real region, binds it in the namespace
and the entry table, and runs it.  A region that is never entered is
never compiled.  A placeholder called after its name was bound
(through a reference taken before its first call) forwards to the
current binding and compiles nothing.

Sharing compiled code
---------------------
Generated source is attached to the :class:`CompiledMethod`
(``jit_source``).  Compiled region code objects are memoised
process-wide under that source text, so a method whose source the
process has already run, such as the same method in another image,
binds those regions at once.

Kill switch: ``REPRO_BLOCKJIT=0`` falls back to the tuple interpreter.
"""

from __future__ import annotations

import builtins
import os
from types import CellType, CodeType, FunctionType
from typing import Dict, List, Optional, Tuple

from repro.errors import FuelExhaustedError, VMError
from repro.vm.costs import FOLD_SCALE
from repro.vm.interpreter import (
    OP_ALEN,
    OP_ALOAD,
    OP_ASTORE,
    OP_BIN,
    OP_BINI,
    OP_CALL,
    OP_CONST,
    OP_EMIT,
    OP_MOVE,
    OP_NEG,
    OP_NEWARR,
    OP_NOT,
    OP_PATHCOUNT,
    OP_PEPADD,
    OP_PEPINIT,
    OP_YIELD,
    T_BR,
    T_JMP,
    T_RET,
    _MAX_ARRAY,
    CompiledMethod,
    Frame,
    LoweredBlock,
    _trap,
)

ENV_DISABLE = "REPRO_BLOCKJIT"

#: Sentinel a region returns after pushing a callee frame; the driver
#: switches to the new frame's entry root.
_CALL = object()

#: Deepest a region nests a block under branch arms; the next block
#: down starts a new root.  CPython's tokenizer rejects more than 100
#: indentation levels, and a block's code may sit this many arms deep
#: plus a ``def`` and a guard body.  The value is part of the generated
#: code's shape (it decides the roots), so it stays fixed.
MAX_REGION_DEPTH = 32

#: Countdown-yieldpoint gate value while the flag is up: every armed
#: yieldpoint must reach the dispatcher until the burst drains; while
#: the flag is down the gate is exactly ``next_tick``.
_NEG_INF = float("-inf")

# Process-wide memo of compiled code, keyed by the generated source
# text itself (true content addressing: identical lowered bodies produce
# identical source): ``_SEGMENT_CODE`` maps a blockjit method source to
# the code objects of the regions compiled so far.  It is bounded
# crudely at ``_CODE_OBJECTS_BOUND`` sources — an occasional flush only
# costs a recompile.
_SEGMENT_CODE: Dict[str, Dict[str, CodeType]] = {}
_CODE_OBJECTS_BOUND = 4096


def blockjit_enabled() -> bool:
    """True unless ``REPRO_BLOCKJIT`` disables the block engine."""
    flag = os.environ.get(ENV_DISABLE, "1").strip().lower()
    return flag not in ("0", "off", "no", "false")


# -- cold exits, out of line -------------------------------------------------


def out_of_fuel(vm, cyc: float, method, block: str, index: int) -> None:
    """Fuel exhaustion: the fuel counterpart of ``interpreter._trap``.

    Flushes the accumulated ``cyc`` into ``vm.cycles`` and raises the
    interpreter's exact error.  ``method`` is a profile key, so an
    inlined callee's site can pass its own.
    """
    vm.cycles += cyc
    raise FuelExhaustedError(
        "instruction budget exhausted",
        method=method,
        block=block,
        instruction_index=index,
        cycles=vm.cycles,
    )


def yieldpoint_slow(vm, cm, st, t: float, path_reg: int, flag) -> float:
    """The countdown yieldpoint's slow path (DESIGN.md §10).

    Called once ``t`` (the just-stored ``vm.cycles``) reaches
    ``st.gate``: runs the interpreter's tick/flag sequence against the
    VM attributes, re-derives the gate, and returns the handler cost.
    The caller has just zeroed its accumulator, so assigning the result
    is the interpreter's ``cyc += cost`` bit for bit.  After the
    once-per-tick method sample, dispatch reduces to the sampler call,
    saving a frame per armed yieldpoint.
    """
    cost = 0.0
    if t >= vm.next_tick:
        vm.on_tick()
    if vm.flag:
        smp = vm.sampler
        if vm._tick_method_sampled and smp is not None:
            cost += smp.on_yieldpoint(vm, cm, path_reg, flag)
        else:
            cost += vm.dispatch_yieldpoint(cm, path_reg, flag)
        st.gate = _NEG_INF if vm.flag else vm.next_tick
    else:
        st.gate = vm.next_tick
    return cost


def emit_yieldpoint(seg, flush: str, flag) -> None:
    """Emit one yieldpoint that flushes ``flush`` into ``vm.cycles``.

    The path register is ``st.path_reg``.  The countdown template
    (DESIGN.md §10) stores the bit-identical ``vm.cycles`` and keeps
    one compare inline, against ``st.gate`` (``next_tick`` while the
    flag is down, -inf while it is up); past it,
    :func:`yieldpoint_slow` does the rest.
    """
    seg.emit(f"_t = vm.cycles + {flush}")
    seg.emit("vm.cycles = _t")
    seg.emit("_cyc = 0.0")
    seg.emit("if _t >= st.gate:")
    seg.emit(f"_cyc = _yield_slow(vm, _cm, st, _t, st.path_reg, {flag!r})", 2)


# -- codegen ----------------------------------------------------------------

_CMP_TEXT = {12: "<", 13: "<=", 14: ">", 15: ">=", 16: "=="}
_BIN_TEXT = {
    0: "+",
    1: "-",
    2: "*",
    3: "//",
    4: "%",
    5: "&",
    6: "|",
    7: "^",
    8: "<<",
    9: ">>",
}


def _cmp_text(kind: int) -> str:
    # The interpreter's comparison ladders treat any non-12..16 code as
    # "!=" in their else arm; mirror that exactly.
    return _CMP_TEXT.get(kind, "!=")


def _bin_expr(kind: int, a: str, b: str) -> str:
    sym = _BIN_TEXT.get(kind)
    if sym is not None:
        return f"{a} {sym} {b}"
    if kind == 10:
        return f"({a} if {a} < {b} else {b})"
    if kind == 11:
        return f"({a} if {a} > {b} else {b})"
    if 12 <= kind <= 17:
        return f"(1 if {a} {_cmp_text(kind)} {b} else 0)"
    raise VMError(f"unknown binop code {kind}")  # pragma: no cover


def _mask(counted) -> int:
    """Per-arm probe mask of a lowered ``count_arms`` field.

    Bit 0 counts the taken arm, bit 1 the not-taken arm.  Lowering
    emits ints (``interpreter._arm_mask``); a legacy boolean True still
    normalises to both arms.
    """
    if counted is True:
        return 3
    return int(counted or 0)


def _edge_origins(cm: CompiledMethod) -> List[object]:
    """Edge-instrumentation origin objects, in deterministic block order.

    Codegen names them positionally (``_og0``, ``_og1``, ...) by this
    same traversal, so a namespace built for *persisted* source still
    binds the right objects.
    """
    origins: List[object] = []
    for block in cm.blocks.values():
        term = block.term
        if term[0] == T_BR and term[10]:
            origins.append(term[9])
    return origins


def _bits(mask: int):
    """The register numbers in bitset ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def region_roots(cm: CompiledMethod) -> List[Tuple[int, LoweredBlock, int]]:
    """The entries that start a generated function, in block order.

    Each root is ``(block index, block, entry ip)``: the method's entry
    block, every block with other than one CFG predecessor (a branch
    whose two arms share a target counts twice), every call-resume
    point ``(block, ip > 0)``, and every block its predecessor's region
    would nest more than :data:`MAX_REGION_DEPTH` branch arms deep.
    Any other block is inlined under its only predecessor's terminator.
    A block no root's tree reaches (an unreachable cycle of
    single-predecessor blocks) becomes a root too, so every block's
    code appears exactly once.
    :func:`generate_source` and :func:`ensure_jit` both call this, so
    they agree on every function name.
    """
    blocks = list(cm.blocks.values())
    preds = dict.fromkeys(cm.blocks, 0)
    resumes: Dict[str, List[int]] = {}
    for block in blocks:
        ips = [j + 1 for j, op in enumerate(block.ops) if op[0] == OP_CALL]
        if ips:
            resumes[block.label] = ips
        term = block.term
        if term[0] == T_JMP:
            preds[term[2].label] += 1
        elif term[0] == T_BR:
            preds[term[5].label] += 1
            preds[term[6].label] += 1
    heads = {label for label, n in preds.items() if n != 1}
    heads.add(cm.entry.label)
    # Walk each region's tree from its root; a block's depth is the
    # number of branch arms between it and its root.
    todo = [(block, 0) for block in blocks if block.label in heads]
    seen = set()
    while True:
        while todo:
            block, depth = todo.pop()
            seen.add(block.label)
            if block.label in resumes:
                depth = 0  # the terminator sits in the last resume root
            term = block.term
            if term[0] == T_JMP:
                succs = (term[2],)
            elif term[0] == T_BR:
                succs = (term[5], term[6])
                depth += 1
            else:
                continue
            for succ in succs:
                if succ.label in heads:
                    continue
                if depth > MAX_REGION_DEPTH:
                    heads.add(succ.label)
                    todo.append((succ, 0))
                else:
                    todo.append((succ, depth))
        orphan = next((b for b in blocks if b.label not in seen), None)
        if orphan is None:
            break
        heads.add(orphan.label)
        todo.append((orphan, 0))
    roots = []
    for bi, block in enumerate(blocks):
        if block.label in heads:
            roots.append((bi, block, 0))
        for ip in resumes.get(block.label, ()):
            roots.append((bi, block, ip))
    return roots


class _Region:
    """One region function's body, accumulated along its paths and
    rendered once liveness is known.

    Register binding is per path: ``bound`` holds the registers with a
    live local on the path being emitted (a register is loaded at its
    first read on each path) and ``dirty`` those written on it, both as
    int bitsets; :meth:`fork` and :meth:`restore` save and reinstate
    them, with the pending cost chain, around each branch arm.  ``uses``
    and ``defs`` accumulate over all paths.  ``indent`` counts the
    branch arms the current path is nested under.

    ``fixed`` selects the fixed-point accounting shape (DESIGN.md §15):
    per-op cost constants collect in ``pending``, scaled by
    ``FOLD_SCALE`` to exact integers, instead of emitting an eager
    ``_cyc += c`` each, and every point that observes the accumulator
    reads :meth:`cyc_expr` — one folded constant per chain.
    Certification (``CompiledMethod.fold_q``) guarantees the fold is
    bit-identical; with ``fixed`` off, ``pending`` stays empty and
    ``cyc_expr`` degenerates to the literal ``_cyc``, so every emission
    site can read it unconditionally and the textual chain is unchanged.

    Exits record where their writebacks go, with the path's dirty set,
    instead of emitting them; :meth:`render` fills each with the dirty
    registers live into that exit's successor.
    """

    def __init__(self, name: str, fixed: bool) -> None:
        self.name = name
        self.body: List[str] = []
        self.bound = 0  # registers with a live local on this path
        self.dirty = 0  # registers written on this path
        self.uses = 0  # registers loaded on any path
        self.defs = 0  # registers written on any path
        self.indent = 0
        self.fixed = fixed
        self.pending: List[int] = []
        # (body index, depth, successor root, kill bitset, dirty bitset)
        self.exits: List[Tuple[int, int, str, int, int]] = []

    def rd(self, reg: int) -> str:
        bit = 1 << reg
        if not self.bound & bit:
            self.bound |= bit
            self.uses |= bit
            self.body.append("    " * (1 + self.indent) + f"r{reg} = regs[{reg}]")
        return f"r{reg}"

    def wr(self, reg: int) -> str:
        bit = 1 << reg
        self.bound |= bit
        self.dirty |= bit
        self.defs |= bit
        return f"r{reg}"

    def fork(self) -> tuple:
        """The per-path state at a branch, for :meth:`restore`."""
        return self.bound, self.dirty, list(self.pending)

    def restore(self, state: tuple) -> None:
        self.bound, self.dirty, pending = state
        self.pending = list(pending)

    def cyc_expr(self) -> str:
        """The value ``_cyc`` would hold if pending costs flushed now.

        A chain folds to one constant computed in exact scaled-integer
        arithmetic: each pending ``c * FOLD_SCALE`` is an exact integer
        (certification), the int sum is exact, and the single closing
        division is a power-of-two scaling — so the folded constant
        equals the sequential float sum bit for bit.
        """
        if not self.pending:
            return "_cyc"
        return f"(_cyc + {sum(self.pending) / FOLD_SCALE!r})"

    def emit(self, line: str, depth: int = 1) -> None:
        # Trap guards pass the accumulator by the literal name ``_cyc``;
        # with costs pending, substitute the folded chain inline so the
        # cold trap path sees the exact flushed value without the hot
        # path ever flushing.
        if self.pending and "_trap(vm, _cyc, " in line:
            line = line.replace(
                "_trap(vm, _cyc, ", f"_trap(vm, {self.cyc_expr()}, ", 1
            )
        self.body.append("    " * (depth + self.indent) + line)

    def cost(self, amount: float) -> None:
        # Zero adds are skipped: x + 0.0 == x bitwise for the
        # non-negative accumulator values that occur here.
        if amount != 0.0:
            if self.fixed:
                self.pending.append(int(amount * FOLD_SCALE))
            else:
                self.emit(f"_cyc += {amount!r}")

    def exit_writebacks(self, succ: str, kill: int = 0) -> None:
        """Mark an exit to root ``succ``; :meth:`render` writes back
        the dirty registers live into it, less the ``kill`` bitset."""
        self.exits.append(
            (len(self.body), 1 + self.indent, succ, kill, self.dirty)
        )

    def render(self, live: Dict[str, int]) -> str:
        lines = [f"def {self.name}(vm, frame, regs, st):"]
        body = self.body
        start = 0
        for at, depth, succ, kill, dirty in self.exits:
            lines.extend(body[start:at])
            pad = "    " * depth
            for reg in _bits(dirty & live[succ] & ~kill):
                lines.append(f"{pad}regs[{reg}] = r{reg}")
            start = at
        lines.extend(body[start:])
        return "\n".join(lines) + "\n"


def _live_in(regions: List[_Region]) -> Dict[str, int]:
    """Registers live into each region, as bitsets by root name.

    A region's uses are the registers it loads (each is read before
    written on some path), and each exit passes on what is live into
    its successor root, less its kill set and the registers written on
    the path to it.  The backward fixed point only grows each set, so
    it terminates.
    """
    live = {region.name: region.uses for region in regions}
    order = regions[::-1]
    changed = True
    while changed:
        changed = False
        for region in order:
            new = region.uses
            for _, _, succ, kill, dirty in region.exits:
                new |= live[succ] & ~(kill | dirty)
            if new != live[region.name]:
                live[region.name] = new
                changed = True
    return live


class _MethodCodegen:
    def __init__(self, cm: CompiledMethod) -> None:
        blocks = list(cm.blocks.values())
        self.block_index = {block.label: bi for bi, block in enumerate(blocks)}
        self.roots = region_roots(cm)
        self._root_blocks = {block.label for _, block, ip in self.roots if not ip}
        # Edge-origin globals are named by *block order* (the traversal
        # of :func:`_edge_origins`, which `_namespace` re-runs to bind
        # them), never by emission order — regions emit their blocks
        # root by root, but ``_og{j}`` must keep meaning the j-th
        # counted branch of the method.
        self._origin_names: Dict[str, str] = {}
        for block in blocks:
            term = block.term
            if term[0] == T_BR and term[10]:
                self._origin_names[block.label] = f"_og{len(self._origin_names)}"
        # Fixed-point accounting verdict (DESIGN.md §15): decided at
        # lowering time and carried on the method, so the source always
        # has the shape the method was certified for.
        self._fixed = bool(cm.fold_q)

    # -- top level ----------------------------------------------------------

    def generate(self) -> str:
        regions = [self._gen_region(bi, block, ip) for bi, block, ip in self.roots]
        live = _live_in(regions)
        functions = [region.render(live) for region in regions]
        header = (
            "# Generated by repro.vm.blockjit — one function per region: "
            "a root (block, entry-ip)\n"
            "# and the blocks inlined under it.  Injected globals: _pk, "
            "_cm, _Frame, _trap,\n"
            "# _fuel_out, _yield_slow, _CALL, _blk*, _og*.\n"
        )
        return header + "\n".join(functions)

    # -- regions ------------------------------------------------------------

    def _gen_region(self, bi: int, block: LoweredBlock, ip: int) -> _Region:
        region = _Region(f"_f{bi}_{ip}", self._fixed)
        region.emit("_cyc = st.cyc")
        if not self._gen_block(region, block, ip, "st.fuel"):
            self._gen_term(region, block)
        return region

    def _gen_block(
        self, seg: _Region, block: LoweredBlock, ip: int = 0, fuel: str = "_fuel"
    ) -> bool:
        """Emit ``block`` from ``ip`` up to its terminator or first call.

        The fuel prologue charges the block's fuel on entry, exactly
        like the interpreter's ``fuel -= n - ip + 1`` at each block
        (re)entry, taking it from ``fuel``: ``st.fuel`` at a root, the
        local ``_fuel`` in an inlined block.  The exhaustion
        exit observes the folded pending chain.  Returns True when a
        call ended the block (the call is an exit).
        """
        ops = block.ops
        n = len(ops)
        label = block.label
        seg.emit(f"_fuel = {fuel} - {n - ip + 1}")
        seg.emit("if _fuel < 0:")
        seg.emit(f"_fuel_out(vm, {seg.cyc_expr()}, _pk, {label!r}, {ip})", 2)
        for j in range(ip, n):
            op = ops[j]
            if op[0] == OP_CALL:
                self._gen_call(seg, self.block_index[label], block, j, op)
                return True
            self._gen_op(seg, label, j, op)
        return False

    def _gen_succ(self, seg: _Region, succ: LoweredBlock) -> None:
        """Continue into ``succ``: exit to its root, or inline its code."""
        if succ.label in self._root_blocks:
            self._gen_exit(seg, self._succ_name(succ))
        elif not self._gen_block(seg, succ):
            self._gen_term(seg, succ)

    def _gen_exit(
        self, seg: _Region, succ: str, value: Optional[str] = None, kill: int = 0
    ) -> None:
        """Leave the function for root ``succ``, returning ``value``
        (by default ``succ``'s function)."""
        seg.exit_writebacks(succ, kill)
        seg.emit("st.fuel = _fuel")
        seg.emit(f"st.cyc = {seg.cyc_expr()}")
        seg.pending = []
        seg.emit(f"return {value or succ}")

    # -- ops ----------------------------------------------------------------

    def _gen_op(self, seg: _Region, label: str, j: int, op: tuple) -> None:
        c = op[0]
        seg.cost(op[1])
        if c == OP_CONST:
            seg.emit(f"{seg.wr(op[2])} = {op[3]!r}")
        elif c == OP_MOVE:
            src = seg.rd(op[3])
            seg.emit(f"{seg.wr(op[2])} = {src}")
        elif c == OP_BINI:
            a = seg.rd(op[4])
            self._guards_imm(seg, op[2], op[5], label, j)
            seg.emit(f"{seg.wr(op[3])} = {_bin_expr(op[2], a, repr(op[5]))}")
        elif c == OP_BIN:
            a = seg.rd(op[4])
            b = seg.rd(op[5])
            self._guards_reg(seg, op[2], b, label, j)
            seg.emit(f"{seg.wr(op[3])} = {_bin_expr(op[2], a, b)}")
        elif c == OP_NEG:
            src = seg.rd(op[3])
            seg.emit(f"{seg.wr(op[2])} = -{src}")
        elif c == OP_NOT:
            src = seg.rd(op[3])
            seg.emit(f"{seg.wr(op[2])} = 0 if {src} else 1")
        elif c == OP_NEWARR:
            size = seg.rd(op[3])
            seg.emit(f"if {size} < 0 or {size} > {_MAX_ARRAY}:")
            seg.emit(
                f'_trap(vm, _cyc, _cm, f"bad array size {{{size}}}", '
                f"{label!r}, {j})",
                2,
            )
            seg.emit(f"{seg.wr(op[2])} = [0] * {size}")
        elif c == OP_ALOAD:
            arr = seg.rd(op[3])
            idx = seg.rd(op[4])
            seg.emit(f"if type({arr}) is not list:")
            seg.emit(
                f"_trap(vm, _cyc, _cm, 'aload from a non-array value', "
                f"{label!r}, {j})",
                2,
            )
            seg.emit(f"if {idx} < 0 or {idx} >= len({arr}):")
            seg.emit(
                f'_trap(vm, _cyc, _cm, f"array index {{{idx}}} out of range", '
                f"{label!r}, {j})",
                2,
            )
            seg.emit(f"{seg.wr(op[2])} = {arr}[{idx}]")
        elif c == OP_ASTORE:
            arr = seg.rd(op[2])
            idx = seg.rd(op[3])
            src = seg.rd(op[4])
            seg.emit(f"if type({arr}) is not list:")
            seg.emit(
                f"_trap(vm, _cyc, _cm, 'astore to a non-array value', "
                f"{label!r}, {j})",
                2,
            )
            seg.emit(f"if {idx} < 0 or {idx} >= len({arr}):")
            seg.emit(
                f'_trap(vm, _cyc, _cm, f"array index {{{idx}}} out of range", '
                f"{label!r}, {j})",
                2,
            )
            seg.emit(f"{arr}[{idx}] = {src}")
        elif c == OP_ALEN:
            arr = seg.rd(op[3])
            seg.emit(f"if type({arr}) is not list:")
            seg.emit(
                f"_trap(vm, _cyc, _cm, 'alen of a non-array value', "
                f"{label!r}, {j})",
                2,
            )
            seg.emit(f"{seg.wr(op[2])} = len({arr})")
        elif c == OP_EMIT:
            src = seg.rd(op[2])
            seg.emit(f"vm.output.append({src})")
        elif c == OP_PEPADD:
            seg.emit(f"st.path_reg += {op[2]!r}")
        elif c == OP_PEPINIT:
            seg.emit("st.path_reg = 0")
        elif c == OP_PATHCOUNT:
            seg.emit("vm.path_profile.record(_pk, st.path_reg)")
            seg.emit("vm.path_count_updates += 1")
        elif c == OP_YIELD:
            expr = seg.cyc_expr()
            seg.pending = []
            emit_yieldpoint(seg, expr, op[2])
        else:  # pragma: no cover - lowering emits only known codes
            raise VMError(f"blockjit cannot compile opcode {c}")

    def _guards_reg(
        self, seg: _Region, kind: int, b: str, label: str, j: int
    ) -> None:
        if kind == 3 or kind == 4:
            msg = "division by zero" if kind == 3 else "modulo by zero"
            seg.emit(f"if {b} == 0:")
            seg.emit(f"_trap(vm, _cyc, _cm, {msg!r}, {label!r}, {j})", 2)
        elif kind == 8 or kind == 9:
            seg.emit(f"if {b} < 0 or {b} > 63:")
            seg.emit(
                f'_trap(vm, _cyc, _cm, f"bad shift amount {{{b}}}", '
                f"{label!r}, {j})",
                2,
            )

    def _guards_imm(
        self, seg: _Region, kind: int, imm, label: str, j: int
    ) -> None:
        # Guards on a constant operand fold away entirely — or into an
        # unconditional trap with the exact interpreter message.
        if (kind == 3 or kind == 4) and imm == 0:
            msg = "division by zero" if kind == 3 else "modulo by zero"
            seg.emit(f"_trap(vm, _cyc, _cm, {msg!r}, {label!r}, {j})")
        elif (kind == 8 or kind == 9) and (imm < 0 or imm > 63):
            seg.emit(
                f"_trap(vm, _cyc, _cm, {f'bad shift amount {imm}'!r}, "
                f"{label!r}, {j})"
            )

    # -- calls and terminators ----------------------------------------------

    def _gen_call(
        self, seg: _Region, bi: int, block: LoweredBlock, j: int, op: tuple
    ) -> None:
        seg.cost(op[1])
        name = op[3]
        seg.emit(f"_c = vm.code.get({name!r})")
        seg.emit("if _c is None:")
        seg.emit(
            f"_trap(vm, _cyc, _cm, {f'call to unknown method {name!r}'!r}, "
            f"{block.label!r}, {j})",
            2,
        )
        seg.emit(f"frame.block = _blk{bi}")
        seg.emit(f"frame.ip = {j + 1}")
        seg.emit("frame.path_reg = st.path_reg")
        seg.emit("_nf = _Frame(_c)")
        if op[4]:
            seg.emit("_nr = _nf.regs")
            for pos, src in enumerate(op[4]):
                arg = seg.rd(src)
                seg.emit(f"_nr[{pos}] = {arg}")
        if op[2] is not None:
            seg.emit(f"_nf.ret_dst = {op[2]}")
        seg.emit("_stk = vm.guest_stack")
        seg.emit("_stk.append(_nf)")
        seg.emit("if len(_stk) > vm.max_stack_depth:")
        seg.emit(
            f"_trap(vm, _cyc, _cm, 'guest stack overflow', "
            f"{block.label!r}, {j})",
            2,
        )
        # The callee resumes this frame at the next root, after its
        # return has written the destination register.
        kill = 0 if op[2] is None else 1 << op[2]
        self._gen_exit(seg, f"_f{bi}_{j + 1}", "_CALL", kill)

    def _succ_name(self, succ: LoweredBlock) -> str:
        return f"_f{self.block_index[succ.label]}_0"

    def _gen_term(self, seg: _Region, block: LoweredBlock) -> None:
        term = block.term
        t = term[0]
        seg.cost(term[1])
        if t == T_RET:
            value = seg.rd(term[2]) if term[2] is not None else "0"
            # No register write-backs: the frame is dead.
            seg.emit("st.fuel = _fuel")
            seg.emit(f"st.cyc = {seg.cyc_expr()}")
            seg.pending = []
            seg.emit(f"st.ret_value = {value}")
            seg.emit("return None")
        elif t == T_JMP:
            self._gen_succ(seg, term[2])
        elif t == T_BR:
            a = seg.rd(term[3])
            b = seg.rd(term[4])
            mask = _mask(term[10])
            origin = self._origin_names.get(block.label)
            # Each arm extends the shared pre-branch chain with its own
            # penalty/edge constants, then exits or nests its successor.
            seg.emit(f"if {a} {_cmp_text(term[2])} {b}:")
            self._gen_arm(seg, True, term, origin if mask & 1 else None, term[5])
            seg.emit("else:")
            self._gen_arm(seg, False, term, origin if mask & 2 else None, term[6])
        else:  # pragma: no cover - lowering emits only known terminators
            raise VMError(f"blockjit cannot compile terminator {t}")

    def _gen_arm(
        self,
        seg: _Region,
        taken: bool,
        term: tuple,
        origin: Optional[str],
        succ: LoweredBlock,
    ) -> None:
        """One branch arm, nested: its mislayout penalty, its edge
        record, then its successor."""
        state = seg.fork()
        seg.indent += 1
        if taken != term[7]:
            seg.cost(term[8])
        if origin is not None:
            seg.emit(f"vm.edge_profile.record({origin}, {taken})")
            seg.cost(term[11])
        self._gen_succ(seg, succ)
        seg.indent -= 1
        seg.restore(state)


def generate_source(cm: CompiledMethod) -> str:
    """Generate the method's blockjit source (pure function of its blocks)."""
    return _MethodCodegen(cm).generate()


# -- compiling and binding --------------------------------------------------


def _namespace(cm: CompiledMethod) -> dict:
    ns: dict = {
        "_pk": cm.profile_key,
        "_cm": cm,
        "_Frame": Frame,
        "_trap": _trap,
        "_fuel_out": out_of_fuel,
        "_yield_slow": yieldpoint_slow,
        "_CALL": _CALL,
    }
    for bi, block in enumerate(cm.blocks.values()):
        ns[f"_blk{bi}"] = block
    for j, origin in enumerate(_edge_origins(cm)):
        ns[f"_og{j}"] = origin
    return ns


def _stub_code() -> CodeType:
    fill = stub = None

    def _stub(vm, frame, regs, st):
        current = stub.__globals__[stub.__name__]
        if current is stub:
            current = fill(stub)
        return current(vm, frame, regs, st)

    return _stub.__code__


#: The code object every placeholder shares, so making one never calls
#: ``compile()``.
_STUB_CODE = _stub_code()


def placeholder(ns: dict, name: str, fill) -> FunctionType:
    """A region-signature function for ``ns[name]`` that compiles late.

    Each call looks ``name`` up in ``ns``.  While the name is still
    bound to this placeholder, ``fill(placeholder)`` compiles and binds
    the real function and returns it; otherwise the current binding (the
    function an earlier fill bound) runs and nothing compiles.
    ``__globals__`` is ``ns``, so callers that find a method's namespace
    through its entry table keep working.
    """
    cells = {"fill": CellType(fill), "stub": CellType()}
    stub = FunctionType(
        _STUB_CODE, ns, name, None,
        tuple(cells[var] for var in _STUB_CODE.co_freevars),
    )
    cells["stub"].cell_contents = stub
    return stub


def _segment_text(source: str, name: str) -> str:
    """The text of root ``name``'s function in a blockjit method source.

    Region bodies are indented, so each column-0 ``def`` starts one.
    """
    start = source.index(f"\ndef {name}(") + 1
    end = source.find("\ndef ", start)
    return source[start:] if end < 0 else source[start:end]


class _SegmentFill:
    """Compiles one method namespace's regions at their first calls."""

    __slots__ = ("source", "entries", "keys")

    def __init__(self, source: str, entries: dict) -> None:
        self.source = source
        self.entries = entries
        self.keys: Dict[str, Tuple[str, int]] = {}  # name -> entry key

    def __call__(self, stub: FunctionType) -> FunctionType:
        name = stub.__name__
        codes = _SEGMENT_CODE.get(self.source)
        if codes is None:
            if len(_SEGMENT_CODE) >= _CODE_OBJECTS_BOUND:
                _SEGMENT_CODE.clear()
            codes = _SEGMENT_CODE[self.source] = {}
        code = codes.get(name)
        if code is None:
            text = _segment_text(self.source, name)
            module = compile(text, "<blockjit>", "exec")
            code = next(c for c in module.co_consts if isinstance(c, CodeType))
            codes[name] = code
        fn = FunctionType(code, stub.__globals__, name)
        stub.__globals__[name] = fn
        self.entries[self.keys[name]] = fn
        return fn


def ensure_jit(cm: CompiledMethod) -> dict:
    """Return the method's entry table, generating source on demand.

    The table maps each region root ``(label, ip)`` to its function.
    The whole source is generated here, because ``_SEGMENT_CODE`` keys
    compiled regions on it; each region compiles at its first call.
    Regions whose code the memo already holds are bound as real
    functions at once; the rest get placeholders.
    """
    entries = cm.jit_entries
    if entries is not None:
        return entries
    cg = _MethodCodegen(cm)
    source = cm.jit_source = cg.generate()
    ns = _namespace(cm)
    # What exec() would add; functions built over ``ns`` resolve their
    # builtins through it.
    ns["__builtins__"] = builtins
    entries = {}
    codes = _SEGMENT_CODE.get(source, {})
    fill = None
    for bi, block, ip in cg.roots:
        name = f"_f{bi}_{ip}"
        code = codes.get(name)
        if code is not None:
            fn = FunctionType(code, ns, name)
        else:
            if fill is None:
                fill = _SegmentFill(source, entries)
            fill.keys[name] = (block.label, ip)
            fn = placeholder(ns, name, fill)
        ns[name] = fn
        entries[(block.label, ip)] = fn
    cm.jit_entries = entries
    return entries


# -- the driver -------------------------------------------------------------


class JitState:
    """Mutable scalars threaded through region calls.

    Hot per-op traffic stays in region-function locals; this object is
    only touched at region boundaries (and at yieldpoints for
    ``path_reg``).
    """

    __slots__ = ("cyc", "fuel", "path_reg", "ret_value", "gate")

    def __init__(self, fuel: int) -> None:
        self.cyc = 0.0
        self.fuel = fuel
        self.path_reg = 0
        self.ret_value = 0
        # Countdown-yieldpoint trigger threshold (see
        # :func:`emit_yieldpoint` and :func:`yieldpoint_slow`).
        self.gate = _NEG_INF


def execute_blockjit(vm, fuel: int) -> int:
    """Block-dispatch twin of :func:`repro.vm.interpreter.execute`.

    Methods are jitted lazily at first entry — the adaptive system swaps
    recompiled methods into ``vm.code`` mid-run, and callee lookup stays
    dynamic, so a method may first be reached long after the run starts.
    Regions compile later still, at their own first calls.
    """
    code = vm.code
    main_cm = code.get(vm.main)
    if main_cm is None:
        raise VMError(f"no compiled method for main {vm.main!r}")

    frame = Frame(main_cm)
    stack = [frame]
    # Expose the live stack so the yieldpoint handler can walk it (the
    # dynamic call graph sampling of paper section 4.1).
    vm.guest_stack = stack
    regs = frame.regs
    st = JitState(fuel)
    st.gate = _NEG_INF if vm.flag else vm.next_tick
    entries = main_cm.jit_entries
    if entries is None:
        entries = ensure_jit(main_cm)
    fn = entries[(main_cm.entry.label, 0)]
    call = _CALL

    while True:
        nxt = fn(vm, frame, regs, st)
        if nxt is not None:
            if nxt is call:
                # A callee frame was pushed by the region; fresh
                # frames start at (entry, 0) with path_reg 0.
                frame = stack[-1]
                regs = frame.regs
                st.path_reg = frame.path_reg
                cm = frame.cm
                entries = cm.jit_entries
                if entries is None:
                    entries = ensure_jit(cm)
                fn = entries[(frame.block.label, frame.ip)]
            else:
                fn = nxt
            continue
        # Guest return.
        value = st.ret_value
        stack.pop()
        if not stack:
            vm.cycles += st.cyc
            return value
        dst = frame.ret_dst
        frame = stack[-1]
        regs = frame.regs
        st.path_reg = frame.path_reg
        if dst is not None:
            regs[dst] = value
        cm = frame.cm
        entries = cm.jit_entries
        if entries is None:  # pragma: no cover - jitted before it called
            entries = ensure_jit(cm)
        fn = entries[(frame.block.label, frame.ip)]
