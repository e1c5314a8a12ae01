"""Template-compiled block bodies: exec-specialized block execution.

The tuple interpreter in :mod:`repro.vm.interpreter` pays a dispatch
ladder (tuple index + if/elif chain) per guest op.  This module removes
it by *generating Python source* for every :class:`LoweredBlock`:
operands are constant-folded into the text, registers become function
locals, trap guards are inlined with their exact messages and locations,
and PEP path-register adds / yieldpoint checks are baked in at their
exact positions.  Each function is ``compile()``-d once it has been
entered often enough to pay for it, and the method's source is
generated once, for the first of them; the run loop becomes
region-level dispatch: call the region closure, follow the returned
successor closure.

Only the hot path is inlined.  The cold exits live out of line: a
region entered with less fuel than its *headroom* runs that entry on
the tuple interpreter's block loop (:class:`_ColdRun`, bound as
``_cold`` in each method's namespace), and :func:`yieldpoint_slow`
runs the countdown yieldpoint's tick/sample/dispatch sequence.

Bit-identity contract
---------------------
Generated code must be *bit-identical* to the interpreter in every
observable: virtual cycles, path/edge profiles, emitted output, trap
messages and locations, fuel accounting (charged per block (re)entry,
exactly as the interpreter does), and fault-injection behavior
(yieldpoints call the same ``vm.dispatch_yieldpoint``, so every
``repro.resilience`` site fires unchanged).  Straight-line cost chains
fold to one scaled-integer constant per flush point (DESIGN.md §15),
which is exact because the method's fixed-point certification
(``cm.fold_q``) puts every charge on the 2**-20 grid, where float
addition never rounds.  A method whose cost model put a charge off the
grid (``cm.fold_q == 0``) gets no generated source: every region of it
runs on the tuple interpreter's block loop, which charges op by op and
is exact for any model.  ``tests/test_blockjit.py`` proves the
contract across all bundled workloads.

Regions
-------
Each generated function is a *region*: a root entry followed inline by
every block whose only CFG predecessor's terminator lies in that
function.  A jump to such a block falls through into its code; each
branch arm nests its successor under the arm's ``if``/``else``.  A
*join* (a block with two or more predecessors) whose every incoming
edge lies in tail position in one branch's arms follows that branch's
``if`` statement at the branch's indentation, and the arms fall into
it.  The roots (:func:`region_plan`) are the entry block, every block
with no predecessor, every join no branch absorbs (loop headers among
them), every call-resume point ``(block, ip > 0)``, and every block
that would nest more than :data:`MAX_REGION_DEPTH` arms deep (CPython's
tokenizer caps indentation at 100 levels).  Each block's code appears
exactly once per method source.  A region whose code jumps back to its
own root runs as a ``while True:`` loop and takes its back edges with
``continue``.  Roots are named ``_f{bi}_{ip}``; a region exits by
returning a root's closure (jump/branch), the ``_CALL`` sentinel (guest
call pushed; the driver switches frames), or ``None`` (guest return;
value in ``JitState.ret_value``).

Fuel is checked once per region, against its headroom: the most fuel
any path from the check can charge before the region's next exit,
call, return or back edge, counting ``n - ip + 1`` at the root (as the
interpreter charges each block (re)entry, resumption after a callee
returns included) and ``n + 1`` at each inlined block or join.  A
region checks on entry, a loop region at the top of each iteration.
With ``_fuel`` below the headroom the entry runs on the block loop,
which raises ``FuelExhaustedError`` exactly where the interpreter does;
a loop region's failed check first leaves the loop like an exit to its
own root.  At or above it no block of the entry can exhaust the fuel,
so the region carries each path's charges unsubtracted, like its cost
chain, and subtracts them once at each exit, return, back edge and arm
that falls into a join.  Fuel and cycles stay in the locals ``_fuel``
and ``_cyc`` across the region and reach ``st`` at its exits; an arm
that falls into a join or takes a back edge adds its pending cost
chain to ``_cyc`` first, the same float add an exit and re-entry would
make.

Registers live in locals, bound per path: a register is loaded at its
first read on each path, even if a sibling arm wrote it.  Past a join,
a register written on one arm but unbound on another is loaded before
the branch where a later read or writeback needs it.  A loop region
loads the registers it reads before its ``while``.  Registers reach
``frame.regs`` only at exits, and only when a later region can read
them: a backward liveness pass over the method's regions
(:func:`_live_in`) keeps, at each exit, the registers written on some
path to it (or on an earlier loop iteration) that are live into its
successor root (for a call, its resume root, less the register the
return writes).  Returns and traps write nothing back; the frame is
dead.

Tiered regions
--------------
:func:`ensure_jit` plans the method's regions and binds every root name
to a *placeholder* (:func:`placeholder`): a function over one shared
template code object.  It generates no source.  For its first
:data:`COLD_ENTRIES` calls a placeholder runs the region on the tuple
interpreter's op loop (:func:`repro.vm.interpreter.run_blocks`), from
the root up to the next call, return or jump to a root, and returns
what the compiled region would.  Its next call compiles the real
region, binds it in the namespace and the entry table, and runs it.
The method's source is generated at the first promotion the code memo
cannot serve, once, as one text per root.  A region entered at most
:data:`COLD_ENTRIES` times is never compiled, a method none of whose
regions gets that far generates nothing, and neither happens to an
uncertified method; a loop region, whose root is re-entered on every
cold iteration, compiles after that many iterations.  The op loop
yields through ``vm.dispatch_yieldpoint``, which does not maintain the
countdown gate, so each cold run re-derives ``st.gate`` for the
compiled regions after it.  A placeholder called after its name was
bound (through a reference taken before that) forwards to the current
binding and compiles nothing.

Sharing compiled code
---------------------
Compiled region code objects are memoised process-wide under the
method's fingerprint (:func:`_fingerprint`): an exact encoding of
everything the generator reads.  Equal fingerprints give equal source,
so a method whose regions the process has already compiled, such as
the same method in another image, binds them at once, without
generating any text.

Kill switch: ``REPRO_BLOCKJIT=0`` falls back to the tuple interpreter.
"""

from __future__ import annotations

import builtins
import marshal
import os
from types import CellType, CodeType, FunctionType
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.errors import VMError
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
    _CALL,
    _MAX_ARRAY,
    CompiledMethod,
    Frame,
    JitState,
    LoweredBlock,
    _trap,
    run_blocks,
)

ENV_DISABLE = "REPRO_BLOCKJIT"

#: Deepest a region nests a block under branch arms; the next block
#: down starts a new root.  CPython's tokenizer rejects more than 100
#: indentation levels, and a block's code may sit this many arms deep
#: plus a ``def``, a loop region's ``while`` and a guard body.  The
#: value is part of the generated code's shape (it decides the roots),
#: so it stays fixed.
MAX_REGION_DEPTH = 32

#: Entries a region runs on the tuple interpreter's block loop
#: (:func:`repro.vm.interpreter.run_blocks`) before it is compiled: its
#: placeholder compiles it at entry ``COLD_ENTRIES + 1``.  Most regions
#: of a short program never get that far (DESIGN.md §9); 0 compiles each
#: region at its first entry.
COLD_ENTRIES = 16

#: Countdown-yieldpoint gate value while the flag is up: every armed
#: yieldpoint must reach the dispatcher until the burst drains; while
#: the flag is down the gate is exactly ``next_tick``.
_NEG_INF = float("-inf")

# Process-wide memo of compiled code: ``_SEGMENT_CODE`` maps a method's
# fingerprint (:func:`_fingerprint`) to the code objects of the regions
# compiled so far.  It is bounded crudely at ``_CODE_OBJECTS_BOUND``
# methods — an occasional flush only costs a recompile.
_SEGMENT_CODE: Dict[bytes, Dict[str, CodeType]] = {}
_CODE_OBJECTS_BOUND = 4096


def blockjit_enabled() -> bool:
    """True unless ``REPRO_BLOCKJIT`` disables the block engine."""
    flag = os.environ.get(ENV_DISABLE, "1").strip().lower()
    return flag not in ("0", "off", "no", "false")


# -- cold exits, out of line -------------------------------------------------


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


def _edge_origins(cm: CompiledMethod) -> List[object]:
    """Edge-instrumentation origin objects, in deterministic block order.

    Codegen names them positionally (``_og0``, ``_og1``, ...) by this
    same traversal, so code compiled for another method with the same
    fingerprint still binds this method's objects.
    """
    origins: List[object] = []
    for block in cm.blocks.values():
        term = block.term
        if term[0] == T_BR and term[10]:
            origins.append(term[9])
    return origins


def _fingerprint(cm: CompiledMethod) -> bytes:
    """The code memo's key: an exact encoding of what codegen reads.

    That is the entry label and, in block order, each block's label,
    ops and terminator, with successors written as labels.  The
    edge-origin object is left out: the source names it by position
    (``_og{j}``, see :func:`_edge_origins`).  ``marshal`` writes each
    value's type with it, so keys tell apart operands that ``==``
    equates (``1``, ``1.0`` and ``True``; ``0.0`` and ``-0.0``), and
    version 2 writes no back-references, so the bytes do not depend on
    which objects are shared.  Equal fingerprints give equal source.
    """
    key: list = [cm.entry.label]
    for block in cm.blocks.values():
        term = block.term
        if term[0] == T_JMP:
            term = (T_JMP, term[1], term[2].label)
        elif term[0] == T_BR:
            term = (
                term[:5] + (term[5].label, term[6].label) + term[7:9] + term[10:]
            )
        key += (block.label, block.ops, term)
    return marshal.dumps(key, 2)


def _bits(mask: int):
    """The register numbers in bitset ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RegionPlan(NamedTuple):
    """How :class:`_MethodCodegen` groups a method's blocks into functions.

    ``roots`` start functions, as ``(block index, block, entry ip)`` in
    block order.  ``joins`` maps a branch block's label to the join
    emitted after its ``if``/``else``.  ``loops`` holds the labels of the
    roots whose region jumps back to its own start, so that it runs as a
    ``while True:`` loop.
    """

    roots: List[Tuple[int, LoweredBlock, int]]
    joins: Dict[str, LoweredBlock]
    loops: Set[str]


def region_plan(cm: CompiledMethod) -> RegionPlan:
    """Plan the method's regions in one walk over each region's code.

    The roots are the method's entry block, every block with no
    predecessor, every call-resume point ``(block, ip > 0)``, every
    block its predecessor's region would nest more than
    :data:`MAX_REGION_DEPTH` branch arms deep, and every join that no
    branch absorbs.  A block with one predecessor is inlined under that
    predecessor's terminator.

    A *join* (a block with two or more predecessors; a branch whose two
    arms share a target counts twice) is absorbed by the innermost
    branch whose arms hold every edge into it in tail position, where
    falling off the end of the arm reaches the code after the branch's
    ``if``.  An edge under a nested branch that absorbs a join of its
    own is not in tail position, nor is one in another region: past a
    call, past a depth cut, or past a root.  A branch absorbs at most
    one join (the first in block order); the others stay roots.  Loop
    headers never qualify: their back edges lie in their own region,
    which the walk only reaches once the header is a root.  Each open
    edge counts once and only at the branch that absorbs its target, so
    a join that fails anywhere is never placed, and it becomes a root
    when the walk finds it unplaced; a block no root's code reaches
    (an unreachable cycle) becomes a root the same way.  So every
    block's code appears exactly once, on any CFG lowering accepts.
    :func:`ensure_jit` calls this once per method and hands the plan to
    codegen, so both agree on every function name.  It reads only what
    :func:`_fingerprint` encodes.
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
    heads = {label for label, n in preds.items() if not n}
    heads.add(cm.entry.label)
    placed = set()
    joins: Dict[str, LoweredBlock] = {}
    loops = set()
    # Region starts still to walk: (block, root label).  A resume
    # region's root label is None: its code begins at the block's
    # terminator, and a jump to the block is not a jump to its start.
    todo = [(block, block.label) for block in blocks if block.label in heads]

    def walk(block: LoweredBlock, depth: int, root) -> List[str]:
        """Walk the code that starts with ``block`` ``depth`` arms deep;
        returns the targets of the open edges at its tail."""
        while True:
            if block.label not in placed:
                placed.add(block.label)
                if block.label in resumes:
                    todo.append((block, None))
                    return []
            # else: a resume region, whose code is the terminator only
            term = block.term
            if term[0] == T_JMP:
                succ = term[2].label
                if succ in heads:
                    if succ == root:
                        loops.add(succ)
                    return []
                if preds[succ] > 1:
                    return [succ]
                block = term[2]
                continue
            if term[0] != T_BR:
                return []
            opens: List[str] = []
            for succ in (term[5], term[6]):
                target = succ.label
                if target in heads:
                    if target == root:
                        loops.add(target)
                elif preds[target] > 1:
                    opens.append(target)
                elif depth >= MAX_REGION_DEPTH:
                    heads.add(target)
                    todo.append((succ, target))
                else:
                    opens.extend(walk(succ, depth + 1, root))
            counts: Dict[str, int] = {}
            for target in opens:
                counts[target] = counts.get(target, 0) + 1
            done = [t for t, n in counts.items() if n == preds[t]]
            if not done:
                return opens
            if len(done) > 1:
                done.sort(key=list(cm.blocks).index)
            joins[block.label] = block = cm.blocks[done[0]]
            # Every other open edge would fall into the join's code: its
            # target can never be absorbed, so the walk roots it later.

    scan = 0
    while True:
        while todo:
            block, root = todo.pop()
            walk(block, 0, root)
        while scan < len(blocks) and blocks[scan].label in placed:
            scan += 1
        if scan == len(blocks):
            break
        heads.add(blocks[scan].label)
        todo.append((blocks[scan], blocks[scan].label))
    roots = []
    for bi, block in enumerate(blocks):
        if block.label in heads:
            roots.append((bi, block, 0))
        for ip in resumes.get(block.label, ()):
            roots.append((bi, block, ip))
    return RegionPlan(roots, joins, loops)


class _Preload:
    """Loads emitted before a branch's ``if``, chosen after its join.

    A register written on one arm that falls into the join but unbound
    on another has a local on only some paths past the join.  Where a
    later read or a live writeback needs it, it is loaded here, where
    it was still clean on every path.
    """

    __slots__ = ("pad", "bits")

    def __init__(self, pad: str) -> None:
        self.pad = pad
        self.bits = 0

    def lines(self) -> List[str]:
        return [f"{self.pad}r{reg} = regs[{reg}]" for reg in _bits(self.bits)]


class _Region:
    """One region function's body, accumulated along its paths and
    rendered once liveness is known.

    Register binding is per path, in int bitsets: ``bound`` holds the
    registers with a live local on the path being emitted (a register
    is loaded at its first read on each path), ``dirty`` those written
    on every path to here and ``wb`` those written on some path to here.
    The two differ only past a join, where ``dirty`` feeds liveness and
    ``wb`` the writebacks.  ``split`` holds the registers of ``wb`` that
    are not bound on every path to here; ``slot_of`` names the
    :class:`_Preload` that binds each.  :meth:`fork` and :meth:`restore`
    save and reinstate the state, with the pending cost chain and fuel,
    around each branch arm, and :meth:`merge` combines the arms that
    fall into a join.  ``uses`` accumulates the registers loaded on any
    path.  ``indent`` counts the branch arms the current path is nested
    under, plus the ``while`` of a loop region.

    A loop region (``loop``) loads the registers it reads before its
    ``while True:``, not at their first reads, since a local written on
    one iteration is read on the next; ``carried`` holds the registers
    written on some path to its back edge.

    Per-op cost constants collect in ``pending``, scaled by
    ``FOLD_SCALE`` to exact integers (DESIGN.md §15), and every point
    that observes the accumulator reads :meth:`cyc_expr`: one folded
    constant per chain.  Certification (``CompiledMethod.fold_q``)
    guarantees the fold is bit-identical.  Fuel is carried the same
    way: ``fuel`` is what the path has charged since ``_fuel`` last
    took a subtraction, ``reach`` what it has charged since the
    region's check, and ``headroom`` the largest ``reach`` at any
    exit, return or back edge, which :meth:`render` writes into the
    check.

    Exits record where their writebacks go instead of emitting them;
    :meth:`render` fills each with the written registers live into that
    exit's successor, and binds those a path left unbound.  ``open``
    holds the slots whose ``if`` is being emitted, innermost last, and
    ``loads`` each load emitted under one, with those slots: a load that
    one of them also makes is redundant, and :meth:`render` drops it.
    """

    def __init__(self, name: str, root: Optional[str], loop: bool, start: str):
        self.name = name
        self.root = root  # the root block's label, None for a resume root
        self.loop = loop
        self.start = start  # the root as ``_cold`` arguments
        self.body: List[str] = []
        # (body index, preload slot or exit mark), in body order
        self.marks: list = []
        self.bound = 0
        self.dirty = 0
        self.wb = 0
        self.split = 0
        self.slot_of: Dict[int, _Preload] = {}
        self.open: List[_Preload] = []
        # (body index, register bit, enclosing open slots) per load
        self.loads: List[Tuple[int, int, Tuple[_Preload, ...]]] = []
        self.uses = 0
        self.carried = 0
        self.indent = 1 if loop else 0
        self.pending: List[int] = []
        self.fuel = 0
        self.reach = 0
        self.headroom = 0
        # (successor root, kill bitset, dirty bitset) per exit
        self.exits: List[Tuple[str, int, int]] = []
        # join label -> (bound, dirty, wb, reach) at each edge into it
        self.falls: Dict[str, List[Tuple[int, int, int, int]]] = {}

    def rd(self, reg: int) -> str:
        bit = 1 << reg
        if not self.bound & bit:
            self.bound |= bit
            self.uses |= bit
            if self.loop:
                pass  # a loop region loads it before its ``while``
            elif self.split & bit:  # written on another path: preload it
                self.slot_of[reg].bits |= bit
            else:
                if self.open:
                    self.loads.append((len(self.body), bit, tuple(self.open)))
                self.body.append("    " * (1 + self.indent) + f"r{reg} = regs[{reg}]")
            self.split &= ~bit
        return f"r{reg}"

    def wr(self, reg: int) -> str:
        bit = 1 << reg
        self.bound |= bit
        self.dirty |= bit
        self.wb |= bit
        self.split &= ~bit
        return f"r{reg}"

    def fork(self) -> tuple:
        """The per-path state at a branch, for :meth:`restore`."""
        return (self.bound, self.dirty, self.wb, self.split, list(self.pending),
                self.fuel, self.reach)

    def restore(self, state: tuple) -> None:
        (self.bound, self.dirty, self.wb, self.split, pending,
         self.fuel, self.reach) = state
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
            self.pending.append(int(amount * FOLD_SCALE))

    def charge(self, fuel: int) -> None:
        """Charge a block's fuel to the path; nothing is emitted."""
        self.fuel += fuel
        self.reach += fuel

    def flush(self) -> None:
        """Add the pending chain to ``_cyc`` and take the pending fuel
        from ``_fuel``: the float add that an exit to a root and that
        root's ``_cyc = st.cyc`` would make, and the subtraction its
        ``st.fuel`` store would."""
        if self.pending:
            self.emit(f"_cyc += {sum(self.pending) / FOLD_SCALE!r}")
            self.pending = []
        self.emit(f"_fuel -= {self.fuel}")
        self.fuel = 0

    def leave(self) -> None:
        """Store the path's fuel and cycles to ``st`` as it leaves the
        function."""
        self.emit(f"st.fuel = _fuel - {self.fuel}")
        self.emit(f"st.cyc = {self.cyc_expr()}")
        self.pending = []
        self.fuel = 0
        self.headroom = max(self.headroom, self.reach)

    def fall(self, join: str) -> None:
        """End this path at an edge into ``join``, whose code follows
        the enclosing ``if`` statement."""
        self.flush()
        self.falls.setdefault(join, []).append(
            (self.bound, self.dirty, self.wb, self.reach)
        )

    def merge(self, join: str, slot: _Preload) -> None:
        """Take the state past the ``if`` whose arms fall into ``join``;
        ``slot`` precedes that ``if``."""
        bound = dirty = -1
        wb = reach = 0
        for b, d, w, r in self.falls.pop(join):
            bound &= b
            dirty &= d
            wb |= w
            reach = max(reach, r)
        split = wb & ~bound
        self.open.pop()
        for reg in _bits(split & ~self.wb):  # clean before the ``if``
            self.slot_of[reg] = slot
        self.bound = bound
        self.dirty = dirty
        self.wb = wb
        self.split = split
        self.pending = []  # each arm flushed its chain and its fuel
        self.fuel = 0
        self.reach = reach

    def back_edge(self) -> None:
        """Jump back to the loop region's own root."""
        self.flush()
        self.headroom = max(self.headroom, self.reach)
        self.carried |= self.wb
        self.emit("continue")

    def slot(self) -> _Preload:
        """A preload slot at this point of the body, open until
        :meth:`merge` takes it."""
        slot = _Preload("    " * (1 + self.indent))
        self.marks.append((len(self.body), slot))
        self.open.append(slot)
        return slot

    def exit_writebacks(self, succ: str, kill: int = 0) -> None:
        """Mark an exit to root ``succ``; :meth:`render` writes back
        the written registers live into it, less the ``kill`` bitset."""
        self.exits.append((succ, kill, self.dirty))
        split = self.split
        splits = [(reg, self.slot_of[reg]) for reg in _bits(split)] if split else ()
        mark = (1 + self.indent, succ, kill, self.wb, self.bound, splits)
        self.marks.append((len(self.body), mark))

    def render(self, live: Dict[str, int]) -> str:
        carried = self.carried
        hoist = self.uses
        stores = []
        for _, mark in self.marks:
            if type(mark) is tuple:
                _, succ, kill, wb, bound, splits = mark
                out = (wb | carried) & live[succ] & ~kill
                stores.append(out)
                if self.loop:
                    hoist |= out & ~bound
                else:
                    for reg, slot in splits:
                        slot.bits |= out & (1 << reg)
        lines = [
            f"def {self.name}(vm, frame, regs, st):",
            "    _cyc = st.cyc",
            "    _fuel = st.fuel",
        ]
        # The check: below the headroom, run this entry on the block
        # loop, which raises where the interpreter does.
        guard = [f"if _fuel < {self.headroom}:"]
        if self.loop:
            # Leave the loop like an exit to its own root.
            out = carried & live[self.name]
            hoist |= out
            guard.extend(f"    regs[{reg}] = r{reg}" for reg in _bits(out))
            guard += ["    st.fuel = _fuel", "    st.cyc = _cyc"]
            lines.extend(f"    r{reg} = regs[{reg}]" for reg in _bits(hoist))
            lines.append("    while True:")
        guard.append(f"    return _cold(vm, frame, st, {self.start})")
        pad = "    " * (1 + self.loop)
        lines.extend(pad + line for line in guard)
        body = self.body
        if self.loads:
            # Nothing writes the register or ``regs`` between a slot and
            # a load under it that reads the same register: the load
            # runs only where the path has not bound it.
            body = list(body)
            for at, bit, slots in self.loads:
                if any(slot.bits & bit for slot in slots):
                    body[at] = None
        start = 0
        outs = iter(stores)
        for at, mark in self.marks:
            lines.extend(body[start:at])
            start = at
            if type(mark) is tuple:
                pad = "    " * mark[0]
                for reg in _bits(next(outs)):
                    lines.append(f"{pad}regs[{reg}] = r{reg}")
            else:
                lines.extend(mark.lines())
        lines.extend(body[start:])
        return "\n".join(line for line in lines if line is not None) + "\n"


def _live_in(regions: List[_Region]) -> Dict[str, int]:
    """Registers live into each region, as bitsets by root name.

    A region's uses are the registers it loads (each is read before
    written on some path), and each exit passes on what is live into
    its successor root, less its kill set and the registers written on
    every path to it.  The backward fixed point only grows each set, so
    it terminates.
    """
    live = {region.name: region.uses for region in regions}
    order = regions[::-1]
    changed = True
    while changed:
        changed = False
        for region in order:
            new = region.uses
            for succ, kill, dirty in region.exits:
                new |= live[succ] & ~(kill | dirty)
            if new != live[region.name]:
                live[region.name] = new
                changed = True
    return live


class _MethodCodegen:
    def __init__(self, cm: CompiledMethod, plan: RegionPlan) -> None:
        blocks = list(cm.blocks.values())
        self.block_index = {block.label: bi for bi, block in enumerate(blocks)}
        self.roots = plan.roots
        self._root_blocks = {block.label for _, block, ip in self.roots if not ip}
        self._joins = plan.joins
        self._joined = {join.label for join in plan.joins.values()}
        self._loops = plan.loops
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

    # -- top level ----------------------------------------------------------

    def generate(self) -> Dict[str, str]:
        """Each region function's text, by root name in root order."""
        regions = [self._gen_region(bi, block, ip) for bi, block, ip in self.roots]
        live = _live_in(regions)
        return {region.name: region.render(live) for region in regions}

    # -- regions ------------------------------------------------------------

    def _gen_region(self, bi: int, block: LoweredBlock, ip: int) -> _Region:
        loop = not ip and block.label in self._loops
        root = None if ip else block.label
        region = _Region(f"_f{bi}_{ip}", root, loop, f"_blk{bi}, {ip}")
        if not self._gen_block(region, block, ip):
            self._gen_term(region, block)
        return region

    def _gen_block(self, seg: _Region, block: LoweredBlock, ip: int = 0) -> bool:
        """Emit ``block`` from ``ip`` up to its terminator or first call.

        The block's fuel, ``n - ip + 1`` as the interpreter charges at
        each block (re)entry, goes to the path; the region's check
        covers it and an exit subtracts it.  A comment names the block
        and ``ip``.  Returns True when a call ended the block (the call
        is an exit).
        """
        ops = block.ops
        n = len(ops)
        label = block.label
        seg.emit(f"# {label!r} from {ip}")
        seg.charge(n - ip + 1)
        for j in range(ip, n):
            op = ops[j]
            if op[0] == OP_CALL:
                self._gen_call(seg, self.block_index[label], block, j, op)
                return True
            self._gen_op(seg, label, j, op)
        return False

    def _gen_succ(self, seg: _Region, succ: LoweredBlock) -> None:
        """Continue into ``succ``: exit to its root, jump back to the
        loop's start, fall into a join, or inline its code."""
        label = succ.label
        if label in self._root_blocks:
            if seg.loop and label == seg.root:
                seg.back_edge()
            else:
                self._gen_exit(seg, self._succ_name(succ))
        elif label in self._joined:
            seg.fall(label)
        elif not self._gen_block(seg, succ):
            self._gen_term(seg, succ)

    def _gen_exit(
        self, seg: _Region, succ: str, value: Optional[str] = None, kill: int = 0
    ) -> None:
        """Leave the function for root ``succ``, returning ``value``
        (by default ``succ``'s function)."""
        seg.exit_writebacks(succ, kill)
        seg.leave()
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
            seg.leave()
            seg.emit(f"st.ret_value = {value}")
            seg.emit("return None")
        elif t == T_JMP:
            self._gen_succ(seg, term[2])
        elif t == T_BR:
            a = seg.rd(term[3])
            b = seg.rd(term[4])
            mask = term[10]
            origin = self._origin_names.get(block.label)
            join = self._joins.get(block.label)
            if join is not None:
                slot = seg.slot()
            # Each arm extends the shared pre-branch chain with its own
            # penalty/edge constants, then exits, nests its successor or
            # falls into the join that follows the ``if``.
            seg.emit(f"if {a} {_cmp_text(term[2])} {b}:")
            self._gen_arm(seg, True, term, origin if mask & 1 else None, term[5])
            seg.emit("else:")
            self._gen_arm(seg, False, term, origin if mask & 2 else None, term[6])
            if join is not None:
                seg.merge(join.label, slot)
                if not self._gen_block(seg, join):
                    self._gen_term(seg, join)
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
        # Never empty: every path charged fuel, which an exit, a back
        # edge or a fall into the join takes from ``_fuel``.
        self._gen_succ(seg, succ)
        seg.indent -= 1
        seg.restore(state)


def generate_source(cm: CompiledMethod) -> str:
    """The method's blockjit source (pure function of its blocks): every
    region function in root order, under a comment header.

    Blockjit itself compiles each region from its own text; this
    joined form is for reading.
    """
    texts = _MethodCodegen(cm, region_plan(cm)).generate()
    header = (
        "# Generated by repro.vm.blockjit — one function per region: "
        "a root (block, entry-ip)\n"
        "# and the blocks and joins inlined under it.  Injected "
        "globals: _pk, _cm, _Frame,\n"
        "# _trap, _cold, _yield_slow, _CALL, _blk*, _og*.\n"
    )
    return header + "\n".join(texts.values())


# -- compiling and binding --------------------------------------------------


def _namespace(cm: CompiledMethod) -> dict:
    ns: dict = {
        "_pk": cm.profile_key,
        "_cm": cm,
        "_Frame": Frame,
        "_trap": _trap,
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
            return fill(stub, vm, frame, regs, st)
        return current(vm, frame, regs, st)

    return _stub.__code__


#: The code object every placeholder shares, so making one never calls
#: ``compile()``.
_STUB_CODE = _stub_code()


def placeholder(ns: dict, name: str, fill) -> FunctionType:
    """A region-signature function for ``ns[name]`` that compiles late.

    Each call looks ``name`` up in ``ns``.  While the name is still
    bound to this placeholder, ``fill(placeholder, vm, frame, regs,
    st)`` runs the region (cold, or by compiling and binding the real
    function) and returns what the region returns; otherwise the
    current binding (the function an earlier fill bound) runs and
    nothing compiles.  ``__globals__`` is ``ns``, so callers that find a
    method's namespace through its entry table keep working.
    """
    cells = {"fill": CellType(fill), "stub": CellType()}
    stub = FunctionType(
        _STUB_CODE, ns, name, None,
        tuple(cells[var] for var in _STUB_CODE.co_freevars),
    )
    cells["stub"].cell_contents = stub
    return stub


class _ColdRun:
    """Runs one entry of a method's region on the tuple interpreter.

    Bound as ``_cold`` in the method's namespace.  ``run_blocks`` runs
    the frame from ``block`` at ``ip`` up to the next call, return or
    jump to a root (``stops``: the labels of the method's ip-0 roots),
    and the call returns what the compiled region would: the ``_CALL``
    sentinel, None, or the current entry of the root jumped to.  The
    placeholders run their cold entries here, and a compiled region
    its entries below the headroom, so that fuel runs out exactly
    where the interpreter's does.
    """

    __slots__ = ("stops", "entries")

    def __init__(self, stops: frozenset, entries: dict) -> None:
        self.stops = stops
        self.entries = entries

    def __call__(self, vm, frame, st, block: LoweredBlock, ip: int):
        nxt = run_blocks(vm, frame, st, block, ip, self.stops)
        # The loop yields through vm.dispatch_yieldpoint, which leaves
        # the countdown gate of compiled regions as it was.
        st.gate = _NEG_INF if vm.flag else vm.next_tick
        if nxt is None or nxt is _CALL:
            return nxt
        return self.entries[(nxt.label, 0)]


class _SegmentFill:
    """Runs one method namespace's regions cold, then compiles them.

    The first :data:`COLD_ENTRIES` calls of a region's placeholder run
    it through ``cold`` (:class:`_ColdRun`).  The next call compiles
    and binds the region, then runs it.  With no memo ``key`` (an
    uncertified method) every call runs cold.
    """

    __slots__ = ("cm", "plan", "key", "texts", "cold", "roots", "runs")

    def __init__(
        self, cm: CompiledMethod, plan: RegionPlan, key: Optional[bytes],
        cold: _ColdRun,
    ) -> None:
        self.cm = cm
        self.plan = plan
        self.key = key
        self.texts: Optional[Dict[str, str]] = None  # generated on demand
        self.cold = cold
        self.roots: Dict[str, Tuple[LoweredBlock, int]] = {
            f"_f{bi}_{ip}": (block, ip) for bi, block, ip in plan.roots
        }
        self.runs: Dict[str, int] = {}  # name -> cold entries so far

    def __call__(self, stub: FunctionType, vm, frame, regs, st):
        name = stub.__name__
        runs = self.runs.get(name, 0)
        if runs < COLD_ENTRIES or self.key is None:
            self.runs[name] = runs + 1
            block, ip = self.roots[name]
            return self.cold(vm, frame, st, block, ip)
        return self.promote(stub)(vm, frame, regs, st)

    def promote(self, stub: FunctionType) -> FunctionType:
        """Compile and bind the region ``stub`` stands for.

        The memo may have gained its code since :func:`ensure_jit` (a
        twin promoted it); otherwise the method's source is generated
        here, once, and the region compiled from its own text.
        """
        name = stub.__name__
        codes = _SEGMENT_CODE.get(self.key)
        if codes is None:
            if len(_SEGMENT_CODE) >= _CODE_OBJECTS_BOUND:
                _SEGMENT_CODE.clear()
            codes = _SEGMENT_CODE[self.key] = {}
        code = codes.get(name)
        if code is None:
            if self.texts is None:
                self.texts = _MethodCodegen(self.cm, self.plan).generate()
            module = compile(self.texts[name], "<blockjit>", "exec")
            code = next(c for c in module.co_consts if isinstance(c, CodeType))
            codes[name] = code
        fn = FunctionType(code, stub.__globals__, name)
        stub.__globals__[name] = fn
        block, ip = self.roots[name]
        self.cold.entries[(block.label, ip)] = fn
        return fn


def ensure_jit(cm: CompiledMethod) -> dict:
    """Return the method's entry table, building it on demand.

    The table maps each region root ``(label, ip)`` to its function.
    Roots whose code the memo holds under the method's fingerprint are
    bound as real functions at once; the rest get placeholders, which
    run cold and compile at call ``COLD_ENTRIES + 1``.  Nothing is
    generated here: the source waits for the first promotion the memo
    cannot serve.  An uncertified method (``cm.fold_q == 0``) gets no
    fingerprint, and its placeholders run every entry on the block
    loop: folded chains are exact only on the grid.
    """
    entries = cm.jit_entries
    if entries is not None:
        return entries
    plan = region_plan(cm)
    key = _fingerprint(cm) if cm.fold_q else None
    codes = _SEGMENT_CODE.get(key, {})
    ns = _namespace(cm)
    # What exec() would add; functions built over ``ns`` resolve their
    # builtins through it.
    ns["__builtins__"] = builtins
    entries = {}
    cold = ns["_cold"] = _ColdRun(
        frozenset(block.label for _, block, ip in plan.roots if not ip), entries
    )
    fill = None
    for bi, block, ip in plan.roots:
        name = f"_f{bi}_{ip}"
        code = codes.get(name)
        if code is not None:
            fn = FunctionType(code, ns, name)
        else:
            if fill is None:
                fill = _SegmentFill(cm, plan, key, cold)
            fn = placeholder(ns, name, fill)
        ns[name] = fn
        entries[(block.label, ip)] = fn
    cm.jit_entries = entries
    return entries


# -- the driver -------------------------------------------------------------


def execute_blockjit(vm, fuel: int) -> int:
    """Block-dispatch twin of :func:`repro.vm.interpreter.execute`.

    Methods are jitted lazily at first entry — the adaptive system swaps
    recompiled methods into ``vm.code`` mid-run, and callee lookup stays
    dynamic, so a method may first be reached long after the run starts.
    Regions compile later still, after their first ``COLD_ENTRIES``
    calls have run on the interpreter's block loop.
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
