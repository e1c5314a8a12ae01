"""Lowering guest methods to an executable form, plus the interpreter.

A :class:`CompiledMethod` is the runnable artefact both compilers produce:
basic blocks lowered to tuples with direct successor references (no label
lookups at run time) and per-op virtual-cycle costs baked in, including
the tier multiplier (baseline code runs ~3x slower than optimized code).
A compiler may hand it out unbuilt (:func:`deferred_method`): its body is
then lowered at the first read, which the method's first :class:`Frame`
makes (DESIGN.md §8, building at first entry).

The interpreter's op loop is :func:`run_blocks`: one flat loop over
tuple-encoded ops — the fastest shape available in pure Python — that
runs one frame until a guest call, a guest return or a jump into one of
a given set of blocks.  :func:`execute` drives it frame by frame, and is
the oracle every generated-code tier must reproduce bit for bit (cycles,
profiles, traps, fuel).  Blockjit drives the same loop for the regions
it has not compiled yet, and for the entries of a compiled region that
has less fuel than the region's paths can charge, so fuel runs out only
here.  The op semantics live in two places: here and in blockjit's
code generator.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bytecode.instructions import Br, Jmp, Ret
from repro.bytecode.method import Method
from repro.cfg.dag import PDag
from repro.errors import FuelExhaustedError, GuestTrapError, VMError
from repro.profiling.regenerate import PathResolver
from repro.vm.costs import FOLD_SHIFT, CostModel, fold_clean

# Binop kind codes (comparisons are >= _CMP_BASE).
KIND_CODES = {
    "add": 0,
    "sub": 1,
    "mul": 2,
    "div": 3,
    "mod": 4,
    "and": 5,
    "or": 6,
    "xor": 7,
    "shl": 8,
    "shr": 9,
    "min": 10,
    "max": 11,
    "lt": 12,
    "le": 13,
    "gt": 14,
    "ge": 15,
    "eq": 16,
    "ne": 17,
}

# Op codes for lowered instruction tuples: (code, cost, ...operands).
OP_CONST = 0
OP_MOVE = 1
OP_NEG = 2
OP_NOT = 3
OP_BIN = 4
OP_BINI = 5
OP_NEWARR = 6
OP_ALOAD = 7
OP_ASTORE = 8
OP_ALEN = 9
OP_CALL = 10
OP_EMIT = 11
OP_PEPINIT = 12
OP_PEPADD = 13
OP_PATHCOUNT = 14
OP_YIELD = 15

# Terminator codes.
T_RET = 0
T_JMP = 1
T_BR = 2

_MAX_ARRAY = 1 << 24


class LoweredBlock:
    """A lowered basic block: op tuples plus a linked terminator tuple."""

    __slots__ = ("label", "ops", "term")

    def __init__(self, label: str) -> None:
        self.label = label
        self.ops: List[tuple] = []
        self.term: tuple = ()

    def __repr__(self) -> str:
        return f"<LoweredBlock {self.label} ({len(self.ops)} ops)>"


class CompiledMethod:
    """Executable method produced by the baseline or optimizing compiler.

    ``profile_key`` identifies this *compiled version* in path profiles:
    path numbers are only meaningful relative to one compiled version's
    P-DAG, so recompilation bumps the version and starts a fresh table.
    """

    __slots__ = (
        "source_name",
        "version",
        "tier",
        "num_regs",
        "entry",
        "blocks",
        "dag",
        "resolver",
        "static_size",
        "cost_multiplier",
        "profile_key",
        "jit_entries",
        "probe_plan",
        "fold_q",
    )

    def __init__(
        self,
        source_name: str,
        version: int,
        tier: str,
        num_regs: int,
        static_size: int,
        cost_multiplier: float,
    ) -> None:
        self.source_name = source_name
        self.version = version
        self.tier = tier
        self.num_regs = num_regs
        self.entry: Optional[LoweredBlock] = None
        self.blocks: Dict[str, LoweredBlock] = {}
        self.dag: Optional[PDag] = None
        self.resolver: Optional[PathResolver] = None
        self.static_size = static_size
        self.cost_multiplier = cost_multiplier
        self.profile_key = f"{source_name}#v{version}"
        # Blockjit's entry table of region functions (see
        # repro.vm.blockjit), set by ensure_jit at first execution.  The
        # method's source is not kept here: it is generated only when a
        # region first compiles and the process-wide code memo, keyed by
        # a fingerprint of these blocks, lacks it.
        self.jit_entries: Optional[dict] = None
        # Minimum-coverage edge-probe placement (see repro.vm.pgo /
        # DESIGN.md §14), so the drain can reconstruct the full edge
        # profile.
        self.probe_plan = None
        # Fixed-point certification verdict (DESIGN.md §15), set by
        # :func:`lower_method`: the grid shift (every charge the cost
        # model can make is an exact multiple of ``2**-fold_q``, so
        # codegen folds whole cost chains), or ``0`` when the model put
        # a charge off the grid (the method is never compiled and runs
        # on the interpreter's block loop).
        self.fold_q: int = 0

    def attach_dag(self, dag: PDag) -> None:
        self.dag = dag
        self.resolver = PathResolver(dag)

    def __repr__(self) -> str:
        return f"<CompiledMethod {self.profile_key} tier={self.tier}>"


#: The slots lowering fills: a method's *body*.  The rest (name,
#: version, tier, profile key, cost multiplier, ``probe_plan``, ``dag``
#: and ``resolver``) is its head, which a method built at its first
#: entry has before any pass runs: no probe plan and no P-DAG, since
#: compiles that place probes or attach one build at once.
BODY_SLOTS = (
    "num_regs",
    "entry",
    "blocks",
    "fold_q",
    "static_size",
    "jit_entries",
)

_BODY = tuple(CompiledMethod.__dict__[name] for name in BODY_SLOTS)

#: Where an unbuilt method keeps its build function until it runs.
_BUILD = CompiledMethod.__dict__["blocks"]


class _Unbuilt(CompiledMethod):
    """A :class:`CompiledMethod` whose body is built at its first read.

    Reading or writing any body slot calls the build function, copies
    the body of the method it returns into this object and makes it a
    plain :class:`CompiledMethod` (``__class__`` assignment: the layout
    is the same), so no hot path ever goes through this class.  A build
    that raises leaves the object unbuilt, and the next read raises
    again.
    """

    __slots__ = ()

    def _build(self) -> None:
        built = _BUILD.__get__(self)()
        for slot in _BODY:
            slot.__set__(self, slot.__get__(built))
        self.__class__ = CompiledMethod


def _body_property(slot) -> property:
    def read(self):
        self._build()
        return slot.__get__(self)

    def write(self, value) -> None:
        self._build()
        slot.__set__(self, value)

    return property(read, write)


for _slot in _BODY:
    setattr(_Unbuilt, _slot.__name__, _body_property(_slot))
del _slot


def deferred_method(
    source_name: str,
    version: int,
    tier: str,
    cost_multiplier: float,
    build,
) -> CompiledMethod:
    """A compiled method whose body ``build()`` makes at the first read.

    ``build`` returns a built :class:`CompiledMethod` with this head.
    Its body (:data:`BODY_SLOTS`) is read by the method's first
    :class:`Frame`, on either engine, so a method that is never entered
    is never built; its head is set at once, with ``probe_plan``,
    ``dag`` and ``resolver`` None: compiles that attach a P-DAG or
    place probes build at once.
    """
    cm = object.__new__(_Unbuilt)
    cm.source_name = source_name
    cm.version = version
    cm.tier = tier
    cm.cost_multiplier = cost_multiplier
    cm.profile_key = f"{source_name}#v{version}"
    cm.probe_plan = None
    cm.dag = None
    cm.resolver = None
    _BUILD.__set__(cm, build)
    return cm


def lower_method(
    method: Method,
    tier: str,
    costs: CostModel,
    version: int = 0,
) -> CompiledMethod:
    """Lower a (possibly instrumented) method to executable form and
    stamp its fixed-point certification verdict (``cm.fold_q``)."""
    mult = costs.tier_multiplier(tier)
    cm = CompiledMethod(
        method.name,
        version,
        tier,
        method.num_regs,
        method.instruction_count(),
        mult,
    )
    for label in method.blocks:
        cm.blocks[label] = LoweredBlock(label)

    for label, block in method.blocks.items():
        lowered = cm.blocks[label]
        ops = lowered.ops
        for instr in block.instrs:
            ops.append(_lower_instr(instr, mult, costs))
        term = block.terminator
        if term is None:
            raise VMError(f"{method.name}:{label}: unterminated block")
        if isinstance(term, Ret):
            lowered.term = (T_RET, costs.ret_op * mult, term.src)
        elif isinstance(term, Jmp):
            lowered.term = (T_JMP, costs.jmp_op * mult, cm.blocks[term.label])
        elif isinstance(term, Br):
            lowered.term = (
                T_BR,
                costs.branch_op * mult,
                KIND_CODES[term.kind],
                term.a,
                term.b,
                cm.blocks[term.then_label],
                cm.blocks[term.else_label],
                term.layout == "then",
                costs.branch_mislayout_penalty * mult,
                term.origin,
                _arm_mask(getattr(term, "count_arms", False)),
                costs.edge_count * mult,
            )
        else:
            raise VMError(f"{method.name}:{label}: unknown terminator {term.op!r}")

    if method.entry is None:
        raise VMError(f"{method.name}: no entry block")
    cm.entry = cm.blocks[method.entry]
    if _fold_certified(costs):
        cm.fold_q = FOLD_SHIFT
    return cm


#: Certification verdicts keyed by a model's chargeable values, so a
#: model is scanned once however many methods it lowers, and a model
#: whose values change gets a fresh verdict.  Bounded crudely, like
#: blockjit's code memo: a flush only costs a rescan.
_FOLD_VERDICTS: Dict[tuple, bool] = {}
_FOLD_VERDICTS_BOUND = 64


def _fold_certified(costs: CostModel) -> bool:
    """True when every charge the accumulator can absorb lies on the
    fixed-point grid.

    Every lowered op and terminator charge (mislayout penalties and
    edge-probe charges included) is a base cost times a tier
    multiplier, so the model's cross-tier chargeable set holds them
    all, with the charges the runtime injects.  The cross-tier scan
    (``CostModel.chargeable_values``) is what makes *entry-based*
    folding sound: the carried ``st.cyc`` arrives at a method entry
    bearing other methods' charges at other tiers, so the chain base is
    provably grid-valued only when the whole program's cost universe
    is.  Values that compare equal (``1`` and ``1.0``, ``0.0`` and
    ``-0.0``) lie on the grid alike, so equal keys share a verdict."""
    values = tuple(costs.chargeable_values())
    verdict = _FOLD_VERDICTS.get(values)
    if verdict is None:
        if len(_FOLD_VERDICTS) >= _FOLD_VERDICTS_BOUND:
            _FOLD_VERDICTS.clear()
        verdict = _FOLD_VERDICTS[values] = all(
            fold_clean(value) for value in values
        )
    return verdict


def _arm_mask(count_arms) -> int:
    """Normalise a terminator's ``count_arms`` to a per-arm probe mask.

    Bit 0 probes the taken arm, bit 1 the not-taken arm.  Classic full
    edge instrumentation (``count_arms = True``) probes both (mask 3);
    minimum-coverage placement (DESIGN.md §14) leaves only a
    spanning-tree complement instrumented, so individual arms carry
    their own bit.  ``False``/``None`` stay 0 — the uninstrumented fast
    path is still a single falsy check.
    """
    if count_arms is True:
        return 3
    if not count_arms:
        return 0
    return int(count_arms)


def _lower_instr(instr, mult: float, costs: CostModel) -> tuple:
    op = instr.op
    if op == "const":
        return (OP_CONST, costs.simple_op * mult, instr.dst, instr.value)
    if op == "move":
        return (OP_MOVE, costs.simple_op * mult, instr.dst, instr.src)
    if op == "unary":
        code = OP_NEG if instr.kind == "neg" else OP_NOT
        return (code, costs.simple_op * mult, instr.dst, instr.src)
    if op == "binop":
        return (
            OP_BIN,
            costs.simple_op * mult,
            KIND_CODES[instr.kind],
            instr.dst,
            instr.a,
            instr.b,
        )
    if op == "binop_imm":
        return (
            OP_BINI,
            costs.simple_op * mult,
            KIND_CODES[instr.kind],
            instr.dst,
            instr.a,
            instr.imm,
        )
    if op == "newarr":
        return (OP_NEWARR, costs.newarr_op * mult, instr.dst, instr.size)
    if op == "aload":
        return (OP_ALOAD, costs.mem_op * mult, instr.dst, instr.arr, instr.idx)
    if op == "astore":
        return (OP_ASTORE, costs.mem_op * mult, instr.arr, instr.idx, instr.src)
    if op == "alen":
        return (OP_ALEN, costs.mem_op * mult, instr.dst, instr.arr)
    if op == "call":
        return (
            OP_CALL,
            costs.call_op * mult,
            instr.dst,
            instr.callee,
            tuple(instr.args),
        )
    if op == "emit":
        return (OP_EMIT, costs.emit_op * mult, instr.src)
    if op == "pep_init":
        return (OP_PEPINIT, costs.pep_init * mult)
    if op == "pep_add":
        return (OP_PEPADD, costs.pep_add * mult, instr.value)
    if op == "path_count":
        cost = (
            costs.path_count_hash if instr.mode == "hash" else costs.path_count_array
        )
        return (OP_PATHCOUNT, cost * mult)
    if op == "yieldpoint":
        return (OP_YIELD, costs.yieldpoint_op * mult, instr.sample_point)
    raise VMError(f"cannot lower instruction {op!r}")


class Frame:
    """One activation record of the guest call stack."""

    __slots__ = ("cm", "regs", "block", "ip", "path_reg", "ret_dst")

    def __init__(self, cm: CompiledMethod) -> None:
        self.cm = cm
        self.regs: List = [0] * cm.num_regs
        self.block = cm.entry
        self.ip = 0
        self.path_reg = 0
        self.ret_dst: Optional[int] = None


class JitState:
    """Mutable scalars a driver threads through region calls and
    :func:`run_blocks`.

    Hot per-op traffic stays in locals; this object is only touched at
    region boundaries (and, in generated code, at yieldpoints for
    ``path_reg``).
    """

    __slots__ = ("cyc", "fuel", "path_reg", "ret_value", "gate")

    def __init__(self, fuel: int) -> None:
        self.cyc = 0.0
        self.fuel = fuel
        self.path_reg = 0
        self.ret_value = 0
        # Countdown-yieldpoint trigger threshold of generated code
        # (repro.vm.blockjit.emit_yieldpoint); run_blocks ignores it.
        self.gate = float("-inf")


#: What :func:`run_blocks` (and a blockjit region) returns after pushing
#: a callee frame; the driver switches to the new frame's entry.
_CALL = object()

#: ``stops`` of a run that leaves its block loop only at calls and returns.
_NO_STOPS = frozenset()


def execute(vm, fuel: int) -> int:
    """Run the VM's main method to completion; returns its return value.

    ``vm`` is a :class:`repro.vm.runtime.VirtualMachine`.  The ops run in
    :func:`run_blocks`; this driver only switches frames at guest calls
    and returns.
    """
    main_cm = vm.code.get(vm.main)
    if main_cm is None:
        raise VMError(f"no compiled method for main {vm.main!r}")

    frame = Frame(main_cm)
    stack = [frame]
    # Expose the live stack so the yieldpoint handler can walk it (the
    # dynamic call graph sampling of paper section 4.1).
    vm.guest_stack = stack
    st = JitState(fuel)
    block = main_cm.entry
    ip = 0
    call = _CALL
    while True:
        if run_blocks(vm, frame, st, block, ip, _NO_STOPS) is call:
            # Fresh frames start at (entry, 0) with path_reg 0.
            frame = stack[-1]
            block = frame.block
            ip = 0
            st.path_reg = 0
            continue
        value = st.ret_value
        stack.pop()
        if not stack:
            vm.cycles += st.cyc
            return value
        dst = frame.ret_dst
        frame = stack[-1]
        if dst is not None:
            frame.regs[dst] = value
        block = frame.block
        ip = frame.ip
        st.path_reg = frame.path_reg


def run_blocks(vm, frame: Frame, st: JitState, block: LoweredBlock, ip: int,
               stops) -> object:
    """Run ``frame`` from ``block`` at ``ip`` on the tuple op loop.

    Runs until a guest call, which pushes the callee's frame on
    ``vm.guest_stack`` and returns ``_CALL``; a guest return, which puts
    the value in ``st.ret_value`` and returns None (the driver pops the
    frame); or a jump or branch into a block whose label is in
    ``stops``, which returns that block.  ``st`` carries ``cyc``,
    ``fuel`` and ``path_reg`` in and out; the path register the driver
    replaces at a call or a return is not stored.
    """
    cm = frame.cm
    regs = frame.regs
    binop = _binop
    cyc = st.cyc
    fuel = st.fuel
    path_reg = st.path_reg

    try:
        while True:
            ops = block.ops
            n = len(ops)
            fuel -= n - ip + 1
            if fuel < 0:
                vm.cycles += cyc
                raise FuelExhaustedError(
                    "instruction budget exhausted",
                    method=cm.profile_key,
                    block=block.label,
                    instruction_index=ip,
                    cycles=vm.cycles,
                )
            i = ip
            while i < n:
                op = ops[i]
                i += 1
                c = op[0]
                cyc += op[1]
                if c == OP_BINI:
                    k = op[2]
                    a = regs[op[4]]
                    b = op[5]
                    regs[op[3]] = binop(k, a, b, cm, vm)
                elif c == OP_BIN:
                    k = op[2]
                    a = regs[op[4]]
                    b = regs[op[5]]
                    regs[op[3]] = binop(k, a, b, cm, vm)
                elif c == OP_CONST:
                    regs[op[2]] = op[3]
                elif c == OP_MOVE:
                    regs[op[2]] = regs[op[3]]
                elif c == OP_PEPADD:
                    path_reg += op[2]
                elif c == OP_PEPINIT:
                    path_reg = 0
                elif c == OP_YIELD:
                    vm.cycles += cyc
                    cyc = 0.0
                    if vm.cycles >= vm.next_tick:
                        vm.on_tick()
                    if vm.flag:
                        cyc += vm.dispatch_yieldpoint(cm, path_reg, op[2])
                elif c == OP_ALOAD:
                    arr = regs[op[3]]
                    idx = regs[op[4]]
                    if type(arr) is not list:
                        _trap(vm, cyc, cm, "aload from a non-array value", block.label, i - 1)
                    if idx < 0 or idx >= len(arr):
                        _trap(vm, cyc, cm, f"array index {idx} out of range", block.label, i - 1)
                    regs[op[2]] = arr[idx]
                elif c == OP_ASTORE:
                    arr = regs[op[2]]
                    idx = regs[op[3]]
                    if type(arr) is not list:
                        _trap(vm, cyc, cm, "astore to a non-array value", block.label, i - 1)
                    if idx < 0 or idx >= len(arr):
                        _trap(vm, cyc, cm, f"array index {idx} out of range", block.label, i - 1)
                    arr[idx] = regs[op[4]]
                elif c == OP_CALL:
                    callee = vm.code.get(op[3])
                    if callee is None:
                        _trap(vm, cyc, cm, f"call to unknown method {op[3]!r}", block.label, i - 1)
                    frame.block = block
                    frame.ip = i
                    frame.path_reg = path_reg
                    new_frame = Frame(callee)
                    new_regs = new_frame.regs
                    args = op[4]
                    for pos in range(len(args)):
                        new_regs[pos] = regs[args[pos]]
                    new_frame.ret_dst = op[2]
                    stack = vm.guest_stack
                    stack.append(new_frame)
                    if len(stack) > vm.max_stack_depth:
                        _trap(vm, cyc, cm, "guest stack overflow", block.label, i - 1)
                    st.cyc = cyc
                    st.fuel = fuel
                    return _CALL
                elif c == OP_EMIT:
                    vm.output.append(regs[op[2]])
                elif c == OP_PATHCOUNT:
                    vm.path_profile.record(cm.profile_key, path_reg)
                    vm.path_count_updates += 1
                elif c == OP_NEWARR:
                    size = regs[op[3]]
                    if size < 0 or size > _MAX_ARRAY:
                        _trap(vm, cyc, cm, f"bad array size {size}", block.label, i - 1)
                    regs[op[2]] = [0] * size
                elif c == OP_NEG:
                    regs[op[2]] = -regs[op[3]]
                elif c == OP_NOT:
                    regs[op[2]] = 0 if regs[op[3]] else 1
                elif c == OP_ALEN:
                    arr = regs[op[3]]
                    if type(arr) is not list:
                        _trap(vm, cyc, cm, "alen of a non-array value", block.label, i - 1)
                    regs[op[2]] = len(arr)
                else:  # pragma: no cover - lowering emits only known codes
                    _trap(vm, cyc, cm, f"unknown opcode {c}", block.label, i - 1)

            term = block.term
            t = term[0]
            cyc += term[1]
            if t == T_BR:
                k = term[2]
                a = regs[term[3]]
                b = regs[term[4]]
                if k == 12:
                    taken = a < b
                elif k == 13:
                    taken = a <= b
                elif k == 14:
                    taken = a > b
                elif k == 15:
                    taken = a >= b
                elif k == 16:
                    taken = a == b
                else:
                    taken = a != b
                if taken != term[7]:  # not the laid-out fall-through arm
                    cyc += term[8]
                # Edge instrumentation: term[10] is the per-arm probe
                # mask (bit 0 = taken, bit 1 = not-taken; 3 = classic
                # full instrumentation, 0 = none).
                if term[10] & (1 if taken else 2):
                    vm.edge_profile.record(term[9], taken)
                    cyc += term[11]
                block = term[5] if taken else term[6]
            elif t == T_JMP:
                block = term[2]
            else:  # T_RET
                src = term[2]
                st.ret_value = regs[src] if src is not None else 0
                st.cyc = cyc
                st.fuel = fuel
                return None
            ip = 0
            if block.label in stops:
                st.cyc = cyc
                st.fuel = fuel
                st.path_reg = path_reg
                return block

    except GuestTrapError as trap:
        if trap.block is not None or trap.method is None:
            raise
        # Raised below the dispatch loop (_binop): graft on the
        # faulting location, which only the loop knows.
        vm.cycles += cyc
        raise GuestTrapError(
            trap.base_message,
            method=trap.method,
            block=block.label,
            instruction_index=i - 1,
            cycles=vm.cycles,
        ) from None


def _binop(k: int, a, b, cm, vm):
    """Evaluate binop kind ``k``; split out keeps the main loop readable."""
    if k == 0:
        return a + b
    if k == 1:
        return a - b
    if k == 2:
        return a * b
    if k == 12:
        return 1 if a < b else 0
    if k == 16:
        return 1 if a == b else 0
    if k == 5:
        return a & b
    if k == 7:
        return a ^ b
    if k == 9:
        if b < 0 or b > 63:
            raise GuestTrapError(f"bad shift amount {b}", method=cm.profile_key)
        return a >> b
    if k == 4:
        if b == 0:
            raise GuestTrapError("modulo by zero", method=cm.profile_key)
        return a % b
    if k == 3:
        if b == 0:
            raise GuestTrapError("division by zero", method=cm.profile_key)
        return a // b
    if k == 6:
        return a | b
    if k == 8:
        if b < 0 or b > 63:
            raise GuestTrapError(f"bad shift amount {b}", method=cm.profile_key)
        return a << b
    if k == 10:
        return a if a < b else b
    if k == 11:
        return a if a > b else b
    if k == 13:
        return 1 if a <= b else 0
    if k == 14:
        return 1 if a > b else 0
    if k == 15:
        return 1 if a >= b else 0
    if k == 17:
        return 1 if a != b else 0
    raise VMError(f"unknown binop code {k}")  # pragma: no cover


def _trap(vm, cyc: float, cm, message: str, block=None, index=None) -> None:
    vm.cycles += cyc
    raise GuestTrapError(
        message,
        method=cm.profile_key,
        block=block,
        instruction_index=index,
        cycles=vm.cycles,
    )
