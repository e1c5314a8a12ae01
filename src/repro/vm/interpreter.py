"""Lowering guest methods to an executable form, plus the interpreter.

A :class:`CompiledMethod` is the runnable artefact both compilers produce:
basic blocks lowered to tuples with direct successor references (no label
lookups at run time) and per-op virtual-cycle costs baked in, including
the tier multiplier (baseline code runs ~3x slower than optimized code).

The interpreter itself lives in :func:`execute`; it is deliberately a
single flat loop over tuple-encoded ops — the fastest shape available in
pure Python — and it is the oracle every generated-code tier must
reproduce bit for bit (cycles, profiles, traps, fuel).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bytecode.instructions import Br, Jmp, Ret
from repro.bytecode.method import Method
from repro.cfg.dag import PDag
from repro.errors import FuelExhaustedError, GuestTrapError, VMError
from repro.profiling.regenerate import PathResolver
from repro.vm.costs import (
    FOLD_SHIFT,
    CostModel,
    fold_clean,
    record_fold_rejection,
)

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
        "jit_source",
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
        # Blockjit artefacts (see repro.vm.blockjit), both set by
        # ensure_jit at first execution: the generated source, which
        # keys the process-wide memo of compiled region code, and the
        # entry table of region functions.
        self.jit_source: Optional[str] = None
        self.jit_entries: Optional[dict] = None
        # Minimum-coverage edge-probe placement (see repro.vm.pgo /
        # DESIGN.md §14), so the drain can reconstruct the full edge
        # profile.
        self.probe_plan = None
        # Fixed-point certification verdict (DESIGN.md §15), set by
        # :func:`lower_method`: the grid shift (every lowered charge and
        # cost-model injectable is an exact multiple of ``2**-fold_q``,
        # so codegen may fold whole cost chains), or ``0`` when
        # certification failed (per-method float fallback: textual
        # chains).
        self.fold_q: int = 0

    def attach_dag(self, dag: PDag) -> None:
        self.dag = dag
        self.resolver = PathResolver(dag)

    def __repr__(self) -> str:
        return f"<CompiledMethod {self.profile_key} tier={self.tier}>"


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
    if _fold_certified(cm, costs):
        cm.fold_q = FOLD_SHIFT
    else:
        record_fold_rejection()
    return cm


def _fold_certified(cm: CompiledMethod, costs: CostModel) -> bool:
    """True when every charge the accumulator can absorb lies on the
    fixed-point grid: all lowered op/terminator costs (including the
    mislayout penalties and edge-probe charges branches add
    conditionally) plus the model's full cross-tier chargeable set.

    The cross-tier scan (``CostModel.chargeable_values``) is what makes
    *entry-based* folding sound: the carried ``st.cyc`` arrives at a
    method entry bearing other methods' charges at other tiers, so the
    chain base is provably grid-valued only when the whole program's
    cost universe is."""
    clean = fold_clean
    for value in costs.chargeable_values():
        if not clean(value):
            return False
    for block in cm.blocks.values():
        for op in block.ops:
            if not clean(op[1]):
                return False
        term = block.term
        if term is None:
            continue
        if not clean(term[1]):
            return False
        if term[0] == T_BR and not (clean(term[8]) and clean(term[11])):
            return False
    return True


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


def execute(vm, fuel: int) -> int:
    """Run the VM's main method to completion; returns its return value.

    ``vm`` is a :class:`repro.vm.runtime.VirtualMachine`; this function is
    split out so the hot loop has no ``self.`` lookups on its fast paths.
    """
    code = vm.code
    output = vm.output
    edge_profile = vm.edge_profile
    path_profile = vm.path_profile
    # Hoist per-op attribute lookups out of the dispatch loop: bound
    # methods and module globals become locals (LOAD_FAST) on every
    # iteration instead of attribute/global lookups.
    code_get = code.get
    out_append = output.append
    edge_record = edge_profile.record
    path_record = path_profile.record
    binop = _binop

    main_cm = code.get(vm.main)
    if main_cm is None:
        raise VMError(f"no compiled method for main {vm.main!r}")

    frame = Frame(main_cm)
    stack = [frame]
    # Expose the live stack so the yieldpoint handler can walk it (the
    # dynamic call graph sampling of paper section 4.1).
    vm.guest_stack = stack
    cm = main_cm
    regs = frame.regs
    block = cm.entry
    ip = 0
    path_reg = 0
    cyc = 0.0

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
            ip = 0
            transferred = False
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
                    callee = code_get(op[3])
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
                    stack.append(new_frame)
                    if len(stack) > vm.max_stack_depth:
                        _trap(vm, cyc, cm, "guest stack overflow", block.label, i - 1)
                    frame = new_frame
                    cm = callee
                    regs = new_regs
                    block = callee.entry
                    ip = 0
                    path_reg = 0
                    transferred = True
                    break
                elif c == OP_EMIT:
                    out_append(regs[op[2]])
                elif c == OP_PATHCOUNT:
                    path_record(cm.profile_key, path_reg)
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
            if transferred:
                continue

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
                    edge_record(term[9], taken)
                    cyc += term[11]
                block = term[5] if taken else term[6]
            elif t == T_JMP:
                block = term[2]
            else:  # T_RET
                src = term[2]
                value = regs[src] if src is not None else 0
                stack.pop()
                if not stack:
                    vm.cycles += cyc
                    return value
                dst = frame.ret_dst
                frame = stack[-1]
                cm = frame.cm
                regs = frame.regs
                block = frame.block
                ip = frame.ip
                path_reg = frame.path_reg
                if dst is not None:
                    regs[dst] = value

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
