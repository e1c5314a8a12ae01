"""Optimizer passes used by the optimizing compiler.

These are deliberately modest versions of the real passes — enough to
produce the phenomena the paper depends on:

* *inlining* splices small leaf callees into the caller, so several IR
  branches map to one bytecode branch (section 4.3), and propagates the
  uninterruptible-callee yieldpoint restriction;
* *constant folding* can eliminate a bytecode branch entirely, the case
  where PEP legitimately collects no profile for it;
* *branch layout* chooses each branch's fall-through arm from the edge
  profile's bias; the cost model charges a penalty when the executed arm
  is not the laid-out one, which is how profile accuracy affects
  performance (section 6.5).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bytecode.instructions import (
    Br,
    Const,
    Instr,
    Jmp,
    Move,
    Ret,
    defined_register,
    used_registers,
)
from repro.bytecode.method import BasicBlock, Method, Program
from repro.cfg.graph import CFG
from repro.cfg.loops import analyze_loops
from repro.errors import CompilationError, IrreducibleLoopError
from repro.profiling.edges import EdgeProfile


# --------------------------------------------------------------------------
# Inlining.
# --------------------------------------------------------------------------


def inline_small_methods(
    method: Method,
    program: Program,
    max_callee_size: int = 30,
    max_caller_size: int = 400,
    max_inlines: int = 24,
) -> int:
    """Inline small leaf callees into ``method`` in place; returns count."""
    inlined = 0
    while inlined < max_inlines:
        if method.instruction_count() >= max_caller_size:
            break
        site = _find_inline_site(method, program, max_callee_size)
        if site is None:
            break
        _inline_at(method, program, *site)
        inlined += 1
    return inlined


def _find_inline_site(
    method: Method, program: Program, max_size: int
) -> Optional[Tuple[str, int]]:
    for label, block in method.blocks.items():
        for index, instr in enumerate(block.instrs):
            if instr.op != "call":
                continue
            callee = program.methods.get(instr.callee)
            if callee is None or callee.name == method.name:
                continue
            if callee.instruction_count() > max_size:
                continue
            if _calls_out(callee):
                continue  # leaf-only inlining: no recursion concerns
            if callee.uninterruptible and not _reducible(callee):
                # Its body never sees the yieldpoint pass, so it may hold
                # an irreducible loop; a copy would fail the caller's.
                continue
            return label, index
    return None


def _reducible(method: Method) -> bool:
    try:
        analyze_loops(CFG.from_method(method))
    except IrreducibleLoopError:
        return False
    return True


def _calls_out(method: Method) -> bool:
    for block in method.iter_blocks():
        for instr in block.instrs:
            if instr.op == "call":
                return True
    return False


def _inline_at(method: Method, program: Program, label: str, index: int) -> None:
    block = method.block(label)
    call = block.instrs[index]
    callee = program.methods[call.callee]

    offset = method.num_regs
    method.num_regs += callee.num_regs
    stamp = f"{callee.name}.in{len(method.blocks)}"
    label_map = {old: f"{stamp}.{old}" for old in callee.blocks}
    return_label = f"{stamp}.ret"

    # Clone and remap callee blocks.
    for old_label, callee_block in callee.blocks.items():
        clone = callee_block.clone(label_map[old_label])
        for instr in clone.instrs:
            _shift_registers(instr, offset)
        term = clone.terminator
        if isinstance(term, Ret):
            tail: List[Instr] = []
            if call.dst is not None:
                if term.src is not None:
                    tail.append(Move(call.dst, term.src + offset))
                else:
                    tail.append(Const(call.dst, 0))
            clone.instrs.extend(tail)
            clone.terminator = Jmp(return_label)
        else:
            _shift_term_registers(term, offset)
            term.retarget(label_map)
        method.add_block(clone)
        if callee.uninterruptible:
            method.no_yield_labels.add(clone.label)

    # Split the caller block around the call site.
    post = BasicBlock(return_label, block.instrs[index + 1 :], block.terminator)
    method.add_block(post)
    if callee.uninterruptible and return_label in method.no_yield_labels:
        method.no_yield_labels.discard(return_label)

    new_instrs: List[Instr] = block.instrs[:index]
    for param_index, arg_reg in enumerate(call.args):
        new_instrs.append(Move(offset + param_index, arg_reg))
    block.instrs = new_instrs
    if callee.entry is None:
        raise CompilationError(f"cannot inline empty method {callee.name!r}")
    block.terminator = Jmp(label_map[callee.entry])


def _shift_registers(instr: Instr, offset: int) -> None:
    op = instr.op
    if op in ("const",):
        instr.dst += offset
    elif op in ("move", "unary"):
        instr.dst += offset
        instr.src += offset
    elif op == "binop":
        instr.dst += offset
        instr.a += offset
        instr.b += offset
    elif op == "binop_imm":
        instr.dst += offset
        instr.a += offset
    elif op == "newarr":
        instr.dst += offset
        instr.size += offset
    elif op == "aload":
        instr.dst += offset
        instr.arr += offset
        instr.idx += offset
    elif op == "astore":
        instr.arr += offset
        instr.idx += offset
        instr.src += offset
    elif op == "alen":
        instr.dst += offset
        instr.arr += offset
    elif op == "call":
        if instr.dst is not None:
            instr.dst += offset
        instr.args = tuple(a + offset for a in instr.args)
    elif op == "emit":
        instr.src += offset
    # Instrumentation ops carry no guest registers.


def _shift_term_registers(term, offset: int) -> None:
    if isinstance(term, Br):
        term.a += offset
        term.b += offset


# --------------------------------------------------------------------------
# Constant folding and branch elimination.
# --------------------------------------------------------------------------


def _fold_binop(kind: str, a: int, b: int) -> Optional[int]:
    """Pure fold; returns None when the operation would trap at run time."""
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        return a // b if b != 0 else None
    if kind == "mod":
        return a % b if b != 0 else None
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    if kind == "xor":
        return a ^ b
    if kind == "shl":
        return a << b if 0 <= b <= 63 else None
    if kind == "shr":
        return a >> b if 0 <= b <= 63 else None
    if kind == "min":
        return min(a, b)
    if kind == "max":
        return max(a, b)
    comparisons = {
        "lt": a < b,
        "le": a <= b,
        "gt": a > b,
        "ge": a >= b,
        "eq": a == b,
        "ne": a != b,
    }
    return 1 if comparisons[kind] else 0


def fold_constants(method: Method) -> int:
    """Block-local constant folding; returns eliminated branch count.

    Constants are tracked within each block only (no dataflow join), which
    is enough to fold the literal-condition branches front ends emit.  A
    branch whose outcome folds becomes a jump — the "compiler eliminated a
    bytecode branch" case of section 4.3.
    """
    eliminated = 0
    for block in method.iter_blocks():
        known: Dict[int, int] = {}
        for instr in block.instrs:
            op = instr.op
            if op == "const":
                known[instr.dst] = instr.value
            elif op == "move" and instr.src in known:
                known[instr.dst] = known[instr.src]
            elif op == "binop" and instr.a in known and instr.b in known:
                value = _fold_binop(instr.kind, known[instr.a], known[instr.b])
                if value is not None:
                    known[instr.dst] = value
                else:
                    known.pop(instr.dst, None)
            elif op == "binop_imm" and instr.a in known:
                value = _fold_binop(instr.kind, known[instr.a], instr.imm)
                if value is not None:
                    known[instr.dst] = value
                else:
                    known.pop(instr.dst, None)
            else:
                dst = defined_register(instr)
                if dst is not None:
                    known.pop(dst, None)
        term = block.terminator
        if isinstance(term, Br) and term.a in known and term.b in known:
            outcome = _fold_binop(term.kind, known[term.a], known[term.b])
            assert outcome is not None  # comparisons never trap
            target = term.then_label if outcome else term.else_label
            block.terminator = Jmp(target)
            eliminated += 1
    if eliminated:
        method.remove_unreachable_blocks()
    return eliminated


def eliminate_dead_code(method: Method, max_rounds: int = 4) -> int:
    """Remove pure instructions whose results are never read."""
    removable_ops = ("const", "move", "unary")
    safe_binop_kinds = frozenset(
        {"add", "sub", "mul", "and", "or", "xor", "min", "max",
         "lt", "le", "gt", "ge", "eq", "ne"}
    )
    removed_total = 0
    for _ in range(max_rounds):
        used = set()
        for block in method.iter_blocks():
            for instr in block.instrs:
                used.update(used_registers(instr))
            term = block.terminator
            if isinstance(term, Br):
                used.add(term.a)
                used.add(term.b)
            elif isinstance(term, Ret) and term.src is not None:
                used.add(term.src)
        removed = 0
        for block in method.iter_blocks():
            kept: List[Instr] = []
            for instr in block.instrs:
                dst = defined_register(instr)
                dead = (
                    dst is not None
                    and dst not in used
                    and (
                        instr.op in removable_ops
                        or (
                            instr.op in ("binop", "binop_imm")
                            and instr.kind in safe_binop_kinds
                        )
                    )
                )
                if dead:
                    removed += 1
                else:
                    kept.append(instr)
            block.instrs = kept
        removed_total += removed
        if removed == 0:
            break
    return removed_total


# --------------------------------------------------------------------------
# Profile-guided branch layout.
# --------------------------------------------------------------------------


def apply_branch_layout(
    method: Method, profile: Optional[EdgeProfile]
) -> int:
    """Choose each branch's fall-through arm from the profiled bias.

    Returns the number of branches laid out against the default ('else'
    chosen as fall-through).  Without a profile the compiler assumes
    'then' — the static default front ends bias toward.
    """
    flipped = 0
    for _, term in method.iter_branches():
        if profile is not None and term.origin is not None:
            bias = profile.bias(term.origin, default=0.5)
            layout = "then" if bias >= 0.5 else "else"
        else:
            layout = "then"
        if layout != term.layout:
            flipped += 1
        term.layout = layout
    return flipped
