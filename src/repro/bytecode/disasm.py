"""Human-readable disassembly of guest bytecode.

Used by examples and for debugging instrumentation passes: the figure
walkthrough example prints methods before and after PEP instrumentation so
the output can be compared line-by-line against the paper's Figures 1 and 3.
"""

from __future__ import annotations

from typing import List

from repro.bytecode.instructions import Instr, Terminator
from repro.bytecode.method import Method, Program


def format_instr(instr: Instr) -> str:
    op = instr.op
    if op == "const":
        return f"r{instr.dst} = {instr.value}"
    if op == "move":
        return f"r{instr.dst} = r{instr.src}"
    if op == "unary":
        return f"r{instr.dst} = {instr.kind} r{instr.src}"
    if op == "binop":
        return f"r{instr.dst} = r{instr.a} {instr.kind} r{instr.b}"
    if op == "binop_imm":
        return f"r{instr.dst} = r{instr.a} {instr.kind} {instr.imm}"
    if op == "newarr":
        return f"r{instr.dst} = newarr r{instr.size}"
    if op == "aload":
        return f"r{instr.dst} = r{instr.arr}[r{instr.idx}]"
    if op == "astore":
        return f"r{instr.arr}[r{instr.idx}] = r{instr.src}"
    if op == "alen":
        return f"r{instr.dst} = len r{instr.arr}"
    if op == "call":
        args = ", ".join(f"r{a}" for a in instr.args)
        dest = f"r{instr.dst} = " if instr.dst is not None else ""
        return f"{dest}call {instr.callee}({args})"
    if op == "emit":
        return f"emit r{instr.src}"
    if op == "pep_init":
        return "r_path = 0"
    if op == "pep_add":
        return f"r_path += {instr.value}"
    if op == "path_count":
        return f"count[r_path]++  ({instr.mode})"
    if op == "yieldpoint":
        suffix = " (sample point)" if instr.sample_point else ""
        return f"yieldpoint <{instr.kind}>{suffix}"
    return f"<{op}>"


def format_terminator(term: Terminator) -> str:
    op = term.op
    if op == "br":
        origin = f" [{term.origin}]" if term.origin is not None else ""
        layout = "" if term.layout == "then" else " layout=else"
        return (
            f"if r{term.a} {term.kind} r{term.b} goto {term.then_label} "
            f"else {term.else_label}{origin}{layout}"
        )
    if op == "jmp":
        return f"goto {term.label}"
    if op == "ret":
        return "ret" if term.src is None else f"ret r{term.src}"
    return f"<{op}>"


def disassemble_method(method: Method) -> str:
    flags = " uninterruptible" if method.uninterruptible else ""
    lines: List[str] = [
        f"method {method.name}(params={method.num_params}, "
        f"regs={method.num_regs}){flags}:"
    ]
    for block in method.iter_blocks():
        marker = " <entry>" if block.label == method.entry else ""
        lines.append(f"  {block.label}:{marker}")
        for instr in block.instrs:
            lines.append(f"    {format_instr(instr)}")
        if block.terminator is not None:
            lines.append(f"    {format_terminator(block.terminator)}")
    return "\n".join(lines)


def disassemble_program(program: Program) -> str:
    parts = [f"program {program.name} (main={program.main})"]
    for method in program.iter_methods():
        parts.append(disassemble_method(method))
    return "\n\n".join(parts)
