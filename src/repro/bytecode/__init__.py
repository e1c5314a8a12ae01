"""Guest bytecode: the "Java bytecode" analog that PEP instruments.

The ISA is a small register-based intermediate representation with explicit
basic blocks.  Guest programs are built either with
:class:`~repro.bytecode.builder.ProgramBuilder` (structured control flow) or
compiled from the mini-language front end (:mod:`repro.lang`).

Conditional branches are the unit of edge profiling: each ``Br`` terminator
carries a *bytecode branch id* assigned when a method is sealed, and every
IR-level copy made later by the optimizing compiler (inlining, unrolling)
keeps pointing at that original id — mirroring how Jikes RVM maps multiple
IR branches back to one bytecode branch (paper section 4.3).
"""

from repro.bytecode.instructions import (
    ALen,
    ALoad,
    AStore,
    BinOp,
    BinOpImm,
    Br,
    Call,
    Const,
    Emit,
    Instr,
    Jmp,
    Move,
    NewArr,
    PathCount,
    PepAdd,
    PepInit,
    Ret,
    Terminator,
    Unary,
    Yieldpoint,
    ARITH_KINDS,
    CMP_KINDS,
    BINOP_KINDS,
)
from repro.bytecode.method import BasicBlock, BranchRef, Method, Program
from repro.bytecode.builder import FunctionBuilder, ProgramBuilder, Value
from repro.bytecode.validate import verify_method, verify_program
from repro.bytecode.disasm import disassemble_method, disassemble_program

__all__ = [
    "ALen",
    "ALoad",
    "AStore",
    "BinOp",
    "BinOpImm",
    "Br",
    "Call",
    "Const",
    "Emit",
    "Instr",
    "Jmp",
    "Move",
    "NewArr",
    "PathCount",
    "PepAdd",
    "PepInit",
    "Ret",
    "Terminator",
    "Unary",
    "Yieldpoint",
    "ARITH_KINDS",
    "CMP_KINDS",
    "BINOP_KINDS",
    "BasicBlock",
    "BranchRef",
    "Method",
    "Program",
    "FunctionBuilder",
    "ProgramBuilder",
    "Value",
    "verify_method",
    "verify_program",
    "disassemble_method",
    "disassemble_program",
]
