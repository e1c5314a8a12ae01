"""Tests for instruction classes and their metadata helpers."""

import pytest

from repro.bytecode.instructions import (
    ALoad,
    AStore,
    BinOp,
    BinOpImm,
    Br,
    Call,
    Const,
    Emit,
    Jmp,
    Move,
    PathCount,
    PepAdd,
    PepInit,
    Ret,
    Unary,
    Yieldpoint,
    defined_register,
    is_instrumentation,
    used_registers,
)
from repro.bytecode.method import BranchRef


def test_binop_rejects_unknown_kind():
    with pytest.raises(ValueError):
        BinOp("pow", 0, 1, 2)
    with pytest.raises(ValueError):
        BinOpImm("pow", 0, 1, 2)


def test_unary_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Unary("sqrt", 0, 1)


def test_br_rejects_bad_kind_and_layout():
    with pytest.raises(ValueError):
        Br("add", 0, 1, "a", "b")
    with pytest.raises(ValueError):
        Br("lt", 0, 1, "a", "b", layout="middle")


def test_yieldpoint_kinds():
    for kind in ("entry", "header", "exit"):
        assert Yieldpoint(kind).kind == kind
    with pytest.raises(ValueError):
        Yieldpoint("backedge")


def test_path_count_modes():
    assert PathCount("hash").mode == "hash"
    assert PathCount("array").mode == "array"
    with pytest.raises(ValueError):
        PathCount("btree")


def test_is_instrumentation():
    assert is_instrumentation(PepInit())
    assert is_instrumentation(PepAdd(3))
    assert is_instrumentation(PathCount())
    assert is_instrumentation(Yieldpoint("entry"))
    assert not is_instrumentation(Const(0, 1))
    assert not is_instrumentation(Move(0, 1))


def test_defined_and_used_registers():
    assert defined_register(Const(3, 7)) == 3
    assert defined_register(Move(2, 1)) == 2
    assert defined_register(AStore(0, 1, 2)) is None
    assert defined_register(Emit(0)) is None
    assert used_registers(BinOp("add", 0, 1, 2)) == [1, 2]
    assert used_registers(BinOpImm("add", 0, 1, 5)) == [1]
    assert used_registers(ALoad(0, 1, 2)) == [1, 2]
    assert used_registers(AStore(0, 1, 2)) == [0, 1, 2]
    assert used_registers(Call(0, "f", (1, 2, 3))) == [1, 2, 3]
    assert used_registers(Const(0, 1)) == []


def test_clone_independence():
    br = Br("lt", 0, 1, "a", "b", origin=BranchRef("m", 4), layout="else")
    copy = br.clone()
    copy.then_label = "z"
    assert br.then_label == "a"
    assert copy.origin == br.origin
    assert copy.layout == "else"

    add = PepAdd(5)
    assert add.clone().value == 5

    jmp = Jmp("x")
    copy2 = jmp.clone()
    copy2.retarget({"x": "y"})
    assert jmp.label == "x"
    assert copy2.label == "y"


def test_terminator_targets():
    assert Br("eq", 0, 0, "t", "f").targets() == ("t", "f")
    assert Jmp("x").targets() == ("x",)
    assert Ret(None).targets() == ()
    assert Ret(3).src == 3


def test_retarget_branch():
    br = Br("lt", 0, 1, "a", "b")
    br.retarget({"a": "a2"})
    assert br.targets() == ("a2", "b")
    ret = Ret(None)
    ret.retarget({"a": "b"})  # no-op, must not raise
