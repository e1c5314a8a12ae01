"""Tests for the disassembler and ASCII table/figure rendering."""

import pytest

from repro.bytecode.disasm import (
    disassemble_method,
    disassemble_program,
    format_instr,
    format_terminator,
)
from repro.bytecode.instructions import (
    ALoad,
    AStore,
    BinOpImm,
    Br,
    Call,
    Emit,
    Jmp,
    PathCount,
    PepAdd,
    PepInit,
    Ret,
    Yieldpoint,
)
from repro.bytecode.method import BranchRef
from repro.util.tables import AsciiTable, bar_chart, format_figure

from tests.helpers import counting_program, diamond_loop_method


def test_format_instr_variants():
    assert format_instr(BinOpImm("add", 0, 1, 5)) == "r0 = r1 add 5"
    assert format_instr(ALoad(0, 1, 2)) == "r0 = r1[r2]"
    assert format_instr(AStore(0, 1, 2)) == "r0[r1] = r2"
    assert format_instr(Call(3, "f", (1, 2))) == "r3 = call f(r1, r2)"
    assert format_instr(Call(None, "g", ())) == "call g()"
    assert format_instr(Emit(4)) == "emit r4"
    assert format_instr(PepInit()) == "r_path = 0"
    assert format_instr(PepAdd(7)) == "r_path += 7"
    assert "count[r_path]++" in format_instr(PathCount("hash"))
    assert "(sample point)" in format_instr(Yieldpoint("header", True))
    assert "(sample point)" not in format_instr(Yieldpoint("entry"))


def test_format_terminator_variants():
    br = Br("lt", 0, 1, "a", "b", origin=BranchRef("m", 2), layout="else")
    text = format_terminator(br)
    assert "r0 lt r1" in text and "m#b2" in text and "layout=else" in text
    assert format_terminator(Jmp("x")) == "goto x"
    assert format_terminator(Ret(None)) == "ret"
    assert format_terminator(Ret(3)) == "ret r3"


def test_disassemble_method_structure():
    text = disassemble_method(diamond_loop_method())
    assert "method m(" in text
    assert "<entry>" in text
    for label in ("entry", "head", "body", "exit"):
        assert f"{label}:" in text


def test_disassemble_uninterruptible_flag():
    method = diamond_loop_method()
    method.uninterruptible = True
    assert "uninterruptible" in disassemble_method(method)


def test_disassemble_program():
    text = disassemble_program(counting_program(3))
    assert "program counting" in text
    assert "method main" in text


def test_ascii_table():
    table = AsciiTable(["name", "value"])
    table.add_row("a", 1.5)
    table.add_row("bb", "x")
    rendered = table.render()
    lines = rendered.splitlines()
    assert len(lines) == 4  # header, rule, 2 rows
    assert "1.500" in rendered
    with pytest.raises(ValueError):
        table.add_row("only-one")
    with pytest.raises(ValueError):
        AsciiTable([])


def test_bar_chart():
    chart = bar_chart({"a": 0.0, "b": 1.0}, width=10)
    lines = chart.splitlines()
    assert lines[0].count("#") == 0
    assert lines[1].count("#") == 10
    with pytest.raises(ValueError):
        bar_chart({})


def test_format_figure_banner():
    text = format_figure("Title", "body")
    assert "Title" in text and "body" in text
    assert "=====" in text
