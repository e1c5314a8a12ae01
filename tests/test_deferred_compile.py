"""Generated code compiles at its first call, not when it is generated.

``ensure_jit`` binds every blockjit region root to a placeholder
(DESIGN.md §9).  These tests pin what that must and must not change:

* a root that is never entered is never compiled;
* a placeholder called after its first call filled it forwards to the
  region it bound and compiles nothing;
* a memo-warm ``ensure_jit`` binds real functions only;
* adaptive runs of generated programs and of the curated workloads
  match the tuple-interpreter oracle bit for bit.
"""

import builtins

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.vm import blockjit
from repro.vm.blockjit import JitState, ensure_jit
from repro.vm.interpreter import Frame
from repro.vm.runtime import VirtualMachine
from repro.workloads.generator import random_program
from repro.workloads.suite import benchmark_suite, get_workload

from tests.compile_util import compile_simple
from tests.helpers import (
    CORPUS_SPEC,
    adaptive_run,
    call_program,
    counting_program,
)

#: The observables an adaptive run of the oracle must reproduce.
ORACLE_KEYS = (
    "digest", "cycles", "ticks", "samples", "strides", "health",
    "compile_log",
)


@pytest.fixture(autouse=True)
def _isolate(monkeypatch):
    # A cold code memo, so "never compiled" means exactly that.
    monkeypatch.setattr(blockjit, "_SEGMENT_CODE", {})


@pytest.fixture
def compiled(monkeypatch):
    """Every source text passed to ``compile()`` during the test."""
    sources = []
    real = builtins.compile

    def spy(source, *args, **kwargs):
        sources.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", spy)
    return sources


def _is_placeholder(fn) -> bool:
    return fn.__code__ is blockjit._STUB_CODE


def _observe(program, code, on: bool):
    vm = VirtualMachine(code, program.main, blockjit=on)
    result = vm.run()
    return (
        result.return_value,
        result.cycles,
        list(vm.output),
        sorted(vm.path_profile.items()),
        sorted((repr(b), c) for b, c in vm.edge_profile.items()),
    )


def _call_leaf(program, code, cm, fn, *args):
    """One call of leaf method ``cm`` entered at root ``fn``, driven
    the way ``execute_blockjit`` drives it (no timer, no sampler)."""
    vm = VirtualMachine(code, program.main, blockjit=True)
    frame = Frame(cm)
    frame.regs[: len(args)] = args
    vm.guest_stack = [frame]
    st = JitState(10**9)
    st.gate = vm.next_tick
    nxt = fn(vm, frame, frame.regs, st)
    while nxt is not None:
        nxt = nxt(vm, frame, frame.regs, st)
    return st.ret_value, st.cyc, st.fuel


def _oracle(program):
    return _observe(program, compile_simple(program), False)


def cold_arm_program():
    """A loop whose ``i < 0`` arm never runs.

    The arm is inlined in the loop's region, but it calls ``cold``, so
    its call-resume point is a root of its own that is never entered.
    """
    pb = ProgramBuilder("coldarm")
    g = pb.function("cold", ["n"])
    g.ret(g.p("n") * 2)
    f = pb.function("main")
    total = f.local(0)
    f.for_range(
        0, 12, 1,
        lambda i: f.if_(
            i < 0,
            lambda: f.assign(total, total - f.call("cold", i)),
            lambda: f.assign(total, total + i),
        ),
    )
    f.emit(total)
    f.ret(total)
    return pb.build()


# -- blockjit regions --------------------------------------------------------


def test_never_entered_segment_is_never_compiled(compiled):
    program = cold_arm_program()
    code = compile_simple(program)
    assert _observe(program, code, True) == _oracle(program)
    cm = code["main"]
    cold = [fn for fn in cm.jit_entries.values() if _is_placeholder(fn)]
    assert cold, "every root ran — test is vacuous"
    memo = blockjit._SEGMENT_CODE[cm.jit_source]

    def text(fn):
        return blockjit._segment_text(cm.jit_source, fn.__name__)

    for fn in cold:
        # Still bound, and its text reached compile() neither alone nor
        # inside the whole method source.
        assert fn.__globals__[fn.__name__] is fn
        assert fn.__name__ not in memo
        assert not any(text(fn) in src for src in compiled)
    ran = [fn for fn in cm.jit_entries.values() if not _is_placeholder(fn)]
    assert ran and all(fn.__code__ is memo[fn.__name__] for fn in ran)
    # Each root compiled once, on its own.
    assert sorted(compiled) == sorted(text(fn) for fn in ran)


def test_stale_placeholder_forwards_and_compiles_nothing(compiled):
    program = call_program()
    code = compile_simple(program)
    cm = code["helper"]
    head = (cm.entry.label, 0)
    stale = ensure_jit(cm)[head]
    assert _is_placeholder(stale)
    first = _call_leaf(program, code, cm, stale, 3)
    filled = cm.jit_entries[head]
    assert not _is_placeholder(filled)
    assert stale.__globals__[stale.__name__] is filled
    before = len(compiled)
    assert _call_leaf(program, code, cm, stale, 3) == first
    assert len(compiled) == before


def test_memo_warm_ensure_jit_binds_no_placeholders(compiled):
    program = counting_program(30)
    code = compile_simple(program)
    VirtualMachine(code, program.main, blockjit=True).run()
    cm = code["main"]
    assert not any(_is_placeholder(fn) for fn in cm.jit_entries.values())
    twin = compile_simple(counting_program(30))["main"]
    assert twin.jit_source is None
    before = len(compiled)
    entries = ensure_jit(twin)
    assert twin.jit_source == cm.jit_source
    assert set(entries) == set(cm.jit_entries)
    for key, fn in entries.items():
        assert not _is_placeholder(fn)
        assert fn.__code__ is cm.jit_entries[key].__code__
        assert fn.__globals__["_cm"] is twin
    assert len(compiled) == before


# -- adaptive runs against the oracle ----------------------------------------

#: Generator seeds of corpus programs (the start-up regime), then the
#: curated workloads.
ORACLE_PROGRAMS = [*range(0, 96, 8), *(w.name for w in benchmark_suite())]


@pytest.mark.parametrize("source", ORACLE_PROGRAMS)
def test_random_program_adaptive_oracle_parity(source, monkeypatch):
    if isinstance(source, int):
        program, ticks = random_program(source, CORPUS_SPEC), 200
    else:
        workload = get_workload(source)
        program, ticks = workload.build(0.5), workload.ticks_target
    jit = adaptive_run(program, ticks, 3)
    monkeypatch.setenv(blockjit.ENV_DISABLE, "0")
    oracle = adaptive_run(program, ticks, 3)
    for key in ORACLE_KEYS:
        assert jit[key] == oracle[key], key
