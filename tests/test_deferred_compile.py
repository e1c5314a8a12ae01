"""Generated code compiles at its first call, not when it is generated.

``ensure_jit`` binds every blockjit region root to a placeholder
(DESIGN.md §9).  A superblock trace, by contrast, compiles at install
time and rebinds the head's name over those placeholders.  These tests
pin what that must and must not change:

* a root that is never entered is never compiled;
* a placeholder whose name was rebound since forwards to the current
  binding and compiles nothing;
* a memo-warm ``ensure_jit`` binds real functions only;
* a failure in trace-source generation degrades at promotion, one
  ``superblock-degrade`` per failure, without moving the digest;
* adaptive runs of generated programs match the tuple-interpreter
  oracle bit for bit.
"""

import builtins
import pickle

import pytest

import repro.util.flags as flags
from repro.bytecode.builder import ProgramBuilder
from repro.vm import blockjit, superblock
from repro.vm.blockjit import JitState, ensure_jit
from repro.vm.interpreter import Frame
from repro.vm.runtime import VirtualMachine
from repro.vm.superblock import install_superblock, trace_blocks
from repro.workloads.generator import random_program

from tests.compile_util import compile_simple
from tests.helpers import CORPUS_SPEC, adaptive_run, counting_program
from tests.test_superblock import hot_helper_program

#: The observables an adaptive run of the oracle must reproduce.
ORACLE_KEYS = (
    "digest", "cycles", "ticks", "samples", "strides", "health",
    "compile_log",
)


@pytest.fixture(autouse=True)
def _isolate(monkeypatch):
    # Cold memos, so "never compiled" means exactly that; no shared
    # CompiledMethods from the compilation cache.
    monkeypatch.setenv("REPRO_CODECACHE", "0")
    monkeypatch.setattr(blockjit, "_CODE_OBJECTS", {})
    monkeypatch.setattr(blockjit, "_SEGMENT_CODE", {})
    monkeypatch.setattr(flags, "SUPERBLOCK", True)


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


def _oracle(program, mode=None):
    return _observe(program, compile_simple(program, mode=mode), False)


def _trace_path(cm) -> int:
    return next(
        p for p in range(cm.dag.num_paths) if trace_blocks(cm, p) is not None
    )


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


def test_memo_warm_ensure_jit_binds_no_placeholders(compiled):
    program = counting_program(30)
    code = compile_simple(program)
    VirtualMachine(code, program.main, blockjit=True).run()
    cm = code["main"]
    assert not any(_is_placeholder(fn) for fn in cm.jit_entries.values())
    twin = compile_simple(counting_program(30))["main"]
    clone = pickle.loads(pickle.dumps(cm))
    before = len(compiled)
    for other in (twin, clone):
        assert other.jit_source in (None, cm.jit_source)
        entries = ensure_jit(other)
        assert other.jit_source == cm.jit_source
        assert set(entries) == set(cm.jit_entries)
        for key, fn in entries.items():
            assert not _is_placeholder(fn)
            assert fn.__code__ is cm.jit_entries[key].__code__
            assert fn.__globals__["_cm"] is other
    assert len(compiled) == before


# -- superblock traces ------------------------------------------------------


def test_classic_head_install_sits_over_placeholders(compiled):
    program = hot_helper_program(calls=6, inner=8)
    code = compile_simple(program, mode="pep")
    cm = code["helper"]
    plain = dict(ensure_jit(cm))
    path = _trace_path(cm)
    head = (trace_blocks(cm, path)[0].label, 0)
    assert install_superblock(cm, path)
    assert "def _sb(" in cm.sb_source
    # The install is eager and rebinds the head name only.
    assert compiled.count(cm.sb_source) == 1
    assert cm.jit_entries[head] is cm.sb_entry
    assert not _is_placeholder(cm.sb_entry)
    for key, fn in plain.items():
        if key != head:
            assert cm.jit_entries[key] is fn
    # The head's superseded placeholder runs the trace, compiling and
    # rebinding nothing.
    stale = plain[head]
    text = blockjit._segment_text(cm.jit_source, stale.__name__)

    def head_compiled():
        memo = blockjit._SEGMENT_CODE.get(cm.jit_source, {})
        return stale.__name__ in memo or any(text in src for src in compiled)

    assert _call_leaf(program, code, cm, stale, 3) == _call_leaf(
        program, code, cm, cm.sb_entry, 3
    )
    assert not head_compiled()
    assert stale.__globals__[stale.__name__] is cm.sb_entry
    assert cm.jit_entries[head] is cm.sb_entry
    assert _observe(program, code, True) == _oracle(program, "pep")
    assert not head_compiled()


# -- failures ----------------------------------------------------------------


def test_generation_failure_degrades_at_promotion(monkeypatch):
    program = random_program(32, CORPUS_SPEC)
    clean = adaptive_run(program, 200, 3)
    raised = []

    def generate(cm, trace):
        raised.append(cm.profile_key)
        raise RuntimeError("forced generation failure")

    monkeypatch.setattr(superblock, "generate_trace_source", generate)
    forced = adaptive_run(program, 200, 3)
    degrades = [
        d for d in forced["health"]["degradations"]
        if d[0] == "superblock-degrade"
    ]
    assert degrades and len(degrades) == len(raised)
    assert forced["health"]["degradations"] == degrades
    assert not clean["health"]["degradations"]
    assert (forced["digest"], forced["cycles"]) == (
        clean["digest"], clean["cycles"]
    )


# -- the start-up regime against the oracle ---------------------------------


@pytest.mark.parametrize("seed", range(0, 96, 8))
def test_random_program_adaptive_oracle_parity(seed, monkeypatch):
    program = random_program(seed, CORPUS_SPEC)
    jit = adaptive_run(program, 200, 3)
    monkeypatch.setenv(blockjit.ENV_DISABLE, "0")
    oracle = adaptive_run(program, 200, 3)
    for key in ORACLE_KEYS:
        assert jit[key] == oracle[key], key
