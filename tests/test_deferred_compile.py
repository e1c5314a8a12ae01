"""Generated code compiles at its first call, not when it is generated.

``ensure_jit`` binds every blockjit segment to a placeholder, and a
ladder install (``tracefast.install_source``) binds every entry of the
method to a placeholder of the ladder's wrappers (DESIGN.md §9, §13).
These tests pin what that must and must not change:

* a segment that never runs is never compiled;
* a placeholder whose name was rebound since forwards to the current
  binding and compiles nothing;
* ``jit_entries[(head, 0)] is cm.sb_entry`` before and after a fill;
* a memo-warm ``ensure_jit`` binds real functions only;
* a failure in source generation still degrades at promotion, and a
  ladder that fails to compile at first entry falls back to the plain
  segments without a trace in the HealthReport or the digest;
* adaptive runs of generated programs match the tuple-interpreter
  oracle bit for bit.
"""

import builtins
import pickle

import pytest

import repro.util.flags as flags
from repro.bytecode.builder import ProgramBuilder
from repro.resilience import ResilienceManager
from repro.vm import aot, blockjit, tracefast
from repro.vm.blockjit import JitState, ensure_jit
from repro.vm.costs import CostModel
from repro.vm.interpreter import Frame
from repro.vm.runtime import VirtualMachine
from repro.vm.superblock import install_superblock, trace_blocks
from repro.workloads.generator import random_program

from tests.compile_util import compile_simple
from tests.helpers import CORPUS_SPEC, adaptive_run, counting_program
from tests.test_pgo import _inline_run, inline_candidate_program
from tests.test_superblock import _adaptive_run, _digest, hot_helper_program

#: The observables an adaptive run of the oracle must reproduce.
ORACLE_KEYS = (
    "digest", "cycles", "ticks", "samples", "strides", "health",
    "compile_log",
)


@pytest.fixture(autouse=True)
def _isolate(monkeypatch):
    # Cold memos, so "never compiled" means exactly that; no shared
    # CompiledMethods from the compilation cache; ladders on the exec
    # path (the AOT job exports a working toolchain), unless a test
    # pins otherwise.
    monkeypatch.setenv("REPRO_CODECACHE", "0")
    monkeypatch.setattr(blockjit, "_CODE_OBJECTS", {})
    monkeypatch.setattr(blockjit, "_SEGMENT_CODE", {})
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    monkeypatch.setattr(flags, "TRACEFAST", True)
    monkeypatch.setattr(flags, "TRACEFAST_AOT", False)


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
    # getattr: natively compiled (AOT) functions need not expose __code__.
    return getattr(fn, "__code__", None) is blockjit._STUB_CODE


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
    """One call of leaf method ``cm`` entered at segment ``fn``, driven
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
    """A loop whose ``i < 0`` arm never runs."""
    pb = ProgramBuilder("coldarm")
    f = pb.function("main")
    total = f.local(0)
    f.for_range(
        0, 12, 1,
        lambda i: f.if_(
            i < 0,
            lambda: f.assign(total, total - 1000),
            lambda: f.assign(total, total + i),
        ),
    )
    f.emit(total)
    f.ret(total)
    return pb.build()


# -- blockjit segments -------------------------------------------------------


def test_never_entered_segment_is_never_compiled(compiled):
    program = cold_arm_program()
    code = compile_simple(program)
    assert _observe(program, code, True) == _oracle(program)
    cm = code["main"]
    cold = [fn for fn in cm.jit_entries.values() if _is_placeholder(fn)]
    assert cold, "every segment ran — test is vacuous"
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
    # Each segment compiled once, on its own.
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


# -- ladders -----------------------------------------------------------------


def test_sb_entry_follows_the_fill(compiled):
    program = hot_helper_program(calls=6, inner=8)
    code = compile_simple(program, mode="pep")
    cm = code["helper"]
    path = _trace_path(cm)
    assert install_superblock(cm, path, CostModel())
    head = (trace_blocks(cm, path)[0].label, 0)
    assert _is_placeholder(cm.sb_entry)
    assert cm.jit_entries[head] is cm.sb_entry
    assert all(_is_placeholder(fn) for fn in cm.jit_entries.values())
    assert cm.sb_source not in compiled  # promotion generated, no compile
    assert _observe(program, code, True) == _oracle(program, "pep")
    assert not _is_placeholder(cm.sb_entry)
    assert cm.jit_entries[head] is cm.sb_entry
    assert not any(_is_placeholder(fn) for fn in cm.jit_entries.values())
    assert compiled.count(cm.sb_source) == 1


def test_regenerated_ladder_replaces_one_that_never_ran(
    monkeypatch, compiled
):
    program = hot_helper_program(calls=6, inner=8)
    code = compile_simple(program, mode="pep")
    cm = code["helper"]
    path = _trace_path(cm)
    assert install_superblock(cm, path, CostModel())
    stale = cm.sb_entry
    cells = dict(zip(stale.__code__.co_freevars, stale.__closure__))
    old_fill = cells["fill"].cell_contents
    fills = []
    real_call = tracefast._LadderFill.__call__

    def spy(self, stub):
        fills.append(self)
        return real_call(self, stub)

    monkeypatch.setattr(tracefast._LadderFill, "__call__", spy)
    # What _refresh_inline_callers does to a caller whose inline advice
    # moved, here on a ladder nothing has entered yet.
    cm.sb_entry = None
    cm.sb_source = None
    cm.sb_fingerprint = None
    assert install_superblock(cm, cm.sb_path, CostModel())
    assert cm.sb_path == path and _is_placeholder(cm.sb_entry)
    assert cm.sb_entry is not stale
    # A caller that looked the head up before the regeneration runs the
    # new ladder; the old fill never runs.
    fresh = compile_simple(program, mode="pep")["helper"]
    head = (trace_blocks(cm, path)[0].label, 0)
    expected = _call_leaf(program, code, fresh, ensure_jit(fresh)[head], 3)
    assert _call_leaf(program, code, cm, stale, 3) == expected
    assert fills and all(fill is not old_fill for fill in fills)
    assert not _is_placeholder(cm.sb_entry)
    assert cm.jit_entries[head] is cm.sb_entry
    assert stale.__globals__[stale.__name__] is cm.sb_entry
    assert not any(_is_placeholder(fn) for fn in cm.jit_entries.values())
    assert compiled.count(cm.sb_source) == 1


def test_plain_placeholder_after_ladder_install_runs_the_ladder(compiled):
    program = hot_helper_program(calls=6, inner=8)
    code = compile_simple(program, mode="pep")
    cm = code["helper"]
    plain = dict(ensure_jit(cm))
    assert all(_is_placeholder(fn) for fn in plain.values())
    assert install_superblock(cm, _trace_path(cm), CostModel())
    entry = (cm.entry.label, 0)
    cm.jit_entries[entry] = plain[entry]
    assert _observe(program, code, True) == _oracle(program, "pep")
    # The plain segments were never compiled: the stale placeholder
    # forwarded into the ladder, which bound every entry.
    assert cm.jit_source not in blockjit._SEGMENT_CODE
    assert compiled.count(cm.sb_source) == 1
    assert not any(_is_placeholder(fn) for fn in cm.jit_entries.values())


def test_classic_head_install_sits_over_placeholders(monkeypatch, compiled):
    monkeypatch.setattr(flags, "TRACEFAST", False)
    program = hot_helper_program(calls=6, inner=8)
    code = compile_simple(program, mode="pep")
    cm = code["helper"]
    plain = dict(ensure_jit(cm))
    path = _trace_path(cm)
    head = (trace_blocks(cm, path)[0].label, 0)
    assert install_superblock(cm, path, CostModel())
    assert "def _sb(" in cm.sb_source
    # The classic install stays eager and rebinds the head name only.
    assert compiled.count(cm.sb_source) == 1
    assert cm.jit_entries[head] is cm.sb_entry
    assert not _is_placeholder(cm.sb_entry)
    for key, fn in plain.items():
        if key != head:
            assert cm.jit_entries[key] is fn
    # The head's superseded placeholder runs the trace, compiling and
    # rebinding nothing.
    stale = plain[head]
    assert _call_leaf(program, code, cm, stale, 3) == _call_leaf(
        program, code, cm, cm.sb_entry, 3
    )
    assert stale.__name__ not in blockjit._SEGMENT_CODE[cm.jit_source]
    assert stale.__globals__[stale.__name__] is cm.sb_entry
    assert cm.jit_entries[head] is cm.sb_entry
    assert _observe(program, code, True) == _oracle(program, "pep")
    assert stale.__name__ not in blockjit._SEGMENT_CODE[cm.jit_source]


def test_aot_loaded_ladder_binds_at_once(monkeypatch):
    def load_functions(cm, source):
        # A stand-in for a built extension where no toolchain exists:
        # the same functions, loaded at install time.
        ns = blockjit._namespace(cm)
        ns.update(tracefast._inline_namespace(cm))
        exec(source, ns)
        return {k: v for k, v in ns.items() if k == "_m" or k.startswith("_f")}

    monkeypatch.setattr(flags, "TRACEFAST_AOT", True)
    if not aot.aot_available():
        monkeypatch.setattr(aot, "load_functions", load_functions)
    program = hot_helper_program(calls=6, inner=8)
    code = compile_simple(program, mode="pep")
    cm = code["helper"]
    main_entries = ensure_jit(code["main"])
    assert install_superblock(cm, _trace_path(cm), CostModel())
    # The ladder is bound at once; the plain segments around it compile
    # at their first calls.
    assert not any(_is_placeholder(fn) for fn in cm.jit_entries.values())
    assert all(_is_placeholder(fn) for fn in main_entries.values())
    assert _observe(program, code, True) == _oracle(program, "pep")


# -- failures ----------------------------------------------------------------


def _forced_generation(monkeypatch, when):
    """Make ``generate_method_source`` raise whenever ``when(cm, trace)``."""
    real = tracefast.generate_method_source
    raised = []

    def generate(cm, trace, costs=None):
        if when(cm, trace):
            raised.append(cm.profile_key)
            raise RuntimeError("forced generation failure")
        return real(cm, trace, costs)

    monkeypatch.setattr(tracefast, "generate_method_source", generate)
    return raised


def test_generation_failure_degrades_at_promotion(monkeypatch):
    program = random_program(32, CORPUS_SPEC)
    clean = adaptive_run(program, 200, 3)
    raised = _forced_generation(monkeypatch, lambda cm, trace: True)
    forced = adaptive_run(program, 200, 3)
    degrades = [
        d for d in forced["health"]["degradations"]
        if d[0] == "tracefast-degrade"
    ]
    assert degrades and len(degrades) == len(raised)
    assert forced["health"]["degradations"] == degrades
    assert not clean["health"]["degradations"]
    assert (forced["digest"], forced["cycles"]) == (
        clean["digest"], clean["cycles"]
    )


def test_generation_failure_in_inline_refresh_is_swallowed(monkeypatch):
    program = inline_candidate_program()
    _, clean_vm, clean_res = _inline_run(program, inline=True)
    # A refresh clears the caller's source but keeps its path; no
    # promotion or advice install generates in that state.
    raised = _forced_generation(
        monkeypatch,
        lambda cm, trace: cm.sb_source is None and cm.sb_path is not None,
    )
    _, vm, res = _inline_run(program, inline=True)
    assert raised, "no inline refresh regenerated — test is vacuous"
    assert _digest(vm, res) == _digest(clean_vm, clean_res)


@pytest.mark.parametrize("error", [SyntaxError, ValueError, RecursionError])
def test_ladder_compile_failure_falls_back_to_plain_segments(
    error, monkeypatch
):
    program = hot_helper_program(calls=6, inner=8)
    code = compile_simple(program, mode="pep")
    cm = code["helper"]
    assert install_superblock(cm, _trace_path(cm), CostModel())

    def compile_memo(source, filename):
        raise error("forced compile failure")

    monkeypatch.setattr(tracefast, "compile_memo", compile_memo)
    assert _observe(program, code, True) == _oracle(program, "pep")
    assert cm.sb_entry is None
    assert (cm.sb_source, cm.sb_path, cm.sb_fingerprint) == (None, None, None)
    for fn in cm.jit_entries.values():
        assert _is_placeholder(fn) or fn.__code__.co_filename == "<blockjit>"
    assert "_m" not in next(iter(cm.jit_entries.values())).__globals__


def test_ladder_compile_failure_keeps_health_and_digest(monkeypatch):
    program = hot_helper_program()
    clean_sys, clean_vm, clean_res = _adaptive_run(
        program, superblock=True, resilience=ResilienceManager()
    )
    assert clean_sys.code["helper"].sb_entry is not None

    def compile_memo(source, filename):
        raise SyntaxError("forced compile failure")

    monkeypatch.setattr(tracefast, "compile_memo", compile_memo)
    sys_, vm, res = _adaptive_run(
        program, superblock=True, resilience=ResilienceManager()
    )
    assert sys_.superblock_log, "no trace promoted — test is vacuous"
    assert sys_.code["helper"].sb_entry is None
    assert res.health == clean_res.health
    assert _digest(vm, res) == _digest(clean_vm, clean_res)


# -- the start-up regime against the oracle ---------------------------------


@pytest.mark.parametrize("seed", range(0, 96, 8))
def test_random_program_adaptive_oracle_parity(seed, monkeypatch):
    program = random_program(seed, CORPUS_SPEC)
    jit = adaptive_run(program, 200, 3)
    monkeypatch.setenv(blockjit.ENV_DISABLE, "0")
    oracle = adaptive_run(program, 200, 3)
    for key in ORACLE_KEYS:
        assert jit[key] == oracle[key], key
