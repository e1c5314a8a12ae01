"""Generated code runs cold first and compiles late.

``ensure_jit`` binds every blockjit region root to a placeholder
(DESIGN.md §9).  Its first ``COLD_ENTRIES`` calls run the region's
blocks on the tuple interpreter's loop; the next call compiles the
region.  These tests pin what that must and must not change:

* a root entered at most ``COLD_ENTRIES`` times never reaches
  ``compile()``, however often its neighbours run;
* a loop that runs longer is promoted mid-run, compiles once and still
  matches the oracle;
* a tick taken on the block loop is sampled at the next compiled
  yieldpoint, and a compiled yieldpoint leaves its fast path only when
  a tick is due or the flag is up;
* a placeholder called after its name was bound forwards to the region
  it bound and compiles nothing;
* a compiled region entered below its fuel headroom runs that entry on
  the block loop, which raises the interpreter's error, and with ample
  fuel never does;
* a method source is generated only at a promotion: a program none of
  whose regions runs more than ``COLD_ENTRIES`` entries generates none;
* a memo-warm ``ensure_jit`` binds real functions only, and a twin the
  memo serves runs compiled code without generating any source;
* adaptive runs of generated programs and of the curated workloads
  match the tuple-interpreter oracle bit for bit, at the shipped
  threshold and compiling at first entry.
"""

import builtins
import re
from collections import Counter

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.errors import FuelExhaustedError
from repro.sampling.arnold_grove import make_sampler
from repro.vm import blockjit
from repro.vm.blockjit import ensure_jit
from repro.vm.interpreter import Frame, JitState, run_blocks
from repro.vm.runtime import VirtualMachine
from repro.workloads.generator import random_program
from repro.workloads.suite import benchmark_suite, get_workload

from tests.compile_util import compile_simple
from tests.helpers import (
    COLD_ENTRIES,
    CORPUS_SPEC,
    adaptive_run,
    call_program,
    counting_program,
    is_placeholder,
    region_texts,
)
from tests.test_blockjit import _arms_program

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


@pytest.fixture
def generated(monkeypatch):
    """One entry per method source generated (``_MethodCodegen.generate``)."""
    calls = []
    real = blockjit._MethodCodegen.generate

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(blockjit._MethodCodegen, "generate", spy)
    return calls


@pytest.fixture
def cold_runs(monkeypatch):
    """Block-loop runs per root, keyed ``(method, label, ip)``."""
    runs = Counter()
    real = blockjit.run_blocks

    def count(vm, frame, st, block, ip, stops):
        runs[frame.cm.source_name, block.label, ip] += 1
        return real(vm, frame, st, block, ip, stops)

    monkeypatch.setattr(blockjit, "run_blocks", count)
    return runs


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


def _leaf_state(program, code, cm, args, fuel: int, on: bool):
    vm = VirtualMachine(code, program.main, blockjit=on)
    frame = Frame(cm)
    frame.regs[: len(args)] = args
    vm.guest_stack = [frame]
    st = JitState(fuel)
    st.gate = vm.next_tick
    return vm, frame, st


def _call_leaf(program, code, cm, fn, *args, fuel=10**9):
    """One call of leaf method ``cm`` entered at root ``fn``, driven
    the way ``execute_blockjit`` drives it (no timer, no sampler).

    Returns the return value, the cycles and ``st.fuel`` after each
    exit to another root or return: a loop region whose check fails
    returns itself after each cold iteration, which is no exit.
    """
    vm, frame, st = _leaf_state(program, code, cm, args, fuel, True)
    fuels = []
    while fn is not None:
        nxt = fn(vm, frame, frame.regs, st)
        if nxt is None or nxt.__name__ != fn.__name__:
            fuels.append(st.fuel)
        fn = nxt
    return st.ret_value, st.cyc, fuels


def _run_leaf(program, code, cm, *args, fuel=10**9):
    """:func:`_call_leaf` on the interpreter's block loop, stopping at
    the same roots; a back edge to a loop root runs on, as the loop
    region's ``while`` does."""
    vm, frame, st = _leaf_state(program, code, cm, args, fuel, False)
    plan = blockjit.region_plan(cm)
    stops = frozenset(block.label for _, block, ip in plan.roots if not ip)
    block, fuels = cm.entry, []
    while block is not None:
        nxt = run_blocks(vm, frame, st, block, 0, stops)
        if nxt is not block:
            fuels.append(st.fuel)
        block = nxt
    return st.ret_value, st.cyc, fuels


def _outcome(drive, *args, **kwargs):
    """``(what drive returns, None)``, or ``(None, its fuel error's
    fields)``."""
    try:
        return drive(*args, **kwargs), None
    except FuelExhaustedError as err:
        return None, (str(err), err.method, err.block, err.instruction_index,
                      err.cycles)


def _oracle(program):
    return _observe(program, compile_simple(program), False)


def cold_arm_program(calls: int):
    """A loop of ``calls`` iterations whose ``i < 0`` arm never runs.

    The arm is inlined in the loop's region, but it calls ``cold``, so
    its call-resume point is a root of its own that is never entered.
    The other arm calls ``edge``, whose one root is entered ``calls``
    times; the loop's header is entered once more.
    """
    pb = ProgramBuilder("coldarm")
    g = pb.function("cold", ["n"])
    g.ret(g.p("n") * 2)
    e = pb.function("edge", ["n"])
    e.ret(e.p("n") + 1)
    f = pb.function("main")
    total = f.local(0)
    f.for_range(
        0, calls, 1,
        lambda i: f.if_(
            i < 0,
            lambda: f.assign(total, total - f.call("cold", i)),
            lambda: f.assign(total, total + f.call("edge", i)),
        ),
    )
    f.emit(total)
    f.ret(total)
    return pb.build()


def rare_call_program(iterations: int = 300, every: int = 20):
    """A loop that calls ``rare`` on every ``every``-th iteration.

    The loop compiles early; ``rare`` and the call's resume point are
    entered fewer than ``COLD_ENTRIES`` times, so every call runs them
    on the block loop between two stretches of compiled code.
    """
    pb = ProgramBuilder("rare")
    r = pb.function("rare", ["n"])
    r.ret(r.p("n") * 3 + 1)
    f = pb.function("main")
    total = f.local(0)
    f.for_range(
        0, iterations, 1,
        lambda i: f.if_(
            (i % every).eq(0),
            lambda: f.assign(total, total + f.call("rare", i)),
            lambda: f.assign(total, total + i),
        ),
    )
    f.emit(total)
    f.ret(total)
    return pb.build()


# -- blockjit regions --------------------------------------------------------


def test_never_entered_segment_is_never_compiled(compiled, cold_runs):
    # At the shipped threshold, a root entered at most COLD_ENTRIES
    # times (never, once, or exactly COLD_ENTRIES) runs every entry on
    # the block loop, and its text never reaches compile().
    program = cold_arm_program(COLD_ENTRIES)
    code = compile_simple(program)
    assert _observe(program, code, True) == _oracle(program)
    assert code["cold"].jit_entries is None  # never called
    assert cold_runs["edge", code["edge"].entry.label, 0] == COLD_ENTRIES
    cold = ran = 0
    for name in ("main", "edge"):
        cm = code[name]
        memo = blockjit._SEGMENT_CODE.get(blockjit._fingerprint(cm), {})
        texts = region_texts(cm)
        for (label, ip), fn in cm.jit_entries.items():
            text = texts[fn.__name__]
            runs = cold_runs[name, label, ip]
            if is_placeholder(fn):
                # Still bound, and its text never reached compile().
                assert runs <= COLD_ENTRIES
                assert fn.__globals__[fn.__name__] is fn
                assert fn.__name__ not in memo
                assert not any(text in src for src in compiled)
                cold += runs == 0
            else:
                # The loop header: compiled once, at the entry after its
                # last cold one.
                assert runs == COLD_ENTRIES
                assert fn.__code__ is memo[fn.__name__]
                assert compiled.count(text) == 1
                ran += 1
    assert cold and ran == len(compiled) == 1


@pytest.mark.parametrize("calls, sources", [(COLD_ENTRIES - 1, 0), (COLD_ENTRIES, 1)])
def test_source_is_generated_only_at_a_promotion(calls, sources, generated):
    # With COLD_ENTRIES - 1 iterations no root is entered more than
    # COLD_ENTRIES times (the loop header once more than the body), so
    # nothing compiles and no method source is generated.  One more
    # iteration promotes main's loop: main's source is generated once,
    # and edge, entered COLD_ENTRIES times, still generates nothing.
    program = cold_arm_program(calls)
    code = compile_simple(program)
    assert _observe(program, code, True) == _oracle(program)
    assert all(cm.jit_entries for name, cm in code.items() if name != "cold")
    assert len(generated) == sources


def test_loop_is_promoted_mid_run_and_compiles_once(compiled, cold_runs):
    program = counting_program(3 * COLD_ENTRIES)
    code = compile_simple(program)
    assert _observe(program, code, True) == _oracle(program)
    cm = code["main"]
    (loop,) = blockjit.region_plan(cm).loops
    fn = cm.jit_entries[(loop, 0)]
    assert not is_placeholder(fn)
    # The first COLD_ENTRIES iterations entered the root on the block
    # loop; the next compiled the region, whose ``while`` ran the rest.
    assert cold_runs["main", loop, 0] == COLD_ENTRIES
    assert compiled == [region_texts(cm)[fn.__name__]]
    assert is_placeholder(cm.jit_entries[(cm.entry.label, 0)])


def test_cold_tick_is_sampled_at_next_compiled_yieldpoint(monkeypatch):
    # rare_call_program under PEP(3,2) with ticks every 37 cycles: ticks
    # land in rare's cold entry region, and the bursts they start go on
    # in the compiled loop.  The block loop yields through
    # vm.dispatch_yieldpoint, so each cold run leaves the countdown
    # gate to be refreshed after it.
    program = rare_call_program()
    events = []
    depth = [0]
    real_run, real_slow = blockjit.run_blocks, blockjit.yieldpoint_slow

    def cold(vm, frame, st, block, ip, stops):
        up, ticks = vm.flag, vm.ticks
        depth[0] += 1
        try:
            return real_run(vm, frame, st, block, ip, stops)
        finally:
            depth[0] -= 1
            # Did the run see the flag up, and does it leave it down?
            events.append(("cold", up or vm.ticks > ticks, vm.flag))

    def slow(vm, cm, st, t, path_reg, flag):
        events.append(("slow", t >= vm.next_tick or vm.flag, vm.flag))
        return real_slow(vm, cm, st, t, path_reg, flag)

    monkeypatch.setattr(blockjit, "run_blocks", cold)
    monkeypatch.setattr(blockjit, "yieldpoint_slow", slow)
    runs = []
    for on in (True, False):
        code = compile_simple(program, mode="pep")
        vm = VirtualMachine(
            code, program.main, tick_interval=37.0,
            sampler=make_sampler(3, 2), blockjit=on,
        )
        if on:
            tick, dispatch = vm.on_tick, vm.dispatch_yieldpoint

            def on_tick():
                events.append(("tick", depth[0] > 0, vm.flag))
                tick()

            def cold_yieldpoint(cm, path_reg, flag):
                events.append(("yield", True, vm.flag))
                return dispatch(cm, path_reg, flag)

            vm.on_tick = on_tick
            vm.dispatch_yieldpoint = cold_yieldpoint
        result = vm.run()
        runs.append((
            result.cycles, result.ticks, result.samples_taken,
            result.strides_skipped, sorted(vm.path_profile.items()),
        ))
    assert runs[0] == runs[1]
    # A tick on the block loop whose burst the next yieldpoint after its
    # own (the first to see the flag up) continues in compiled code.
    handoffs = 0
    for k, (kind, in_cold, _) in enumerate(events):
        if kind == "tick" and in_cold:
            later = [e for e in events[k + 1:] if e[0] in ("yield", "slow")]
            handoffs += len(later) > 1 and later[1][0] == "slow"
    assert handoffs
    # Some cold run ends a burst or takes a tick and leaves the flag
    # down, so the compiled gate it hands back must rise to next_tick.
    assert any(up and not flag for kind, up, flag in events if kind == "cold")
    # The gate is exact: a compiled yieldpoint takes its slow path only
    # when a tick is due or the flag is up.
    assert all(due for kind, due, _ in events if kind == "slow")


def test_stale_placeholder_forwards_and_compiles_nothing(compiled):
    program = call_program()
    code = compile_simple(program)
    cm = code["helper"]
    head = (cm.entry.label, 0)
    stale = ensure_jit(cm)[head]
    assert is_placeholder(stale)
    first = _call_leaf(program, code, cm, stale, 3)
    for _ in range(COLD_ENTRIES - 1):
        assert _call_leaf(program, code, cm, stale, 3) == first
    assert not compiled and cm.jit_entries[head] is stale
    # The next call compiles the region and runs it.
    assert _call_leaf(program, code, cm, stale, 3) == first
    assert len(compiled) == 1
    filled = cm.jit_entries[head]
    assert not is_placeholder(filled)
    assert stale.__globals__[stale.__name__] is filled
    # Called again through the old reference, it forwards.
    assert _call_leaf(program, code, cm, stale, 3) == first
    assert len(compiled) == 1


# -- the fuel check -----------------------------------------------------------


def _headrooms(cm) -> dict:
    """Each region's headroom, read from its check, by root key."""
    texts = region_texts(cm)
    return {
        (block.label, ip): int(
            re.search(r"if _fuel < (\d+):", texts[f"_f{bi}_{ip}"]).group(1)
        )
        for bi, block, ip in blockjit.region_plan(cm).roots
    }


@pytest.mark.parametrize(
    "build", [lambda: counting_program(30), _arms_program], ids=["counting", "arms"]
)
def test_a_region_runs_cold_only_below_its_headroom(build, monkeypatch):
    # Compiled at first entry, with ample fuel the regions never reach
    # the block loop.  Below a region's headroom, its entry runs there,
    # and every budget that runs out raises the interpreter's error.
    # ``st.fuel`` after each region exit is the interpreter's too.
    monkeypatch.setattr(blockjit, "COLD_ENTRIES", 0)
    program = build()
    code = compile_simple(program)
    cm = code["main"]
    headrooms = _headrooms(cm)
    runs = []
    real = blockjit.run_blocks

    def spy(vm, frame, st, block, ip, stops):
        runs.append(st.fuel < headrooms[block.label, ip])
        return real(vm, frame, st, block, ip, stops)

    monkeypatch.setattr(blockjit, "run_blocks", spy)
    entry = ensure_jit(cm)[(cm.entry.label, 0)]
    full = _call_leaf(program, code, cm, entry)
    assert not runs
    assert full == _run_leaf(program, code, cm)
    need = 10**9 - full[2][-1]
    for fuel in range(need + 1):
        del runs[:]
        jit = _outcome(_call_leaf, program, code, cm, entry, fuel=fuel)
        assert jit == _outcome(_run_leaf, program, code, cm, fuel=fuel), fuel
        assert all(runs)
        # Only the block loop raises: a budget short of the need ran
        # some entry cold.
        error = jit[1]
        assert (error is not None) == (fuel < need)
        assert runs or error is None


def test_memo_warm_ensure_jit_binds_no_placeholders(compiled, monkeypatch):
    # Warm the memo with every region of the method compiled ...
    monkeypatch.setattr(blockjit, "COLD_ENTRIES", 0)
    program = counting_program(30)
    code = compile_simple(program)
    VirtualMachine(code, program.main, blockjit=True).run()
    cm = code["main"]
    assert not any(is_placeholder(fn) for fn in cm.jit_entries.values())
    # ... and a twin binds them at once, skipping the block loop.
    monkeypatch.setattr(blockjit, "COLD_ENTRIES", COLD_ENTRIES)
    twin = compile_simple(counting_program(30))["main"]
    assert blockjit._fingerprint(twin) == blockjit._fingerprint(cm)
    before = len(compiled)
    entries = ensure_jit(twin)
    assert set(entries) == set(cm.jit_entries)
    for key, fn in entries.items():
        assert not is_placeholder(fn)
        assert fn.__code__ is cm.jit_entries[key].__code__
        assert fn.__globals__["_cm"] is twin
    assert len(compiled) == before


def test_memo_served_twin_generates_nothing(
    compiled, cold_runs, generated, monkeypatch
):
    # Compile every region an image of call_program enters ...
    monkeypatch.setattr(blockjit, "COLD_ENTRIES", 0)
    program = call_program()
    assert _observe(program, compile_simple(program), True) == _oracle(program)
    assert len(generated) == 2  # main and helper
    # ... and a second image at the shipped threshold runs that code
    # from its first entry: no cold run, no source, no compile().
    monkeypatch.setattr(blockjit, "COLD_ENTRIES", COLD_ENTRIES)
    before = len(compiled)
    cold_runs.clear()
    del generated[:]
    twin = compile_simple(program)
    assert _observe(program, twin, True) == _oracle(program)
    assert not cold_runs and not generated
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


@pytest.mark.parametrize("source", ORACLE_PROGRAMS)
def test_random_program_adaptive_oracle_parity_at_first_entry(
    source, monkeypatch, compile_at_first_entry
):
    test_random_program_adaptive_oracle_parity(source, monkeypatch)
