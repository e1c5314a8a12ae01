"""Tests for the adaptive controller and replay compilation."""

import pytest

from repro.adaptive import optimizing
from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
from repro.adaptive.optimizing import optimize_method
from repro.adaptive.replay import (
    record_advice,
    replay_compile,
    run_iteration,
    run_iteration_with_vm,
)
from repro.bytecode.builder import ProgramBuilder
from repro.cfg.loops import analyze_loops
from repro.errors import AdviceError, CompilationError
from repro.instrument import pep, yieldpoints
from repro.profiling.edges import EdgeProfile
from repro.sampling.arnold_grove import SamplingConfig
from repro.vm import blockjit
from repro.vm.costs import CostModel
from repro.vm.interpreter import OP_PEPADD

from tests.helpers import total_samples


def hot_loop_program(iters=4000):
    pb = ProgramBuilder("hot")
    work = pb.function("work", ["n"])
    n = work.p("n")
    acc = work.local(0)
    work.for_range(0, 8, 1, lambda i: work.assign(acc, (acc + n * 3) & 1023))
    work.ret(acc)

    m = pb.function("main")
    total = m.local(0)

    def body(i):
        m.if_(
            (i & 7).eq(0),
            lambda: m.assign(total, total + m.call("work", i)),
            lambda: m.assign(total, (total + i) & 4095),
        )

    m.for_range(0, iters, 1, body)
    m.emit(total)
    m.ret(total)
    return pb.build()


def test_adaptive_recompiles_hot_methods():
    program = hot_loop_program()
    system = AdaptiveSystem(program)
    vm = system.make_vm(tick_interval=3000.0)
    result = vm.run()
    assert result.recompilations > 0
    assert system.levels["main"] is not None
    assert ("main", system.levels["main"]) in system.compile_log
    assert result.compile_cycles > 0


def test_adaptive_reaches_higher_levels_with_more_samples():
    program = hot_loop_program(8000)
    system = AdaptiveSystem(
        program, config=AdaptiveConfig(thresholds=((1, 0), (3, 1), (6, 2)))
    )
    vm = system.make_vm(tick_interval=1500.0)
    vm.run()
    assert system.levels["main"] == 2


def test_adaptive_semantics_stable_across_recompilation():
    program = hot_loop_program(2000)
    # Plain run (no adaptive) vs adaptive run must emit identical output.
    from tests.compile_util import run_program

    _, plain = run_program(program)
    system = AdaptiveSystem(program)
    vm = system.make_vm(tick_interval=2000.0)
    result = vm.run()
    assert result.output == plain.output


def test_adaptive_with_pep_collects_profiles():
    program = hot_loop_program(3000)
    config = AdaptiveConfig(pep=SamplingConfig(8, 3))
    system = AdaptiveSystem(program, config=config)
    vm = system.make_vm(tick_interval=2000.0)
    result = vm.run()
    assert result.samples_taken > 0
    assert total_samples(vm.path_profile) > 0
    assert len(vm.edge_profile) > 0


def test_record_advice_and_replay_determinism():
    program = hot_loop_program(2500)
    advice = record_advice(program, tick_interval=2000.0)
    assert advice.levels["main"] is not None
    assert len(advice.onetime_profile) > 0

    image1 = replay_compile(program, advice)
    image2 = replay_compile(program, advice)
    r1 = run_iteration(image1)
    r2 = run_iteration(image2)
    assert r1.cycles == r2.cycles
    assert r1.output == r2.output


def test_replay_iteration1_includes_compile_time():
    program = hot_loop_program(1500)
    advice = record_advice(program, tick_interval=2000.0)
    image = replay_compile(program, advice)
    it1 = run_iteration(image, include_compile_cycles=True)
    it2 = run_iteration(image, include_compile_cycles=False)
    assert it1.cycles > it2.cycles
    assert it1.cycles - it2.cycles == pytest.approx(image.compile_cycles)


def test_replay_with_pep_sampling_collects_profiles():
    program = hot_loop_program(4000)
    advice = record_advice(program, tick_interval=2000.0)
    image = replay_compile(program, advice, instrumentation="pep")
    vm, result = run_iteration_with_vm(
        image, tick_interval=1500.0, sampling=SamplingConfig(16, 5)
    )
    assert result.samples_taken > 0
    assert total_samples(vm.path_profile) > 0
    assert image.resolvers()


def test_replay_profile_override_changes_layout_costs():
    program = hot_loop_program(3000)
    advice = record_advice(program, tick_interval=2000.0)

    # Perfect continuous profile: collect via full edge instrumentation.
    perfect_image = replay_compile(program, advice, instrumentation="edges")
    vm, _ = run_iteration_with_vm(perfect_image)
    perfect = vm.edge_profile.copy()

    good = replay_compile(program, advice, profile_override=perfect)
    bad = replay_compile(program, advice, profile_override=perfect.flipped())
    good_cycles = run_iteration(good).cycles
    bad_cycles = run_iteration(bad).cycles
    assert bad_cycles > good_cycles  # flipped layout pays penalties


def test_replay_rejects_missing_advice():
    program = hot_loop_program(100)
    advice = record_advice(program, tick_interval=2000.0)
    del advice.levels["work"]
    with pytest.raises(AdviceError):
        replay_compile(program, advice)


def test_optimize_method_rejects_bad_inputs():
    program = hot_loop_program(100)
    method = program.method("main")
    with pytest.raises(CompilationError):
        optimize_method(method, program, 5, None, CostModel())
    with pytest.raises(CompilationError):
        optimize_method(
            method, program, 1, None, CostModel(), instrumentation="magic"
        )


def _pep_shape(cm):
    """The P-DAG, its path count and the placed path-register adds."""
    edges = [(e.src, e.dst, e.kind, e.value) for e in cm.dag.edges]
    adds = [
        (label, op[2])
        for label, block in cm.blocks.items()
        for op in block.ops
        if op[0] == OP_PEPADD
    ]
    return edges, cm.dag.num_paths, adds


@pytest.mark.parametrize("mode", ["pep", "pep-nosmart", "pep-hot"])
def test_pep_compile_analyses_loops_once(monkeypatch, mode):
    # Yieldpoints add no edges, so the yieldpoint pass and PEP share the
    # clone's loop analysis; analysing twice must give the same code.
    calls = []

    def counting(cfg, dom=None):
        calls.append(cfg.method_name)
        return analyze_loops(cfg, dom)

    for module in (optimizing, yieldpoints, pep):
        monkeypatch.setattr(module, "analyze_loops", counting)
    program = hot_loop_program(100)
    method = program.method("main")
    profile = EdgeProfile()

    def compile_main():
        del calls[:]
        cm, _ = optimize_method(
            method, program, 2, profile, CostModel(), instrumentation=mode
        )
        return cm, len(calls)

    shared, analyses = compile_main()
    assert analyses == 1
    monkeypatch.setattr(optimizing, "_PEP_MODES", ())
    afresh, analyses = compile_main()
    assert analyses == 2
    assert _pep_shape(shared) == _pep_shape(afresh)
    assert shared.dag.num_paths > 1 and _pep_shape(shared)[2]
    assert blockjit._fingerprint(shared) == blockjit._fingerprint(afresh)


def test_instrumentation_modes_all_compile_and_run():
    program = hot_loop_program(500)
    advice = record_advice(program, tick_interval=2000.0)
    outputs = set()
    for mode in (None, "pep", "pep-nosmart", "pep-hot", "full-path",
                 "classic-blpp", "edges"):
        image = replay_compile(program, advice, instrumentation=mode)
        result = run_iteration(image)
        outputs.add(tuple(result.output))
    assert len(outputs) == 1  # semantics invariant across instrumentation
