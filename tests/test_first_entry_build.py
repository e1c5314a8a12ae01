"""Building each method's code at its first entry (DESIGN.md §8).

``compile_baseline`` always, and ``optimize_method`` without an edge
profile or instrumentation, check their arguments, draw the
``opt-compile`` fault and price the compile at the call, then hand out
an unbuilt method whose passes and lowering run at the first read of
its body: in practice, its first ``Frame``.  A method that is never
entered is never built, and nothing the run computes moves: every test
here compares with an eager build, which the ``eager`` fixture forces.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.adaptive import baseline, optimizing
from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
from repro.api import profile_adaptive
from repro.bytecode.instructions import Const, Emit, Ret
from repro.bytecode.method import Method
from repro.errors import IrreducibleLoopError
from repro.harness import accuracy, experiment
from repro.lang import compile_source
from repro.metrics import overlap, wall
from repro.sampling.arnold_grove import SamplingConfig
from repro.vm import blockjit, pgo
from repro.vm.costs import CostModel
from repro.vm.interpreter import BODY_SLOTS, CompiledMethod
from repro.vm.runtime import VirtualMachine
from repro.workloads.generator import random_program
from repro.workloads.suite import get_workload

from tests.helpers import CORPUS_SPEC, vm_digest
from tests.test_blockjit import _uninterruptible_program

#: ``unused`` is never called, so no run ever enters it.
SOURCE = """
fn unused(n) {
    if (n > 3) { return n - 3; }
    return n + 1;
}
fn helper(n) {
    if (n % 2 == 0) { return n / 2; }
    return 3 * n + 1;
}
fn main() {
    let steps = 0;
    let i = 0;
    while (i < 40) {
        let n = 27 + i;
        while (n != 1) { n = helper(n); steps = steps + 1; }
        i = i + 1;
    }
    emit steps;
    return steps;
}
"""

#: A corpus-pool program (perfbench's corpus-startup shape) whose runs
#: leave some of its methods unentered.
CORPUS_SEED = 3


@pytest.fixture
def eager(monkeypatch):
    """Build every method at its compile call, as the compilers once did."""

    def build_now(source_name, version, tier, cost_multiplier, build):
        return build()

    monkeypatch.setattr(optimizing, "deferred_method", build_now)
    monkeypatch.setattr(baseline, "deferred_method", build_now)


@pytest.fixture
def lowered(monkeypatch):
    """``(method name, tier)`` of every body the two compilers lower."""
    seen = []
    for module in (optimizing, baseline):
        real = module.lower_method

        def counting(method, tier, costs, version=0, _real=real):
            seen.append((method.name, tier))
            return _real(method, tier, costs, version=version)

        monkeypatch.setattr(module, "lower_method", counting)
    return seen


def _built(code) -> set:
    return {name for name, cm in code.items() if type(cm) is CompiledMethod}


def _dry_run(program, costs):
    """perfbench's calibration: an opt-2 dry run of every method."""
    code = {
        method.name: optimizing.optimize_method(method, program, 2, None, costs)[0]
        for method in program.iter_methods()
    }
    return code, VirtualMachine(code, program.main, costs=costs).run()


def _adaptive_run(program, costs, dry):
    """perfbench's adaptive run: PEP(64,17) from baseline code, with the
    timer calibrated to 200 ticks of the dry run."""
    system = AdaptiveSystem(
        program, costs=costs, config=AdaptiveConfig(pep=SamplingConfig(64, 17))
    )
    shells = dict(system.code)
    vm = system.make_vm(
        tick_interval=max(dry.cycles / 200, 1.0), tick_jitter=0.2, jitter_seed=5
    )
    return system, shells, vm, vm.run()


def _startup_run(program):
    costs = CostModel()
    dry_code, dry = _dry_run(program, costs)
    return (dry_code, dry, *_adaptive_run(program, costs, dry))


def _observables(run) -> dict:
    _dry_code, dry, system, _shells, vm, result = run
    return {
        "dry_cycles": dry.cycles,
        "startup_compile_cycles": system.startup_compile_cycles,
        "compile_cycles": result.compile_cycles,
        "compile_log": list(system.compile_log),
        "digest": vm_digest(vm, result),
    }


@pytest.fixture(params=["source", "corpus"])
def program(request):
    if request.param == "source":
        return compile_source(SOURCE, name="unused")
    return random_program(CORPUS_SEED, CORPUS_SPEC)


def test_dry_run_and_bootstrap_build_only_what_they_enter(program, lowered):
    costs = CostModel()
    dry_code, dry = _dry_run(program, costs)
    # The dry run lowers each method it enters once, and only those: a
    # built method has blockjit entries, so its first frame ran.
    dry_lowered = [name for name, _tier in lowered]
    assert sorted(dry_lowered) == sorted(_built(dry_code))
    assert all(dry_code[name].jit_entries is not None for name in dry_lowered)
    assert len(dry_lowered) < len(dry_code)
    # So does the bootstrap; the controller's recompiles build at once.
    del lowered[:]
    system, shells, _vm, _result = _adaptive_run(program, costs, dry)
    base_lowered = [name for name, tier in lowered if tier == "baseline"]
    assert sorted(base_lowered) == sorted(_built(shells))
    assert all(shells[name].jit_entries is not None for name in base_lowered)
    assert len(base_lowered) < len(shells)
    assert len(lowered) - len(base_lowered) == len(system.compile_log)
    # Every method is still priced at start-up.
    assert system.startup_compile_cycles == sum(
        costs.compile_cost("baseline", method.instruction_count())
        for method in program.iter_methods()
    )


def test_start_up_run_equals_an_eager_build(program, request):
    lazy = _observables(_startup_run(program))
    request.getfixturevalue("eager")
    assert lazy == _observables(_startup_run(program))


def test_an_eager_build_lowers_every_method(program, eager, lowered):
    # The reference the other tests compare with builds at the call.
    costs = CostModel()
    _dry_code, dry = _dry_run(program, costs)
    assert len(lowered) == len(program.methods)
    del lowered[:]
    system, _shells, _vm, _result = _adaptive_run(program, costs, dry)
    assert len(lowered) == len(program.methods) + len(system.compile_log)


def _unbuilt_pair():
    program = compile_source(SOURCE, name="unused")
    method = program.methods["helper"]
    costs = CostModel()
    return [
        optimizing.optimize_method(method, program, 2, None, costs)[0],
        baseline.compile_baseline(method, costs)[0],
    ]


def test_reading_the_head_builds_nothing(lowered):
    for cm, tier in zip(_unbuilt_pair(), ("opt2", "baseline")):
        assert (cm.source_name, cm.version, cm.tier) == ("helper", 0, tier)
        assert cm.profile_key == "helper#v0"
        assert cm.cost_multiplier == CostModel().tier_multiplier(tier)
        assert cm.probe_plan is None
        assert cm.dag is None and cm.resolver is None
        assert repr(cm) == f"<CompiledMethod helper#v0 tier={tier}>"
        assert type(cm) is not CompiledMethod
    assert lowered == []


@pytest.mark.parametrize("first", ["blocks", "entry", "num_regs"])
def test_first_body_read_builds_once(first, lowered):
    unbuilt = _unbuilt_pair()
    for cm in unbuilt:
        getattr(cm, first)
        assert type(cm) is CompiledMethod
    assert lowered == [("helper", "opt2"), ("helper", "baseline")]
    for cm in unbuilt:
        for name in BODY_SLOTS:
            getattr(cm, name)
    assert len(lowered) == 2


def test_a_built_method_equals_an_eager_build(request):
    built = _unbuilt_pair()
    for cm in built:
        cm.entry  # build
    request.getfixturevalue("eager")
    reference = _unbuilt_pair()
    assert all(type(ref) is CompiledMethod for ref in reference)
    for cm, ref in zip(built, reference):
        assert blockjit._fingerprint(cm) == blockjit._fingerprint(ref)
        assert blockjit.generate_source(cm) == blockjit.generate_source(ref)
        for name in ("num_regs", "fold_q", "static_size", "dag", "resolver"):
            assert getattr(cm, name) == getattr(ref, name)


def test_writing_a_body_slot_builds_first():
    for cm in _unbuilt_pair():
        cm.fold_q = 0
        assert type(cm) is CompiledMethod
        assert cm.fold_q == 0 and cm.blocks


def _two_entry_program(called: bool):
    """tests/test_blockjit.py's two-entry ``work``, made interruptible.

    Its loop is irreducible, so the yieldpoint pass rejects it.  ``main``
    calls it twelve times, or, with ``called=False``, never.
    """
    program = _uninterruptible_program("two-entry")
    program.methods["work"].uninterruptible = False
    if not called:
        solo = Method("main", num_params=0, num_regs=1)
        entry = solo.new_block("entry")
        entry.append(Const(0, 7))
        entry.append(Emit(0))
        entry.terminator = Ret(0)
        program.methods["main"] = solo.seal()
    return program


def _adaptive_vm(program, use_blockjit: bool):
    system = AdaptiveSystem(
        program, config=AdaptiveConfig(pep=SamplingConfig(8, 3))
    )
    vm = system.make_vm(tick_interval=600.0)
    vm.use_blockjit = use_blockjit
    return system, vm


def test_a_never_entered_method_that_cannot_build_stops_nothing():
    digests = []
    for use_blockjit in (False, True):
        system, vm = _adaptive_vm(_two_entry_program(called=False), use_blockjit)
        digests.append(vm_digest(vm, vm.run()))
        assert type(system.code["work"]) is not CompiledMethod
    assert digests[0] == digests[1]


def test_a_pipeline_error_surfaces_at_first_entry_on_both_engines():
    messages = []
    for use_blockjit in (False, True):
        system, vm = _adaptive_vm(_two_entry_program(called=True), use_blockjit)
        work = system.code["work"]
        with pytest.raises(IrreducibleLoopError) as info:
            vm.run()
        messages.append(str(info.value))
        # main ran up to its call; work stays unbuilt, and the next read
        # of its body raises the same error again.
        assert type(system.code["main"]) is CompiledMethod
        assert type(work) is not CompiledMethod
        with pytest.raises(IrreducibleLoopError) as again:
            work.blocks
        assert str(again.value) == messages[-1]
    assert messages[0] == messages[1]


def test_a_pep_replay_image_builds_only_what_its_runs_enter():
    # Compiling a pep replay image runs no probe-soundness scan (it has
    # no probe plan), and its resolvers are read from the head, so the
    # iteration-2 run, ground truth and scoring leave every baseline
    # method they never enter unbuilt.
    ctx = experiment.prepare(get_workload("jess"), scale=0.3, use_cache=False)
    vm, _result = experiment.run_config(ctx, experiment.pep_config(64, 17))
    perfect = accuracy.collect_perfect_profiles(ctx)
    wall.path_profile_accuracy(perfect.paths, vm.path_profile, perfect.resolvers)
    overlap.relative_overlap(perfect.edges, vm.edge_profile)
    for mode in ("pep", "full-path"):
        image = ctx.image(mode)
        assert image.resolvers()
        baseline_methods = [
            cm for name, cm in image.code.items() if ctx.advice.levels[name] is None
        ]
        assert any(type(cm) is not CompiledMethod for cm in baseline_methods)
        for cm in baseline_methods:
            # A built method ran: blockjit planned its regions.
            assert type(cm) is not CompiledMethod or cm.jit_entries is not None


def test_engagement_summary_equals_an_eager_build(request):
    program = compile_source(SOURCE, name="unused")
    lazy = profile_adaptive(program, samples=16, stride=3, ticks=120)
    lazy_summary = pgo.engagement_summary(lazy.code)
    request.getfixturevalue("eager")
    eager = profile_adaptive(program, samples=16, stride=3, ticks=120)
    assert lazy_summary == pgo.engagement_summary(eager.code)
    assert lazy.result.compile_cycles == eager.result.compile_cycles


@pytest.mark.parametrize("mode", [[], ["--adaptive"]])
def test_cli_profile_json_equals_an_eager_build(tmp_path, capsys, request, mode):
    source = tmp_path / "unused.mj"
    source.write_text(SOURCE)
    argv = ["profile", "--json", "--ticks", "120", *mode, str(source)]
    assert main(argv) == 0
    lazy = json.loads(capsys.readouterr().out)
    request.getfixturevalue("eager")
    assert main(argv) == 0
    assert lazy == json.loads(capsys.readouterr().out)
