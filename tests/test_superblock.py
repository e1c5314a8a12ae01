"""Path-guided superblock bit-identity and lifecycle (DESIGN.md §11).

A superblock is an alternative compilation of existing lowered blocks —
never a semantic change.  Every test here holds that contract to the
bit: same return values, outputs, exact virtual cycles, path/edge
profiles, ticks and samples whether the hot trace is installed or not,
across engines, tiers, fusion settings, fault plans, adaptive recompiles
mid-run, and codecache-style pickle round-trips.  ``REPRO_SUPERBLOCK=0``
is the kill switch and must be a pure wall-clock toggle.
"""

from __future__ import annotations

import pickle

import pytest

from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.method import Program
from repro.persist import payload_checksum
from repro.resilience import FaultPlan, ResilienceManager
from repro.sampling.arnold_grove import SamplingConfig
from repro.util import flags
from repro.vm import blockjit
from repro.vm.costs import CostModel
from repro.vm.runtime import VirtualMachine
from repro.vm.superblock import (
    MAX_TRACE_BLOCKS,
    find_dominant_path,
    generate_trace_source,
    install_superblock,
    superblock_fingerprint,
    trace_blocks,
)
from repro.workloads.suite import benchmark_suite

from tests.compile_util import compile_simple

ALL_WORKLOADS = [w.name for w in benchmark_suite()]


@pytest.fixture(autouse=True)
def _isolate_codecache(monkeypatch):
    # The content-addressed compile cache returns *shared* CompiledMethod
    # instances across AdaptiveSystems; a superblock installed by one
    # test would leak into the next (bit-identical, but it breaks
    # formation-log and kill-switch assertions).  Disable it per-test.
    monkeypatch.setenv("REPRO_CODECACHE", "0")


def hot_helper_program(calls: int = 200, inner: int = 40) -> Program:
    """main repeatedly calls a helper whose inner loop dominates.

    The helper re-enters after every adaptive recompile (unlike a
    monolithic main, which keeps its original frame for the whole run),
    so its PEP-instrumented versions actually collect path samples and
    the inner loop's cyclic path dominates them.
    """
    pb = ProgramBuilder("hotloop")
    helper = pb.function("helper", ["n"])
    n = helper.p("n")
    acc = helper.local(0)

    def body(i):
        helper.assign(acc, acc + i)
        helper.assign(acc, acc + n)
        helper.assign(acc, acc * 1)
        helper.assign(acc, acc + 2)
        helper.assign(acc, acc - 1)
        helper.assign(acc, acc + i)
        helper.assign(acc, acc + 1)
        helper.assign(acc, acc + i)
        helper.assign(acc, acc + 1)
        helper.assign(acc, acc + i)

    helper.for_range(0, inner, 1, body)
    helper.ret(acc)

    f = pb.function("main")
    total = f.local(0)
    f.for_range(0, calls, 1,
                lambda i: f.assign(total, total + f.call("helper", i)))
    f.emit(total)
    f.ret(total)
    return pb.build()


def _adaptive_run(program: Program, superblock: bool, resilience=None,
                  tick_interval: float = 600.0, min_samples: float = 4.0):
    """One adaptive run with superblock formation pinned on or off."""
    old = flags.SUPERBLOCK
    flags.SUPERBLOCK = superblock
    try:
        config = AdaptiveConfig(
            pep=SamplingConfig(8, 3), superblock_min_samples=min_samples
        )
        system = AdaptiveSystem(program, config=config, resilience=resilience)
        vm = system.make_vm(tick_interval=tick_interval)
        result = vm.run()
    finally:
        flags.SUPERBLOCK = old
    return system, vm, result


def _digest(vm, result):
    return payload_checksum(
        {
            "return_value": result.return_value,
            "output": list(vm.output),
            "cycles": result.cycles,
            "ticks": result.ticks,
            "samples_taken": result.samples_taken,
            "paths": sorted(vm.path_profile.items()),
            "edges": sorted((repr(b), c) for b, c in vm.edge_profile.items()),
        }
    )


# -- dominance ---------------------------------------------------------------


def test_find_dominant_path_empty_and_underpowered():
    assert find_dominant_path({}, 0.5, 1.0) is None
    assert find_dominant_path({3: 4.0}, 0.5, 8.0) is None  # < min samples


def test_find_dominant_path_threshold():
    counts = {0: 6.0, 1: 4.0}
    assert find_dominant_path(counts, 0.5, 1.0) == 0
    assert find_dominant_path(counts, 0.7, 1.0) is None


def test_find_dominant_path_tie_breaks_to_smallest():
    assert find_dominant_path({7: 5.0, 2: 5.0, 9: 5.0}, 0.3, 1.0) == 2


# -- trace extraction and codegen -------------------------------------------


def _pep_image(program: Program):
    return compile_simple(program, mode="pep")


def _installable_path(cm):
    for p in range(cm.dag.num_paths):
        if trace_blocks(cm, p) is not None:
            return p
    return None


def test_trace_blocks_finds_the_loop_trace():
    code = _pep_image(hot_helper_program())
    cm = code["helper"]
    path = _installable_path(cm)
    assert path is not None
    trace = trace_blocks(cm, path)
    assert trace is not None
    assert 2 <= len(trace) <= MAX_TRACE_BLOCKS
    # The trace starts at a split loop header and enters via its bottom.
    top, bottom = trace[0].label, trace[1].label
    assert cm.dag.split_map.get(top) == bottom
    # Every label is a real lowered block, each exactly once.
    labels = [b.label for b in trace]
    assert len(labels) == len(set(labels))
    assert all(label in cm.blocks for label in labels)


def test_trace_blocks_rejects_bad_paths():
    code = _pep_image(hot_helper_program())
    cm = code["helper"]
    assert trace_blocks(cm, -1) is None
    assert trace_blocks(cm, cm.dag.num_paths) is None
    # Acyclic paths (entry->exit, not a loop iteration) never qualify.
    eligible = [
        p for p in range(cm.dag.num_paths) if trace_blocks(cm, p) is not None
    ]
    assert len(eligible) < cm.dag.num_paths


def test_trace_blocks_requires_a_dag():
    code = compile_simple(hot_helper_program())  # no instrumentation
    assert code["helper"].dag is None
    assert trace_blocks(code["helper"], 0) is None


def test_generated_source_shape():
    code = _pep_image(hot_helper_program())
    cm = code["helper"]
    path = _installable_path(cm)
    trace = trace_blocks(cm, path)
    source = generate_trace_source(cm, trace)
    assert "def _sb(vm, frame, regs, st):" in source
    assert "while True:" in source
    assert "continue" in source  # the loop-closing edge
    assert "st.fuel" in source  # per-block fuel charges are baked in


def test_install_superblock_rebinds_head_entry():
    code = _pep_image(hot_helper_program())
    cm = code["helper"]
    path = _installable_path(cm)
    assert install_superblock(cm, path) is True
    assert cm.sb_entry is not None
    assert cm.sb_path == path
    assert cm.sb_fingerprint == superblock_fingerprint(cm, path)
    head = trace_blocks(cm, path)[0].label
    assert cm.jit_entries[(head, 0)] is cm.sb_entry
    # First-wins: a second install (any path) is a no-op.
    assert install_superblock(cm, path) is True


def test_install_superblock_rejects_acyclic_path():
    code = _pep_image(hot_helper_program())
    cm = code["helper"]
    acyclic = next(
        p for p in range(cm.dag.num_paths) if trace_blocks(cm, p) is None
    )
    assert install_superblock(cm, acyclic) is False
    assert cm.sb_entry is None


# -- static-image parity: manual install, all three engines ------------------


def _run_image(program: Program, install: bool, use_blockjit: bool,
               sampler=(8, 3), tick_interval: float = 500.0):
    from repro.sampling.arnold_grove import make_sampler

    code = _pep_image(program)
    if install:
        cm = code["helper"]
        path = _installable_path(cm)
        assert path is not None
        assert install_superblock(cm, path)
    vm = VirtualMachine(
        code, program.main, costs=CostModel(),
        tick_interval=tick_interval, sampler=make_sampler(*sampler),
        blockjit=use_blockjit,
    )
    return vm, vm.run()


def test_static_image_parity_three_ways():
    program = hot_helper_program(calls=80, inner=30)
    superblock = _digest(*_run_image(program, install=True, use_blockjit=True))
    plain_jit = _digest(*_run_image(program, install=False, use_blockjit=True))
    interp = _digest(*_run_image(program, install=False, use_blockjit=False))
    assert superblock == plain_jit == interp


@pytest.mark.parametrize("fuse_env", ["0", "1"])
def test_static_image_parity_fused_and_unfused(fuse_env, monkeypatch):
    monkeypatch.setenv("REPRO_FUSE", fuse_env)
    program = hot_helper_program(calls=60, inner=25)
    superblock = _digest(*_run_image(program, install=True, use_blockjit=True))
    plain_jit = _digest(*_run_image(program, install=False, use_blockjit=True))
    assert superblock == plain_jit


def test_superblock_fuel_exhaustion_parity():
    from repro.errors import FuelExhaustedError

    program = hot_helper_program(calls=80, inner=30)
    seen = []
    for install in (True, False):
        code = _pep_image(program)
        if install:
            cm = code["helper"]
            install_superblock(cm, _installable_path(cm))
        vm = VirtualMachine(
            code, program.main, costs=CostModel(), blockjit=True
        )
        with pytest.raises(FuelExhaustedError) as info:
            vm.run(fuel=3000)
        err = info.value
        seen.append(
            (str(err), err.method, err.block, err.instruction_index,
             err.cycles)
        )
    assert seen[0] == seen[1]


# -- adaptive formation: mid-run installs, recompiles, kill switch -----------


def test_adaptive_superblock_actually_engages():
    system, vm, _ = _adaptive_run(hot_helper_program(), superblock=True)
    assert system.superblock_log, "no superblock formed — test is vacuous"
    name, key, path = system.superblock_log[0]
    assert name == "helper"
    cm = system.code["helper"]
    assert cm.sb_entry is not None
    # All three tiers were exercised on the way up.
    assert {level for _, level in system.compile_log} == {0, 1, 2}


def test_adaptive_parity_superblock_vs_plain_vs_interpreter(monkeypatch):
    program = hot_helper_program()
    on_sys, on_vm, on_res = _adaptive_run(program, superblock=True)
    assert on_sys.superblock_log
    off_sys, off_vm, off_res = _adaptive_run(program, superblock=False)
    assert not off_sys.superblock_log
    monkeypatch.setenv(blockjit.ENV_DISABLE, "0")
    interp_sys, interp_vm, interp_res = _adaptive_run(
        program, superblock=True
    )
    # The interpreter never forms superblocks (blockjit-only), and all
    # three digests are bit-identical.
    assert not interp_sys.superblock_log
    assert (
        _digest(on_vm, on_res)
        == _digest(off_vm, off_res)
        == _digest(interp_vm, interp_res)
    )


def test_kill_switch_environment_resolution(monkeypatch):
    monkeypatch.setattr(flags, "SUPERBLOCK", None)
    monkeypatch.setenv(flags.SUPERBLOCK_ENV, "0")
    assert flags.superblock_enabled() is False
    monkeypatch.setenv(flags.SUPERBLOCK_ENV, "1")
    assert flags.superblock_enabled() is True
    monkeypatch.delenv(flags.SUPERBLOCK_ENV)
    assert flags.superblock_enabled() is True  # default on


def test_superblock_advice_survives_recompile():
    # The controller hands (path, dag fingerprint) of the outgoing
    # version to the recompile; whenever a later version's P-DAG matches,
    # the new body starts hot without waiting for fresh dominance.
    system, _, _ = _adaptive_run(hot_helper_program(calls=400),
                                 superblock=True)
    assert system.superblock_log
    final = system.code["helper"]
    first_key = system.superblock_log[0][1]
    if final.profile_key != first_key:
        # The hot trace was re-established on the newer version (advice
        # or fresh dominance — either way sb_* must be coherent).
        assert final.sb_entry is not None
        assert final.sb_fingerprint == superblock_fingerprint(
            final, final.sb_path
        )


# -- fault injection ---------------------------------------------------------


def test_superblock_compile_fault_degrades_to_plain_blockjit():
    program = hot_helper_program()
    plan = FaultPlan({"superblock-compile": 1.0}, seed=11)
    res_mgr = ResilienceManager(plan=plan)
    system, vm, result = _adaptive_run(
        program, superblock=True, resilience=res_mgr
    )
    assert not system.superblock_log
    helper = system.code["helper"]
    assert helper.sb_path is None
    degradations = [
        (policy, detail)
        for policy, detail in res_mgr.health.degradations
        if policy == "superblock-degrade"
    ]
    assert degradations

    # The degraded run is bit-identical to the same resilient run with
    # formation switched off entirely: an unconfigured site never
    # advances any RNG, so the only difference is the absent trace.
    base_sys, base_vm, base_result = _adaptive_run(
        program, superblock=False, resilience=ResilienceManager()
    )
    assert _digest(vm, result) == _digest(base_vm, base_result)


def test_superblock_with_other_fault_sites_is_bit_identical():
    # Sampling-layer faults fire identically with and without the
    # superblock installed (guards bake in the same fault ordering).
    program = hot_helper_program()
    plan = {"sample": 0.2, "path-table": 0.1}
    runs = []
    for superblock in (True, False):
        system, vm, result = _adaptive_run(
            program, superblock=superblock,
            resilience=ResilienceManager(plan=FaultPlan(plan, seed=5)),
        )
        runs.append((system, _digest(vm, result)))
    assert runs[0][1] == runs[1][1]


# -- persistence (codecache format 4) ----------------------------------------


def _engaged_cm():
    code = _pep_image(hot_helper_program())
    cm = code["helper"]
    path = _installable_path(cm)
    assert install_superblock(cm, path)
    return cm


def test_pickled_superblock_revives_through_ensure_jit(monkeypatch):
    # Pin the switch on: reinstall resolves it at ensure_jit time, so an
    # ambient REPRO_SUPERBLOCK=0 (the CI kill-switch smoke) would
    # legitimately block the revival this test is about.
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    cm = _engaged_cm()
    clone = pickle.loads(pickle.dumps(cm))
    # Callables never pickle; the source + path + fingerprint ride along.
    assert clone.sb_entry is None
    assert clone.jit_entries is None
    assert clone.sb_source == cm.sb_source
    assert clone.sb_path == cm.sb_path
    assert clone.sb_fingerprint == cm.sb_fingerprint
    entries = blockjit.ensure_jit(clone)
    assert clone.sb_entry is not None
    head = trace_blocks(clone, clone.sb_path)[0].label
    assert entries[(head, 0)] is clone.sb_entry


def test_stale_fingerprint_misses_cleanly(monkeypatch):
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    cm = _engaged_cm()
    clone = pickle.loads(pickle.dumps(cm))
    clone.sb_fingerprint = (clone.sb_fingerprint or 0) ^ 1  # corrupt
    entries = blockjit.ensure_jit(clone)
    # Stale advice is dropped wholesale; plain entries still work.
    assert clone.sb_entry is None
    assert clone.sb_source is None
    assert clone.sb_path is None
    head = next(iter(clone.blocks))
    assert (head, 0) in entries


def test_kill_switch_blocks_persisted_reinstall():
    cm = _engaged_cm()
    clone = pickle.loads(pickle.dumps(cm))
    old = flags.SUPERBLOCK
    flags.SUPERBLOCK = False
    try:
        blockjit.ensure_jit(clone)
        assert clone.sb_entry is None
        # The artefacts stay for a later enabled process (not cleared:
        # the fingerprint still matches, only the switch is down).
        assert clone.sb_source is not None
    finally:
        flags.SUPERBLOCK = old


def test_pickle_roundtrip_run_parity():
    program = hot_helper_program(calls=80, inner=30)
    from repro.sampling.arnold_grove import make_sampler

    runs = []
    for roundtrip in (False, True):
        code = _pep_image(program)
        cm = code["helper"]
        install_superblock(cm, _installable_path(cm))
        if roundtrip:
            code = {
                name: pickle.loads(pickle.dumps(m))
                for name, m in code.items()
            }
        vm = VirtualMachine(
            code, program.main, costs=CostModel(), tick_interval=500.0,
            sampler=make_sampler(8, 3), blockjit=True,
        )
        runs.append(_digest(vm, vm.run()))
    assert runs[0] == runs[1]


# -- whole-suite parity (all bundled workloads) ---------------------------


def _workload_checksum(workload: str, superblock: bool) -> str:
    import repro.api as api

    suite = {w.name: w for w in benchmark_suite()}
    old = flags.SUPERBLOCK
    flags.SUPERBLOCK = superblock
    try:
        program = suite[workload].build(0.3)
        report = api.profile_adaptive(
            program, samples=16, stride=3, ticks=100
        )
    finally:
        flags.SUPERBLOCK = old
    return payload_checksum(
        {
            "paths": sorted(report.paths.items()),
            "edges": sorted((repr(b), c) for b, c in report.edges.items()),
            "output": list(report.result.output),
            "return_value": report.result.return_value,
            "cycles": report.result.cycles,
            "recompilations": report.result.recompilations,
            "compile_cycles": report.result.compile_cycles,
            "health": report.health.to_dict(),
        }
    )


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_digest_parity(workload):
    on = _workload_checksum(workload, superblock=True)
    off = _workload_checksum(workload, superblock=False)
    assert on == off
