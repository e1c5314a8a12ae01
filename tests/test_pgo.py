"""Profile-guided optimization advice: bit-identity and engagement (§14).

Two transforms, two flags: layout may move wall clock only, and
minimum-coverage probe placement may additionally lower the one-shot
edges mode's charges while recovering the same edge profile.  The tests
pin virtual cycles, profiles, traps, fuel and health against the
flag-off run — including aborted runs, flag flips through the
codecache, and the master ``REPRO_PGO=0`` kill switch — and separately
prove each transform actually engages (a parity test over code that
never ran the new path is vacuous).
"""

from __future__ import annotations

import pytest

from repro.adaptive.replay import (
    record_advice,
    replay_compile,
    run_iteration_with_vm,
)
from repro.errors import FuelExhaustedError
from repro.profiling.edges import EdgeProfile
from repro.util import flags
from repro.vm import blockjit, codecache, pgo
from repro.vm.costs import CostModel
from repro.vm.interpreter import T_BR

from tests.helpers import call_program, counting_program, diamond_loop_method
from tests.test_superblock import _adaptive_run, _digest, hot_helper_program

pytestmark = pytest.mark.usefixtures("_isolated")


@pytest.fixture()
def _isolated(monkeypatch):
    # The content-addressed codecache shares CompiledMethod instances
    # across compiles; PGO flag flips inside one test must never be
    # served a stale artefact by a previous test's cache entry.
    monkeypatch.setenv("REPRO_CODECACHE", "0")
    # Pin every PGO flag on (CI kill-switch smoke exports REPRO_PGO=0
    # globally; these tests pin their own flags).
    monkeypatch.setattr(flags, "PGO", True)
    monkeypatch.setattr(flags, "PGO_LAYOUT", None)
    monkeypatch.setattr(flags, "PGO_PROBES", None)


# -- flag resolution ---------------------------------------------------------


def test_master_kill_switch_gates_every_sub_flag(monkeypatch):
    monkeypatch.setattr(flags, "PGO", None)
    for env in (flags.PGO_ENV, flags.PGO_LAYOUT_ENV, flags.PGO_PROBES_ENV):
        monkeypatch.delenv(env, raising=False)
    assert flags.pgo_enabled() is True  # default on
    assert flags.pgo_layout_enabled() is True
    monkeypatch.setenv(flags.PGO_ENV, "0")
    assert flags.pgo_enabled() is False
    # Sub-flags are dead while the master is off, even when forced on.
    monkeypatch.setenv(flags.PGO_LAYOUT_ENV, "1")
    monkeypatch.setenv(flags.PGO_PROBES_ENV, "1")
    assert flags.pgo_layout_enabled() is False
    assert flags.pgo_probes_enabled() is False


def test_sub_flags_resolve_independently(monkeypatch):
    for env in (flags.PGO_ENV, flags.PGO_LAYOUT_ENV, flags.PGO_PROBES_ENV):
        monkeypatch.delenv(env, raising=False)
    monkeypatch.setenv(flags.PGO_LAYOUT_ENV, "0")
    assert flags.pgo_layout_enabled() is False
    assert flags.pgo_probes_enabled() is True
    monkeypatch.setenv(flags.PGO_LAYOUT_ENV, "1")
    monkeypatch.setenv(flags.PGO_PROBES_ENV, "0")
    assert flags.pgo_layout_enabled() is True
    assert flags.pgo_probes_enabled() is False


# -- minimum-coverage probe placement ----------------------------------------


def test_plan_min_coverage_spanning_tree_arithmetic():
    method = diamond_loop_method()
    plan = pgo.plan_min_coverage(method)
    assert plan is not None
    arms = [e for e in plan.edges if e.kind == "arm"]
    nodes = set()
    for e in plan.edges:
        nodes.update((e.src, e.dst))
    # Knuth: |probes| = E - V + 1 over the closed CFG.
    assert plan.probes == len(plan.edges) - len(nodes) + 1
    assert plan.probes < plan.full_probes == len(arms)
    # The unprobed edges (tree) are acyclic and span every node.
    assert all(e.probed or e.kind == "arm" or True for e in plan.edges)


def test_apply_min_coverage_sets_per_arm_masks():
    method = diamond_loop_method()
    plan = pgo.apply_min_coverage(method)
    assert plan is not None
    masks = {}
    for label, block in method.blocks.items():
        term = block.terminator
        if getattr(term, "count_arms", None) is not None and hasattr(
            term, "then_label"
        ):
            masks[label] = term.count_arms
    probed_bits = sum(bin(m).count("1") for m in masks.values())
    assert probed_bits == plan.probes


def _edges_image(program, probes, level=None):
    old = flags.PGO_PROBES
    flags.PGO_PROBES = probes
    try:
        advice = record_advice(program, tick_interval=400.0)
        if level is not None:
            advice.levels = {name: level for name in advice.levels}
        image = replay_compile(program, advice, instrumentation="edges")
    finally:
        flags.PGO_PROBES = old
    return image


def _edge_items(vm):
    return sorted((repr(b), t, c) for b, (t, c) in (
        (b, (vm.edge_profile.arm_count(b, True),
             vm.edge_profile.arm_count(b, False)))
        for b in vm.edge_profile.branches()
    ))


def test_probe_reconstruction_recovers_the_profile_for_fewer_charges():
    program = counting_program(40)
    on = _edges_image(program, probes=True)
    off = _edges_image(program, probes=False)
    planned = [cm for cm in on.code.values() if cm.probe_plan is not None]
    assert planned, "no probe plan placed — test is vacuous"
    assert all(p.probe_plan.probes < p.probe_plan.full_probes
               for p in planned)
    vm_on, res_on = run_iteration_with_vm(on)
    vm_off, res_off = run_iteration_with_vm(off)
    # The recoverable observables are bit-identical ...
    assert _edge_items(vm_on) == _edge_items(vm_off)
    assert sorted(vm_on.path_profile.items()) == sorted(
        vm_off.path_profile.items()
    )
    assert (res_on.return_value, list(vm_on.output)) == (
        res_off.return_value, list(vm_off.output)
    )
    # ... while the probed run charges strictly fewer edge_count costs
    # (the minimum-coverage win this mode exists to measure).
    assert res_on.cycles < res_off.cycles


def test_probe_reconstruction_exact_on_aborted_runs():
    # Fuel exhaustion mid-method leaves in-flight activations; the
    # drain's stuck-frame balance must keep reconstruction exact.
    program = counting_program(400)
    from repro.vm.runtime import VirtualMachine

    digests = []
    for probes in (True, False):
        image = _edges_image(program, probes=probes)
        vm = VirtualMachine(dict(image.code), image.main, costs=image.costs)
        with pytest.raises(FuelExhaustedError) as info:
            vm.run(fuel=700)
        err = info.value
        digests.append((
            _edge_items(vm), err.method, err.block, err.instruction_index,
        ))
    # Fuel is charged per instruction, not per cycle, so the abort site
    # and the reconstructed profile match exactly; only the edge_count
    # cycle charges differ (fewer under probes).
    assert digests[0] == digests[1]


def test_shared_origin_methods_fall_back_to_full_instrumentation():
    # call_program's helper is small enough for the static inliner:
    # main's optimized body carries a copy of helper's branch with the
    # *same* origin, so neither method may keep a probe plan (their
    # reconstructions would double-book the shared origin's arms).
    program = call_program()
    # Force the optimizing tier: the static inliner runs at level>=1.
    image = _edges_image(program, probes=True, level=2)
    shared = pgo.shared_origin_fallbacks(image.code)
    assert "helper" in shared and "main" in shared
    assert all(cm.probe_plan is None for cm in image.code.values())
    vm_on, res_on = run_iteration_with_vm(image)
    vm_off, res_off = run_iteration_with_vm(
        _edges_image(program, probes=False, level=2)
    )
    assert _edge_items(vm_on) == _edge_items(vm_off)
    assert _digest(vm_on, res_on) == _digest(vm_off, res_off)


# -- profile-guided layout ---------------------------------------------------


def _biased_profile(cm):
    profile = EdgeProfile()
    for block in cm.blocks.values():
        term = block.term
        if term[0] == T_BR and term[9] is not None:
            profile.record(term[9], False, 1000.0)
            profile.record(term[9], True, 1.0)
    return profile


def test_layout_order_hot_first_and_canonical_without_profile():
    from repro.adaptive.optimizing import optimize_method

    program = counting_program(10)
    cm, _ = optimize_method(
        program.method("main"), program, 2, None, CostModel()
    )
    # No profile: the canonical block order, so generated sources stay
    # byte-identical to the layout-free shape.
    assert pgo.layout_order(cm, None) == tuple(cm.blocks)
    order = pgo.layout_order(cm, _biased_profile(cm))
    assert order is not None
    assert sorted(order) == sorted(cm.blocks)  # a permutation, not a subset
    assert order != tuple(cm.blocks)  # the bias actually moved something


def test_layout_reorders_source_but_not_a_single_bit(monkeypatch):
    from repro.adaptive.optimizing import optimize_method

    program = counting_program(30)
    method = program.method("main")
    runs = {}
    for layout in (True, False):
        monkeypatch.setattr(flags, "PGO_LAYOUT", layout)
        cm, _ = optimize_method(method, program, 2, None, CostModel())
        cm.pgo_layout = pgo.layout_order(cm, _biased_profile(cm))
        source = blockjit.generate_source(cm)
        image = _edges_image(program, probes=False)
        vm, res = run_iteration_with_vm(image)
        runs[layout] = (source, _digest(vm, res))
    on_source, on_digest = runs[True]
    off_source, off_digest = runs[False]
    assert on_digest == off_digest
    # Same emitted segments, different emission order.
    assert on_source != off_source
    assert sorted(on_source.splitlines()) == sorted(off_source.splitlines())


# -- engagement ----------------------------------------------------------------


def test_engagement_summary_counts_the_tiers():
    system, _, _ = _adaptive_run(hot_helper_program(), superblock=True)
    summary = pgo.engagement_summary(system.code)
    totals = summary["totals"]
    assert totals["superblock_installs"] >= 1
    assert totals["blockjit_methods"] >= 1
    assert totals["fold_coverage"] == 1.0
    row = summary["methods"]["helper"]
    assert row["trace_backend"] == "superblock"
    assert row["fold"] == "certified"
    assert summary["methods"]["main"]["trace_backend"] is None


# -- codecache invalidation on flag flips ------------------------------------


def test_optimize_key_varies_with_every_pgo_flag(monkeypatch):
    program = counting_program(10)
    method = program.method("main")
    costs = CostModel()

    def key():
        return codecache.optimize_key(
            method, program, 2, "edges", False, 0, costs, None,
            min_coverage=flags.pgo_probes_enabled(),
        )

    keys = set()
    for layout, probes in ((None, None), (False, None), (None, False)):
        monkeypatch.setattr(flags, "PGO_LAYOUT", layout)
        monkeypatch.setattr(flags, "PGO_PROBES", probes)
        keys.add(key())
    assert len(keys) == 3
    # The master switch kills both at once: distinct from each.
    monkeypatch.setattr(flags, "PGO", False)
    monkeypatch.setattr(flags, "PGO_LAYOUT", None)
    monkeypatch.setattr(flags, "PGO_PROBES", None)
    keys.add(key())
    assert len(keys) == 4


def test_flag_flip_invalidates_persisted_trace(monkeypatch):
    # A trace generated with layout on must MISS when reinstalled under
    # layout off: the resolved flag and its advice are fingerprinted.
    from repro.vm.superblock import reinstall_persisted, superblock_fingerprint

    system, _, _ = _adaptive_run(hot_helper_program(), superblock=True)
    cm = system.code["helper"]
    assert cm.sb_entry is not None and cm.pgo_layout
    fp_on = superblock_fingerprint(cm, cm.sb_path)
    assert cm.sb_fingerprint == fp_on
    monkeypatch.setattr(flags, "PGO_LAYOUT", False)
    assert superblock_fingerprint(cm, cm.sb_path) != fp_on
    # Simulate the codecache handing the pickled artefact to a process
    # with the flag flipped: the persisted source must be dropped.
    cm.sb_entry = None
    reinstall_persisted(cm, {})
    assert cm.sb_entry is None
    assert cm.sb_source is None  # stale artefact cleared, not replayed


# -- whole-suite parity (all bundled workloads) ---------------------------


def _workload_checksum(workload: str, pgo_on: bool) -> str:
    import repro.api as api
    from repro.persist import payload_checksum
    from repro.workloads.suite import benchmark_suite

    suite = {w.name: w for w in benchmark_suite()}
    saved = (flags.SUPERBLOCK, flags.PGO, flags.PGO_LAYOUT, flags.PGO_PROBES)
    flags.SUPERBLOCK = True
    flags.PGO = pgo_on
    flags.PGO_LAYOUT = pgo_on
    flags.PGO_PROBES = pgo_on
    try:
        program = suite[workload].build(0.3)
        report = api.profile_adaptive(
            program, samples=16, stride=3, ticks=100
        )
    finally:
        (flags.SUPERBLOCK, flags.PGO, flags.PGO_LAYOUT,
         flags.PGO_PROBES) = saved
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


def _all_workload_names():
    from repro.workloads.suite import benchmark_suite

    return [w.name for w in benchmark_suite()]


@pytest.mark.parametrize("workload", _all_workload_names())
def test_workload_digest_parity_pgo_on_off(workload):
    # All PGO steering on (layout; probes has no engagement surface in
    # the adaptive pipeline) vs the master kill switch off: every
    # observable bit of the adaptive run must be identical.
    on = _workload_checksum(workload, pgo_on=True)
    off = _workload_checksum(workload, pgo_on=False)
    assert on == off
