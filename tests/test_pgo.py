"""Minimum-coverage probe placement and tier engagement (§14).

Probe placement lowers the one-shot edges mode's charges while
recovering the same edge profile.  The tests pin the reconstructed
profiles, outputs, and abort sites against a full-placement reference
image — including aborted runs and shared-origin fallbacks — prove the
placement actually engages (a parity test over code that never ran the
new path is vacuous), and that adaptive runs never place a probe.
"""

from __future__ import annotations

import pytest

from repro.adaptive.baseline import compile_baseline
from repro.adaptive.optimizing import optimize_method
from repro.adaptive.replay import (
    ReplayImage,
    record_advice,
    replay_compile,
    run_iteration_with_vm,
)
from repro.errors import FuelExhaustedError
from repro.vm import pgo
from repro.vm.interpreter import T_BR
from repro.workloads.suite import get_workload

from tests.helpers import (
    call_program,
    counting_program,
    diamond_loop_method,
    hot_helper_program,
    small_adaptive_run,
    vm_digest,
)


# -- minimum-coverage probe placement ----------------------------------------


def _spans_the_cfg(edges) -> bool:
    """True when the unprobed ``edges`` are a spanning tree of the closed
    CFG: |V| - 1 of them, closing no (undirected) cycle, touching every
    node."""
    nodes = {node for e in edges for node in (e.src, e.dst)}
    tree = [e for e in edges if not e.probed]
    parent = {node: node for node in nodes}

    def find(node):
        while parent[node] != node:
            node = parent[node]
        return node

    for e in tree:
        a, b = find(e.src), find(e.dst)
        if a == b:
            return False
        parent[a] = b
    touched = {node for e in tree for node in (e.src, e.dst)}
    return len(tree) == len(nodes) - 1 and touched == nodes


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
    # The unprobed edges (tree) are acyclic and span every node ...
    assert _spans_the_cfg(plan.edges)
    # ... which no longer holds once one probed arm joins them.
    flipped = next(e for e in plan.edges if e.probed)
    edges = [
        pgo.PlanEdge(e.src, e.dst, e.kind, e.origin, e.taken,
                     e.probed and e is not flipped)
        for e in plan.edges
    ]
    assert not _spans_the_cfg(edges)


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


def _edges_images(program, level=None):
    """The replayed edges image and its full-placement reference.

    The reference compiles every method the way ``replay_compile``'s
    shared-origin fallback does: ``min_coverage=False``, so each branch
    counts every arm.
    """
    advice = record_advice(program, tick_interval=400.0)
    if level is not None:
        advice.levels = {name: level for name in advice.levels}
    probed = replay_compile(program, advice, instrumentation="edges")
    code = {}
    for method in program.iter_methods():
        method_level = advice.levels[method.name]
        if method_level is None:
            code[method.name], _ = compile_baseline(
                method, probed.costs, version=0
            )
        else:
            code[method.name], _ = optimize_method(
                method,
                program,
                method_level,
                advice.onetime_profile,
                probed.costs,
                version=0,
                instrumentation="edges",
                min_coverage=False,
            )
    full = ReplayImage(code, program.main, probed.compile_cycles, probed.costs)
    return probed, full


def _edge_items(vm):
    return sorted((repr(b), t, c) for b, (t, c) in (
        (b, (vm.edge_profile.arm_count(b, True),
             vm.edge_profile.arm_count(b, False)))
        for b in vm.edge_profile.branches()
    ))


#: Programs whose edges images must place fewer probes than arms.
_PROBE_PROGRAMS = {
    "counting": lambda: counting_program(40),
    "compress": lambda: get_workload("compress").build(1.0),
}


def test_probe_reconstruction_recovers_the_profile_for_fewer_charges():
    for name, build in _PROBE_PROGRAMS.items():
        on, off = _edges_images(build())
        planned = [cm for cm in on.code.values() if cm.probe_plan is not None]
        assert planned, f"{name}: no probe plan placed — test is vacuous"
        # Every plan saves a probe: one that would place all of them is
        # dropped for classic full instrumentation.
        assert all(p.probe_plan.probes < p.probe_plan.full_probes
                   for p in planned), name
        placed = pgo.engagement_summary(on.code)["totals"]["probes_placed"]
        full = pgo.engagement_summary(off.code)["totals"]["probes_placed"]
        assert placed < full, name
        vm_on, res_on = run_iteration_with_vm(on)
        vm_off, res_off = run_iteration_with_vm(off)
        # The recoverable observables are bit-identical ...
        assert _edge_items(vm_on) == _edge_items(vm_off), name
        assert sorted(vm_on.path_profile.items()) == sorted(
            vm_off.path_profile.items()
        ), name
        assert (res_on.return_value, list(vm_on.output)) == (
            res_off.return_value, list(vm_off.output)
        ), name
        # ... while the probed run charges strictly fewer edge_count
        # costs (the minimum-coverage win this mode exists to measure).
        assert res_on.cycles < res_off.cycles, name


def test_plan_that_saves_nothing_is_dropped():
    # compress's main has one branch, whose plan would probe both arms:
    # main keeps classic full instrumentation and no plan.
    on, _ = _edges_images(get_workload("compress").build(1.0))
    main = on.code["main"]
    assert main.probe_plan is None
    masks = [b.term[10] for b in main.blocks.values() if b.term[0] == T_BR]
    assert masks == [3]
    totals = pgo.engagement_summary(on.code)["totals"]
    assert totals["min_coverage_methods"] == 1


def test_probe_reconstruction_exact_on_aborted_runs():
    # Fuel exhaustion mid-method leaves in-flight activations; the
    # drain's stuck-frame balance must keep reconstruction exact.
    program = counting_program(400)
    from repro.vm.runtime import VirtualMachine

    digests = []
    for image in _edges_images(program):
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
    image, full = _edges_images(program, level=2)
    shared = pgo.shared_origin_fallbacks(image.code)
    assert "helper" in shared and "main" in shared
    assert all(cm.probe_plan is None for cm in image.code.values())
    vm_on, res_on = run_iteration_with_vm(image)
    vm_off, res_off = run_iteration_with_vm(full)
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


def test_adaptive_run_places_no_probes():
    # Placement exists only in the one-shot edges pipeline: an adaptive
    # run recompiles methods mid-run, so it places nothing.
    import repro.api as api

    report = api.profile_adaptive(
        hot_helper_program(), samples=16, stride=3, ticks=100
    )
    totals = report.engagement()["totals"]
    assert totals["blockjit_methods"] >= 1
    assert totals["min_coverage_methods"] == 0
