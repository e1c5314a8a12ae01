"""End-to-end profiling invariants.

The paper's section 5.1 derives the perfect edge profile from
instrumentation-based *path* profiling; for that to be sound, expanding
every recorded path into branch events must reproduce exactly the counts
that direct per-branch instrumentation records.  These tests check that
equivalence — for hand-written programs, for both DAG styles, and
property-based over random programs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.profiling.edges import EdgeProfile
from repro.sampling.arnold_grove import make_sampler
from repro.workloads.generator import GeneratorSpec, random_program

from tests.compile_util import compile_simple, expand_path_profile, run_program
from tests.helpers import call_program, counting_program, total_samples


def edge_counts(profile: EdgeProfile):
    return {
        (branch, arm): count
        for branch, (taken, not_taken) in profile.items()
        for arm, count in (("t", taken), ("f", not_taken))
        if count
    }


def assert_profiles_equal(a: EdgeProfile, b: EdgeProfile, msg=""):
    assert edge_counts(a) == edge_counts(b), msg


def perfect_vs_direct(program):
    vm_edges, _ = run_program(program, mode="edges")
    direct = vm_edges.edge_profile

    code = compile_simple(program, mode="full-hash")
    from repro.vm.runtime import VirtualMachine

    vm_paths = VirtualMachine(code, program.main)
    vm_paths.run()
    derived = expand_path_profile(vm_paths, code)
    return direct, derived


def test_path_derived_edges_match_direct_counts_simple():
    direct, derived = perfect_vs_direct(counting_program(20))
    assert_profiles_equal(direct, derived)


def test_path_derived_edges_match_direct_counts_calls():
    direct, derived = perfect_vs_direct(call_program())
    assert_profiles_equal(direct, derived)


def test_classic_blpp_also_reproduces_edge_counts():
    program = counting_program(15)
    vm_edges, _ = run_program(program, mode="edges")

    code = compile_simple(program, mode="classic")
    from repro.vm.runtime import VirtualMachine

    vm = VirtualMachine(code, program.main)
    vm.run()
    derived = expand_path_profile(vm, code)
    assert_profiles_equal(vm_edges.edge_profile, derived)


def test_path_count_updates_match_path_ends():
    """Every header crossing and method exit records exactly one path."""
    program = counting_program(10)
    code = compile_simple(program, mode="full-hash")
    from repro.vm.runtime import VirtualMachine

    vm = VirtualMachine(code, program.main)
    vm.run()
    # Loop runs 10 iterations: the header is crossed 11 times (10 body
    # entries + the final exit test), and main exits once.
    assert total_samples(vm.path_profile) == 12
    assert vm.path_count_updates == 12


def test_pep_sampled_profile_is_subset_of_perfect():
    program = counting_program(200)
    sampler = make_sampler(4, 3)
    vm, result = run_program(
        program, mode="pep", sampler=sampler, tick_interval=500.0
    )
    assert result.samples_taken > 0
    # Sampled paths must be legal path numbers of the method's DAG.
    code = compile_simple(program, mode="pep")
    dags = {cm.profile_key: cm.dag for cm in code.values() if cm.dag}
    for key, number, _freq in vm.path_profile.items():
        assert key in dags
        assert 0 <= number < dags[key].num_paths


def test_pep_sampled_bias_approximates_truth():
    program = counting_program(400)
    vm_truth, _ = run_program(program, mode="edges")
    truth = vm_truth.edge_profile

    sampler = make_sampler(16, 5)
    vm, result = run_program(
        program, mode="pep", sampler=sampler, tick_interval=400.0
    )
    assert result.samples_taken > 50
    est = vm.edge_profile
    shared = [b for b in truth.branches() if b in est]
    assert shared, "sampling collected no branches"
    for branch in shared:
        assert abs(truth.bias(branch) - est.bias(branch)) < 0.25


def test_sampling_costs_charged():
    program = counting_program(400)
    _, base = run_program(program, mode="pep")
    sampler = make_sampler(8, 3)
    _, sampled = run_program(
        program, mode="pep", sampler=sampler, tick_interval=300.0
    )
    assert sampled.cycles > base.cycles
    assert sampled.ticks > 0
    assert sampled.samples_taken > 0


def test_simplified_vs_regular_ag_strides():
    program = counting_program(500)
    simp = make_sampler(8, 4, simplified=True)
    _, r1 = run_program(program, mode="pep", sampler=simp, tick_interval=400.0)
    reg = make_sampler(8, 4, simplified=False)
    _, r2 = run_program(program, mode="pep", sampler=reg, tick_interval=400.0)
    # Regular AG strides between samples: strictly more skips per tick.
    assert r2.strides_skipped > r1.strides_skipped


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_programs_semantics_invariant_under_instrumentation(seed):
    program = random_program(seed, GeneratorSpec(n_helpers=2, work_budget=300))
    outputs = set()
    for mode in (None, "pep", "full-hash", "classic", "edges"):
        # Fuel is per lowered instruction, so the cushion must cover the
        # instrumentation overhead.
        _, result = run_program(program, mode=mode, fuel=8_000_000)
        outputs.add((tuple(result.output), result.return_value))
    assert len(outputs) == 1


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_programs_path_edge_equivalence(seed):
    program = random_program(seed, GeneratorSpec(n_helpers=2, work_budget=300))
    direct, derived = perfect_vs_direct(program)
    assert_profiles_equal(direct, derived, f"seed={seed}")


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_programs_with_uninterruptible_helpers(seed):
    spec = GeneratorSpec(n_helpers=3, work_budget=300, uninterruptible_chance=0.5)
    program = random_program(seed, spec)
    # Semantics must still hold; profiles may lose paths (silent headers).
    base_out = None
    for mode in (None, "pep", "full-hash"):
        # Wide fuel cushion: see semantics-invariance test above.
        _, result = run_program(program, mode=mode, fuel=8_000_000)
        if base_out is None:
            base_out = (tuple(result.output), result.return_value)
        else:
            assert base_out == (tuple(result.output), result.return_value)


# -- PEP(S,K) grid: engine digest parity ------------------------------------
#
# Blockjit (countdown yieldpoints) and the tuple interpreter (the plain
# flush/tick/flag yieldpoint, DESIGN.md §10) must agree bit-for-bit on
# every observable, across sampling configurations that exercise the
# state machine differently: timer-based PEP(1,1), short simplified
# bursts, the committed PEP(64,17), and the regular (stride-between-
# samples) Arnold-Grove variant.

PEP_GRID = [
    (1, 1, True),
    (8, 4, True),
    (64, 17, True),
    (16, 5, False),  # regular Arnold-Grove
]


def _grid_cell(monkeypatch, samples, stride, simplified, blockjit_on):
    import repro.vm.blockjit as blockjit
    from repro.harness.experiment import (
        config_to_spec,
        measure_cell,
        pep_config,
    )

    monkeypatch.setenv(blockjit.ENV_DISABLE, "1" if blockjit_on else "0")
    spec = config_to_spec(pep_config(samples, stride, simplified=simplified))
    metrics = measure_cell("compress", 0.5, spec, seed=7)
    return (
        metrics["digest"],
        metrics["cycles"],
        metrics["ticks"],
        metrics["samples_taken"],
        metrics["strides_skipped"],
    )


@pytest.mark.parametrize("samples,stride,simplified", PEP_GRID)
def test_pep_grid_datapath_engine_parity(
    samples, stride, simplified, monkeypatch
):
    jit = _grid_cell(monkeypatch, samples, stride, simplified, True)
    interp = _grid_cell(monkeypatch, samples, stride, simplified, False)
    assert jit == interp
