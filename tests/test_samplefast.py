"""Sampler recording-route parity and flat-profile-table semantics.

The sampler records a sample one of two ways (DESIGN.md §10): buffered
into a run-length-encoded ring and drained in batches, or on the spot
through the per-sample ``_record``, which resolver-less methods,
K-strikes failures and plans that configure a sampler fault site take.
A zero-rate sampler-site plan such as ``FaultPlan({"sample": 0.0})``
forces every sample through ``_record`` without firing a fault, so it
is the reference the buffered route is checked against: every digest,
cycle count, tick count, and HealthReport must be bit-identical.  These
tests pin that equivalence across the workload suite, on replay-style
and resilient adaptive runs, and exercise the flat tables' dict-shaped
API directly.
"""

import pytest

from repro.bytecode.method import BranchRef
from repro.persist import edge_profile_to_dict, path_profile_to_dict
from repro.profiling.edges import EdgeProfile
from repro.profiling.paths import DENSE_PATH_CAP, PathProfile
from repro.resilience import (
    SAMPLER_FAULT_SITES,
    DegradationPolicy,
    FaultPlan,
    ResilienceManager,
)
from repro.sampling.arnold_grove import make_sampler
from repro.vm.costs import CostModel
from repro.vm.runtime import VirtualMachine
from repro.workloads.generator import random_program
from repro.workloads.suite import benchmark_suite, get_workload

from tests.compile_util import compile_simple
from tests.helpers import CORPUS_SPEC, adaptive_run, counting_program
from tests.test_adaptive_system import hot_loop_program

ALL_WORKLOADS = [w.name for w in benchmark_suite()]

#: A plan that configures a sampler site but never fires: it forces the
#: per-sample ``_record`` route and changes nothing else.
PER_SAMPLE = {"sample": 0.0}


# -- end-to-end route parity -------------------------------------------------


def _cell(workload: str, per_sample: bool, scale: float = 0.5):
    """A replay-methodology PEP(64,17) run of ``workload``."""
    from repro.harness.experiment import prepare
    from repro.persist import payload_checksum

    ctx = prepare(get_workload(workload), scale=scale)
    image = ctx.image("pep")
    vm = VirtualMachine(
        dict(image.code),
        image.main,
        costs=image.costs,
        tick_interval=ctx.tick_interval,
        sampler=make_sampler(64, 17),
        resilience=(
            ResilienceManager(plan=FaultPlan(PER_SAMPLE))
            if per_sample
            else None
        ),
    )
    result = vm.run()
    # Only the drain fills the slot cache: the witness of which route
    # recorded the samples.
    assert bool(vm.edge_slot_cache) is not per_sample
    digest = payload_checksum(
        {
            "paths": path_profile_to_dict(vm.path_profile),
            "edges": edge_profile_to_dict(vm.edge_profile),
            "output": list(vm.output),
            "return_value": result.return_value,
            "cycles": result.cycles,
        }
    )
    return (
        digest,
        result.cycles,
        result.ticks,
        result.samples_taken,
        result.strides_skipped,
    )


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_datapath_parity(workload):
    """Buffered and per-sample recording are bit-identical on every
    workload."""
    buffered = _cell(workload, per_sample=False)
    assert buffered == _cell(workload, per_sample=True)


# -- resilient adaptive runs -------------------------------------------------

#: Resilient plans that configure no sampler fault site, so the sampler
#: buffers their samples, each with its per-sample twin.
PLAN_PAIRS = [
    (None, FaultPlan(PER_SAMPLE)),
    (
        FaultPlan({"opt-compile": 0.5}, seed=4),
        FaultPlan({"opt-compile": 0.5, **PER_SAMPLE}, seed=4),
    ),
]


def _routes(run):
    """``run(plan)`` for each plan pair: the buffered result, then the
    per-sample one."""
    return [(run(buffered), run(twin)) for buffered, twin in PLAN_PAIRS]


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_adaptive_datapath_parity(workload):
    """Resilient adaptive runs buffer their samples, bit for bit."""
    spec = get_workload(workload)
    program = spec.build(0.5)
    runs = _routes(
        lambda plan: adaptive_run(program, spec.ticks_target, 3, plan)
    )
    for buffered, per_sample in runs:
        assert buffered == per_sample
        assert buffered["samples"] > 0


@pytest.mark.parametrize("seed", range(0, 96, 16))
def test_random_program_adaptive_datapath_parity(seed):
    program = random_program(seed, CORPUS_SPEC)
    for buffered, per_sample in _routes(
        lambda plan: adaptive_run(program, 200, 11, plan)
    ):
        assert buffered == per_sample


def test_resilient_runs_buffer_unless_sampler_sites_are_planned():
    """Only the drain fills ``vm.edge_slot_cache``: it is the witness
    that a run recorded its samples through the buffered route."""
    program = hot_loop_program(3000)
    costs = CostModel()

    def run(plan):
        code = compile_simple(program, mode="pep", costs=costs)
        vm = VirtualMachine(
            code,
            program.main,
            costs=costs,
            tick_interval=500.0,
            sampler=make_sampler(16, 5),
            resilience=ResilienceManager(plan=plan),
        )
        vm.run()
        assert vm.samples_taken > 0
        return vm

    assert run(None).edge_slot_cache
    assert run(FaultPlan({"opt-compile": 1.0})).edge_slot_cache
    for site in SAMPLER_FAULT_SITES:
        assert not run(FaultPlan({site: 0.0})).edge_slot_cache


def _k_strikes_run(per_sample, sequence):
    """Feed ``sequence`` of path numbers to one burst, K = 2."""
    program = counting_program(50)
    costs = CostModel()
    code = compile_simple(program, mode="pep", costs=costs)
    cm = next(c for c in code.values() if c.resolver is not None)
    res = ResilienceManager(
        plan=FaultPlan(PER_SAMPLE) if per_sample else None,
        policy=DegradationPolicy(max_reconstruction_failures=2),
    )
    sampler = make_sampler(len(sequence) + 1, 1)
    vm = VirtualMachine(
        code, program.main, costs=costs, sampler=sampler, resilience=res
    )
    sampler.on_tick(vm)
    bad = cm.dag.num_paths + 3
    cost = 0.0
    for path in sequence:
        cost += sampler.on_yieldpoint(vm, cm, bad if path is None else path, True)
    sampler.flush(vm)
    return (
        res.health.to_dict(),
        res.path_profiling_enabled(cm.source_name),
        cost,
        path_profile_to_dict(vm.path_profile),
        edge_profile_to_dict(vm.edge_profile),
    )


@pytest.mark.parametrize(
    "sequence, disabled",
    [
        # A success between failures resets the streak: never disabled,
        # even though the same path repeats (an RLE run on the buffer).
        ([0, None] * 4, False),
        ([0, None, 1, None, 1, None, 0, None], False),
        # Two failures in a row disable; later samples are dropped.
        ([0, None, None, 0, 1, 0], True),
        ([None, 0, None, None, 0], True),
    ],
)
def test_k_strikes_sequence_datapath_parity(sequence, disabled):
    """A failed sample breaks the buffer's RLE run and re-arms its probe,
    so the next buffered sample resets the streak as ``_record`` does."""
    buffered = _k_strikes_run(False, sequence)
    per_sample = _k_strikes_run(True, sequence)
    assert buffered == per_sample
    health, enabled = buffered[0], buffered[1]
    assert enabled is not disabled
    assert health["reconstruction_failures"] == sequence.count(None)


# -- flat path tables --------------------------------------------------------


def test_dense_path_table_matches_dict_semantics():
    dense = PathProfile()
    dense.ensure_dense("m#v1", 8)
    sparse = PathProfile()
    for path, count in [(0, 1.0), (3, 2.0), (0, 1.0), (7, 5.0)]:
        dense.record("m#v1", path, count)
        sparse.record("m#v1", path, count)
    assert sorted(dense.items()) == sorted(sparse.items())
    assert dense.frequency("m#v1", 0) == 2.0
    assert dense.method_paths("m#v1") == sparse.method_paths("m#v1")
    assert dense.total_samples() == sparse.total_samples()
    assert dense.distinct_paths() == sparse.distinct_paths()


def test_dense_table_is_lazy_and_respects_cap():
    profile = PathProfile()
    profile.ensure_dense("big#v1", DENSE_PATH_CAP + 1)  # stays sparse
    profile.ensure_dense("small#v1", 4)
    # Registration alone creates no method entries: an untouched method
    # must stay invisible to items()/digests.
    assert list(profile.items()) == []
    assert len(profile) == 0
    profile.record("small#v1", 2, 1.0)
    profile.record("big#v1", 123456, 1.0)
    assert profile.frequency("small#v1", 2) == 1.0
    assert profile.frequency("big#v1", 123456) == 1.0


def test_dense_table_demotes_on_irregular_counts():
    profile = PathProfile()
    profile.ensure_dense("m#v1", 4)
    profile.record("m#v1", 1, 1.0)
    profile.record("m#v1", 1, 0.5)  # non-integral -> dict fallback
    profile.record("m#v1", 99, 1.0)  # out of range for the dense size
    assert profile.frequency("m#v1", 1) == 1.5
    assert profile.frequency("m#v1", 99) == 1.0
    assert profile.total_samples() == 2.5


def test_merge_and_copy_across_representations():
    a = PathProfile()
    a.ensure_dense("m#v1", 4)
    a.record("m#v1", 1, 2.0)
    b = PathProfile()  # plain sparse profile
    b.record("m#v1", 1, 3.0)
    b.record("m#v1", 3, 1.0)
    a.merge(b)
    assert a.frequency("m#v1", 1) == 5.0
    assert a.frequency("m#v1", 3) == 1.0
    clone = a.copy()
    clone.record("m#v1", 1, 1.0)
    assert a.frequency("m#v1", 1) == 5.0  # copies do not alias
    clone.clear()
    assert clone.total_samples() == 0.0
    clone.record("m#v1", 2, 1.0)  # dense registration survives clear()
    assert clone.frequency("m#v1", 2) == 1.0


# -- flat edge tables --------------------------------------------------------


def test_edge_slot_recording_matches_record():
    events = [
        (BranchRef("m", 0), True),
        (BranchRef("m", 1), False),
        (BranchRef("m", 0), True),
        (BranchRef("n", 2), False),
    ]
    direct = EdgeProfile()
    slotted = EdgeProfile()
    for branch, taken in events:
        direct.record(branch, taken, 2.0)
    slots = [slotted.slot_for(branch, taken) for branch, taken in events]
    slotted.record_slots(slots, 2.0)
    assert dict(direct.items()) == dict(slotted.items())
    assert direct.total_executions() == slotted.total_executions()


def test_edge_profile_copy_flip_restrict_preserve_counts():
    profile = EdgeProfile()
    left, right = BranchRef("m", 0), BranchRef("m", 1)
    profile.record(left, True, 3.0)
    profile.record(left, False, 1.0)
    profile.record(right, True, 2.0)
    clone = profile.copy()
    clone.record(left, True, 1.0)
    assert profile.arm_count(left, True) == 3.0
    flipped = profile.flipped()
    assert flipped.arm_count(left, True) == 1.0
    assert flipped.arm_count(left, False) == 3.0
    restricted = profile.restricted_to([right])
    assert list(restricted.branches()) == [right]
    assert restricted.arm_count(right, True) == 2.0
