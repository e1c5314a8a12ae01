"""Fast-path equivalence: blockjit's countdown yieldpoint gate and the
NumPy batch drain.

Each fast path must be observationally identical to its reference —
same outputs, same return values, same *exact* virtual cycles, same
path and edge profiles.
"""

from __future__ import annotations

import pytest

from repro.profiling.paths import PathProfile
from repro.sampling.arnold_grove import make_sampler
from repro.vm.costs import CostModel
from repro.vm.runtime import VirtualMachine
from repro.workloads.generator import GeneratorSpec, random_program

from tests.compile_util import compile_simple, run_program
from tests.helpers import counting_program

# The gate checked here is in generated code: compile every region.
pytestmark = pytest.mark.usefixtures("compile_at_first_entry")


def _assert_identical(a, b):
    vm_a, res_a = a
    vm_b, res_b = b
    assert res_a.return_value == res_b.return_value
    assert vm_a.output == vm_b.output
    assert res_a.cycles == res_b.cycles  # exact, not approximate
    assert res_a.ticks == res_b.ticks
    assert res_a.samples_taken == res_b.samples_taken
    assert _path_dict(vm_a.path_profile) == _path_dict(vm_b.path_profile)
    assert _edge_dict(vm_a) == _edge_dict(vm_b)


def _path_dict(profile: PathProfile):
    return {
        (key, number): freq for key, number, freq in profile.items()
    }


def _edge_dict(vm):
    return {
        repr(branch): counts for branch, counts in vm.edge_profile.items()
    }


# -- countdown yieldpoint gate ----------------------------------------------
#
# Blockjit's yieldpoints guard the tick/flag sequence with one countdown
# compare: `_t >= st.gate`, where the gate is -inf while the flag is up
# and next_tick otherwise.  The tuple interpreter keeps the plain
# flush/tick/flag sequence, so it is the independent reference: the gate
# is pure control flow and must match it exactly in cycles, ticks,
# samples, and profiles.


def _run(program, blockjit, mode=None, sampler_args=None, tick_interval=None):
    sampler = make_sampler(*sampler_args) if sampler_args is not None else None
    code = compile_simple(program, mode=mode)
    vm = VirtualMachine(
        code, program.main, costs=CostModel(),
        tick_interval=tick_interval, sampler=sampler, blockjit=blockjit,
    )
    return vm, vm.run()


def _assert_gate_matches_interpreter(program, **kwargs):
    jit = _run(program, True, **kwargs)
    _assert_identical(jit, _run(program, False, **kwargs))


def test_interpreter_gate_equivalence_sampled():
    _assert_gate_matches_interpreter(
        counting_program(400), mode="pep", sampler_args=(8, 3),
        tick_interval=300.0,
    )


def test_interpreter_gate_equivalence_unsampled_ticks():
    # Ticks without a sampler: the gate still has to fire on every tick
    # boundary (flag handling runs through dispatch_yieldpoint).
    _assert_gate_matches_interpreter(
        counting_program(200), tick_interval=150.0
    )


@pytest.mark.parametrize("seed", range(4))
def test_interpreter_gate_equivalence_random_programs(seed):
    program = random_program(
        seed + 200, GeneratorSpec(n_helpers=2, work_budget=250)
    )
    _assert_gate_matches_interpreter(
        program, mode="pep", sampler_args=(4, 5), tick_interval=200.0
    )


# -- NumPy batch drain -------------------------------------------------------


def test_numpy_drain_digest_equivalence(monkeypatch):
    # Satellite of DESIGN.md §10: draining the sampler's RLE buffer
    # through record_slot_batches must be bit-identical to the
    # pure-Python reference loop (counts are integer-valued floats, so
    # the adds are exact in any order).  The sampler picks its drain at
    # construction, so hiding NumPy from it forces the reference loop.
    from repro.profiling.edges import numpy_available
    from repro.sampling import arnold_grove

    if not numpy_available():
        pytest.skip("NumPy not importable in this environment")
    program = counting_program(400)
    with_np = run_program(
        program, mode="pep", sampler=make_sampler(8, 3),
        tick_interval=300.0,
    )
    monkeypatch.setattr(arnold_grove, "numpy_available", lambda: False)
    reference = run_program(
        program, mode="pep", sampler=make_sampler(8, 3),
        tick_interval=300.0,
    )
    _assert_identical(with_np, reference)


def test_numpy_drain_batch_path_is_exercised():
    # Guard against the scatter path silently never running: when NumPy
    # is importable, the drain must route through record_slot_batches
    # (and never the reference loop).
    from repro.profiling.edges import EdgeProfile, numpy_available

    if not numpy_available():
        pytest.skip("NumPy not importable in this environment")
    calls = {"batch": 0, "slots": 0}
    orig_batch = EdgeProfile.record_slot_batches
    orig_slots = EdgeProfile.record_slots

    def spy_batch(self, batches):
        calls["batch"] += 1
        return orig_batch(self, batches)

    def spy_slots(self, slots, count):
        calls["slots"] += 1
        return orig_slots(self, slots, count)

    EdgeProfile.record_slot_batches = spy_batch
    EdgeProfile.record_slots = spy_slots
    try:
        run_program(
            counting_program(400), mode="pep", sampler=make_sampler(8, 3),
            tick_interval=300.0,
        )
    finally:
        EdgeProfile.record_slot_batches = orig_batch
        EdgeProfile.record_slots = orig_slots
    assert calls["batch"] > 0
    assert calls["slots"] == 0


def test_record_slot_batches_vectorized_exactness():
    # Sample drains rarely cross NUMPY_MIN_SLOTS, so the vectorized
    # bincount arm needs direct coverage: mixed narrow/wide entries
    # with duplicate slots must land bit-identical to the sequential
    # reference, including the narrow/wide split inside one call.
    import random
    from array import array

    from repro.profiling.edges import EdgeProfile, numpy_available

    if not numpy_available():
        pytest.skip("NumPy not importable in this environment")
    rng = random.Random(7)
    vectorized = EdgeProfile()
    reference = EdgeProfile()
    for profile in (vectorized, reference):
        for branch in range(64):
            profile.slot_for(branch, True)
    nslots = len(vectorized._arr)
    batches = []
    for _ in range(20):
        width = rng.choice([1, 4, EdgeProfile.NUMPY_MIN_SLOTS - 1,
                            EdgeProfile.NUMPY_MIN_SLOTS, 64, 200])
        slots = array(
            "q", [rng.randrange(nslots) for _ in range(width)]
        )
        batches.append((slots, float(rng.randrange(1, 9))))
    vectorized.record_slot_batches(batches)
    for slots, count in batches:
        reference.record_slots(slots, count)
    assert vectorized._arr == reference._arr
    assert any(
        len(slots) >= EdgeProfile.NUMPY_MIN_SLOTS for slots, _ in batches
    )
