"""Timer catch-up: one step over every elapsed interval, bit for bit.

``VirtualMachine.on_tick`` advances the virtual timer across all the
intervals that elapsed since the last yieldpoint in one step (DESIGN.md
§10, timer catch-up): long gaps in NumPy blocks, short ones in a scalar
loop.  Both must reproduce the per-interval loop exactly — the same
jitter draws, the same left-to-right float additions — and the sampler
hears one tick per catch-up while ``vm.ticks`` counts every interval.
"""

import random

import pytest

try:
    import numpy
except ImportError:  # the block path is skipped without NumPy
    numpy = None

from repro.sampling.arnold_grove import TimerMethodSampler
from repro.util.rng import JUMP_BLOCK, DeterministicRng
from repro.vm import runtime
from repro.vm.runtime import BULK_MIN_INTERVALS, VirtualMachine, advance_timer
from repro.workloads.generator import random_program
from repro.workloads.suite import benchmark_suite, get_workload

from tests.compile_util import compile_simple
from tests.helpers import CORPUS_SPEC, adaptive_run, counting_program

needs_numpy = pytest.mark.skipif(
    numpy is None, reason="the block path needs NumPy"
)

ALL_WORKLOADS = [w.name for w in benchmark_suite()]

#: Gaps, in nominal intervals, from one tick to past one jump-table block.
GAPS = (
    0, 1, 2, BULK_MIN_INTERVALS - 1, BULK_MIN_INTERVALS, 500,
    JUMP_BLOCK - 1, JUMP_BLOCK, JUMP_BLOCK + 1, 2 * JUMP_BLOCK + 123,
)


def reference_advance(next_tick, cycles, interval, jitter, rng):
    """The reference: one jitter draw and one float add per interval."""
    count = 0
    while cycles >= next_tick:
        step = interval
        if rng is not None:
            offset = (rng.random() - 0.5) * 2 * jitter
            step = step * (1.0 + offset)
        next_tick += step
        count += 1
    return count, next_tick


def _cases(jitter):
    """(next_tick, cycles, interval, rng seed) over random states and gaps."""
    draw = random.Random(int(jitter * 1000) + 17)
    for gap in GAPS:
        for _ in range(3):
            interval = draw.choice((1.0, 3.7, draw.uniform(1.0, 1e5)))
            next_tick = draw.uniform(0.0, 1e9)
            cycles = next_tick + gap * interval + draw.uniform(0.0, interval)
            yield next_tick, cycles, interval, draw.getrandbits(64)
    # A gap ending exactly on a tick boundary takes that tick.
    yield 1000.0, 1000.0, 10.0, 5


def _check(advance, jitter):
    for next_tick, cycles, interval, seed in _cases(jitter):
        ref_rng = DeterministicRng(seed) if jitter else None
        rng = DeterministicRng(seed) if jitter else None
        expected = reference_advance(next_tick, cycles, interval, jitter, ref_rng)
        got = advance(next_tick, cycles, interval, jitter, rng)
        # Tuple equality on floats is bitwise here: no NaNs, no -0.0.
        assert got == expected, (next_tick, cycles, interval, seed)
        if rng is not None:
            assert rng.next_u32() == ref_rng.next_u32()


@pytest.mark.parametrize("jitter", [0.0, 0.2, 0.5, 0.9])
@needs_numpy
def test_block_advance_matches_per_interval_loop(jitter):
    _check(runtime._advance_blocks, jitter)


@pytest.mark.parametrize("jitter", [0.0, 0.2, 0.5, 0.9])
def test_scalar_advance_matches_per_interval_loop(jitter, monkeypatch):
    monkeypatch.setattr(runtime, "_np", None)
    _check(advance_timer, jitter)


@needs_numpy
def test_long_catch_ups_take_the_block_path(monkeypatch):
    calls = []
    blocks = runtime._advance_blocks

    def spy(*args):
        calls.append(args)
        return blocks(*args)

    monkeypatch.setattr(runtime, "_advance_blocks", spy)
    assert advance_timer(100.0, 100.0, 100.0, 0.0, None) == (1, 200.0)
    assert calls == []
    long_gap = 100.0 + BULK_MIN_INTERVALS * 100.0
    count, _ = advance_timer(100.0, long_gap, 100.0, 0.2, DeterministicRng(3))
    assert len(calls) == 1 and count > 1


# -- the sampler contract ----------------------------------------------------


class CountingSampler(TimerMethodSampler):
    """Counts the ticks the VM notifies it of."""

    def __init__(self):
        self.heard = 0

    def on_tick(self, vm):
        self.heard += 1
        super().on_tick(vm)


def test_one_sampler_tick_per_catch_up():
    program = counting_program(100)
    sampler = CountingSampler()
    vm = VirtualMachine(
        compile_simple(program), program.main, tick_interval=100.0,
        sampler=sampler,
    )
    vm.cycles = 1000.0
    vm.on_tick()
    assert (vm.ticks, vm.next_tick, sampler.heard) == (10, 1100.0, 1)
    assert vm.flag
    vm.on_tick()  # the timer has caught up: nothing happens
    assert (vm.ticks, sampler.heard) == (10, 1)


def test_sampler_hears_each_on_tick_once_in_a_run():
    program = counting_program(2000)
    sampler = CountingSampler()
    vm = VirtualMachine(
        compile_simple(program), program.main, tick_interval=500.0,
        sampler=sampler, tick_jitter=0.2, jitter_seed=4,
    )
    advances = []
    on_tick = vm.on_tick

    def counted():
        before = vm.ticks
        on_tick()
        advances.append(vm.ticks - before)

    vm.on_tick = counted
    vm.cycles += 100 * 500.0  # a start-up compile charge, as make_vm adds
    result = vm.run()
    assert sampler.heard == len(advances)
    assert sum(advances) == result.ticks
    # The charge is one catch-up of about 100 jittered intervals.
    assert advances[0] > 80


# -- VM-level parity: scalar loop versus block path -------------------------


def _scalar_and_blocks(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(runtime, "_np", None)
        scalar = run()
    with monkeypatch.context() as patch:
        patch.setattr(runtime, "BULK_MIN_INTERVALS", 0)
        blocks = run()
    return scalar, blocks


@needs_numpy
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_scalar_block_parity(workload, monkeypatch):
    spec = get_workload(workload)
    program = spec.build(1.0)
    scalar, blocks = _scalar_and_blocks(
        monkeypatch, lambda: adaptive_run(program, spec.ticks_target, 3)
    )
    assert blocks == scalar
    assert scalar["ticks"] > 0


@needs_numpy
@pytest.mark.parametrize("seed", range(0, 96, 8))
def test_random_program_scalar_block_parity(seed, monkeypatch):
    program = random_program(seed, CORPUS_SPEC)
    scalar, blocks = _scalar_and_blocks(
        monkeypatch, lambda: adaptive_run(program, 200, 11)
    )
    assert blocks == scalar
