"""Unit tests for the Arnold-Grove sampling state machine."""

import pytest

from repro.errors import ReproError
from repro.sampling.arnold_grove import (
    ArnoldGroveSampler,
    SamplingConfig,
    TimerMethodSampler,
    make_sampler,
)
from repro.vm.costs import CostModel
from repro.vm.runtime import VirtualMachine

from tests.compile_util import compile_simple
from tests.helpers import counting_program, total_samples


class FakeVM:
    """Just enough VM surface for driving a sampler by hand."""

    def __init__(self):
        self.flag = False
        self.costs = CostModel()
        self.samples_taken = 0
        self.strides_skipped = 0

        class _PP:
            def record(self, *a):  # pragma: no cover - not used here
                pass

        self.path_profile = _PP()
        self.edge_profile = None


class FakeCM:
    resolver = None
    profile_key = "fake#v0"
    source_name = "fake"


def drive(sampler, vm, n):
    """Run n yieldpoints with the flag as the sampler leaves it."""
    events = []
    for _ in range(n):
        if not vm.flag:
            events.append("idle")
            continue
        before = (vm.samples_taken, vm.strides_skipped)
        sampler.on_yieldpoint(vm, FakeCM(), 0, False)
        after = (vm.samples_taken, vm.strides_skipped)
        if after[0] > before[0]:
            events.append("sample")
        elif after[1] > before[1]:
            events.append("stride")
        else:
            events.append("noop")
    return events


#: How the overlapping-tick tests deliver each timer tick: once, or as
#: two back-to-back ``on_tick`` calls (a catch-up over two intervals,
#: which must equal one).
TICK_DELIVERIES = (1, 2)


def tick(sampler, vm, times):
    """Deliver one timer tick as ``times`` back-to-back on_tick calls."""
    for _ in range(times):
        sampler.on_tick(vm)


def test_config_validation():
    with pytest.raises(ReproError):
        SamplingConfig(0, 1)
    with pytest.raises(ReproError):
        SamplingConfig(1, 0)
    assert SamplingConfig(64, 17).name == "PEP(64,17)"
    assert SamplingConfig(8, 4, simplified=False).name == "PEP(8,4,AG)"


def test_timer_based_takes_one_sample_per_tick():
    """PEP(1,1) is timer-based sampling: one sample, then the flag drops."""
    vm = FakeVM()
    sampler = make_sampler(1, 1)
    sampler.on_tick(vm)
    assert vm.flag
    events = drive(sampler, vm, 5)
    assert events == ["sample", "idle", "idle", "idle", "idle"]


def test_simplified_ag_strides_once_then_samples():
    vm = FakeVM()
    sampler = make_sampler(4, 3)
    # First tick: rotation 0 -> no initial skip.
    sampler.on_tick(vm)
    assert drive(sampler, vm, 6) == [
        "sample", "sample", "sample", "sample", "idle", "idle",
    ]
    # Second tick: rotation 1 -> skip one yieldpoint first.
    sampler.on_tick(vm)
    assert drive(sampler, vm, 6) == [
        "stride", "sample", "sample", "sample", "sample", "idle",
    ]
    # Third tick: rotation 2 -> skip two.
    sampler.on_tick(vm)
    assert drive(sampler, vm, 7) == [
        "stride", "stride", "sample", "sample", "sample", "sample", "idle",
    ]
    # Fourth tick: rotation wraps to 0 again.
    sampler.on_tick(vm)
    assert drive(sampler, vm, 4) == ["sample"] * 4


def test_regular_ag_strides_between_samples():
    vm = FakeVM()
    sampler = make_sampler(3, 3, simplified=False)
    sampler.on_tick(vm)  # rotation 0: no initial skip
    events = drive(sampler, vm, 10)
    # sample, then stride 2, sample, stride 2, sample -> done.
    assert events == [
        "sample", "stride", "stride",
        "sample", "stride", "stride",
        "sample", "idle", "idle", "idle",
    ]


def test_regular_ag_initial_skip_then_stride_between():
    """Regular AG: the rotation skip composes with between-sample strides."""
    vm = FakeVM()
    sampler = make_sampler(2, 3, simplified=False)
    sampler.on_tick(vm)  # rotation 0: no initial skip
    assert drive(sampler, vm, 5) == [
        "sample", "stride", "stride", "sample", "idle",
    ]
    sampler.on_tick(vm)  # rotation 1: one initial skip first
    assert drive(sampler, vm, 6) == [
        "stride", "sample", "stride", "stride", "sample", "idle",
    ]


def test_regular_ag_tick_during_draining_burst():
    """A tick landing between two regular-AG samples must not restart the
    burst or advance the rotation."""
    for times in TICK_DELIVERIES:
        vm = FakeVM()
        sampler = make_sampler(3, 2, simplified=False)
        tick(sampler, vm, times)  # rotation 0: no initial skip
        assert drive(sampler, vm, 2) == ["sample", "stride"]
        tick(sampler, vm, times)  # lands mid-burst, in the STRIDING state
        assert drive(sampler, vm, 4) == ["sample", "stride", "sample", "idle"]
        # The overlapping tick did not consume a rotation step: the next
        # fresh burst uses rotation 1 (one initial skip).
        tick(sampler, vm, times)
        assert drive(sampler, vm, 2) == ["stride", "sample"]


def test_regular_ag_reset_mid_burst():
    vm = FakeVM()
    sampler = make_sampler(4, 3, simplified=False)
    sampler.on_tick(vm)
    assert drive(sampler, vm, 2) == ["sample", "stride"]
    sampler.reset()
    vm.flag = False
    sampler.on_tick(vm)  # rotation restarted at 0: sample immediately
    assert vm.flag
    assert drive(sampler, vm, 6) == [
        "sample", "stride", "stride", "sample", "stride", "stride",
    ]


def test_reset_keeps_buffered_samples():
    """reset() restarts the state machine but never loses taken samples.

    The sample sits in the ring buffer until a drain; it must survive a
    reset.
    """
    program = counting_program(50)
    costs = CostModel()
    code = compile_simple(program, mode="pep", costs=costs)
    cm = next(c for c in code.values() if c.resolver is not None)
    sampler = make_sampler(4, 1)
    vm = VirtualMachine(code, program.main, costs=costs, sampler=sampler)
    sampler.on_tick(vm)
    sampler.on_yieldpoint(vm, cm, 0, True)
    sampler.reset()
    sampler.flush(vm)
    assert total_samples(vm.path_profile) == 1.0
    assert vm.path_profile.frequency(cm.profile_key, 0) == 1.0


def test_burst_survives_overlapping_tick():
    """A tick landing mid-burst must not restart the burst.

    This is the contract that lets ``VirtualMachine.on_tick`` notify the
    sampler once per catch-up, however many intervals elapsed.
    """
    for times in TICK_DELIVERIES:
        vm = FakeVM()
        sampler = make_sampler(4, 3)
        tick(sampler, vm, times)  # rotation 0: no initial skip
        assert drive(sampler, vm, 2) == ["sample", "sample"]
        tick(sampler, vm, times)  # overlapping tick
        events = drive(sampler, vm, 4)
        assert events == ["sample", "sample", "idle", "idle"]
        # Only the first tick armed a burst: the next uses rotation 1.
        tick(sampler, vm, times)
        assert drive(sampler, vm, 2) == ["stride", "sample"]


def test_reset_clears_state():
    vm = FakeVM()
    sampler = make_sampler(4, 3)
    sampler.on_tick(vm)
    drive(sampler, vm, 1)
    sampler.reset()
    vm.flag = False
    sampler.on_tick(vm)
    assert vm.flag


def test_timer_method_sampler_clears_flag():
    vm = FakeVM()
    sampler = TimerMethodSampler()
    sampler.on_tick(vm)
    assert vm.flag
    cost = sampler.on_yieldpoint(vm, FakeCM(), 0, False)
    assert cost == 0.0
    assert not vm.flag


def test_sampler_costs_are_dilated():
    vm = FakeVM()
    sampler = make_sampler(1, 2)
    sampler.on_tick(vm)  # rotation 0: sample immediately
    cost = sampler.on_yieldpoint(vm, FakeCM(), 0, False)
    assert cost == pytest.approx(
        vm.costs.handler_sample / vm.costs.sampling_dilation
    )


def test_integration_sample_counts_scale_with_config():
    program = counting_program(2000)
    costs = CostModel()
    results = {}
    for samples in (1, 8):
        code = compile_simple(program, mode="pep", costs=costs)
        vm = VirtualMachine(
            code,
            "main",
            costs=costs,
            tick_interval=2000.0,
            sampler=make_sampler(samples, 3),
        )
        run = vm.run()
        results[samples] = run
    assert results[8].samples_taken > 4 * results[1].samples_taken
    assert results[8].ticks == pytest.approx(results[1].ticks, abs=3)
