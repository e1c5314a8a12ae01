"""Tests for the VM runtime: timer, ticks, jitter, accounting."""

import math

import pytest

from repro.errors import VMError
from repro.sampling.arnold_grove import TimerMethodSampler, make_sampler
from repro.vm.costs import CostModel
from repro.vm.runtime import VirtualMachine

from tests.compile_util import compile_simple
from tests.helpers import counting_program, total_samples


def make_vm(program, **kwargs):
    code = compile_simple(program, mode=kwargs.pop("mode", None))
    return VirtualMachine(code, program.main, **kwargs)


def test_no_timer_no_ticks():
    vm = make_vm(counting_program(100))
    result = vm.run()
    assert result.ticks == 0
    assert not vm.flag


def test_tick_count_matches_interval():
    program = counting_program(2000)
    baseline = make_vm(program).run()
    interval = baseline.cycles / 50
    vm = make_vm(program, tick_interval=interval, sampler=TimerMethodSampler())
    result = vm.run()
    # Ticks are observed at yieldpoints, so the count is approximate.
    assert 40 <= result.ticks <= 60


def test_jitter_changes_tick_schedule_but_not_semantics():
    program = counting_program(2000)
    runs = []
    for seed in (1, 2):
        vm = make_vm(
            program,
            tick_interval=1500.0,
            sampler=make_sampler(4, 3),
            tick_jitter=0.3,
            jitter_seed=seed,
        )
        runs.append(vm.run())
    assert runs[0].output == runs[1].output
    # Different jitter seeds produce different sampling cost trails.
    assert runs[0].cycles != runs[1].cycles


def test_zero_jitter_is_deterministic():
    program = counting_program(1500)
    cycles = set()
    for _ in range(2):
        vm = make_vm(program, tick_interval=1000.0, sampler=make_sampler(2, 2))
        cycles.add(vm.run().cycles)
    assert len(cycles) == 1


def test_method_sample_listener_called_once_per_tick():
    program = counting_program(3000)
    calls = []

    def listener(vm, name):
        calls.append(name)
        return 0.0

    vm = make_vm(
        program,
        tick_interval=2000.0,
        sampler=TimerMethodSampler(),
        method_sample_listener=listener,
    )
    result = vm.run()
    assert result.ticks > 0
    assert len(calls) == pytest.approx(result.ticks, abs=2)
    assert set(calls) == {"main"}


def test_charge_compile_accounting():
    program = counting_program(10)
    vm = make_vm(program)
    vm.charge_compile(1234.0)
    result = vm.run()
    assert result.compile_cycles == 1234.0
    assert result.recompilations == 1


def test_sampling_without_pep_instrumentation_is_harmless():
    """Sampling a method with no PEP dag must not crash or record paths."""
    program = counting_program(1500)
    code = compile_simple(program, mode=None)  # no instrumentation at all
    vm = VirtualMachine(
        code, "main", tick_interval=800.0, sampler=make_sampler(4, 2)
    )
    result = vm.run()
    # Yieldpoints exist (inserted by compile), samples are taken, but no
    # paths can be delivered without a P-DAG.
    assert result.samples_taken > 0
    assert total_samples(vm.path_profile) == 0
    assert len(vm.edge_profile) == 0


@pytest.mark.parametrize("interval", [0.0, -5.0, math.nan])
def test_rejects_timer_interval_that_never_advances(interval):
    """A zero, negative or NaN interval would spin forever in on_tick."""
    with pytest.raises(VMError, match="tick_interval"):
        make_vm(counting_program(100), tick_interval=interval)


@pytest.mark.parametrize("jitter", [-0.1, 1.0, 1.5, math.nan])
def test_rejects_jitter_outside_unit_interval(jitter):
    """Jitter of 1 or more can stretch an interval to zero or below."""
    with pytest.raises(VMError, match="tick_jitter"):
        make_vm(counting_program(100), tick_interval=500.0, tick_jitter=jitter)


def test_accepts_timer_edge_settings():
    program = counting_program(100)
    assert make_vm(program, tick_interval=math.inf).run().ticks == 0
    vm = make_vm(
        program, tick_interval=500.0, tick_jitter=0.999,
        sampler=TimerMethodSampler(),
    )
    assert vm.run().ticks > 0
