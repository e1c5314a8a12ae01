"""Fast-path equivalence: blockjit's countdown yieldpoint gate.

The gate must be observationally identical to the interpreter's plain
yieldpoint — same outputs, same return values, same *exact* virtual
cycles, same path and edge profiles.
"""

from __future__ import annotations

import pytest

from repro.profiling.paths import PathProfile
from repro.sampling.arnold_grove import make_sampler
from repro.vm.costs import CostModel
from repro.vm.runtime import VirtualMachine
from repro.workloads.generator import GeneratorSpec, random_program

from tests.compile_util import compile_simple
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
