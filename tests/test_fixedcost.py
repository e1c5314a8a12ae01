"""Fixed-point cost folding (DESIGN.md §15).

Bit-identity with the sequential interpreter:

* **Universal folding.**  ``lower_method`` certifies a method against
  the Q20 grid (``costs.fold_clean`` over ``chargeable_values()``) and
  stamps ``cm.fold_q``; generated code then folds every straight-line
  cost chain to one constant with *no* per-constant cleanliness gate.
  A rejected method (``fold_q == 0``) emits textual chains instead, and
  the verdict must be a pure wall-clock choice.
* **No dominant path.**  A method whose path samples spread evenly
  runs on plain blockjit and matches the interpreter oracle.
"""

from __future__ import annotations

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.method import Program
from repro.errors import FuelExhaustedError
from repro.persist import payload_checksum
from repro.vm import blockjit, costs as costs_mod, interpreter
from repro.vm.costs import (
    FOLD_BOUND,
    FOLD_SHIFT,
    CostModel,
    fold_clean,
)
from repro.vm.runtime import VirtualMachine
from repro.workloads.suite import benchmark_suite

from tests.compile_util import compile_simple
from tests.helpers import hot_helper_program, small_adaptive_run, vm_digest

ALL_WORKLOADS = [w.name for w in benchmark_suite()]


def braided_helper_program(calls: int = 240, inner: int = 36) -> Program:
    """main repeatedly calls a helper whose loop splits three ways.

    The 3-way ladder on ``i % 3`` spreads path mass evenly (~1/3 each),
    so no path holds half the helper's samples.
    """
    pb = ProgramBuilder("braided")
    helper = pb.function("helper", ["n"])
    n = helper.p("n")
    acc = helper.local(0)

    def body(i):
        r = i % 3

        def arm_a():
            helper.assign(acc, acc + n)
            helper.assign(acc, acc + 1)

        def arm_b():
            helper.assign(acc, acc * 1)
            helper.assign(acc, acc + 2)

        def arm_c():
            helper.assign(acc, acc - 1)
            helper.assign(acc, acc + i)

        helper.if_(r.eq(0), arm_a,
                   lambda: helper.if_(r.eq(1), arm_b, arm_c))

    helper.for_range(0, inner, 1, body)
    helper.ret(acc)

    f = pb.function("main")
    total = f.local(0)
    f.for_range(0, calls, 1,
                lambda i: f.assign(total, total + f.call("helper", i)))
    f.emit(total)
    f.ret(total)
    return pb.build()


# -- the Q20 grid ------------------------------------------------------------


def test_fold_clean_grid():
    clean = [
        0.0, 0.5, 1.0, 3.0, -2.5,
        4710 / 4096,          # the recalibrated opt0 multiplier
        4301 / 4096,          # the recalibrated opt1 multiplier
        2.0 ** -FOLD_SHIFT,   # one grid step
        FOLD_BOUND,           # the magnitude bound, inclusive
    ]
    dirty = [
        1.15, 1.05, 0.1,          # the pre-recalibration decimals
        2.0 ** -(FOLD_SHIFT + 1),  # below grid resolution
        FOLD_BOUND * 2,
        float("inf"),
        float("nan"),
    ]
    assert all(fold_clean(v) for v in clean)
    assert not any(fold_clean(v) for v in dirty)


def test_default_model_is_entirely_on_grid():
    # Every chargeable value — per-op base costs under every tier
    # multiplier, plus every injected runtime charge — must sit on the
    # grid, or the default model could not certify anything.
    values = CostModel().chargeable_values()
    assert values  # non-vacuous
    assert all(fold_clean(v) for v in values)


@pytest.mark.parametrize("tier", ["baseline", "opt0", "opt1", "opt2"])
def test_every_workload_certifies_at_every_tier(tier, monkeypatch):
    monkeypatch.setattr(costs_mod, "FOLD_REJECTIONS", 0)
    for workload in benchmark_suite():
        program = workload.build(0.3)
        code = compile_simple(program, mode="pep", tier=tier)
        for name, cm in code.items():
            assert cm.fold_q == FOLD_SHIFT, (workload.name, name)
    assert costs_mod.FOLD_REJECTIONS == 0


def test_dirty_tier_multiplier_demotes_and_counts(monkeypatch):
    # Certification is cross-tier: carried st.cyc crosses method and
    # tier boundaries, so a dirty opt0 multiplier must demote even a
    # method compiled at opt2.
    monkeypatch.setattr(costs_mod, "FOLD_REJECTIONS", 0)
    dirty = CostModel()
    dirty.tier_multipliers = dict(dirty.tier_multipliers)
    dirty.tier_multipliers["opt0"] = 1.15
    code = compile_simple(hot_helper_program(), tier="opt2", costs=dirty)
    assert all(cm.fold_q == 0 for cm in code.values())
    assert costs_mod.FOLD_REJECTIONS == len(code)


def test_dirty_injected_charge_demotes(monkeypatch):
    # The lowered op stream is clean, but a handler could add this
    # charge mid-chain — rejection is the only sound verdict.
    monkeypatch.setattr(costs_mod, "FOLD_REJECTIONS", 0)
    dirty = CostModel()
    dirty.pep_pass_cost_per_instr = 0.1
    code = compile_simple(hot_helper_program(), costs=dirty)
    assert all(cm.fold_q == 0 for cm in code.values())
    assert costs_mod.FOLD_REJECTIONS == len(code)


def test_demoted_method_runs_bit_identically():
    # fold_q == 0 falls back to textual chains; the digest must not
    # move.  (The dirty multiplier itself changes cycles, so both runs
    # use the same dirty model and only the verdict differs.)
    program = hot_helper_program(calls=60, inner=24)
    digests = []
    for force_reject in (False, True):
        dirty = CostModel()
        if force_reject:
            dirty.tier_multipliers = dict(dirty.tier_multipliers)
            dirty.tier_multipliers["opt0"] = 1.15
        code = compile_simple(program, mode="pep", costs=dirty)
        vm = VirtualMachine(code, program.main, costs=dirty, blockjit=True)
        result = vm.run()
        digests.append((result.return_value, list(vm.output)))
    assert digests[0] == digests[1]


# -- fuel aborts mid-chain ---------------------------------------------------


@pytest.mark.parametrize("fuel", [777, 4321, 23456])
def test_fuel_abort_parity_across_folding(fuel):
    # Fuel exhaustion can land anywhere inside a folded chain; the trap
    # path must reconstruct the exact sequential cycle count.  The
    # abort signature (site + cycles) must agree across the
    # interpreter, blockjit, and both fold verdicts.
    program = hot_helper_program(calls=40, inner=24)
    seen = set()
    for reject in (False, True):
        code = compile_simple(program, mode="pep")
        if reject:
            for cm in code.values():
                cm.fold_q = 0
        for bj in (False, True):
            vm = VirtualMachine(
                code, program.main, costs=CostModel(), blockjit=bj
            )
            with pytest.raises(FuelExhaustedError) as info:
                vm.run(fuel=fuel)
            err = info.value
            seen.add((str(err), err.method, err.block,
                      err.instruction_index, err.cycles))
    assert len(seen) == 1


# -- no dominant path -------------------------------------------------------


def test_no_dominant_path_stays_on_plain_blockjit(monkeypatch):
    # The braided kernel has no dominant 1-path by construction; its
    # helper runs on plain blockjit and matches the oracle bit for bit.
    program = braided_helper_program()
    system, vm, result = small_adaptive_run(program)
    helper = system.code["helper"]
    sampled = sum(vm.path_profile.method_paths(helper.profile_key).values())
    assert sampled >= 4.0, "helper collected almost no path samples"
    assert helper.jit_entries, "helper never ran on blockjit"
    monkeypatch.setenv(blockjit.ENV_DISABLE, "0")
    _, oracle_vm, oracle_res = small_adaptive_run(program)
    assert vm_digest(vm, result) == vm_digest(oracle_vm, oracle_res)


# -- whole-suite fold-verdict parity (all bundled workloads) ---------------


def _flag_checksum(workload: str) -> str:
    import repro.api as api

    suite = {w.name: w for w in benchmark_suite()}
    program = suite[workload].build(0.3)
    report = api.profile_adaptive(program, samples=16, stride=3, ticks=100)
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


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_digest_parity_every_flag_combo(workload, monkeypatch):
    # Certified lowering (folded chains) against forced rejection
    # (textual chains) on every method of the adaptive run.
    certified = _flag_checksum(workload)
    monkeypatch.setattr(costs_mod, "FOLD_REJECTIONS", 0)
    monkeypatch.setattr(interpreter, "_fold_certified", lambda cm, costs: False)
    assert _flag_checksum(workload) == certified
    assert costs_mod.FOLD_REJECTIONS > 0, "no method was rejected — vacuous"
