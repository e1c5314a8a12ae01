"""Fixed-point cost folding (DESIGN.md §15).

Bit-identity with the sequential interpreter:

* **Universal folding.**  ``lower_method`` certifies a method against
  the Q20 grid (``costs.fold_clean`` over ``chargeable_values()``, the
  cost model alone) and stamps ``cm.fold_q``; generated code then
  folds every straight-line cost chain to one constant with *no*
  per-constant cleanliness gate.  A rejected method (``fold_q == 0``)
  is never compiled: every region of it runs on the interpreter's
  block loop, and the verdict must be a pure wall-clock choice.
* **No dominant path.**  A method whose path samples spread evenly
  runs on plain blockjit and matches the interpreter oracle.
"""

from __future__ import annotations

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.method import Program
from repro.errors import FuelExhaustedError
from repro.persist import payload_checksum
from repro.sampling.arnold_grove import make_sampler
from repro.vm import blockjit, interpreter, pgo
from repro.vm.costs import (
    FOLD_BOUND,
    FOLD_SHIFT,
    CostModel,
    fold_clean,
)
from repro.vm.runtime import VirtualMachine
from repro.workloads.suite import benchmark_suite

from tests.compile_util import compile_simple
from tests.helpers import (
    counting_program,
    hot_helper_program,
    is_placeholder,
    small_adaptive_run,
    vm_digest,
)

# The folding checked here is in generated code: compile every region.
pytestmark = pytest.mark.usefixtures("compile_at_first_entry")

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
def test_every_workload_certifies_at_every_tier(tier):
    for workload in benchmark_suite():
        program = workload.build(0.3)
        code = compile_simple(program, mode="pep", tier=tier)
        for name, cm in code.items():
            assert cm.fold_q == FOLD_SHIFT, (workload.name, name)
        assert pgo.engagement_summary(code)["totals"]["fold_rejected"] == 0


def test_dirty_tier_multiplier_demotes_and_counts():
    # Certification is cross-tier: carried st.cyc crosses method and
    # tier boundaries, so a dirty opt0 multiplier must demote even a
    # method compiled at opt2.
    dirty = CostModel()
    dirty.tier_multipliers = dict(dirty.tier_multipliers)
    dirty.tier_multipliers["opt0"] = 1.15
    code = compile_simple(hot_helper_program(), tier="opt2", costs=dirty)
    assert all(cm.fold_q == 0 for cm in code.values())
    totals = pgo.engagement_summary(code)["totals"]
    assert totals["fold_rejected"] == len(code)
    assert totals["fold_certified"] == 0


def test_dirty_injected_charge_demotes():
    # The lowered op stream is clean, but a handler could add this
    # charge mid-chain — rejection is the only sound verdict.
    dirty = CostModel()
    dirty.pep_pass_cost_per_instr = 0.1
    code = compile_simple(hot_helper_program(), costs=dirty)
    assert all(cm.fold_q == 0 for cm in code.values())


@pytest.fixture
def scans(monkeypatch):
    """Certification scans, counted in ``fold_clean`` calls, from an
    empty verdict table."""
    calls = []

    def counting(value):
        calls.append(value)
        return fold_clean(value)

    monkeypatch.setattr(interpreter, "_FOLD_VERDICTS", {})
    monkeypatch.setattr(interpreter, "fold_clean", counting)
    return calls


def test_many_lowerings_under_one_model_scan_once(scans):
    costs = CostModel()
    for workload in benchmark_suite()[:4]:
        for tier in ("baseline", "opt2"):
            code = compile_simple(workload.build(0.3), costs=costs, tier=tier)
            assert all(cm.fold_q == FOLD_SHIFT for cm in code.values())
    # An equal model shares the verdict: the key is the values.
    compile_simple(hot_helper_program(), costs=CostModel())
    assert len(scans) == len(costs.chargeable_values())


def test_a_changed_model_gets_a_fresh_verdict(scans):
    # The dirty opt0 multiplier of test_dirty_tier_multiplier_demotes_and_counts,
    # set on a model after it certified.
    costs = CostModel()
    costs.tier_multipliers = dict(costs.tier_multipliers)
    program = hot_helper_program()

    def verdicts() -> set:
        return {cm.fold_q for cm in compile_simple(program, costs=costs).values()}

    clean = costs.tier_multipliers["opt0"]
    assert verdicts() == {FOLD_SHIFT}
    costs.tier_multipliers["opt0"] = 1.15
    assert verdicts() == {0}
    costs.tier_multipliers["opt0"] = clean
    assert verdicts() == {FOLD_SHIFT}
    # Two scans, as the clean model's verdict was kept; the dirty one
    # stops at its first off-grid value.
    values = costs.chargeable_values()
    assert scans[: len(values)] == values
    assert len(values) < len(scans) < 2 * len(values)


#: Every per-op base cost: lowering charges each times a tier multiplier.
BASE_COSTS = [
    "simple_op",
    "mem_op",
    "newarr_op",
    "call_op",
    "ret_op",
    "emit_op",
    "jmp_op",
    "branch_op",
    "branch_mislayout_penalty",
    "yieldpoint_op",
    "pep_init",
    "pep_add",
    "path_count_hash",
    "path_count_array",
    "edge_count",
]


def _off_grid(field: str) -> CostModel:
    model = CostModel()
    if field == "tier_multipliers":
        model.tier_multipliers = dict(model.tier_multipliers, opt1=1.05)
    else:
        setattr(model, field, 0.1)
    return model


@pytest.mark.parametrize(
    "field", BASE_COSTS + ["tier_multipliers", "handler_sample"]
)
def test_model_only_certification_rejects_any_off_grid_charge(field):
    # Lowering certifies from the cost model alone, so one off-grid
    # base cost, tier multiplier or injected charge must reject every
    # method, whether or not the method's own ops charge it.
    code = compile_simple(
        counting_program(5), mode="pep", costs=_off_grid(field)
    )
    assert code and all(cm.fold_q == 0 for cm in code.values())


def test_off_grid_model_never_compiles(monkeypatch):
    # An uncertified method gets no generated source: with the compile
    # threshold at 0, nothing reaches compile(), every entry stays a
    # placeholder, and the run still equals the tuple-interpreter oracle.
    compiled = []

    def spy(*args, **kwargs):
        compiled.append(args[0])
        return compile(*args, **kwargs)

    monkeypatch.setattr(blockjit, "compile", spy, raising=False)
    monkeypatch.setattr(blockjit, "_SEGMENT_CODE", {})
    program = hot_helper_program(calls=30, inner=12)
    for costs, certified in ((_off_grid("tier_multipliers"), False),
                             (CostModel(), True)):
        code = compile_simple(program, mode="pep", tier="opt1", costs=costs)
        runs = []
        for bj in (False, True):
            vm = VirtualMachine(
                code, program.main, costs=costs, tick_interval=500.0,
                sampler=make_sampler(4, 3), blockjit=bj,
            )
            runs.append((vm, vm.run()))
        assert vm_digest(*runs[0]) == vm_digest(*runs[1])
        assert all(cm.jit_entries is not None for cm in code.values())
        compiled_entries = [
            not all(is_placeholder(fn) for fn in cm.jit_entries.values())
            for cm in code.values()
        ]
        if certified:
            assert compiled  # the spy sees a certified method compile
            assert all(compiled_entries)
        else:
            assert compiled == []
            assert not any(compiled_entries)


def test_demoted_method_runs_bit_identically():
    # A method with fold_q == 0 is never compiled and runs on the block
    # loop; the digest must not move.  (The dirty multiplier itself
    # changes cycles, so both runs use the same dirty model and only the
    # verdict differs.)
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
    # interpreter, blockjit, and both fold verdicts (a rejected method
    # is never compiled and runs on the block loop).
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


def _flag_run(workload: str):
    """The run's checksum and its image's engagement totals."""
    import repro.api as api

    suite = {w.name: w for w in benchmark_suite()}
    program = suite[workload].build(0.3)
    report = api.profile_adaptive(program, samples=16, stride=3, ticks=100)
    checksum = payload_checksum(
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
    return checksum, report.engagement()["totals"]


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_digest_parity_every_flag_combo(workload, monkeypatch):
    # Certified lowering (folded chains) against forced rejection (never
    # compiled: every region on the block loop) on every method of the
    # adaptive run.
    certified, totals = _flag_run(workload)
    assert totals["fold_rejected"] == 0
    monkeypatch.setattr(interpreter, "_fold_certified", lambda costs: False)
    rejected, totals = _flag_run(workload)
    assert rejected == certified
    assert totals["fold_rejected"] > 0, "no method was rejected — vacuous"
    assert totals["fold_certified"] == 0
