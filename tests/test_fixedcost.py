"""Fixed-point cost folding (DESIGN.md §15).

Bit-identity with the sequential interpreter:

* **Universal folding.**  ``lower_method`` certifies a method against
  the Q20 grid (``costs.fold_clean`` over ``chargeable_values()``) and
  stamps ``cm.fold_q``; generated code then folds every straight-line
  cost chain to one constant with *no* per-constant cleanliness gate.
  A rejected method (``fold_q == 0``) emits textual chains instead, and
  the verdict must be a pure wall-clock choice.
* **No dominant path.**  The warm token ladder that once compiled such
  methods is retired: they stay on plain blockjit, and a persisted
  ladder (``sb_path == -1``) is dropped on load — except under the
  ``REPRO_SUPERBLOCK=0`` kill switch, which leaves it untouched.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.method import Program
from repro.errors import FuelExhaustedError
from repro.persist import payload_checksum
from repro.util import flags
from repro.vm import blockjit, costs as costs_mod, interpreter
from repro.vm.costs import (
    FOLD_BOUND,
    FOLD_SHIFT,
    CostModel,
    fold_clean,
)
from repro.vm.runtime import VirtualMachine
from repro.vm.superblock import (
    find_dominant_path,
    install_superblock,
    superblock_fingerprint,
    trace_blocks,
)
from repro.workloads.suite import benchmark_suite

from tests.compile_util import compile_simple
from tests.test_superblock import _adaptive_run, _digest, hot_helper_program

ALL_WORKLOADS = [w.name for w in benchmark_suite()]


@pytest.fixture(autouse=True)
def _isolate(monkeypatch):
    # Shared codecache entries would leak fold verdicts and trace
    # artefacts across tests.
    monkeypatch.setenv("REPRO_CODECACHE", "0")


def braided_helper_program(calls: int = 240, inner: int = 36) -> Program:
    """main repeatedly calls a helper whose loop splits three ways.

    The 3-way ladder on ``i % 3`` spreads path mass evenly (~1/3 each),
    so no path reaches the 0.5 dominance threshold and the helper never
    earns a trace superblock — it stays on plain blockjit.
    (Two balanced arms would not do: ``find_dominant_path`` accepts a
    path at *exactly* the threshold, so a 50/50 split still dominates.)
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


def test_braided_helper_has_no_dominant_path():
    program = braided_helper_program()
    system, vm, _ = _adaptive_run(program, superblock=True)
    counts: dict = {}
    for key, path, freq in vm.path_profile.items():
        if key.startswith("helper#"):
            counts[path] = counts.get(path, 0.0) + freq
    assert counts, "helper collected no path samples — test is vacuous"
    assert find_dominant_path(counts, 0.5, 1.0) is None


def test_no_dominant_path_stays_on_plain_blockjit(monkeypatch):
    # k-BLPP is pinned off: the braided kernel has no dominant 1-path by
    # construction, but its periodic arms DO yield a dominant k-window,
    # and the controller's k-fallback would stitch it into a trace.
    monkeypatch.setattr(flags, "KBLPP", False)
    program = braided_helper_program()
    system, vm, result = _adaptive_run(program, superblock=True)
    helper = system.code["helper"]
    sampled = sum(vm.path_profile.method_paths(helper.profile_key).values())
    assert sampled >= 4.0, "helper never reached the promotion floor"
    assert not system.superblock_log
    assert helper.sb_path is None and helper.sb_entry is None
    assert helper.jit_entries, "helper never ran on blockjit"
    monkeypatch.setenv(blockjit.ENV_DISABLE, "0")
    _, oracle_vm, oracle_res = _adaptive_run(program, superblock=True)
    assert _digest(vm, result) == _digest(oracle_vm, oracle_res)


def _retired_warm_artefact(monkeypatch):
    """A pickled helper carrying what a format-8 warm ladder persisted:
    the retired ``-1`` sentinel, with a fingerprint that still matches
    it.  Returns ``(program, code, clone)``."""
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    program = hot_helper_program(calls=6, inner=8)
    code = compile_simple(program, mode="pep")
    cm = code["helper"]
    path = next(
        p for p in range(cm.dag.num_paths)
        if trace_blocks(cm, p) is not None
    )
    assert install_superblock(cm, path)
    clone = pickle.loads(pickle.dumps(cm))
    clone.sb_path = -1
    clone.sb_fingerprint = superblock_fingerprint(clone, -1)
    return program, code, clone


def test_warm_kill_switch_keeps_persisted_artifacts(monkeypatch):
    _, _, clone = _retired_warm_artefact(monkeypatch)
    stored = (clone.sb_source, clone.sb_path, clone.sb_fingerprint)
    monkeypatch.setattr(flags, "SUPERBLOCK", False)
    blockjit.ensure_jit(clone)
    # The superblock kill switch judges no persisted artefact, the
    # retired one included: it stays untouched, and nothing installs.
    assert clone.sb_entry is None
    assert (clone.sb_source, clone.sb_path, clone.sb_fingerprint) == stored
    # A later enabled process judges it, and drops it.
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    later = pickle.loads(pickle.dumps(clone))
    entries = blockjit.ensure_jit(later)
    assert (
        later.sb_source, later.sb_path, later.sb_fingerprint, later.sb_entry
    ) == (None, None, None, None)
    assert (later.entry.label, 0) in entries


def test_warm_stale_fingerprint_drops_cleanly(monkeypatch):
    _, _, clone = _retired_warm_artefact(monkeypatch)
    clone.sb_fingerprint ^= 1
    entries = blockjit.ensure_jit(clone)
    assert clone.sb_entry is None
    assert clone.sb_source is None
    assert clone.sb_path is None
    assert (clone.entry.label, 0) in entries


def test_stale_warm_ladder_artefact_is_dropped(monkeypatch):
    # Dropped even though its fingerprint matches: -1 names no trace.
    program, code, clone = _retired_warm_artefact(monkeypatch)
    entries = blockjit.ensure_jit(clone)
    assert (
        clone.sb_source, clone.sb_path, clone.sb_fingerprint, clone.sb_entry
    ) == (None, None, None, None)

    def observe(code, on):
        vm = VirtualMachine(code, program.main, costs=CostModel(), blockjit=on)
        result = vm.run()
        return (
            result.return_value, result.cycles, list(vm.output),
            sorted(vm.path_profile.items()),
        )

    oracle = observe(compile_simple(program, mode="pep"), False)
    code["helper"] = clone
    assert observe(code, True) == oracle
    entry = entries[(clone.entry.label, 0)]
    assert entry.__code__.co_filename == "<blockjit>"  # a plain segment
    assert "_sb" not in entry.__globals__


# -- whole-suite fold-verdict parity (all bundled workloads) ---------------


def _flag_checksum(workload: str) -> str:
    import repro.api as api

    suite = {w.name: w for w in benchmark_suite()}
    old = flags.SUPERBLOCK
    flags.SUPERBLOCK = True
    try:
        program = suite[workload].build(0.3)
        report = api.profile_adaptive(
            program, samples=16, stride=3, ticks=100
        )
    finally:
        flags.SUPERBLOCK = old
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
