"""Slotted-frame tracefast backend bit-identity and lifecycle (DESIGN.md §13).

The tracefast tier is a second codegen backend behind the same template
contract as the §11 superblock: registers promoted to locals across the
whole method, straight-line cost chains batched (and constant-folded
when provably exact), and an optional AOT-compiled module for the
hottest traces.  None of that may move a single bit: every test here
pins return values, outputs, exact virtual cycles, path/edge profiles,
ticks, samples, traps, fuel accounting and health records against the
classic superblock backend, plain blockjit, and the interpreter —
including under fault plans, codecache-style pickle round-trips, and
with the AOT tier forced off.  ``REPRO_TRACEFAST=0`` is the kill switch
and must revert to the classic backend byte-identically.
"""

from __future__ import annotations

import pickle

import pytest

from repro.persist import payload_checksum
from repro.resilience import FaultPlan, ResilienceManager
from repro.util import flags
from repro.vm import blockjit
from repro.vm.costs import FOLD_SHIFT, CostModel
from repro.vm.runtime import VirtualMachine
from repro.vm.superblock import (
    find_dominant_path,
    install_superblock,
    superblock_fingerprint,
    trace_blocks,
)
from repro.vm.tracefast import (
    _clean_const,
    _fold_safe,
    entry_tokens,
    generate_method_source,
    install_tracefast,
)
from repro.workloads.suite import benchmark_suite

from tests.test_superblock import (
    _adaptive_run,
    _digest,
    _installable_path,
    _pep_image,
    hot_helper_program,
)

ALL_WORKLOADS = [w.name for w in benchmark_suite()]


@pytest.fixture(autouse=True)
def _isolate_codecache(monkeypatch):
    # Same isolation as test_superblock: the content-addressed compile
    # cache shares CompiledMethod instances across AdaptiveSystems, so a
    # trace installed by one test would leak into the next.
    monkeypatch.setenv("REPRO_CODECACHE", "0")


@pytest.fixture(autouse=True)
def _tracefast_on(monkeypatch):
    # Pin the backend on for every test in this file (the CI kill-switch
    # smoke exports REPRO_TRACEFAST=0 globally; these tests are about
    # the enabled backend unless they pin the flag themselves).
    monkeypatch.setattr(flags, "TRACEFAST", True)


def _tf_run(program, tf, superblock=True, resilience=None,
            tick_interval=600.0, min_samples=4.0):
    """One adaptive run with the tracefast backend pinned on or off."""
    old = flags.TRACEFAST
    flags.TRACEFAST = tf
    try:
        return _adaptive_run(
            program, superblock=superblock, resilience=resilience,
            tick_interval=tick_interval, min_samples=min_samples,
        )
    finally:
        flags.TRACEFAST = old


# -- flag resolution ---------------------------------------------------------


def test_kill_switch_environment_resolution(monkeypatch):
    monkeypatch.setattr(flags, "TRACEFAST", None)
    monkeypatch.setenv(flags.TRACEFAST_ENV, "0")
    assert flags.tracefast_enabled() is False
    monkeypatch.setenv(flags.TRACEFAST_ENV, "1")
    assert flags.tracefast_enabled() is True
    monkeypatch.delenv(flags.TRACEFAST_ENV)
    assert flags.tracefast_enabled() is True  # default on


def test_aot_flag_environment_resolution(monkeypatch):
    monkeypatch.setattr(flags, "TRACEFAST_AOT", None)
    monkeypatch.setenv(flags.TRACEFAST_AOT_ENV, "0")
    assert flags.tracefast_aot_enabled() is False
    monkeypatch.delenv(flags.TRACEFAST_AOT_ENV)
    assert flags.tracefast_aot_enabled() is True  # default on (gated)


# -- codegen: source shape, tokens, fold gate --------------------------------


def _traced_cm():
    code = _pep_image(hot_helper_program())
    cm = code["helper"]
    path = _installable_path(cm)
    assert path is not None
    return cm, path, trace_blocks(cm, path)


def test_generated_source_shape():
    cm, _, trace = _traced_cm()
    source = generate_method_source(cm, trace)
    # One whole-method function on a token ladder, plus thin wrappers
    # baking each entry token for the unchanged blockjit driver.
    assert "def _m(vm, frame, regs, st, _e):" in source
    assert "_fuel = st.fuel" in source
    assert "_cyc = st.cyc" in source
    assert "while True:" in source
    assert "if _e == " in source
    assert "def _f0_0(vm, frame, regs, st):" in source
    # Every (block, entry-ip) pair has a wrapper and a dense token.
    tokens = entry_tokens(cm)
    assert sorted(tokens.values()) == list(range(len(tokens)))


def test_entry_tokens_are_deterministic():
    cm_a, _, _ = _traced_cm()
    cm_b, _, _ = _traced_cm()
    remap = {  # same program compiled twice: same label/ip -> token map
        key: tok for key, tok in entry_tokens(cm_a).items()
    }
    assert remap == entry_tokens(cm_b)


def test_clean_const_gate():
    # Clean: multiples of 2**-12 below 2**24 (float addition over these
    # is exact, hence associative, hence foldable bit-identically).
    assert _clean_const(0.0)
    assert _clean_const(1.0)
    assert _clean_const(2.5)
    assert _clean_const(0.000244140625)  # 2**-12 exactly
    assert _clean_const(-60.0)
    # Dirty: full-mantissa values or magnitudes past the exactness bound.
    assert not _clean_const(1.15)
    assert not _clean_const(0.1)
    assert not _clean_const(2.0**25)
    assert not _clean_const(float("nan"))
    assert not _clean_const(float("inf"))


def test_fold_safe_rejects_dirty_cost_model():
    cm, _, _ = _traced_cm()
    clean = CostModel()
    assert _fold_safe(cm, clean)
    dirty = CostModel()
    dirty.pep_pass_cost_per_instr = 0.1  # not a 2**-12 multiple
    assert not _fold_safe(cm, dirty)


def test_fold_only_with_certified_costs(monkeypatch):
    # Pin fixed-point accounting on (the CI kill-switch smoke exports
    # REPRO_FIXEDCOST=0 globally; the first half of this test is about
    # the certified path).
    monkeypatch.setattr(flags, "FIXEDCOST", True)
    cm, _, trace = _traced_cm()
    # Fixed-point accounting (the default): lowering already certified
    # the whole cost universe on the Q20 grid (fold_q), so every chain
    # folds regardless of the ``costs`` argument.
    assert cm.fold_q == FOLD_SHIFT
    assert generate_method_source(cm, trace, CostModel()) == (
        generate_method_source(cm, trace, None)
    )
    # Legacy lowering (REPRO_FIXEDCOST=0 -> fold_q is None): folding is
    # gated on a certified cost model, per-method.
    cm.fold_q = None
    folded = generate_method_source(cm, trace, CostModel())
    unfolded = generate_method_source(cm, trace, None)
    assert folded != unfolded
    # The fold collapses straight-line cost chains into one constant,
    # so the folded body performs strictly fewer runtime additions.
    assert folded.count(" + ") < unfolded.count(" + ")


# -- installation ------------------------------------------------------------


def test_install_tracefast_rebinds_every_entry():
    cm, path, trace = _traced_cm()
    assert install_tracefast(cm, path, CostModel()) is True
    assert cm.sb_entry is not None
    assert cm.sb_path == path
    assert cm.sb_source is not None
    assert "def _m(" in cm.sb_source
    assert cm.sb_fingerprint == superblock_fingerprint(cm, path)
    # Every entry (not just the trace head) routes into the
    # whole-method dispatcher via its token wrapper.
    for (label, ip), entry in cm.jit_entries.items():
        assert entry.__name__.startswith("_f")
    assert cm.jit_entries[(trace[0].label, 0)] is cm.sb_entry
    # First-wins: a second install (any path) is a no-op.
    assert install_tracefast(cm, path) is True


def test_install_superblock_front_door_selects_tracefast():
    cm, path, _ = _traced_cm()
    assert install_superblock(cm, path, CostModel()) is True
    assert "def _m(" in cm.sb_source  # tracefast source, not classic _sb
    flags.TRACEFAST = False
    cm2, path2, _ = _traced_cm()
    assert install_superblock(cm2, path2, CostModel()) is True
    assert "def _sb(" in cm2.sb_source  # classic single-trace backend


def test_install_tracefast_rejects_acyclic_path():
    cm, _, _ = _traced_cm()
    acyclic = next(
        p for p in range(cm.dag.num_paths) if trace_blocks(cm, p) is None
    )
    assert install_tracefast(cm, acyclic) is False
    assert cm.sb_entry is None


# -- static-image parity -----------------------------------------------------


def _run_image(program, install, tf, use_blockjit=True, costs=None,
               sampler=(8, 3), tick_interval=500.0):
    from repro.sampling.arnold_grove import make_sampler

    old = flags.TRACEFAST
    flags.TRACEFAST = tf
    try:
        code = _pep_image(program)
        if install:
            cm = code["helper"]
            assert install_superblock(cm, _installable_path(cm), costs)
        vm = VirtualMachine(
            code, program.main, costs=CostModel(),
            tick_interval=tick_interval, sampler=make_sampler(*sampler),
            blockjit=use_blockjit,
        )
        return vm, vm.run()
    finally:
        flags.TRACEFAST = old


def test_static_image_parity_four_ways():
    program = hot_helper_program(calls=80, inner=30)
    tracefast_folded = _digest(
        *_run_image(program, install=True, tf=True, costs=CostModel())
    )
    tracefast_plainchain = _digest(*_run_image(program, install=True, tf=True))
    classic = _digest(*_run_image(program, install=True, tf=False))
    plain_jit = _digest(*_run_image(program, install=False, tf=True))
    interp = _digest(
        *_run_image(program, install=False, tf=True, use_blockjit=False)
    )
    assert (tracefast_folded == tracefast_plainchain == classic
            == plain_jit == interp)


def test_fuel_exhaustion_parity():
    from repro.errors import FuelExhaustedError

    program = hot_helper_program(calls=80, inner=30)
    seen = []
    for tf in (True, False):
        old = flags.TRACEFAST
        flags.TRACEFAST = tf
        try:
            code = _pep_image(program)
            cm = code["helper"]
            install_superblock(cm, _installable_path(cm), CostModel())
            vm = VirtualMachine(
                code, program.main, costs=CostModel(), blockjit=True
            )
            with pytest.raises(FuelExhaustedError) as info:
                vm.run(fuel=3000)
        finally:
            flags.TRACEFAST = old
        err = info.value
        seen.append(
            (str(err), err.method, err.block, err.instruction_index,
             err.cycles)
        )
    assert seen[0] == seen[1]


# -- adaptive formation: engagement, kill switch, faults ---------------------


def test_adaptive_tracefast_actually_engages():
    system, vm, _ = _tf_run(hot_helper_program(), tf=True)
    assert system.superblock_log, "no trace formed — test is vacuous"
    name, _, _ = system.superblock_log[0]
    assert name == "helper"
    cm = system.code["helper"]
    assert cm.sb_entry is not None
    assert "def _m(" in cm.sb_source


def test_kill_switch_reverts_to_pr5_backend_byte_identically():
    program = hot_helper_program()
    on_sys, on_vm, on_res = _tf_run(program, tf=True)
    off_sys, off_vm, off_res = _tf_run(program, tf=False)
    assert on_sys.superblock_log and off_sys.superblock_log
    assert "def _m(" in on_sys.code["helper"].sb_source
    assert "def _sb(" in off_sys.code["helper"].sb_source  # classic §11
    assert _digest(on_vm, on_res) == _digest(off_vm, off_res)


def test_tracefast_compile_fault_degrades_to_plain_blockjit():
    program = hot_helper_program()
    plan = FaultPlan({"tracefast-compile": 1.0}, seed=11)
    res_mgr = ResilienceManager(plan=plan)
    system, vm, result = _tf_run(program, tf=True, resilience=res_mgr)
    assert not system.superblock_log
    assert system.code["helper"].sb_path is None
    degradations = [
        (policy, detail)
        for policy, detail in res_mgr.health.degradations
        if policy == "tracefast-degrade"
    ]
    assert degradations
    # Degrading to plain blockjit is bit-identical to formation simply
    # being off: an unconfigured site never advances any RNG.
    base_sys, base_vm, base_result = _tf_run(
        program, tf=True, superblock=False,
        resilience=ResilienceManager(),
    )
    assert _digest(vm, result) == _digest(base_vm, base_result)


def test_tracefast_fault_plan_is_inert_when_disabled():
    # REPRO_TRACEFAST=0 must revert to PR-5 behavior even under a
    # tracefast-compile plan: the site is never consulted, so the
    # classic superblock still forms and the digests match a plan-free
    # classic run.
    program = hot_helper_program()
    plan = FaultPlan({"tracefast-compile": 1.0}, seed=11)
    faulted_sys, faulted_vm, faulted_res = _tf_run(
        program, tf=False, resilience=ResilienceManager(plan=plan)
    )
    assert faulted_sys.superblock_log  # classic formation untouched
    clean_sys, clean_vm, clean_res = _tf_run(
        program, tf=False, resilience=ResilienceManager()
    )
    assert _digest(faulted_vm, faulted_res) == _digest(clean_vm, clean_res)


def test_other_fault_sites_are_bit_identical_across_backends():
    program = hot_helper_program()
    plan = {"sample": 0.2, "path-table": 0.1}
    digests = []
    for tf in (True, False):
        _, vm, result = _tf_run(
            program, tf=tf,
            resilience=ResilienceManager(plan=FaultPlan(plan, seed=5)),
        )
        digests.append(_digest(vm, result))
    assert digests[0] == digests[1]


# -- persistence (codecache format 5) ----------------------------------------


def _engaged_cm():
    code = _pep_image(hot_helper_program())
    cm = code["helper"]
    assert install_superblock(cm, _installable_path(cm), CostModel())
    assert "def _m(" in cm.sb_source
    return cm


def test_pickled_tracefast_revives_through_ensure_jit(monkeypatch):
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    cm = _engaged_cm()
    clone = pickle.loads(pickle.dumps(cm))
    # Callables never pickle; source + path + fingerprint ride along.
    assert clone.sb_entry is None
    assert clone.jit_entries is None
    assert clone.sb_source == cm.sb_source
    assert clone.sb_fingerprint == cm.sb_fingerprint
    entries = blockjit.ensure_jit(clone)
    assert clone.sb_entry is not None
    head = trace_blocks(clone, clone.sb_path)[0].label
    assert entries[(head, 0)] is clone.sb_entry


def test_flag_flip_invalidates_persisted_artifact(monkeypatch):
    # The fingerprint hashes the resolved tracefast flag, so a source
    # generated by one backend can never be exec'd by the other: the
    # flipped process drops the artefact wholesale and reforms its own.
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    cm = _engaged_cm()
    clone = pickle.loads(pickle.dumps(cm))
    flags.TRACEFAST = False
    entries = blockjit.ensure_jit(clone)
    assert clone.sb_entry is None
    assert clone.sb_source is None
    assert clone.sb_path is None
    head = next(iter(clone.blocks))
    assert (head, 0) in entries  # plain entries still work


def test_pickle_roundtrip_run_parity():
    from repro.sampling.arnold_grove import make_sampler

    program = hot_helper_program(calls=80, inner=30)
    runs = []
    for roundtrip in (False, True):
        code = _pep_image(program)
        cm = code["helper"]
        install_superblock(cm, _installable_path(cm), CostModel())
        if roundtrip:
            code = {
                name: pickle.loads(pickle.dumps(m))
                for name, m in code.items()
            }
        vm = VirtualMachine(
            code, program.main, costs=CostModel(), tick_interval=500.0,
            sampler=make_sampler(8, 3), blockjit=True,
        )
        runs.append(_digest(vm, vm.run()))
    assert runs[0] == runs[1]


# -- AOT tier ----------------------------------------------------------------


def test_aot_gating_never_raises():
    from repro.vm import aot

    # In a container without the Cython toolchain this is simply False;
    # either way the probe must be safe to call repeatedly.
    available = aot.aot_available()
    assert isinstance(available, bool)
    assert aot.aot_available() == available  # memoised, stable


def test_aot_fallback_digest_parity(monkeypatch):
    # AOT on (whether or not the toolchain exists — load_functions
    # returns None on any failure) and AOT forced off must agree.
    program = hot_helper_program(calls=80, inner=30)
    digests = []
    for aot_on in (True, False):
        monkeypatch.setattr(flags, "TRACEFAST_AOT", aot_on)
        digests.append(
            _digest(*_run_image(program, install=True, tf=True,
                                costs=CostModel()))
        )
    assert digests[0] == digests[1]


def test_aot_load_is_none_without_toolchain(monkeypatch):
    from repro.vm import aot

    if aot.aot_available():  # pragma: no cover - toolchain-dependent
        pytest.skip("AOT toolchain present; fallback path not reachable")
    cm, _, trace = _traced_cm()
    source = generate_method_source(cm, trace)
    assert aot.load_functions(cm, source) is None


# -- whole-suite parity (all bundled workloads) ---------------------------


def _workload_checksum(workload: str, tf: bool) -> str:
    import repro.api as api

    suite = {w.name: w for w in benchmark_suite()}
    old_tf, old_sb = flags.TRACEFAST, flags.SUPERBLOCK
    flags.TRACEFAST, flags.SUPERBLOCK = tf, True
    try:
        program = suite[workload].build(0.3)
        report = api.profile_adaptive(
            program, samples=16, stride=3, ticks=100
        )
    finally:
        flags.TRACEFAST, flags.SUPERBLOCK = old_tf, old_sb
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
def test_workload_digest_parity(workload):
    on = _workload_checksum(workload, tf=True)
    off = _workload_checksum(workload, tf=False)
    assert on == off
