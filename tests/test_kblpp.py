"""k-iteration path profiling and multi-iteration traces (DESIGN.md §16).

k-BLPP (arXiv 1304.5197) numbers paths across ``k`` consecutive loop
iterations by unrolling the P-DAG.  This suite pins the numbering
against brute-force enumeration of the k-DAG, the window arithmetic
round trip, the shadow table's dense/demote storage, the controller's
promotion fallback, and the full lifecycle of a promoted k-trace —
install, side exits, pickle revival, stale fingerprints on a ``k``
change.  Like every trace tier before it, k-BLPP must not move a single
bit: digests are compared with ``REPRO_KBLPP`` on and off across all
bundled workloads and under fault plans.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cfg.dag import CARRY, DUMMY_ENTRY, DUMMY_EXIT
from repro.cfg.kdag import build_k_dag, split_klabel
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.method import Program
from repro.persist import payload_checksum
from repro.profiling import kpaths
from repro.profiling.kpaths import (
    KPathSchema,
    clear_shared_schemas,
    shared_schema,
)
from repro.profiling.paths import DENSE_PATH_CAP, PathProfile
from repro.profiling.regenerate import reconstruct_path
from repro.resilience import FaultPlan, ResilienceManager
from repro.util import flags
from repro.vm import blockjit
from repro.vm.costs import CostModel
from repro.vm.runtime import VirtualMachine
from repro.vm.superblock import (
    decode_kpath,
    encode_kpath,
    find_dominant_kpath,
    install_superblock,
    is_kpath,
    superblock_fingerprint,
    trace_blocks,
)
from repro.workloads.suite import benchmark_suite

from tests.test_superblock import _adaptive_run, _digest, _pep_image

ALL_WORKLOADS = [w.name for w in benchmark_suite()]


@pytest.fixture(autouse=True)
def _isolate_codecache(monkeypatch):
    # Same isolation as test_superblock: the content-addressed compile
    # cache shares CompiledMethod instances across AdaptiveSystems, so a
    # trace installed by one test would leak into the next.
    monkeypatch.setenv("REPRO_CODECACHE", "0")


@pytest.fixture(autouse=True)
def _kblpp_on(monkeypatch):
    # Pin the feature on for every test in this file (the CI kill-switch
    # smoke exports REPRO_KBLPP=0 globally; these tests are about the
    # enabled tier unless they pin the flag themselves).  The tracefast
    # backend hosts the multi-iteration traces, so it is pinned too.
    monkeypatch.setattr(flags, "KBLPP", True)
    monkeypatch.setattr(flags, "TRACEFAST", True)


@pytest.fixture(autouse=True)
def _fresh_schemas():
    # Shared schemas are keyed by (method, DAG fingerprint, k) and the
    # tests below monkeypatch the size cap; never let one test's cached
    # verdict leak into the next.
    clear_shared_schemas()
    yield
    clear_shared_schemas()


def bimodal_program(calls: int = 200, inner: int = 4) -> Program:
    """main repeatedly calls a helper whose loop alternates two arms.

    Neither iteration 1-path can dominate (each holds ~half the mass),
    but one 2-iteration window does — the k-BLPP promotion shape.
    """
    pb = ProgramBuilder("kbimodal")
    helper = pb.function("helper", ["n"])
    n = helper.p("n")
    acc = helper.local(0)

    def body(i):
        def even():
            helper.assign(acc, acc + n)
            helper.assign(acc, acc + 1)
            helper.assign(acc, acc + i)
            helper.assign(acc, acc * 1)
            helper.assign(acc, acc + 2)

        def odd():
            helper.assign(acc, acc * 1)
            helper.assign(acc, acc + 2)
            helper.assign(acc, acc + i)
            helper.assign(acc, acc - 1)
            helper.assign(acc, acc + n)

        helper.if_((i % 2).eq(0), even, odd)

    helper.for_range(0, inner, 1, body)
    helper.ret(acc)

    f = pb.function("main")
    total = f.local(0)
    f.for_range(0, calls, 1,
                lambda i: f.assign(total, total + f.call("helper", i)))
    f.emit(total)
    f.ret(total)
    return pb.build()


def _helper_cm(program: Program = None):
    code = _pep_image(program or bimodal_program())
    return code, code["helper"]


# -- flag resolution ---------------------------------------------------------


def test_kblpp_flag_environment_resolution(monkeypatch):
    monkeypatch.setattr(flags, "KBLPP", None)
    monkeypatch.setenv(flags.KBLPP_ENV, "0")
    assert flags.kblpp_enabled() is False
    monkeypatch.setenv(flags.KBLPP_ENV, "1")
    assert flags.kblpp_enabled() is True
    monkeypatch.delenv(flags.KBLPP_ENV)
    assert flags.kblpp_enabled() is True  # default on


def test_kblpp_k_resolution_and_clamp(monkeypatch):
    monkeypatch.setattr(flags, "KBLPP_K", None)
    monkeypatch.delenv(flags.KBLPP_K_ENV, raising=False)
    assert flags.kblpp_k() == flags.KBLPP_K_DEFAULT == 2
    monkeypatch.setenv(flags.KBLPP_K_ENV, "3")
    assert flags.kblpp_k() == 3
    monkeypatch.setenv(flags.KBLPP_K_ENV, "99")
    assert flags.kblpp_k() == flags.KBLPP_K_MAX
    monkeypatch.setenv(flags.KBLPP_K_ENV, "0")
    assert flags.kblpp_k() == 1
    monkeypatch.setenv(flags.KBLPP_K_ENV, "nonsense")
    assert flags.kblpp_k() == flags.KBLPP_K_DEFAULT


def test_kpath_encoding_roundtrip():
    for knumber in (0, 1, 7, 10**6):
        encoded = encode_kpath(knumber)
        assert encoded <= -2
        assert is_kpath(encoded)
        assert decode_kpath(encoded) == knumber
    # The neighbouring sentinels stay distinct.
    assert not is_kpath(None)
    assert not is_kpath(-1)  # unused since the warm ladder retired
    assert not is_kpath(0)


# -- k-DAG structure ---------------------------------------------------------


def test_kdag_unrolling_shape():
    _, cm = _helper_cm()
    kdag = build_k_dag(cm.dag, 2)
    kinds = {}
    for edge in kdag.edges:
        kinds.setdefault(edge.kind, []).append(edge)
    # Dummy entries exist only at slot 0.
    for edge in kinds[DUMMY_ENTRY]:
        assert split_klabel(edge.dst)[1] == 0
    # Every carry links a slot-i header top to the slot-(i+1) bottom of
    # the same header (the window-internal iteration boundary).
    assert kinds[CARRY], "k=2 unrolling must produce carry edges"
    split_map = cm.dag.split_map
    for edge in kinds[CARRY]:
        top, src_slot = split_klabel(edge.src)
        bottom, dst_slot = split_klabel(edge.dst)
        assert dst_slot == src_slot + 1
        assert split_map[top] == bottom
    # Dummy exits survive only at the final slot.
    for edge in kinds[DUMMY_EXIT]:
        assert split_klabel(edge.src)[1] == 2 - 1


# -- numbering truth table vs brute force ------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_knumbering_bijects_with_enumeration(k):
    _, cm = _helper_cm()
    schema = KPathSchema(cm.dag, k)
    paths = schema.kdag.enumerate_paths()
    numbers = sorted(sum(edge.value for edge in path) for path in paths)
    # Ball-Larus over the unrolled DAG: a bijection onto 0..N-1.
    assert numbers == list(range(schema.num_kpaths))
    if k == 1:
        # The k=1 space is structurally the 1-DAG's.
        assert schema.num_kpaths == cm.dag.num_paths


def _one_path_links(dag, path_number):
    edges = reconstruct_path(dag, path_number)
    first, last = edges[0], edges[-1]
    start = first.dst if first.kind == DUMMY_ENTRY else None
    end = last.src if last.kind == DUMMY_EXIT else None
    return start, end


def test_window_number_truth_table():
    """Every chainable 2-window maps to a distinct full-window k-number,
    and those numbers are exactly the k-DAG's full-window path space."""
    _, cm = _helper_cm()
    dag = cm.dag
    schema = KPathSchema(dag, 2)
    links = {p: _one_path_links(dag, p) for p in range(dag.num_paths)}
    split_map = dag.split_map
    chains = [
        (p, q)
        for p, (_, p_end) in links.items()
        if p_end is not None
        for q, (q_start, _) in links.items()
        if q_start is not None and split_map[p_end] == q_start
    ]
    assert chains, "the bimodal helper must have chainable windows"
    numbers = {}
    for chain in chains:
        number = schema.window_number(chain)
        assert number is not None, chain
        assert schema.split_window(number) == chain
        numbers[number] = chain
    assert len(numbers) == len(chains)  # injective
    # Surjective onto the full-window numbers: brute-force the k-DAG and
    # keep paths that span both slots.
    full = set()
    for kpath in schema.kdag.enumerate_paths():
        window = schema.split_window(sum(edge.value for edge in kpath))
        if window is not None and len(window) == 2:
            full.add(schema.window_number(window))
    assert set(numbers) == full


def test_window_number_rejects_broken_chains():
    _, cm = _helper_cm()
    dag = cm.dag
    schema = KPathSchema(dag, 2)
    links = {p: _one_path_links(dag, p) for p in range(dag.num_paths)}
    # A path ending in a ret (no dummy exit) cannot lead a window.
    ret_end = next(p for p, (_, end) in links.items() if end is None)
    any_path = next(iter(links))
    assert schema.window_number((ret_end, any_path)) is None
    # A method-entry path (no dummy entry) cannot follow one.
    entry_start = next(p for p, (start, _) in links.items() if start is None)
    loop_end = next(p for p, (_, end) in links.items() if end is not None)
    assert schema.window_number((loop_end, entry_start)) is None
    # Wrong arity and out-of-space numbers void the window.
    assert schema.window_number((any_path,)) is None
    assert schema.window_number((dag.num_paths + 7, any_path)) is None


@pytest.mark.parametrize("k", [2, 3])
def test_split_window_roundtrip_over_the_whole_space(k):
    _, cm = _helper_cm()
    schema = KPathSchema(cm.dag, k)
    full_windows = 0
    for number in range(schema.num_kpaths):
        window = schema.split_window(number)
        assert window is not None
        assert 1 <= len(window) <= k
        if len(window) == k:
            assert schema.window_number(window) == number
            full_windows += 1
    assert full_windows > 0
    assert schema.split_window(-1) is None
    assert schema.split_window(schema.num_kpaths) is None


# -- shared schema registry and table sizing ---------------------------------


def test_shared_schema_is_cached_per_dag_and_k():
    _, cm = _helper_cm()
    first = shared_schema(cm.dag, 2)
    assert first is not None
    assert shared_schema(cm.dag, 2) is first
    assert shared_schema(cm.dag, 3) is not first
    assert shared_schema(None, 2) is None


def test_shared_schema_caps_the_path_space(monkeypatch):
    _, cm = _helper_cm()
    monkeypatch.setattr(kpaths, "KBLPP_MAX_PATHS", 1)
    assert shared_schema(cm.dag, 2) is None
    # The infeasibility verdict is cached: raising the cap back does not
    # resurrect the schema until the registry is cleared.
    monkeypatch.setattr(kpaths, "KBLPP_MAX_PATHS", 1 << 20)
    assert shared_schema(cm.dag, 2) is None
    clear_shared_schemas()
    assert shared_schema(cm.dag, 2) is not None


def test_kpath_table_dense_then_demotes():
    # The shadow window table is an ordinary PathProfile, so it inherits
    # the §10 hybrid storage: dense array under the cap, demotion to the
    # sparse dict on any out-of-range number, value-identical either way.
    profile = PathProfile()
    profile.ensure_dense("m", 8)
    profile.record("m", 3)
    assert type(profile._counts["m"]) is not dict
    profile.record("m", 12)  # out of the registered space: demote
    assert type(profile._counts["m"]) is dict
    assert profile.method_paths("m") == {3: 1.0, 12: 1.0}


def test_kpath_table_oversized_space_stays_sparse():
    profile = PathProfile()
    profile.ensure_dense("m", DENSE_PATH_CAP + 1)
    profile.record("m", 5)
    assert type(profile._counts["m"]) is dict
    assert profile.frequency("m", 5) == 1.0


# -- dominance ---------------------------------------------------------------


def test_find_dominant_kpath_thresholds():
    counts = {4: 40.0, 9: 35.0, 2: 25.0}
    assert find_dominant_kpath(counts, 0.25, 8.0) == 4
    assert find_dominant_kpath(counts, 0.5, 8.0) is None
    assert find_dominant_kpath({4: 4.0}, 0.25, 8.0) is None  # < min samples
    assert find_dominant_kpath({}, 0.25, 1.0) is None


# -- sampler: shadow window table --------------------------------------------


def test_sampled_run_fills_the_shadow_table():
    from repro.sampling.arnold_grove import make_sampler

    program = bimodal_program()
    code, cm = _helper_cm(program)
    vm = VirtualMachine(
        code, program.main, costs=CostModel(),
        tick_interval=400.0, sampler=make_sampler(16, 3),
    )
    vm.run()
    key = cm.profile_key
    counts = vm.kpath_profile.method_paths(key)
    assert counts, "k-window samples must land in vm.kpath_profile"
    schema = shared_schema(cm.dag, 2)
    one_paths = vm.path_profile.method_paths(key)
    # Every recorded window is a real chain of sampled 1-paths.
    for number in counts:
        window = schema.split_window(number)
        assert window is not None and len(window) == 2
        assert set(window) <= set(one_paths)
    # The bimodal kernel: no dominant 1-path, a dominant window at the
    # rotation-corrected threshold (DESIGN.md §16).
    from repro.vm.superblock import find_dominant_path

    assert find_dominant_path(one_paths, 0.5, 8.0) is None
    assert find_dominant_kpath(counts, 0.25, 8.0) is not None


def test_kill_switch_empties_the_shadow_table(monkeypatch):
    from repro.sampling.arnold_grove import make_sampler

    monkeypatch.setattr(flags, "KBLPP", False)
    program = bimodal_program()
    code, cm = _helper_cm(program)
    vm = VirtualMachine(
        code, program.main, costs=CostModel(),
        tick_interval=400.0, sampler=make_sampler(16, 3),
    )
    vm.run()
    assert not vm.kpath_profile.method_paths(cm.profile_key)
    assert vm.path_profile.method_paths(cm.profile_key)  # 1-paths unaffected


# -- promotion lifecycle -----------------------------------------------------


def _kblpp_run(program, kblpp, resilience=None):
    # min_samples high enough that early small-sample noise cannot push
    # a ~37% 1-path over the 0.5 dominance bar — the promotions below
    # must come from the k-window table (40% >= the 0.25 k-threshold),
    # not a lucky 3-of-4 sample streak.
    old = flags.KBLPP
    flags.KBLPP = kblpp
    try:
        return _adaptive_run(
            program, superblock=True, resilience=resilience,
            min_samples=24.0,
        )
    finally:
        flags.KBLPP = old


def test_controller_promotes_a_kpath_and_digests_match():
    program = bimodal_program()
    sys_on, vm_on, res_on = _kblpp_run(program, True)
    sys_off, vm_off, res_off = _kblpp_run(program, False)
    # The k-trace fired on the bimodal helper...
    kpromotions = [e for e in sys_on.superblock_log if is_kpath(e[2])]
    assert kpromotions
    assert all(e[0] == "helper" for e in kpromotions)
    # ...never under the kill switch...
    assert not [e for e in sys_off.superblock_log if is_kpath(e[2])]
    # ...and moved zero bits.
    assert _digest(vm_on, res_on) == _digest(vm_off, res_off)


def _stitchable_encoded(cm):
    schema = shared_schema(cm.dag, 2)
    assert schema is not None
    for number in range(schema.num_kpaths):
        encoded = encode_kpath(number)
        if trace_blocks(cm, encoded) is not None:
            return encoded
    pytest.fail("no stitchable k-window in the bimodal helper")


def _engaged_kcm():
    _, cm = _helper_cm()
    encoded = _stitchable_encoded(cm)
    assert install_superblock(cm, encoded, CostModel())
    assert cm.sb_path == encoded
    assert is_kpath(cm.sb_path)
    return cm


def test_ktrace_blocks_span_k_iterations():
    _, cm = _helper_cm()
    encoded = _stitchable_encoded(cm)
    trace = trace_blocks(cm, encoded)
    labels = [block.label for block in trace]
    # A mono-header cyclic window: the split header top opens each of
    # the two stitched iterations, so it appears exactly k times — the
    # repetition 1-path traces never have.
    assert labels.count(labels[0]) == 2
    assert len(labels) > len(set(labels))


def test_ktrace_execution_bit_identity():
    from repro.sampling.arnold_grove import make_sampler

    # Odd trip count: every call ends mid-window, forcing the trace's
    # side exit in the middle of a stitched pair.
    program = bimodal_program(calls=60, inner=5)
    digests = []
    for traced in (False, True):
        code, cm = _helper_cm(program)
        if traced:
            assert install_superblock(
                cm, _stitchable_encoded(cm), CostModel()
            )
        vm = VirtualMachine(
            code, program.main, costs=CostModel(), tick_interval=500.0,
            sampler=make_sampler(8, 3), blockjit=True,
        )
        digests.append(_digest(vm, vm.run()))
    assert digests[0] == digests[1]


def test_pickled_ktrace_revives_through_ensure_jit(monkeypatch):
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    cm = _engaged_kcm()
    clone = pickle.loads(pickle.dumps(cm))
    # Callables never pickle; source + path + fingerprint ride along.
    assert clone.sb_entry is None
    assert clone.sb_path == cm.sb_path
    assert clone.sb_fingerprint == cm.sb_fingerprint
    blockjit.ensure_jit(clone)
    assert clone.sb_entry is not None


def test_kblpp_kill_switch_keeps_but_does_not_install(monkeypatch):
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    cm = _engaged_kcm()
    clone = pickle.loads(pickle.dumps(cm))
    monkeypatch.setattr(flags, "KBLPP", False)
    blockjit.ensure_jit(clone)
    # As under REPRO_SUPERBLOCK=0: nothing installs, artefacts survive
    # for a later enabled process (the fingerprint still matches).
    assert clone.sb_entry is None
    assert clone.sb_source is not None
    assert is_kpath(clone.sb_path)


def test_k_change_drops_the_stale_ktrace(monkeypatch):
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    cm = _engaged_kcm()
    clone = pickle.loads(pickle.dumps(cm))
    monkeypatch.setattr(flags, "KBLPP_K", 3)
    blockjit.ensure_jit(clone)
    # The fingerprint embeds the resolved k: the number would decode in
    # the wrong path space, so the artefact is dropped wholesale.
    assert clone.sb_entry is None
    assert clone.sb_source is None
    assert clone.sb_path is None


def test_fingerprint_folds_k_only_for_ktraces(monkeypatch):
    cm = _engaged_kcm()
    encoded = cm.sb_path
    fp_k2 = superblock_fingerprint(cm, encoded)
    monkeypatch.setattr(flags, "KBLPP_K", 3)
    assert superblock_fingerprint(cm, encoded) != fp_k2
    # Plain 1-path traces stay byte-stable across a k change.
    monkeypatch.setattr(flags, "KBLPP_K", 2)
    fp_plain = superblock_fingerprint(cm, 0)
    monkeypatch.setattr(flags, "KBLPP_K", 3)
    assert superblock_fingerprint(cm, 0) == fp_plain


# -- fault-plan parity -------------------------------------------------------


def test_fault_plan_digest_parity_on_off():
    program = bimodal_program()
    plan = {"sample": 0.2, "path-reconstruct": 0.2, "path-table": 0.2,
            "tracefast-compile": 0.5}
    digests = []
    for kblpp in (True, False):
        _, vm, result = _kblpp_run(
            program, kblpp,
            resilience=ResilienceManager(plan=FaultPlan(plan, seed=5)),
        )
        digests.append(_digest(vm, result))
    assert digests[0] == digests[1]


def test_compile_fault_blocks_the_kpromotion():
    program = bimodal_program()
    plan = FaultPlan({"tracefast-compile": 1.0}, seed=11)
    system, vm, result = _kblpp_run(
        program, True, resilience=ResilienceManager(plan=plan)
    )
    assert not [e for e in system.superblock_log if is_kpath(e[2])]


# -- whole-suite parity (all 17 bundled workloads) ---------------------------


def _workload_checksum(workload: str, kblpp: bool) -> str:
    import repro.api as api

    suite = {w.name: w for w in benchmark_suite()}
    old_kb, old_sb = flags.KBLPP, flags.SUPERBLOCK
    flags.KBLPP, flags.SUPERBLOCK = kblpp, True
    try:
        program = suite[workload].build(0.3)
        report = api.profile_adaptive(
            program, samples=16, stride=3, ticks=100
        )
    finally:
        flags.KBLPP, flags.SUPERBLOCK = old_kb, old_sb
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
    on = _workload_checksum(workload, kblpp=True)
    off = _workload_checksum(workload, kblpp=False)
    assert on == off
