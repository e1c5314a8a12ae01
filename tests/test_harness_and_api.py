"""Tests for the experiment harness and the high-level API."""

import pytest

from repro import api
from repro.adaptive.replay import replay_compile, run_iteration_with_vm
from repro.harness.accuracy import (
    collect_pep_profiles,
    collect_perfect_profiles,
    derive_edge_profile,
    edge_accuracy,
    path_accuracy,
)
from repro.harness.experiment import (
    BASE,
    INSTR_ONLY,
    PERFECT_EDGE,
    ExperimentContext,
    pep_config,
    prepare,
    run_config,
)
from repro.harness.report import render_accuracy_figure, render_overhead_figure
from repro.metrics.overlap import relative_overlap
from repro.persist import edge_profile_to_dict
from repro.resilience import DegradationPolicy, FaultPlan, ResilienceManager
from repro.sampling.arnold_grove import SamplingConfig
from repro.workloads.suite import get_workload

from tests.helpers import counting_program, total_samples

SCALE = 0.6  # tiny runs: these are correctness tests, not measurements


@pytest.fixture(scope="module")
def ctx() -> ExperimentContext:
    return prepare(get_workload("jess"), scale=SCALE, use_cache=False)


def test_prepare_calibrates_timer(ctx):
    assert ctx.base_cycles > 0
    expected = ctx.base_cycles / ctx.workload.ticks_target
    assert ctx.tick_interval == pytest.approx(expected)
    assert ctx.advice.levels  # the advice run optimized something


def test_base_config_matches_base_cycles(ctx):
    _, result = run_config(ctx, BASE)
    assert result.cycles == pytest.approx(ctx.base_cycles)
    assert result.ticks == 0


def test_instr_only_runs_untimed(ctx):
    _, result = run_config(ctx, INSTR_ONLY)
    assert result.ticks == 0
    assert result.samples_taken == 0
    assert result.cycles > ctx.base_cycles


def test_pep_config_samples(ctx):
    _, result = run_config(ctx, pep_config(8, 3))
    assert result.ticks > 0
    assert result.samples_taken > 0


def test_image_caching_behaviour(ctx):
    assert ctx.image(None) is ctx.image(None)
    assert ctx.image("pep") is ctx.image("pep")
    fresh = ctx.image("pep", cache=False)
    assert fresh is not ctx.image("pep")


def test_image_never_caches_profile_overrides(ctx):
    override = ctx.advice.onetime_profile.copy()
    _, before = run_iteration_with_vm(
        ctx.image("pep", profile_override=override)
    )
    # Flip the same override object in place: same id, new contents.
    flipped = override.flipped()
    override.clear()
    override.merge(flipped)
    _, after = run_iteration_with_vm(
        ctx.image("pep", profile_override=override)
    )
    uncached = replay_compile(
        ctx.program,
        ctx.advice,
        costs=ctx.costs,
        instrumentation="pep",
        profile_override=override,
    )
    _, expected = run_iteration_with_vm(uncached)
    assert after.cycles == expected.cycles
    assert after.cycles != before.cycles


def test_prepare_does_not_cache_custom_cost_contexts():
    from repro.harness.experiment import _CONTEXT_CACHE
    from repro.vm.costs import CostModel

    workload = get_workload("compress")
    scale = 0.35  # no other test prepares at this scale
    costs = CostModel()
    costs.branch_op = 20.0
    try:
        custom = prepare(workload, scale=scale, costs=costs)
        default = prepare(workload, scale=scale)
        assert default is not custom
        assert default.costs is not costs
        fresh = prepare(workload, scale=scale, use_cache=False)
        assert default.base_cycles == fresh.base_cycles
        assert custom.base_cycles > default.base_cycles
        assert prepare(workload, scale=scale) is default
    finally:
        _CONTEXT_CACHE.pop((workload.name, scale), None)


def test_perfect_profiles_consistency(ctx):
    perfect = collect_perfect_profiles(ctx)
    assert total_samples(perfect.paths) > 0
    # Path-derived edges must agree exactly with direct edge counts on
    # branches both cover (the section 5.1 equivalence), up to paths lost
    # at uninterruptible headers (none in this workload).
    for branch in perfect.edges.branches():
        assert perfect.direct_edges.total(branch) == pytest.approx(
            perfect.edges.total(branch)
        )


def test_direct_edges_replay_on_first_read(ctx, monkeypatch):
    import repro.adaptive.replay as replay

    calls = []
    real = replay.run_iteration_with_vm

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(replay, "run_iteration_with_vm", counting)
    perfect = collect_perfect_profiles(ctx)
    assert len(calls) == 1  # the full-path replay only
    first = perfect.direct_edges
    assert len(calls) == 2
    assert perfect.direct_edges is first
    assert len(calls) == 2


def test_direct_edges_equal_an_eager_edge_replay(ctx):
    perfect = collect_perfect_profiles(ctx)
    run_config(ctx, pep_config(64, 17))  # a sampled run in between
    vm, _ = run_config(ctx, PERFECT_EDGE)
    assert edge_profile_to_dict(perfect.direct_edges) == (
        edge_profile_to_dict(vm.edge_profile)
    )


def test_edge_accuracy_against_direct(ctx):
    sampling = SamplingConfig(64, 17)
    perfect = collect_perfect_profiles(ctx)
    vm, _ = run_config(ctx, PERFECT_EDGE)
    _, pep_edges = collect_pep_profiles(ctx, sampling)
    expected = relative_overlap(vm.edge_profile, pep_edges)
    assert edge_accuracy(
        ctx, sampling, perfect, against_direct=True
    ) == expected


def test_accuracy_bounds(ctx):
    perfect = collect_perfect_profiles(ctx)
    for config in (SamplingConfig(1, 1), SamplingConfig(16, 5)):
        pa = path_accuracy(ctx, config, perfect)
        ea = edge_accuracy(ctx, config, perfect)
        assert 0.0 <= pa <= 1.0
        assert 0.0 <= ea <= 1.0
    dense = path_accuracy(ctx, SamplingConfig(64, 17), perfect)
    sparse = path_accuracy(ctx, SamplingConfig(1, 1), perfect)
    assert dense >= sparse - 0.05


def test_derive_edge_profile_empty_resolvers():
    from repro.profiling.paths import PathProfile

    paths = PathProfile()
    paths.record("ghost#v0", 3)
    edges = derive_edge_profile(paths, {})
    assert len(edges) == 0


def test_render_helpers_produce_tables():
    normalized = {"cfg": {"a": 1.01, "b": 1.02}}
    text = render_overhead_figure("T", ["a", "b"], ["cfg"], normalized)
    assert "T" in text and "1.0100" in text and "avg" in text
    acc = {"cfg": {"a": 0.95, "b": 0.90}}
    text2 = render_accuracy_figure("T2", ["a", "b"], ["cfg"], acc)
    assert "95.0" in text2 and "92.5" in text2  # value + average


# -- high-level API -----------------------------------------------------------


def test_api_profile_basic():
    report = api.profile(counting_program(3000), samples=8, stride=3, ticks=40)
    assert report.result.samples_taken > 0
    assert report.paths.distinct_paths() >= 1
    assert 0.0 <= report.overhead < 0.5
    assert report.hot_paths()
    assert report.branch_biases()


def test_api_profile_perfect_mode():
    report = api.profile(counting_program(500), perfect=True)
    assert report.result.samples_taken == 0
    assert total_samples(report.paths) > 0
    # Perfect edges cover the loop branch with exact counts.
    total = sum(
        report.edges.total(branch) for branch in report.edges.branches()
    )
    assert total > 0


def test_api_path_blocks():
    report = api.profile(counting_program(2000), samples=16, stride=3, ticks=50)
    (method, number), _flow = report.hot_paths()[0]
    blocks = report.path_blocks(method, number)
    assert blocks, "path should traverse at least one block"


@pytest.mark.parametrize("ticks", [0, -3])
def test_api_profile_rejects_nonpositive_ticks(ticks):
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="ticks"):
        api.profile(counting_program(100), ticks=ticks)


@pytest.mark.parametrize("ticks", [0, -3])
def test_api_profile_adaptive_rejects_nonpositive_ticks(ticks):
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="ticks"):
        api.profile_adaptive(counting_program(100), ticks=ticks)


def test_api_profile_rejects_resilience_with_fault_plan():
    from repro.errors import ReproError

    # The manager owns its plan; the extra one used to be dropped silently.
    with pytest.raises(ReproError, match="resilience"):
        api.profile(
            counting_program(100),
            fault_plan=FaultPlan({"opt-compile": 1.0}, seed=4),
            resilience=ResilienceManager(),
        )


@pytest.mark.parametrize(
    "extra",
    [
        {"fault_plan": FaultPlan({"opt-compile": 1.0}, seed=4)},
        {"policy": DegradationPolicy(max_reconstruction_failures=1)},
    ],
    ids=["fault_plan", "policy"],
)
def test_api_profile_adaptive_rejects_conflicting_resilience(extra):
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="resilience"):
        api.profile_adaptive(
            counting_program(100), resilience=ResilienceManager(), **extra
        )


def test_api_rejects_invalid_program():
    from repro.bytecode.method import Program
    from repro.errors import VerificationError

    with pytest.raises(VerificationError):
        api.profile(Program("empty"))
