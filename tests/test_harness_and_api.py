"""Tests for the experiment harness and the high-level API."""

import pytest

from repro import api
from repro.harness.accuracy import (
    collect_perfect_profiles,
    derive_edge_profile,
    edge_accuracy,
    path_accuracy,
)
from repro.harness.experiment import (
    BASE,
    INSTR_ONLY,
    ExperimentContext,
    pep_config,
    prepare,
    run_config,
)
from repro.harness.report import render_accuracy_figure, render_overhead_figure
from repro.resilience import DegradationPolicy, FaultPlan, ResilienceManager
from repro.sampling.arnold_grove import SamplingConfig
from repro.workloads.suite import get_workload

from tests.helpers import counting_program

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


def test_perfect_profiles_consistency(ctx):
    perfect = collect_perfect_profiles(ctx)
    assert perfect.paths.total_samples() > 0
    # Path-derived edges must agree exactly with direct edge counts on
    # branches both cover (the section 5.1 equivalence), up to paths lost
    # at uninterruptible headers (none in this workload).
    for branch in perfect.edges.branches():
        assert perfect.direct_edges.total(branch) == pytest.approx(
            perfect.edges.total(branch)
        )


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
    assert report.paths.total_samples() > 0
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
