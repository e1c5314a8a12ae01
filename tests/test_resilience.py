"""Tests for fault injection and graceful degradation (repro.resilience)."""

import pytest

from repro import api
from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
from repro.errors import (
    CompilationError,
    FuelExhaustedError,
    GuestTrapError,
    PathReconstructionError,
    ReproError,
)
from repro.resilience import (
    FAULT_SITES,
    DegradationPolicy,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    HealthReport,
    ResilienceManager,
)
from repro.sampling.arnold_grove import SamplingConfig

from tests.test_adaptive_system import hot_loop_program


# -- FaultPlan / FaultInjector -------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ReproError):
        FaultSpec("no-such-site", 0.5)
    with pytest.raises(ReproError):
        FaultSpec("sample", 1.5)
    with pytest.raises(ReproError):
        FaultSpec("sample", -0.1)
    with pytest.raises(ReproError):
        FaultSpec("sample", 0.5, max_faults=-1)
    with pytest.raises(ReproError):
        FaultPlan([FaultSpec("sample", 0.1), FaultSpec("sample", 0.2)])


def test_fault_plan_parse():
    plan = FaultPlan.parse(
        ["opt-compile=0.25", "path-reconstruct=0.5:3"], seed=9
    )
    assert plan.seed == 9
    assert plan.specs["opt-compile"].probability == 0.25
    assert plan.specs["opt-compile"].max_faults is None
    assert plan.specs["path-reconstruct"].probability == 0.5
    assert plan.specs["path-reconstruct"].max_faults == 3
    with pytest.raises(ReproError):
        FaultPlan.parse(["opt-compile"])
    with pytest.raises(ReproError):
        FaultPlan.parse(["opt-compile=lots"])


def test_injector_is_deterministic_per_seed():
    def decisions(seed):
        injector = FaultInjector(FaultPlan({"sample": 0.3}, seed=seed))
        return [injector.should_fire("sample", f"k{i}") for i in range(200)]

    assert decisions(1) == decisions(1)
    assert decisions(1) != decisions(2)
    assert any(decisions(1))
    assert not all(decisions(1))


def test_injector_streams_are_independent_per_site():
    # Interleaving checks at another site must not perturb a site's stream.
    solo = FaultInjector(FaultPlan({"sample": 0.3}, seed=5))
    mixed = FaultInjector(
        FaultPlan({"sample": 0.3, "opt-compile": 0.3}, seed=5)
    )
    solo_decisions = []
    mixed_decisions = []
    for i in range(100):
        solo_decisions.append(solo.should_fire("sample"))
        mixed_decisions.append(mixed.should_fire("sample"))
        mixed.should_fire("opt-compile")
    assert solo_decisions == mixed_decisions


def test_injector_respects_fault_budget():
    injector = FaultInjector(
        FaultPlan([FaultSpec("sample", 1.0, max_faults=2)])
    )
    fired = [injector.should_fire("sample") for _ in range(10)]
    assert fired == [True, True] + [False] * 8
    assert injector.fired("sample") == 2


def test_injector_unconfigured_site_never_fires():
    injector = FaultInjector(FaultPlan({"sample": 1.0}))
    assert not injector.should_fire("opt-compile")
    assert injector.total_fired() == 0


def test_injector_records_to_health():
    health = HealthReport()
    injector = FaultInjector(FaultPlan({"sample": 1.0}), health)
    injector.should_fire("sample", "work#v1")
    assert health.faults == {"sample": 1}
    assert health.fault_log == [("sample", "work#v1")]


def test_fault_sites_cover_the_hot_layers():
    assert set(FAULT_SITES) == {
        "opt-compile",
        "sample",
        "path-reconstruct",
        "path-table",
        "advice-load",
        # Engine-level sites (supervised sweep engine, DESIGN.md §12).
        "worker-crash",
        "worker-hang",
        "receipt-write",
    }


@pytest.mark.parametrize(
    "site",
    ["warmjit-compile", "tracefast-compile", "superblock-compile", "cache-merge"],
)
def test_retired_warmjit_site_is_unknown(site):
    # The warm ladder, both trace emitters, the compilation cache and
    # their fault sites are gone: a plan that still names any of them is
    # rejected like any other unknown site.
    with pytest.raises(ReproError, match="unknown fault site"):
        FaultPlan({site: 1.0})


def test_engine_fault_sites_are_a_subset_of_fault_sites():
    from repro.resilience import ENGINE_FAULT_SITES

    assert set(ENGINE_FAULT_SITES) <= set(FAULT_SITES)


# -- HealthReport --------------------------------------------------------------


def test_health_report_equality_and_dict():
    a, b = HealthReport(), HealthReport()
    assert a == b
    a.record_fault("sample", "k")
    assert a != b
    b.record_fault("sample", "k")
    assert a == b
    assert a.to_dict()["faults"] == {"sample": 1}
    assert a.events() == 1


def test_health_report_summary_mentions_degradations():
    health = HealthReport()
    health.record_degradation("compile-backoff", "work: retrying")
    health.record_warning("advice file unusable")
    text = health.summary()
    assert "compile-backoff" in text
    assert "advice file unusable" in text


# -- DegradationPolicy / ResilienceManager ------------------------------------


def test_policy_backoff_is_exponential_and_capped():
    policy = DegradationPolicy(compile_backoff_base=4, compile_backoff_cap=16)
    assert [policy.backoff_for(n) for n in (1, 2, 3, 4)] == [4, 8, 16, 16]
    with pytest.raises(ValueError):
        DegradationPolicy(max_reconstruction_failures=0)
    with pytest.raises(ValueError):
        DegradationPolicy(compile_backoff_base=8, compile_backoff_cap=4)


def test_compile_failure_backoff_then_blacklist():
    res = ResilienceManager(
        policy=DegradationPolicy(
            compile_backoff_base=4, max_compile_attempts=3
        )
    )
    error = CompilationError("boom")
    assert res.compile_allowed("work", 2)
    res.note_compile_failure("work", 2, error)
    # Backoff window: 4 more samples before the next attempt.
    assert not res.compile_allowed("work", 5)
    assert res.compile_allowed("work", 6)
    res.note_compile_failure("work", 6, error)
    assert not res.compile_allowed("work", 13)
    assert res.compile_allowed("work", 14)
    res.note_compile_failure("work", 14, error)
    # Third strike: permanent blacklist.
    assert res.is_blacklisted("work")
    assert not res.compile_allowed("work", 10_000)
    assert res.health.blacklisted == ["work"]
    kinds = [kind for kind, _ in res.health.degradations]
    assert kinds == ["compile-backoff", "compile-backoff", "compile-blacklist"]


def test_compile_success_clears_backoff():
    res = ResilienceManager()
    res.note_compile_failure("work", 0, CompilationError("boom"))
    res.note_compile_success("work")
    assert res.compile_allowed("work", 1)


def test_k_strikes_disables_path_profiling():
    res = ResilienceManager(
        policy=DegradationPolicy(max_reconstruction_failures=3)
    )
    error = PathReconstructionError("bad path")
    res.note_reconstruction_failure("work", error)
    res.note_reconstruction_failure("work", error)
    assert res.path_profiling_enabled("work")
    # A success resets the consecutive streak.
    res.note_reconstruction_success("work")
    res.note_reconstruction_failure("work", error)
    res.note_reconstruction_failure("work", error)
    res.note_reconstruction_failure("work", error)
    assert not res.path_profiling_enabled("work")
    assert res.health.path_disabled == ["work"]
    assert res.health.samples_dropped == 5
    assert res.health.reconstruction_failures == 5
    # Recompiles of the disabled method degrade to edge-only profiling.
    assert res.instrumentation_for("work", "pep") == "edges"
    assert res.instrumentation_for("other", "pep") == "pep"
    assert res.instrumentation_for("work", None) is None


# -- end-to-end: adaptive VM under injected faults ----------------------------


def test_adaptive_survives_certain_opt_compile_faults():
    program = hot_loop_program(2500)
    clean_system = AdaptiveSystem(program)
    clean = clean_system.make_vm(tick_interval=2000.0).run()

    res = ResilienceManager(plan=FaultPlan({"opt-compile": 1.0}, seed=1))
    system = AdaptiveSystem(program, resilience=res)
    result = system.make_vm(tick_interval=2000.0).run()

    # Every opt-compile faults; the program still runs to the right answer
    # at baseline, and the hot methods end up blacklisted.
    assert result.output == clean.output
    assert result.recompilations == 0
    assert all(level is None for level in system.levels.values())
    assert res.health.blacklisted
    assert result.health is res.health


def test_adaptive_path_faults_degrade_to_edge_only():
    program = hot_loop_program(6000)
    res = ResilienceManager(
        plan=FaultPlan({"path-reconstruct": 1.0}, seed=2),
        policy=DegradationPolicy(max_reconstruction_failures=2),
    )
    config = AdaptiveConfig(
        thresholds=((1, 0), (3, 1), (6, 2)), pep=SamplingConfig(8, 3)
    )
    system = AdaptiveSystem(program, config=config, resilience=res)
    vm = system.make_vm(tick_interval=1500.0)
    result = vm.run()

    # Every first-time reconstruction faults, so path profiling gets
    # disabled for the sampled methods, but the run completes and no
    # unhandled PathReconstructionError escapes.
    assert res.health.path_disabled
    assert res.health.samples_dropped > 0
    assert vm.path_profile.total_samples() == 0
    assert result.return_value == result.output[0]


def test_acceptance_fault_plan_is_graceful_and_deterministic():
    # ISSUE acceptance: 10% opt-compile + path-reconstruction faults; the
    # end-to-end adaptive run completes with the correct result, a
    # non-empty HealthReport, and a derived edge profile; replaying the
    # plan with the same seed yields an identical HealthReport.
    program = hot_loop_program(5000)
    clean = api.profile_adaptive(program, samples=16, stride=5, ticks=150)

    def faulty_run():
        plan = FaultPlan(
            {"opt-compile": 0.1, "path-reconstruct": 0.1}, seed=7
        )
        return api.profile_adaptive(
            program, samples=16, stride=5, ticks=150, fault_plan=plan
        )

    first = faulty_run()
    second = faulty_run()

    assert first.result.output == clean.result.output
    assert first.health is not None
    assert first.health.events() > 0
    assert first.health.total_faults() > 0
    assert len(first.edges) > 0
    assert first.health == second.health
    assert first.result.cycles == second.result.cycles


def test_profile_adaptive_always_reports_health():
    program = hot_loop_program(1500)
    report = api.profile_adaptive(program, samples=8, stride=3, ticks=100)
    assert report.health is not None
    assert report.health.events() == 0
    assert report.result.recompilations > 0


def test_api_profile_falls_back_to_baseline_on_compile_faults():
    program = hot_loop_program(2000)
    clean = api.profile(program, samples=16, stride=5, ticks=100)
    report = api.profile(
        program,
        samples=16,
        stride=5,
        ticks=100,
        fault_plan=FaultPlan({"opt-compile": 1.0}, seed=4),
    )
    # All methods degrade to baseline bodies; baseline's one-time edge
    # instrumentation still produces an edge profile, and the guest
    # result is unchanged.
    assert report.result.output == clean.result.output
    assert report.health is not None
    assert sum(report.health.compile_failures.values()) == len(
        list(program.iter_methods())
    )
    assert len(report.edges) > 0
    assert report.paths.distinct_paths() == 0


def test_path_table_faults_drop_table_updates_but_keep_edges():
    program = hot_loop_program(4000)
    clean = api.profile(program, samples=16, stride=5, ticks=150)
    report = api.profile(
        program,
        samples=16,
        stride=5,
        ticks=150,
        fault_plan=FaultPlan({"path-table": 1.0}, seed=6),
    )
    assert report.paths.total_samples() == 0
    assert report.health.samples_dropped > 0
    # The edge derivation still ran for every dropped table update.
    assert len(report.edges) == len(clean.edges)
    assert report.result.output == clean.result.output


def test_reconstruction_error_still_raises_without_resilience():
    # No ResilienceManager attached: the pre-existing fail-fast contract
    # is preserved for callers that want it.
    from repro.cfg.dag import PDag  # noqa: F401 (documents the layer)
    from repro.profiling.regenerate import reconstruct_path

    program = hot_loop_program(500)
    report = api.profile(program, samples=8, stride=3, ticks=100)
    (key, resolver), = [
        (k, r) for k, r in report.resolvers.items() if r is not None
    ][:1]
    with pytest.raises(PathReconstructionError):
        reconstruct_path(resolver.dag, resolver.dag.num_paths + 5)


# -- CLI ----------------------------------------------------------------------


CLI_SOURCE = """
fn helper(n) {
    if (n % 2 == 0) { return n / 2; }
    return 3 * n + 1;
}
fn main() {
    let steps = 0;
    let i = 0;
    while (i < 200) {
        let n = 27 + i;
        while (n != 1) { n = helper(n); steps = steps + 1; }
        i = i + 1;
    }
    emit steps;
    return steps;
}
"""


@pytest.fixture()
def cli_source(tmp_path):
    path = tmp_path / "faulty.mj"
    path.write_text(CLI_SOURCE)
    return str(path)


def test_cli_profile_with_injection_prints_health(cli_source, capsys):
    from repro.__main__ import main

    code = main(
        [
            "profile",
            cli_source,
            "--adaptive",
            "--ticks",
            "50",
            "--inject",
            "opt-compile=1.0",
            "--fault-seed",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "run health" in out
    assert "faults injected" in out
    assert "opt-compile" in out


def test_cli_profile_rejects_bad_inject_spec(cli_source):
    from repro.__main__ import main

    # A made-up site, and the retired superblock trace tier's site.
    for spec in ("bogus-site=0.5", "superblock-compile=0.5"):
        with pytest.raises(ReproError):
            main(["profile", cli_source, "--inject", spec])


# -- enriched VM errors (satellite) -------------------------------------------


def test_vm_errors_carry_location_context():
    from repro.lang import compile_source
    from repro.adaptive.optimizing import optimize_method
    from repro.vm.costs import CostModel
    from repro.vm.runtime import VirtualMachine

    costs = CostModel()
    src = "fn main() { let x = 10; let y = 0; emit x / y; return 0; }"
    program = compile_source(src, name="trap")
    code = {
        m.name: optimize_method(m, program, 2, None, costs)[0]
        for m in program.iter_methods()
    }
    with pytest.raises(GuestTrapError) as trap_info:
        VirtualMachine(code, program.main, costs=costs).run()
    trap = trap_info.value
    assert trap.method == "main#v0"
    assert trap.block is not None
    assert trap.instruction_index is not None
    assert trap.cycles is not None
    assert "division by zero" in str(trap)
    assert "main#v0" in str(trap)

    loop = compile_source(
        "fn main() { let n = 0; while (1 == 1) { n = n + 1; } return n; }",
        name="spin",
    )
    loop_code = {
        m.name: optimize_method(m, loop, 2, None, costs)[0]
        for m in loop.iter_methods()
    }
    with pytest.raises(FuelExhaustedError) as fuel_info:
        VirtualMachine(loop_code, loop.main, costs=costs).run(fuel=5_000)
    fuel = fuel_info.value
    assert fuel.method == "main#v0"
    assert fuel.block is not None
    assert fuel.cycles == pytest.approx(5_000, rel=0.5)
    assert "after" in str(fuel) and "cycles" in str(fuel)
