"""Tests for the synthetic benchmark suite and the program generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bytecode.validate import verify_program
from repro.errors import WorkloadError
from repro.workloads.generator import GeneratorSpec, random_program
from repro.workloads.suite import Workload, benchmark_suite, get_workload

from tests.compile_util import run_program

SMALL = 0.25  # tiny scale: structure checks, not measurements


def test_suite_composition():
    suite = benchmark_suite()
    names = [w.name for w in suite]
    assert len(names) == 17
    assert len(set(names)) == 17
    # The paper's SPEC JVM98 + pseudojbb + DaCapo (minus hsqldb).
    assert {"compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack"} <= set(
        names
    )
    assert "pseudojbb" in names
    assert {"antlr", "bloat", "fop", "pmd", "ps", "xalan"} <= set(names)
    assert "hsqldb" not in names
    # The bimodal alternating-arm kernels (DESIGN.md §16).
    assert {"zigzag", "seesaw", "pingpong"} <= set(names)
    groups = {w.group for w in suite}
    assert groups == {"specjvm98", "specjbb", "dacapo", "bimodal"}


def test_get_workload():
    assert get_workload("jess").name == "jess"
    with pytest.raises(WorkloadError):
        get_workload("hsqldb")


@pytest.mark.parametrize(
    "scale", [0, float("nan"), float("inf")], ids=["0", "nan", "inf"]
)
def test_workload_rejects_bad_scale(scale):
    with pytest.raises(WorkloadError):
        get_workload("jess").build(scale)


@pytest.mark.parametrize("workload", benchmark_suite(), ids=lambda w: w.name)
def test_each_workload_builds_verifies_runs(workload):
    program = workload.build(SMALL)
    verify_program(program)
    _, result = run_program(program, fuel=10_000_000)
    assert result.output, f"{workload.name} produced no output"
    assert result.cycles > 0


@pytest.mark.parametrize("workload", benchmark_suite(), ids=lambda w: w.name)
def test_workloads_deterministic(workload):
    _, r1 = run_program(workload.build(SMALL), fuel=10_000_000)
    _, r2 = run_program(workload.build(SMALL), fuel=10_000_000)
    assert r1.output == r2.output
    assert r1.cycles == r2.cycles


def test_scale_scales_work():
    small = run_program(get_workload("jess").build(0.2), fuel=20_000_000)[1]
    large = run_program(get_workload("jess").build(0.8), fuel=20_000_000)[1]
    assert large.cycles > 2.5 * small.cycles


def test_workloads_are_chunked_drivers():
    """The hot code must live outside main so recompilation can reach it."""
    for workload in benchmark_suite():
        program = workload.build(SMALL)
        main = program.main_method()
        worker_calls = [
            instr.callee
            for block in main.iter_blocks()
            for instr in block.instrs
            if instr.op == "call"
        ]
        assert worker_calls, f"{workload.name}: main calls no worker"


def test_workloads_have_branchy_workers():
    for workload in benchmark_suite():
        program = workload.build(SMALL)
        branches = sum(
            len(list(m.iter_branches())) for m in program.iter_methods()
        )
        assert branches >= 5, f"{workload.name} has too few branches"


# -- generator ----------------------------------------------------------------


def test_generator_spec_validation():
    with pytest.raises(WorkloadError):
        GeneratorSpec(max_depth=0)
    with pytest.raises(WorkloadError):
        GeneratorSpec(n_helpers=-1)


def test_generator_is_deterministic():
    a = random_program(99)
    b = random_program(99)
    _, ra = run_program(a, fuel=5_000_000)
    _, rb = run_program(b, fuel=5_000_000)
    assert ra.output == rb.output


def test_generator_seeds_differ():
    outs = set()
    for seed in range(5):
        _, result = run_program(random_program(seed), fuel=5_000_000)
        outs.add(tuple(result.output))
    assert len(outs) > 1


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_generator_programs_always_verify_and_terminate(seed):
    program = random_program(seed, GeneratorSpec(work_budget=200))
    verify_program(program)
    _, result = run_program(program, fuel=2_000_000)
    assert result.cycles > 0
