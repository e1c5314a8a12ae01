"""Tests for profile/advice serialization and the CLI."""

import json

import pytest

from repro.adaptive.replay import record_advice, replay_compile, run_iteration
from repro.bytecode.method import BranchRef
from repro.errors import AdviceError
from repro.persist import (
    advice_from_dict,
    advice_to_dict,
    edge_profile_from_dict,
    edge_profile_to_dict,
    load_advice,
    path_profile_from_dict,
    path_profile_to_dict,
    save_advice,
)
from repro.profiling.edges import EdgeProfile
from repro.profiling.paths import PathProfile
from repro.__main__ import main

from tests.test_adaptive_system import hot_loop_program


def test_edge_profile_roundtrip():
    profile = EdgeProfile()
    profile.record(BranchRef("m", 0), True, 10)
    profile.record(BranchRef("m", 0), False, 3)
    profile.record(BranchRef("n", 5), False, 7)
    data = edge_profile_to_dict(profile)
    # Must be JSON-clean.
    restored = edge_profile_from_dict(json.loads(json.dumps(data)))
    assert restored.arm_count(BranchRef("m", 0), True) == 10
    assert restored.arm_count(BranchRef("m", 0), False) == 3
    assert restored.arm_count(BranchRef("n", 5), False) == 7
    assert len(restored) == 2


def test_path_profile_roundtrip():
    profile = PathProfile()
    profile.record("main#v0", 3, 5)
    profile.record("main#v0", 9)
    profile.record("other#v1", 0, 2.5)
    restored = path_profile_from_dict(
        json.loads(json.dumps(path_profile_to_dict(profile)))
    )
    assert restored.frequency("main#v0", 3) == 5
    assert restored.frequency("main#v0", 9) == 1
    assert restored.frequency("other#v1", 0) == 2.5


def test_wrong_kind_rejected():
    profile = EdgeProfile()
    data = edge_profile_to_dict(profile)
    with pytest.raises(AdviceError):
        path_profile_from_dict(data)
    with pytest.raises(AdviceError):
        edge_profile_from_dict({"format": "nope"})


def test_advice_roundtrip_replays_identically(tmp_path):
    program = hot_loop_program(1500)
    advice = record_advice(program, tick_interval=2000.0)

    path = tmp_path / "advice.json"
    save_advice(advice, str(path))
    restored = load_advice(str(path))

    assert restored.levels == advice.levels
    assert restored.samples == advice.samples

    original = run_iteration(replay_compile(program, advice))
    replayed = run_iteration(replay_compile(program, restored))
    assert original.cycles == replayed.cycles
    assert original.output == replayed.output


def test_advice_dict_none_levels_preserved():
    program = hot_loop_program(50)
    advice = record_advice(program, tick_interval=5000.0)
    # Tiny run: some methods stay baseline (level None).
    data = advice_to_dict(advice)
    restored = advice_from_dict(json.loads(json.dumps(data)))
    assert restored.levels == advice.levels


# -- CLI -----------------------------------------------------------------------


SOURCE = """
fn helper(n) {
    if (n % 2 == 0) { return n / 2; }
    return 3 * n + 1;
}
fn main() {
    let steps = 0;
    let n = 27;
    while (n != 1) {
        n = helper(n);
        steps = steps + 1;
    }
    emit steps;
    return steps;
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "collatz.mj"
    path.write_text(SOURCE)
    return str(path)


def test_cli_run(source_file, capsys):
    assert main(["run", source_file]) == 0
    out = capsys.readouterr().out
    assert "111" in out  # collatz steps for 27


def test_cli_profile(source_file, capsys):
    assert main(["profile", source_file, "--ticks", "50"]) == 0
    out = capsys.readouterr().out
    assert "hot paths" in out
    assert "branch biases" in out
    assert "helper#b0" in out


@pytest.mark.parametrize("mode", [[], ["--adaptive"]])
def test_cli_profile_rejects_zero_ticks(source_file, capsys, mode):
    with pytest.raises(SystemExit) as exc:
        main(["profile", source_file, "--ticks", "0", *mode])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--ticks: must be >= 1" in err


_SWEEP_RULES = {
    "--trials": "must be >= 1",
    "--jobs": "must be >= 1",
    "--max-worker-restarts": "must be >= 0",
}


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--trials", "0"),
        ("--timeout", "nan"),
        ("--timeout", "inf"),
        ("--timeout", "0"),
        ("--timeout", "-1"),
        ("--scale", "nan"),
        ("--scale", "-1"),
        ("--scale", "0"),
        ("--jobs", "0"),
        ("--jobs", "-3"),
        ("--max-worker-restarts", "-1"),
    ],
)
def test_cli_sweep_rejects_unusable_arguments(capsys, flag, value):
    # A usage error (exit 2) before any cell runs, like --ticks 0 above.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--jobs", "1", "--workloads", "compress", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    rule = _SWEEP_RULES.get(flag, "must be positive and finite")
    assert "usage:" in err and f"{flag}: {rule}" in err


def test_cli_sweep_rejects_a_hang_it_cannot_detect(capsys):
    # Without --timeout nothing detects a hung worker: a usage error
    # (exit 2) before any cell runs.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--jobs", "1", "--workloads", "compress",
              "--configs", "base", "--inject", "worker-hang=1.0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "worker-hang fault needs a per-cell timeout" in err


_MALFORMED_INJECTS = [
    ("worker-hang", "expected site=prob[:max]"),
    ("worker-hung=1.0", "unknown fault site 'worker-hung'"),
    ("opt-compile=1.5", "must be in [0, 1], got 1.5"),
    ("sample=-0.1", "must be in [0, 1], got -0.1"),
    ("sample=nan", "must be in [0, 1], got nan"),
    ("sample=0.5:x", "expected site=prob[:max]"),
]


def _cli_usage_error(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    return err


@pytest.mark.parametrize("value, message", _MALFORMED_INJECTS)
def test_cli_rejects_a_malformed_inject(source_file, capsys, value, message):
    # A usage error (exit 2) before any work, on both commands.
    for argv in (
        ["profile", "--adaptive", source_file, "--inject", value],
        ["sweep", "--jobs", "1", "--workloads", "compress", "--configs",
         "base", "--timeout", "5", "--inject", value],
    ):
        err = _cli_usage_error(capsys, argv)
        assert "argument --inject:" in err and message in err


@pytest.mark.parametrize(
    "command, site",
    [
        ("profile", "worker-crash=1.0"),
        ("profile", "worker-hang=1.0"),
        ("profile", "receipt-write=1.0"),
        ("profile", "advice-load=1.0"),
        ("sweep", "opt-compile=1.0"),
        ("sweep", "sample=0.3"),
        ("sweep", "path-table=0.3"),
    ],
)
def test_cli_rejects_a_site_the_command_cannot_inject(
    source_file, capsys, command, site
):
    # Profile runs check the compile and sampler sites, and a sweep's
    # cells get no plan: a fault at another site would never fire.
    argv = (
        ["profile", source_file] if command == "profile"
        else ["sweep", "--jobs", "1", "--workloads", "compress", "--configs",
              "base", "--timeout", "5"]
    )
    err = _cli_usage_error(capsys, [*argv, "--inject", site])
    name = site.partition("=")[0]
    assert f"argument --inject: {name!r} is not a site this command" in err


@pytest.mark.parametrize("command", ["profile", "sweep"])
def test_cli_rejects_the_same_site_twice(source_file, capsys, command):
    argv = (
        ["profile", source_file, "--inject", "sample=0.2", "--inject",
         "sample=0.3"] if command == "profile"
        else ["sweep", "--jobs", "1", "--workloads", "compress", "--inject",
              "worker-crash=0.5", "--inject", "worker-crash=0.2"]
    )
    assert "duplicate fault site" in _cli_usage_error(capsys, argv)


def test_cli_sweep_has_no_retries_flag(capsys):
    # A cell that raises is final, so there is nothing to retry.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--jobs", "1", "--workloads", "compress", "--retries", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --retries" in capsys.readouterr().err


def test_cli_profile_perfect(source_file, capsys):
    assert main(["profile", source_file, "--perfect"]) == 0
    out = capsys.readouterr().out
    assert "perfect profile" in out


def test_cli_disasm(source_file, capsys):
    assert main(["disasm", source_file]) == 0
    out = capsys.readouterr().out
    assert "method main" in out
    assert "method helper" in out


def test_cli_bench_list(capsys):
    assert main(["bench-list"]) == 0
    out = capsys.readouterr().out
    assert "compress" in out and "xalan" in out


def test_cli_has_no_bench_command(capsys):
    # The benchmark lives in perfbench/; `bench` is an unknown choice,
    # not a prefix of `bench-list`.
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])
