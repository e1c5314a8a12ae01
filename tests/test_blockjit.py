"""Blockjit <-> interpreter bit-identity, the engine's load-bearing contract.

Every test holds the *compiled image* fixed and toggles only the engine:
same return values, same outputs, same exact
virtual cycles, same path/edge profiles, same traps with the same
locations and cycle counts — across every bundled workload and under
fault injection.
"""

from __future__ import annotations

import re

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.instructions import (
    ALoad,
    BinOp,
    BinOpImm,
    Br,
    Call,
    Const,
    Emit,
    Jmp,
    NewArr,
    Ret,
)
from repro.bytecode.method import Method, Program
from repro.engine import ExperimentPool, make_sweep_cells
from repro.errors import FuelExhaustedError, GuestTrapError
from repro.harness.experiment import config_to_spec, measure_cell, pep_config
from repro.persist import payload_checksum
from repro.resilience import FaultPlan
from repro.sampling.arnold_grove import make_sampler
from repro.vm import blockjit
from repro.vm.blockjit import ensure_jit, generate_source
from repro.vm.costs import CostModel
from repro.vm.interpreter import OP_CALL, T_BR, T_JMP, lower_method
from repro.vm.runtime import VirtualMachine
from repro.workloads.generator import GeneratorSpec, random_program
from repro.workloads.suite import benchmark_suite

from tests.compile_util import compile_simple
from tests.helpers import call_program, counting_program

ALL_WORKLOADS = [w.name for w in benchmark_suite()]


def _run_engines(program: Program, mode=None, tier="opt2", sampler=None,
                 tick_interval=None, fuel=50_000_000, costs=None):
    """Run the *same* compiled image under both engines."""
    costs = costs or CostModel()
    code = compile_simple(program, mode=mode, costs=costs, tier=tier)
    results = []
    for bj in (False, True):
        vm = VirtualMachine(
            code,
            program.main,
            costs=costs,
            tick_interval=tick_interval,
            sampler=make_sampler(*sampler) if sampler else None,
            blockjit=bj,
        )
        results.append((vm, vm.run(fuel=fuel)))
    return results


def _assert_identical(interp, jit):
    vm_i, res_i = interp
    vm_j, res_j = jit
    assert res_j.return_value == res_i.return_value
    assert vm_j.output == vm_i.output
    assert res_j.cycles == res_i.cycles  # exact, not approximate
    assert res_j.ticks == res_i.ticks
    assert res_j.samples_taken == res_i.samples_taken
    assert res_j.path_count_updates == res_i.path_count_updates
    assert sorted(vm_j.path_profile.items()) == sorted(vm_i.path_profile.items())
    assert {repr(b): c for b, c in vm_j.edge_profile.items()} == {
        repr(b): c for b, c in vm_i.edge_profile.items()
    }


# -- basic program equivalence ----------------------------------------------


@pytest.mark.parametrize("mode", [None, "pep", "full-hash", "classic", "edges"])
def test_engine_equivalence_counting(mode):
    _assert_identical(*_run_engines(counting_program(30), mode=mode))


@pytest.mark.parametrize("mode", [None, "pep", "edges"])
def test_engine_equivalence_calls(mode):
    _assert_identical(*_run_engines(call_program(), mode=mode))


@pytest.mark.parametrize("tier", ["baseline", "opt0", "opt1", "opt2"])
def test_engine_equivalence_every_tier(tier):
    # The opt0/opt1 multipliers are calibrated on the 2**-12 dyadic grid
    # (4710/4096 and 4301/4096, DESIGN.md §15), so fixed-point folding
    # re-associates cost chains exactly; equality here proves both the
    # folded and the sequential shapes charge identical cycles per tier.
    _assert_identical(*_run_engines(call_program(), mode="pep", tier=tier))


@pytest.mark.parametrize("tier", ["opt0", "opt1"])
def test_engine_equivalence_dirty_tier_multiplier(tier):
    # A genuinely non-dyadic multiplier (the pre-§15 nominal 1.15/1.05)
    # makes per-op costs off-grid: lowering must reject fixed-point
    # certification and fall back to the legacy float path, whose exact
    # cycle equality proves that codegen never re-associates.
    costs = CostModel()
    costs.tier_multipliers["opt0"] = 1.15
    costs.tier_multipliers["opt1"] = 1.05
    _assert_identical(
        *_run_engines(call_program(), mode="pep", tier=tier, costs=costs)
    )


@pytest.mark.parametrize("seed", range(10))
def test_engine_equivalence_random_programs(seed):
    program = random_program(seed, GeneratorSpec(n_helpers=2, work_budget=300))
    _assert_identical(*_run_engines(program))


@pytest.mark.parametrize("seed", range(4))
def test_engine_equivalence_random_programs_sampled(seed):
    program = random_program(
        seed + 200, GeneratorSpec(n_helpers=1, work_budget=200)
    )
    _assert_identical(
        *_run_engines(
            program, mode="pep", sampler=(8, 5), tick_interval=400.0
        )
    )


# -- trap and fuel parity ----------------------------------------------------


def _trap_program(kind: str) -> Program:
    method = Method("main", num_params=0, num_regs=4)
    entry = method.new_block("entry")
    if kind == "div":
        entry.append(Const(1, 9))
        entry.append(Const(2, 0))
        entry.append(BinOp("div", 0, 1, 2))
    elif kind == "shift":
        entry.append(Const(1, 9))
        entry.append(Const(2, 99))
        entry.append(BinOp("shl", 0, 1, 2))
    elif kind == "index":
        entry.append(Const(1, 4))
        entry.append(NewArr(0, 1))
        entry.append(Const(2, 77))
        entry.append(ALoad(3, 0, 2))
    elif kind == "size":
        entry.append(Const(1, -3))
        entry.append(NewArr(0, 1))
    elif kind == "badcall":
        # "missing" exists at verification time but is dropped from the
        # VM's code dict below, so the call traps at run time.
        entry.append(Call(0, "missing", []))
        missing = Method("missing", num_params=0, num_regs=1)
        mb = missing.new_block("entry")
        mb.terminator = Ret(0)
        missing.seal()
    elif kind == "shift_imm":
        entry.append(Const(1, 9))
        entry.append(BinOpImm("shr", 0, 1, -2))
    entry.terminator = Ret(0)
    method.seal()
    program = Program("t", main="main")
    program.add(method)
    if kind == "badcall":
        program.add(missing)
    return program


@pytest.mark.parametrize(
    "kind", ["div", "shift", "index", "size", "badcall", "shift_imm"]
)
def test_trap_parity_exact(kind):
    program = _trap_program(kind)
    costs = CostModel()
    code = compile_simple(program, costs=costs)
    code.pop("missing", None)  # force the unknown-callee trap
    seen = []
    for bj in (False, True):
        vm = VirtualMachine(code, program.main, costs=costs, blockjit=bj)
        with pytest.raises(GuestTrapError) as info:
            vm.run()
        trap = info.value
        seen.append(
            (str(trap), trap.method, trap.block, trap.instruction_index,
             trap.cycles, vm.cycles)
        )
    # Full-string equality: message, method, block, index, and cycle
    # count all embedded — the engines must agree on every one.
    assert seen[0] == seen[1]


def test_stack_overflow_parity():
    pb = ProgramBuilder("rec")
    f = pb.function("main")
    f.ret(f.call("main"))
    program = pb.build()
    costs = CostModel()
    code = compile_simple(program, costs=costs)
    seen = []
    for bj in (False, True):
        vm = VirtualMachine(
            code, program.main, costs=costs, max_stack_depth=50, blockjit=bj
        )
        with pytest.raises(GuestTrapError) as info:
            vm.run()
        seen.append((str(info.value), info.value.cycles))
    assert "guest stack overflow" in seen[0][0]
    assert seen[0] == seen[1]


def _fuel_outcomes(program: Program, fuel: int):
    """The fuel error under each engine, as comparable tuples."""
    costs = CostModel()
    code = compile_simple(program, costs=costs)
    seen = []
    for bj in (False, True):
        vm = VirtualMachine(code, program.main, costs=costs, blockjit=bj)
        with pytest.raises(FuelExhaustedError) as info:
            vm.run(fuel=fuel)
        err = info.value
        seen.append(
            (str(err), err.method, err.block, err.instruction_index, err.cycles)
        )
    return seen


@pytest.mark.parametrize("fuel", [3, 57, 511, 4096])
def test_fuel_exhaustion_parity(fuel):
    seen = _fuel_outcomes(counting_program(500), fuel)
    assert seen[0] == seen[1]


def test_fuel_exhaustion_parity_on_call_resume():
    # call_program's loop body calls its helper, so some budgets run out
    # on re-entry after the return: a segment with ip > 0, whose fuel
    # exit passes that ip to the helper.
    indices = set()
    for fuel in range(1, 40):
        seen = _fuel_outcomes(call_program(), fuel)
        assert seen[0] == seen[1]
        indices.add(seen[1][3])
    assert max(indices) > 0


# -- live-only writebacks ----------------------------------------------------


def _liveness_program() -> Program:
    """One loop that exercises every liveness case of region exits.

    ``r3`` is a temporary that dies inside ``body``; ``r4`` is the call
    argument, dead once passed; ``r1`` is written before the call and
    live across its resume; ``r2`` is written after the resume and read
    only by ``left``, which the resume's region inlines on its taken
    arm; ``r0`` is incremented in ``latch`` and live around the back
    edge to ``head``.
    """
    main = Method("main", num_params=0, num_regs=8)
    entry = main.new_block("entry")
    entry.append(Const(0, 0))
    entry.append(Const(1, 0))
    entry.append(Const(6, 6))
    entry.append(Const(7, 2))
    entry.terminator = Jmp("head")
    main.new_block("head").terminator = Br("lt", 0, 6, "body", "exit")
    body = main.new_block("body")
    body.append(BinOpImm("mul", 3, 0, 3))
    body.append(BinOpImm("add", 4, 3, 1))
    body.append(BinOpImm("add", 1, 1, 10))
    body.append(Call(5, "helper", [4]))
    body.append(BinOpImm("add", 2, 5, 2))
    body.terminator = Br("lt", 5, 7, "left", "latch")
    left = main.new_block("left")
    left.append(BinOp("add", 1, 1, 2))
    left.terminator = Jmp("latch")
    latch = main.new_block("latch")
    latch.append(BinOpImm("add", 0, 0, 1))
    latch.terminator = Jmp("head")
    done = main.new_block("exit")
    done.append(Emit(1))
    done.terminator = Ret(1)
    main.seal()
    helper = Method("helper", num_params=1, num_regs=2)
    hb = helper.new_block("entry")
    hb.append(BinOpImm("mod", 1, 0, 4))
    hb.terminator = Ret(1)
    helper.seal()
    program = Program("liveness", main="main")
    program.add(main)
    program.add(helper)
    return program


def test_writebacks_only_for_live_registers():
    cm = compile_simple(_liveness_program())["main"]
    source = generate_source(cm)
    labels = list(cm.blocks)

    def region(label, ip=0):
        return blockjit._segment_text(source, f"_f{labels.index(label)}_{ip}")

    # The temporary and the spent call argument are never written back.
    assert "regs[3] =" not in source
    assert "regs[4] =" not in source
    # `body` is inlined in `head`'s region up to its call.
    assert "return _CALL" in region("head")
    call_exit = region("head").split("return _CALL")[0]
    assert "regs[1] = r1" in call_exit  # live across the resume
    taken, not_taken = region("body", 4).split("    else:\n")
    # `left` reads r2 from the local, so no exit stores r2, though both
    # exits to `latch` leave it dirty; the r1 that `left` writes is live
    # around the loop.
    assert "regs[2] =" not in source
    assert "regs[1] = r1" in taken
    assert "regs[1] =" not in not_taken  # r1 is clean on this path
    assert "regs[0] = r0" in region("latch")  # live around the back edge


@pytest.mark.parametrize("mode", [None, "pep", "edges"])
def test_live_only_writebacks_parity(mode):
    _assert_identical(*_run_engines(_liveness_program(), mode=mode))


# -- regions -----------------------------------------------------------------


def _arms_program() -> Program:
    """A loop whose second-level arm reads what its sibling arm wrote.

    ``head`` (the loop header, a root) branches on the parity of ``r0``:
    ``left`` writes ``r2``; ``right`` branches again, and ``deep``,
    inlined two branches deep, reads ``r2``.  On that path ``r2`` is
    unbound, so ``deep`` loads it from the frame, where ``left``'s exit
    on an earlier iteration stored it.
    """
    main = Method("main", num_params=0, num_regs=8)
    entry = main.new_block("entry")
    entry.append(Const(0, 0))
    entry.append(Const(4, 0))
    entry.append(Const(5, 5))
    entry.append(Const(7, 0))
    entry.terminator = Jmp("head")
    head = main.new_block("head")
    head.append(BinOpImm("and", 6, 0, 1))
    head.terminator = Br("eq", 6, 7, "left", "right")
    left = main.new_block("left")
    left.append(BinOpImm("mul", 2, 0, 7))
    left.append(BinOpImm("add", 2, 2, 1))
    left.terminator = Jmp("latch")
    main.new_block("right").terminator = Br("lt", 0, 5, "deep", "done")
    deep = main.new_block("deep")
    deep.append(BinOp("add", 4, 4, 2))
    deep.append(BinOpImm("mul", 3, 4, 3))
    deep.terminator = Jmp("latch")
    latch = main.new_block("latch")
    latch.append(BinOpImm("add", 0, 0, 1))
    latch.terminator = Jmp("head")
    done = main.new_block("done")
    done.append(Emit(4))
    done.terminator = Ret(4)
    main.seal()
    program = Program("arms", main="main")
    program.add(main)
    return program


def _ladder_source(arms: int) -> str:
    """MiniJ whose loop body is an ``arms``-arm ``if … else if …`` ladder."""
    rungs = " else ".join(
        f"if (k == {a}) {{ total = total + {a + 1}; }}" for a in range(arms)
    )
    return f"""
fn main() {{
    let total = 0;
    for i in 0 .. 400 {{
        let k = (i * 7) % {arms + 3};
        {rungs} else {{ total = total - 1; }}
    }}
    emit total;
    return total;
}}
"""


@pytest.mark.parametrize("mode", [None, "pep", "edges"])
def test_sibling_arm_write_reloads_in_nested_arm(mode):
    _assert_identical(*_run_engines(_arms_program(), mode=mode))


def test_fuel_runs_out_two_branches_deep():
    blocks = set()
    for fuel in range(1, 55):  # the run needs 55
        seen = _fuel_outcomes(_arms_program(), fuel)
        assert seen[0] == seen[1]
        blocks.add((seen[1][2], seen[1][3]))
    cm = compile_simple(_arms_program())["main"]
    source = generate_source(cm)
    # `deep` is inlined, nested under `head`'s and `right`'s arms.
    assert f"def _f{list(cm.blocks).index('deep')}_0(" not in source
    (check,) = [line for line in source.splitlines() if "'deep', 0)" in line]
    assert check.startswith(" " * 16 + "_fuel_out(")
    assert ("deep", 0) in blocks


@pytest.mark.parametrize("mode", [None, "pep"])
def test_deep_branch_ladder_parity(mode):
    # Unbounded, the ladder's regions would nest past CPython's 100
    # indentation levels and fail to compile.
    from repro.lang import compile_source

    program = compile_source(_ladder_source(150))
    _assert_identical(*_run_engines(program, mode=mode))
    cm = compile_simple(program, mode=mode)["main"]
    depth = max(
        len(line) - len(line.lstrip(" "))
        for line in generate_source(cm).splitlines()
    ) // 4
    assert blockjit.MAX_REGION_DEPTH < depth <= blockjit.MAX_REGION_DEPTH + 3


def _expected_roots(cm) -> list:
    """Root names from the CFG: entry, blocks with other than one
    predecessor, call resumes (no program here nests past the bound)."""
    preds = dict.fromkeys(cm.blocks, 0)
    for block in cm.blocks.values():
        term = block.term
        succs = {T_JMP: term[2:3], T_BR: term[5:7]}.get(term[0], ())
        for succ in succs:
            preds[succ.label] += 1
    names = []
    for bi, block in enumerate(cm.blocks.values()):
        if block is cm.entry or preds[block.label] != 1:
            names.append(f"_f{bi}_0")
        for j, op in enumerate(block.ops):
            if op[0] == OP_CALL:
                names.append(f"_f{bi}_{j + 1}")
    return names


@pytest.mark.parametrize(
    "build, mode",
    [
        (_arms_program, None),
        (_liveness_program, "pep"),
        (call_program, "edges"),
        (lambda: counting_program(30), "pep"),
        (lambda: random_program(3, GeneratorSpec(n_helpers=2)), "pep"),
    ],
    ids=["arms", "liveness-pep", "calls-edges", "counting-pep", "random-pep"],
)
def test_region_shape(build, mode):
    code = compile_simple(build(), mode=mode)
    inlined = 0
    for cm in code.values():
        source = generate_source(cm)
        roots = _expected_roots(cm)
        assert re.findall(r"^def (\w+)\(", source, re.M) == roots
        # Each entry's fuel check appears exactly once: every block's
        # code appears once in the method source.
        for block in cm.blocks.values():
            ips = [0] + [
                j + 1 for j, op in enumerate(block.ops) if op[0] == OP_CALL
            ]
            for ip in ips:
                assert source.count(f"_pk, {block.label!r}, {ip})") == 1
        inlined += len(cm.blocks) - sum(name.endswith("_0") for name in roots)
    assert inlined > 0


# -- cross-workload digest equivalence (all bundled SPECjvm/DaCapo) ---------


def _cell_digest(workload: str, monkeypatch, enabled: bool, scale: float = 0.5):
    monkeypatch.setenv(blockjit.ENV_DISABLE, "1" if enabled else "0")
    spec = config_to_spec(pep_config(16, 3))
    metrics = measure_cell(workload, scale, spec, seed=7)
    return metrics["digest"], metrics["cycles"], metrics["ticks"]


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_digest_equivalence(workload, monkeypatch):
    off = _cell_digest(workload, monkeypatch, enabled=False)
    on = _cell_digest(workload, monkeypatch, enabled=True)
    assert on == off


# -- adaptive system and fault injection ------------------------------------


def _adaptive_report(program: Program, monkeypatch, enabled: bool, plan=None):
    from repro.api import profile_adaptive

    monkeypatch.setenv(blockjit.ENV_DISABLE, "1" if enabled else "0")
    report = profile_adaptive(
        program, samples=16, stride=3, ticks=120, fault_plan=plan
    )
    return payload_checksum(
        {
            "paths": sorted(report.paths.items()),
            "edges": sorted(
                (repr(b), c) for b, c in report.edges.items()
            ),
            "output": list(report.result.output),
            "return_value": report.result.return_value,
            "cycles": report.result.cycles,
            "recompilations": report.result.recompilations,
            "compile_cycles": report.result.compile_cycles,
            "health": report.health.to_dict(),
        }
    )


def test_adaptive_recompilation_parity(monkeypatch):
    # The adaptive system swaps recompiled methods into vm.code mid-run;
    # blockjit must jit them lazily at first entry and keep old frames
    # running old code, exactly like the interpreter.
    program = benchmark_suite()[0].build(0.5)  # compress
    off = _adaptive_report(program, monkeypatch, enabled=False)
    on = _adaptive_report(program, monkeypatch, enabled=True)
    assert on == off


@pytest.mark.parametrize(
    "plan_spec",
    [
        {"sample": 0.4},
        {"opt-compile": 0.6},
        {"path-reconstruct": 0.5, "path-table": 0.3},
        {"sample": 0.3, "opt-compile": 0.3, "advice-load": 0.5},
    ],
)
def test_fault_injection_parity(plan_spec, monkeypatch):
    # Every resilience site fires outside the per-op hot loop (samplers,
    # compilers, resolvers), so an identical fault sequence — and the
    # identical degraded behavior — must emerge under both engines.
    program = call_program()
    off = _adaptive_report(
        program, monkeypatch, enabled=False, plan=FaultPlan(plan_spec, seed=11)
    )
    on = _adaptive_report(
        program, monkeypatch, enabled=True, plan=FaultPlan(plan_spec, seed=11)
    )
    assert on == off


# -- the process-wide code memo ---------------------------------------------


def test_generated_source_is_content_addressed():
    # Two identical lowered bodies produce byte-identical source (names
    # and labels are positional/injected), so the process-wide code
    # object memo actually hits.
    costs = CostModel()
    code = compile_simple(counting_program(30), costs=costs)
    a = code["main"]
    b = compile_simple(counting_program(30), costs=costs)["main"]
    assert generate_source(a) == generate_source(b)
    # Segments compile at their first call: run ``a`` to fill the memo.
    VirtualMachine(code, "main", costs=costs, blockjit=True).run()
    before = len(blockjit._SEGMENT_CODE)
    entries = ensure_jit(b)
    assert len(blockjit._SEGMENT_CODE) == before  # memo hit, no recompile
    for key, fn in entries.items():
        assert fn.__code__ is a.jit_entries[key].__code__


# -- engine pool: parallel sweeps under blockjit ----------------------------


def test_pool_sweep_digests_blockjit_on_off(monkeypatch):
    specs = [config_to_spec(pep_config(16, 3))]
    cells = make_sweep_cells(["compress", "db"], specs, scale=0.5)
    digests = {}
    for enabled in (False, True):
        monkeypatch.setenv(blockjit.ENV_DISABLE, "1" if enabled else "0")
        pool = ExperimentPool(jobs=2, strict=True)
        results = pool.run(cells)
        digests[enabled] = [r.metrics["digest"] for r in results]
    assert digests[True] == digests[False]


# -- kill switch -------------------------------------------------------------


def test_kill_switch_and_override(monkeypatch):
    code = compile_simple(counting_program(5))
    monkeypatch.setenv(blockjit.ENV_DISABLE, "0")
    assert not blockjit.blockjit_enabled()
    assert not VirtualMachine(code, "main").use_blockjit
    assert VirtualMachine(code, "main", blockjit=True).use_blockjit
    monkeypatch.setenv(blockjit.ENV_DISABLE, "1")
    assert blockjit.blockjit_enabled()
    assert VirtualMachine(code, "main").use_blockjit
    assert not VirtualMachine(code, "main", blockjit=False).use_blockjit


def test_blockjit_actually_engaged():
    # Guard against the equivalence suite silently comparing the
    # interpreter with itself: the block engine must leave its artefacts.
    program = counting_program(10)
    code = compile_simple(program)
    vm = VirtualMachine(code, program.main, blockjit=True)
    vm.run()
    cm = code["main"]
    assert cm.jit_source is not None
    assert cm.jit_entries
    assert all(callable(fn) for fn in cm.jit_entries.values())
    vm2_code = compile_simple(program)
    vm2 = VirtualMachine(vm2_code, program.main, blockjit=False)
    vm2.run()
    assert vm2_code["main"].jit_entries is None  # interpreter never jits
