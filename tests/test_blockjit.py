"""Blockjit <-> interpreter bit-identity, the engine's load-bearing contract.

Every test holds the *compiled image* fixed and toggles only the engine:
same return values, same outputs, same exact
virtual cycles, same path/edge profiles, same traps with the same
locations and cycle counts — across every bundled workload and under
fault injection.

Every test here compiles each region at its first entry
(``compile_at_first_entry``), so short programs run generated code.
The ``_tiered`` twins and the cold-region tests run at the shipped
threshold, where regions start on the tuple interpreter's block loop
and compile later.
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
from repro.cfg import CFG, compute_dominators
from repro.engine import ExperimentPool, make_sweep_cells
from repro.errors import FuelExhaustedError, GuestTrapError
from repro.harness.experiment import config_to_spec, measure_cell, pep_config
from repro.persist import payload_checksum
from repro.resilience import FaultPlan
from repro.sampling.arnold_grove import make_sampler
from repro.vm import blockjit
from repro.vm.blockjit import ensure_jit, generate_source
from repro.vm.costs import CostModel
from repro.vm.interpreter import OP_CALL, OP_CONST, T_BR, T_JMP, lower_method
from repro.vm.runtime import VirtualMachine
from repro.workloads.generator import GeneratorSpec, random_program
from repro.workloads.suite import benchmark_suite

from tests.compile_util import compile_simple
from tests.helpers import (
    COLD_ENTRIES,
    call_program,
    counting_program,
    is_placeholder,
    region_texts,
    vm_digest,
)

pytestmark = pytest.mark.usefixtures("compile_at_first_entry")

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
    # certification, so no method is ever compiled and every region
    # runs on the block loop, whose exact cycle equality proves that
    # nothing re-associates.
    costs = CostModel()
    costs.tier_multipliers["opt0"] = 1.15
    costs.tier_multipliers["opt1"] = 1.05
    runs = _run_engines(call_program(), mode="pep", tier=tier, costs=costs)
    _assert_identical(*runs)
    assert all(
        is_placeholder(fn)
        for cm in runs[1][0].code.values()
        for fn in (cm.jit_entries or {}).values()
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


@pytest.mark.parametrize("kind", ["div", "index", "badcall"])
def test_trap_parity_in_cold_region(kind, tiered):
    test_trap_parity_exact(kind)
    # The trap ran on the block loop: main's only region never compiled.
    code = compile_simple(_trap_program(kind))
    code.pop("missing", None)
    with pytest.raises(GuestTrapError):
        VirtualMachine(code, "main", blockjit=True).run()
    assert all(is_placeholder(fn) for fn in code["main"].jit_entries.values())


def test_stack_overflow_parity_in_cold_region(tiered):
    # main recurses into itself; at a depth below the threshold the
    # overflow traps before main's entry region is ever compiled.
    depth = blockjit.COLD_ENTRIES - 4
    pb = ProgramBuilder("rec")
    f = pb.function("main")
    f.ret(f.call("main"))
    program = pb.build()
    costs = CostModel()
    seen = []
    for bj in (False, True):
        code = compile_simple(program, costs=costs)
        vm = VirtualMachine(
            code, program.main, costs=costs, max_stack_depth=depth, blockjit=bj
        )
        with pytest.raises(GuestTrapError) as info:
            vm.run()
        trap = info.value
        seen.append((str(trap), trap.block, trap.instruction_index, trap.cycles))
    assert "guest stack overflow" in seen[0][0]
    assert seen[0] == seen[1]
    assert all(is_placeholder(fn) for fn in code["main"].jit_entries.values())


def test_fuel_exhaustion_parity_across_promotion(tiered):
    # Every budget up to the one that completes counting_program's loop:
    # fuel runs out on the block loop, at the entry that compiles the
    # loop region, and in the compiled region after it.
    program = counting_program(2 * blockjit.COLD_ENTRIES)
    costs = CostModel()
    fuel = 0
    while True:
        fuel += 1
        code = compile_simple(program, costs=costs)
        seen = []
        for bj in (False, True):
            vm = VirtualMachine(code, program.main, costs=costs, blockjit=bj)
            try:
                res = vm.run(fuel=fuel)
            except FuelExhaustedError as err:
                seen.append(
                    (str(err), err.block, err.instruction_index, err.cycles)
                )
            else:
                seen.append((res.return_value, vm.output, res.cycles))
        assert seen[0] == seen[1], fuel
        if len(seen[1]) == 3:  # the run completed
            break
    entries = code["main"].jit_entries.values()
    assert any(is_placeholder(fn) for fn in entries)
    assert not all(is_placeholder(fn) for fn in entries)


#: Generated programs small enough to run at every fuel budget (a few
#: hundred each).  They loop, call and join, and seed 6 compiles a
#: region past the shipped threshold.
FUEL_SWEEP_SPEC = GeneratorSpec(
    n_helpers=2, max_depth=3, max_stmts=4, max_trip=8, work_budget=150
)


@pytest.mark.parametrize("cold_entries", [0, COLD_ENTRIES])
@pytest.mark.parametrize("seed", [1, 6, 7, 12, 14, 15])
def test_fuel_parity_on_generated_programs(seed, cold_entries, monkeypatch):
    # Every budget up to the run's full need gives the interpreter's
    # error: a headroom too small would let a compiled region run out
    # at the wrong block, or not at all.
    monkeypatch.setattr(blockjit, "COLD_ENTRIES", cold_entries)
    memo: dict = {}
    monkeypatch.setattr(blockjit, "_SEGMENT_CODE", memo)
    program = random_program(seed, FUEL_SWEEP_SPEC)
    costs = CostModel()
    oracle = compile_simple(program, mode="edges", costs=costs)
    jit = compile_simple(program, mode="edges", costs=costs)
    fuel = 0
    while True:
        fuel += 1
        if cold_entries:
            # Fresh placeholders and an empty memo: the run starts cold.
            for cm in jit.values():
                cm.jit_entries = None
            memo.clear()
        seen = []
        for code, on in ((oracle, False), (jit, True)):
            vm = VirtualMachine(code, program.main, costs=costs, blockjit=on)
            try:
                result = vm.run(fuel=fuel)
            except FuelExhaustedError as err:
                seen.append((
                    str(err), err.method, err.block, err.instruction_index,
                    err.cycles, list(vm.output),
                    sorted((repr(b), c) for b, c in vm.edge_profile.items()),
                ))
            else:
                seen.append(vm_digest(vm, result))
        assert seen[0] == seen[1], fuel
        if isinstance(seen[1], str):  # the run completed
            break
    assert fuel > 100
    compiled = [
        fn for cm in jit.values() for fn in (cm.jit_entries or {}).values()
        if not is_placeholder(fn)
    ]
    assert bool(compiled) == (cold_entries == 0 or seed == 6)


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
    texts = region_texts(cm)
    labels = list(cm.blocks)

    def region(label, ip=0):
        return texts[f"_f{labels.index(label)}_{ip}"]

    # The temporary and the spent call argument are never written back.
    assert "regs[3] =" not in source
    assert "regs[4] =" not in source
    # `body` is inlined in `head`'s region up to its call.
    assert "return _CALL" in region("head")
    call_exit = region("head").split("return _CALL")[0]
    assert "regs[1] = r1" in call_exit  # live across the resume
    # `latch` is `body`'s join: the resume region emits it after the
    # `if`, so neither arm exits and `latch` has no function of its own.
    # The region opens with its fuel check, whose cold run returns.
    guard, resume = region("body", 4).split(
        f"return _cold(vm, frame, st, _blk{labels.index('body')}, 4)\n"
    )
    assert re.search(r"\n    if _fuel < \d+:\n        $", guard)
    assert f"def _f{labels.index('latch')}_0(" not in source
    arms, joined = resume.split("    else:\n")
    assert "return" not in arms and joined.count("return") == 1
    # `left` reads r2 from the local, so no exit stores r2, though it is
    # dirty past the join.  The one exit, after the join, stores the r1
    # that `left` writes (live around the loop) and the r0 that `latch`
    # increments (live around the back edge).
    assert "regs[2] =" not in source
    assert "regs[1] = r1" in joined and "regs[0] = r0" in joined
    # r1 is clean on the not-taken arm, so it is loaded before the `if`
    # for that exit to store, and `left` reads that load.
    assert resume.index("r1 = regs[1]") < resume.index("    if r5 < r7:")
    assert resume.count("r1 = regs[1]") == 1


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
    # `deep` is inlined, nested under `head`'s and `right`'s arms inside
    # the loop region's `while`, and has no fuel check of its own: its
    # region's one check is the loop's, at the top of each iteration.
    assert f"def _f{list(cm.blocks).index('deep')}_0(" not in source
    (text,) = [t for t in region_texts(cm).values() if "# 'deep' from 0" in t]
    (check,) = [line for line in text.splitlines() if "_fuel <" in line]
    assert check.startswith(" " * 8 + "if _fuel < ")
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


@pytest.mark.parametrize("mode", [None, "pep"])
def test_deep_branch_ladder_parity_tiered(mode, tiered):
    test_deep_branch_ladder_parity(mode)


def _expected_roots(cm) -> list:
    """Root names from the CFG, by the dominator form of the join rule.

    A join (two or more predecessors) is emitted after its immediate
    dominator's `if` when that dominator is a branch, no predecessor is
    dominated by the join (it heads no loop), and no block on the
    dominator chain from a predecessor up to the branch makes a call or
    is a root.  Every other block with other than one predecessor is a
    root, as are the entry and the call resumes.  No program here nests
    past the depth bound or leaves an arm past a nested join.
    """
    succs = {
        label: tuple(
            succ.label
            for succ in {T_JMP: b.term[2:3], T_BR: b.term[5:7]}.get(b.term[0], ())
        )
        for label, b in cm.blocks.items()
    }
    cfg = CFG(cm.entry.label, list(cm.blocks), succs)
    dom = compute_dominators(cfg)
    calls = {
        label
        for label, b in cm.blocks.items()
        if any(op[0] == OP_CALL for op in b.ops)
    }
    joins = {
        label
        for label, preds in cfg.preds.items()
        if len(preds) > 1
        and label != cfg.entry
        and cm.blocks[dom.idom[label]].term[0] == T_BR
        and not any(dom.dominates(label, pred) for pred in preds)
    }

    def is_root(label):
        return label == cfg.entry or (
            len(cfg.preds[label]) != 1 and label not in joins
        )

    def in_region(pred, owner):
        while pred != owner:
            if pred in calls or is_root(pred):
                return False
            pred = dom.idom[pred]
        return True

    changed = True
    while changed:
        changed = False
        for label in sorted(joins):
            owner = dom.idom[label]
            if not all(in_region(pred, owner) for pred in cfg.preds[label]):
                joins.discard(label)
                changed = True
    names = []
    for bi, (label, block) in enumerate(cm.blocks.items()):
        if is_root(label):
            names.append(f"_f{bi}_0")
        for j, op in enumerate(block.ops):
            if op[0] == OP_CALL:
                names.append(f"_f{bi}_{j + 1}")
    return names


#: Programs whose regions the shape and headroom tests check.
SHAPE_PROGRAMS = pytest.mark.parametrize(
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


@SHAPE_PROGRAMS
def test_region_shape(build, mode):
    code = compile_simple(build(), mode=mode)
    inlined = 0
    for cm in code.values():
        source = generate_source(cm)
        roots = _expected_roots(cm)
        assert re.findall(r"^def (\w+)\(", source, re.M) == roots
        # Each entry's marker comment appears exactly once: every
        # block's code appears once in the method source.
        for block in cm.blocks.values():
            ips = [0] + [
                j + 1 for j, op in enumerate(block.ops) if op[0] == OP_CALL
            ]
            for ip in ips:
                assert source.count(f"# {block.label!r} from {ip}\n") == 1
        inlined += len(cm.blocks) - sum(name.endswith("_0") for name in roots)
    assert inlined > 0


def _longest_charges(cm) -> dict:
    """Each region's headroom from the CFG, by root name: the most fuel
    a path from the root charges before it reaches a root (a back edge
    among them), a call or a return, at ``n - ip + 1`` for the root and
    ``n + 1`` for each block after it."""
    plan = blockjit.region_plan(cm)
    stops = {block.label for _, block, ip in plan.roots if not ip}
    after: dict = {}  # label -> the most charged from entering it

    def charge(block, ip):
        total = len(block.ops) - ip + 1
        if any(op[0] == OP_CALL for op in block.ops[ip:]):
            return total
        term = block.term
        succs = {T_JMP: term[2:3], T_BR: term[5:7]}.get(term[0], ())
        for succ in succs:
            if succ.label not in stops and succ.label not in after:
                after[succ.label] = charge(succ, 0)
        return total + max(
            (after[s.label] for s in succs if s.label not in stops), default=0
        )

    return {f"_f{bi}_{ip}": charge(block, ip) for bi, block, ip in plan.roots}


@SHAPE_PROGRAMS
def test_headroom_is_the_longest_path_charge(build, mode):
    # Each region checks its fuel once, at its entry or at the top of
    # its loop, against the most any path can charge before it leaves.
    code = compile_simple(build(), mode=mode)
    for cm in code.values():
        checks = {
            name: re.findall(r"^ +if _fuel < (\d+):$", text, re.M)
            for name, text in region_texts(cm).items()
        }
        assert all(len(found) == 1 for found in checks.values())
        headrooms = {name: int(found[0]) for name, found in checks.items()}
        assert headrooms == _longest_charges(cm)
        source = generate_source(cm)
        assert "_fuel_out" not in source and "if _fuel < 0" not in source


def _call_arm_program() -> Program:
    """A loop whose if/else has one arm that makes a guest call.

    ``join`` follows ``body``'s if/else, but the call arm reaches it from
    the call's resume root, so ``join`` stays a root.  ``plain`` writes
    ``r2``, which ``join`` reads: on a call-arm iteration it comes from
    the frame, where ``plain``'s exit on an earlier iteration stored it.
    """
    main = Method("main", num_params=0, num_regs=8)
    entry = main.new_block("entry")
    entry.append(Const(0, 0))
    entry.append(Const(1, 0))
    entry.append(Const(2, 0))
    entry.append(Const(6, 9))
    entry.append(Const(7, 0))
    entry.terminator = Jmp("head")
    main.new_block("head").terminator = Br("lt", 0, 6, "body", "done")
    body = main.new_block("body")
    body.append(BinOpImm("mod", 3, 0, 3))
    body.terminator = Br("eq", 3, 7, "callarm", "plain")
    callarm = main.new_block("callarm")
    callarm.append(Call(4, "helper", [0]))
    callarm.terminator = Jmp("join")
    plain = main.new_block("plain")
    plain.append(BinOpImm("mul", 4, 0, 5))
    plain.append(BinOpImm("add", 2, 0, 7))
    plain.terminator = Jmp("join")
    join = main.new_block("join")
    join.append(BinOp("add", 1, 1, 2))
    join.append(BinOp("add", 1, 1, 4))
    join.append(BinOpImm("add", 0, 0, 1))
    join.terminator = Jmp("head")
    done = main.new_block("done")
    done.append(Emit(1))
    done.terminator = Ret(1)
    main.seal()
    helper = Method("helper", num_params=1, num_regs=2)
    hb = helper.new_block("entry")
    hb.append(BinOpImm("mul", 1, 0, 3))
    hb.append(BinOpImm("add", 1, 1, 1))
    hb.terminator = Ret(1)
    helper.seal()
    program = Program("callarm", main="main")
    program.add(main)
    program.add(helper)
    return program


@pytest.mark.parametrize("mode", [None, "pep", "edges"])
def test_join_after_call_arm_stays_root_parity(mode):
    program = _call_arm_program()
    _assert_identical(*_run_engines(program, mode=mode))
    cm = compile_simple(program, mode=mode)["main"]
    labels = list(cm.blocks)
    assert f"def _f{labels.index('join')}_0(" in generate_source(cm)


def test_fuel_sweep_over_call_arm_loop():
    program = _call_arm_program()
    costs = CostModel()
    code = compile_simple(program, costs=costs)
    fuel = 0
    while True:
        fuel += 1
        seen = []
        for bj in (False, True):
            vm = VirtualMachine(code, program.main, costs=costs, blockjit=bj)
            try:
                res = vm.run(fuel=fuel)
            except FuelExhaustedError as err:
                seen.append(
                    (err.method, err.block, err.instruction_index, err.cycles)
                )
            else:
                seen.append((res.return_value, vm.output, res.cycles))
        assert seen[0] == seen[1], fuel
        if len(seen[1]) == 3:  # the run completed
            break
    assert fuel > 50


def _loop_trap_program() -> Program:
    """A loop that reads a five-element array until it runs off the end."""
    main = Method("main", num_params=0, num_regs=6)
    entry = main.new_block("entry")
    entry.append(Const(0, 0))
    entry.append(Const(1, 5))
    entry.append(NewArr(2, 1))
    entry.append(Const(3, 0))
    entry.append(Const(5, 9))
    entry.terminator = Jmp("head")
    main.new_block("head").terminator = Br("lt", 0, 5, "body", "done")
    body = main.new_block("body")
    body.append(ALoad(4, 2, 0))
    body.append(BinOp("add", 3, 3, 4))
    body.append(BinOpImm("add", 0, 0, 1))
    body.terminator = Jmp("head")
    main.new_block("done").terminator = Ret(3)
    main.seal()
    program = Program("looptrap", main="main")
    program.add(main)
    return program


@pytest.mark.parametrize("mode", [None, "pep"])
def test_trap_inside_loop_region_parity(mode):
    program = _loop_trap_program()
    costs = CostModel()
    code = compile_simple(program, mode=mode, costs=costs)
    assert "while True:" in generate_source(code["main"])
    seen = []
    for bj in (False, True):
        vm = VirtualMachine(code, program.main, costs=costs, blockjit=bj)
        with pytest.raises(GuestTrapError) as info:
            vm.run()
        trap = info.value
        seen.append(
            (str(trap), trap.block, trap.instruction_index, trap.cycles, vm.cycles)
        )
    assert "array index 5 out of range" in seen[0][0]
    assert seen[0] == seen[1]


@pytest.mark.parametrize("seed", range(500, 540))
def test_engine_equivalence_deep_random_programs_sampled(seed):
    spec = GeneratorSpec(n_helpers=3, max_depth=5, max_stmts=6, work_budget=400)
    _assert_identical(
        *_run_engines(
            random_program(seed, spec),
            mode="pep",
            sampler=(8, 5),
            tick_interval=400.0,
        )
    )


def _uninterruptible_program(shape: str) -> Program:
    """``main`` calls an uninterruptible ``work(n)`` twelve times.

    ``two-entry``: ``work``'s loop between ``a`` and ``b`` is entered at
    either block, by the parity of ``n`` (an irreducible loop).
    ``shared``: ``work``'s loop body ends in a branch whose two arms
    both go to ``latch``.
    """
    work = Method("work", num_params=1, num_regs=6, uninterruptible=True)
    entry = work.new_block("entry")
    entry.append(Const(1, 0))
    entry.append(Const(2, 0))
    entry.append(Const(4, 0))
    if shape == "two-entry":
        entry.append(BinOpImm("and", 3, 0, 1))
        entry.terminator = Br("eq", 3, 4, "a", "b")
        a = work.new_block("a")
        a.append(BinOp("add", 1, 1, 2))
        a.append(BinOpImm("add", 2, 2, 1))
        a.terminator = Br("lt", 2, 0, "b", "exit")
        b = work.new_block("b")
        b.append(BinOp("xor", 1, 1, 2))
        b.append(BinOpImm("add", 2, 2, 2))
        b.terminator = Br("lt", 2, 0, "a", "exit")
    else:
        entry.terminator = Jmp("head")
        work.new_block("head").terminator = Br("lt", 2, 0, "body", "exit")
        body = work.new_block("body")
        body.append(BinOpImm("and", 3, 2, 1))
        body.terminator = Br("eq", 3, 4, "latch", "latch")
        latch = work.new_block("latch")
        latch.append(BinOp("add", 1, 1, 2))
        latch.append(BinOpImm("add", 2, 2, 1))
        latch.terminator = Jmp("head")
    work.new_block("exit").terminator = Ret(1)
    work.seal()
    main = Method("main", num_params=0, num_regs=4)
    mentry = main.new_block("entry")
    mentry.append(Const(0, 0))
    mentry.append(Const(1, 0))
    mentry.append(Const(2, 12))
    mentry.terminator = Jmp("head")
    main.new_block("head").terminator = Br("lt", 0, 2, "body", "done")
    body = main.new_block("body")
    body.append(Call(3, "work", [0]))
    body.append(BinOp("add", 1, 1, 3))
    body.append(BinOpImm("add", 0, 0, 1))
    body.terminator = Jmp("head")
    done = main.new_block("done")
    done.append(Emit(1))
    done.terminator = Ret(1)
    main.seal()
    program = Program(shape, main="main")
    program.add(main)
    program.add(work)
    return program


def _uninterruptible_parity(shape: str, level: int) -> dict:
    """Compile the program at ``level``; both engines must agree."""
    from repro.adaptive.optimizing import optimize_method

    program = _uninterruptible_program(shape)
    costs = CostModel()
    code = {
        method.name: optimize_method(method, program, level, None, costs)[0]
        for method in program.iter_methods()
    }
    results = []
    for bj in (False, True):
        vm = VirtualMachine(code, program.main, costs=costs, blockjit=bj)
        results.append((vm, vm.run()))
    _assert_identical(*results)
    return code


@pytest.mark.parametrize("shape", ["two-entry", "shared"])
def test_uninterruptible_unstructured_cfg_parity(shape):
    # Neither CFG passes verification or loop analysis, and neither has
    # to: the yieldpoint pass skips uninterruptible methods, so
    # optimize_method lowers them as they are (at level 0, which inlines
    # nothing into the interruptible caller).
    code = _uninterruptible_parity(shape, 0)
    assert code["work"].jit_entries is not None


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("shape", ["two-entry", "shared"])
def test_inliner_skips_irreducible_uninterruptible_callees(shape, level):
    # A copy of work's two-entry loop would make main's yieldpoint pass
    # reject main, so the inliner leaves that call in place; work's
    # reducible loop is still inlined.
    code = _uninterruptible_parity(shape, level)
    inlined = any(label.startswith("work.") for label in code["main"].blocks)
    assert inlined == (shape == "shared")


def test_loop_region_source_shape():
    # counting_program's loop runs in its header's function, and no join
    # a region absorbs has a function of its own.
    cm = compile_simple(counting_program(30), mode="pep")["main"]
    texts = region_texts(cm)
    plan = blockjit.region_plan(cm)
    labels = list(cm.blocks)
    assert plan.loops and plan.joins
    for label in plan.loops:
        text = texts[f"_f{labels.index(label)}_0"]
        assert "    while True:\n" in text and "continue\n" in text
    for join in plan.joins.values():
        assert f"_f{labels.index(join.label)}_0" not in texts


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


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_digest_equivalence_tiered(workload, monkeypatch, tiered):
    test_workload_digest_equivalence(workload, monkeypatch)


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


def test_adaptive_run_with_an_irreducible_uninterruptible_callee(monkeypatch):
    # Recompiling main at level 1 or 2 must not try to inline work's
    # two-entry loop, so the run completes on both engines.
    program = _uninterruptible_program("two-entry")
    off = _adaptive_report(program, monkeypatch, enabled=False)
    on = _adaptive_report(program, monkeypatch, enabled=True)
    assert on == off


FAULT_PLANS = [
    {"sample": 0.4},
    {"opt-compile": 0.6},
    {"path-reconstruct": 0.5, "path-table": 0.3},
    {"sample": 0.3, "opt-compile": 0.3, "advice-load": 0.5},
]


@pytest.mark.parametrize("plan_spec", FAULT_PLANS)
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


@pytest.mark.parametrize("plan_spec", FAULT_PLANS)
def test_fault_injection_parity_tiered(plan_spec, monkeypatch, tiered):
    test_fault_injection_parity(plan_spec, monkeypatch)


# -- the process-wide code memo ---------------------------------------------


def _edges_main():
    return compile_simple(counting_program(30), mode="edges")["main"]


def _edit_first_op(cm, code, edit):
    """Replace the first op with opcode ``code``, in block order, by
    ``edit`` of it."""
    for block in cm.blocks.values():
        for j, op in enumerate(block.ops):
            if op[0] == code:
                block.ops[j] = edit(op)
                return
    raise AssertionError(f"no op {code}")


def _edit_first_branch(cm, edit):
    block = next(b for b in cm.blocks.values() if b.term[0] == T_BR)
    block.term = edit(block.term)


def _relabel(cm):
    label = list(cm.blocks)[1]
    cm.blocks[label].label = "renamed"
    cm.blocks = {("renamed" if k == label else k): b for k, b in cm.blocks.items()}


def _swap_last_blocks(cm):
    *head, a, b = cm.blocks.items()
    cm.blocks = dict([*head, b, a])


def test_fingerprint_tells_apart_every_input_codegen_reads():
    fingerprint = blockjit._fingerprint
    base = fingerprint(_edges_main())
    assert fingerprint(_edges_main()) == base  # two lowerings of one method

    def variant(edit):
        cm = _edges_main()
        edit(cm)
        return fingerprint(cm)

    def const(value):
        return lambda cm: _edit_first_op(cm, OP_CONST, lambda op: op[:3] + (value,))

    def cost(value):
        return lambda cm: _edit_first_op(
            cm, OP_CONST, lambda op: (op[0], value, *op[2:])
        )

    def branch(edit):
        return lambda cm: _edit_first_branch(cm, edit)

    # Operands that == equates are still different inputs.
    assert len({variant(const(v)) for v in (1, 1.0, True)}) == 3
    assert variant(cost(0.0)) != variant(cost(-0.0))
    edits = {
        "cost": cost(123.0),
        "label": _relabel,
        "block order": _swap_last_blocks,
        "entry": lambda cm: setattr(cm, "entry", list(cm.blocks.values())[1]),
        "branch mask": branch(lambda t: t[:10] + (t[10] ^ 1,) + t[11:]),
        "layout flag": branch(lambda t: t[:7] + (not t[7],) + t[8:]),
    }
    for name, edit in edits.items():
        assert variant(edit) != base, name


def test_equal_fingerprints_give_equal_source():
    # Equal keys must mean equal text, or a method would bind another
    # method's code; lowerings across tiers, modes and twins are
    # compared.  Here the key is also no finer than the text (distinct
    # keys, distinct texts), so the memo hits wherever a text key would.
    sources = {}
    methods = 0
    for seed in range(4):
        program = random_program(seed, GeneratorSpec(n_helpers=2, work_budget=300))
        for tier in ("baseline", "opt0", "opt1", "opt2"):
            for mode in (None, "pep", "edges", "full-hash"):
                for _ in range(2):  # a twin of each method
                    for cm in compile_simple(program, mode=mode, tier=tier).values():
                        text = generate_source(cm)
                        key = blockjit._fingerprint(cm)
                        assert sources.setdefault(key, text) == text
                        methods += 1
    assert len(set(sources.values())) == len(sources) < methods


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
    assert cm.jit_entries
    assert not all(is_placeholder(fn) for fn in cm.jit_entries.values())
    assert all(callable(fn) for fn in cm.jit_entries.values())
    vm2_code = compile_simple(program)
    vm2 = VirtualMachine(vm2_code, program.main, blockjit=False)
    vm2.run()
    assert vm2_code["main"].jit_entries is None  # interpreter never jits
