"""Shared guest-program fixtures and runs used across the test suite."""

from __future__ import annotations

from typing import Dict, Optional

from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
from repro.adaptive.optimizing import optimize_method
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.instructions import Br, Const, Jmp, Ret
from repro.bytecode.method import Method, Program
from repro.persist import edge_profile_to_dict, path_profile_to_dict, payload_checksum
from repro.resilience import FaultPlan, ResilienceManager
from repro.sampling.arnold_grove import SamplingConfig
from repro.vm import blockjit
from repro.vm.costs import CostModel
from repro.vm.runtime import VirtualMachine
from repro.workloads.generator import GeneratorSpec

#: Blockjit's shipped compile threshold, read before any test pins it.
COLD_ENTRIES = blockjit.COLD_ENTRIES

#: The generated-corpus program shape the parity tests draw seeds from.
CORPUS_SPEC = GeneratorSpec(
    n_helpers=8, max_depth=2, max_stmts=5, max_trip=3, work_budget=300
)


def region_texts(cm) -> Dict[str, str]:
    """Each blockjit region function's text, by root name: what a
    promotion compiles.  ``generate_source`` joins them."""
    return blockjit._MethodCodegen(cm, blockjit.region_plan(cm)).generate()


def is_placeholder(fn) -> bool:
    """True while a blockjit entry still runs cold (not yet compiled)."""
    return fn.__code__ is blockjit._STUB_CODE


def diamond_loop_method(name: str = "m") -> Method:
    """A while-loop whose body is an if/else diamond.

    Blocks: entry -> head; head -> (body | exit); body -> (left | right);
    left -> latch; right -> latch; latch -> head (back edge); exit: ret.
    """
    method = Method(name, num_params=0, num_regs=4)
    entry = method.new_block("entry")
    entry.append(Const(0, 0))  # i = 0
    entry.append(Const(1, 10))  # bound
    entry.terminator = Jmp("head")

    head = method.new_block("head")
    head.terminator = Br("lt", 0, 1, "body", "exit")

    body = method.new_block("body")
    body.append(Const(2, 5))
    body.terminator = Br("lt", 0, 2, "left", "right")

    method.new_block("left").terminator = Jmp("latch")
    method.new_block("right").terminator = Jmp("latch")

    latch = method.new_block("latch")
    latch.append(Const(3, 1))
    latch.terminator = Jmp("head")

    method.new_block("exit").terminator = Ret(0)
    return method.seal()


def nested_loop_method(name: str = "nested") -> Method:
    """Two nested while loops: outer head h1, inner head h2."""
    method = Method(name, num_params=0, num_regs=4)
    entry = method.new_block("entry")
    entry.append(Const(0, 0))
    entry.append(Const(1, 3))
    entry.terminator = Jmp("h1")

    h1 = method.new_block("h1")
    h1.terminator = Br("lt", 0, 1, "pre2", "exit")

    pre2 = method.new_block("pre2")
    pre2.append(Const(2, 0))
    pre2.terminator = Jmp("h2")

    h2 = method.new_block("h2")
    h2.terminator = Br("lt", 2, 1, "inner", "post2")

    inner = method.new_block("inner")
    inner.append(Const(2, 1))
    inner.terminator = Jmp("h2")

    post2 = method.new_block("post2")
    post2.append(Const(0, 1))
    post2.terminator = Jmp("h1")

    method.new_block("exit").terminator = Ret(None)
    return method.seal()


def irreducible_method(name: str = "irr") -> Method:
    """Two blocks jumping into each other's loop (irreducible)."""
    method = Method(name, num_params=0, num_regs=2)
    entry = method.new_block("entry")
    entry.terminator = Br("lt", 0, 1, "a", "b")
    method.new_block("a").terminator = Br("lt", 0, 1, "b", "exit")
    method.new_block("b").terminator = Br("lt", 0, 1, "a", "exit")
    method.new_block("exit").terminator = Ret(None)
    return method.seal()


def straightline_method(name: str = "line") -> Method:
    method = Method(name, num_params=0, num_regs=1)
    entry = method.new_block("entry")
    entry.append(Const(0, 1))
    entry.terminator = Ret(0)
    return method.seal()


def counting_program(limit: int = 10) -> Program:
    """A builder-made program: sum 0..limit-1 with an if in the loop."""
    pb = ProgramBuilder("counting")
    f = pb.function("main")
    total = f.local(0)

    def body(i):
        f.if_(
            (i & 1).eq(0),
            lambda: f.assign(total, total + i),
            lambda: f.assign(total, total + 1),
        )

    f.for_range(0, limit, 1, body)
    f.emit(total)
    f.ret(total)
    return pb.build()


def call_program() -> Program:
    """main calls helper in a loop; helper has a branch."""
    pb = ProgramBuilder("calls")
    helper = pb.function("helper", ["n"])
    n = helper.p("n")
    helper.if_(n < 5, lambda: helper.ret(n + 100), lambda: helper.ret(n))

    f = pb.function("main")
    acc = f.local(0)
    f.for_range(0, 10, 1, lambda i: f.assign(acc, acc + f.call("helper", i)))
    f.emit(acc)
    f.ret(acc)
    return pb.build()


def hot_helper_program(calls: int = 200, inner: int = 40) -> Program:
    """main repeatedly calls a helper whose inner loop dominates.

    The helper re-enters after every adaptive recompile (unlike a
    monolithic main, which keeps its original frame for the whole run),
    so its PEP-instrumented versions actually collect path samples.
    """
    pb = ProgramBuilder("hotloop")
    helper = pb.function("helper", ["n"])
    n = helper.p("n")
    acc = helper.local(0)

    def body(i):
        helper.assign(acc, acc + i)
        helper.assign(acc, acc + n)
        helper.assign(acc, acc * 1)
        helper.assign(acc, acc + 2)
        helper.assign(acc, acc - 1)
        helper.assign(acc, acc + i)
        helper.assign(acc, acc + 1)
        helper.assign(acc, acc + i)
        helper.assign(acc, acc + 1)
        helper.assign(acc, acc + i)

    helper.for_range(0, inner, 1, body)
    helper.ret(acc)

    f = pb.function("main")
    total = f.local(0)
    f.for_range(0, calls, 1,
                lambda i: f.assign(total, total + f.call("helper", i)))
    f.emit(total)
    f.ret(total)
    return pb.build()


def small_adaptive_run(program: Program):
    """One PEP(8,3) adaptive run on a fixed, unjittered timer.

    Returns ``(system, vm, result)``.
    """
    system = AdaptiveSystem(
        program, config=AdaptiveConfig(pep=SamplingConfig(8, 3))
    )
    vm = system.make_vm(tick_interval=600.0)
    return system, vm, vm.run()


def total_samples(profile) -> float:
    """Sum of every path count in a :class:`PathProfile`."""
    return sum(freq for _method, _number, freq in profile.items())


def vm_digest(vm, result) -> str:
    """Checksum of a finished run's results, profiles and counters."""
    return payload_checksum(
        {
            "return_value": result.return_value,
            "output": list(vm.output),
            "cycles": result.cycles,
            "ticks": result.ticks,
            "samples_taken": result.samples_taken,
            "paths": sorted(vm.path_profile.items()),
            "edges": sorted((repr(b), c) for b, c in vm.edge_profile.items()),
        }
    )


def adaptive_run(
    program: Program,
    ticks: int,
    jitter_seed: int,
    plan: Optional[FaultPlan] = None,
) -> dict:
    """Fig. 11's adaptive configuration with its 0.2 tick jitter.

    An opt-2 dry run calibrates the timer to ``ticks`` ticks, then the
    adaptive system runs PEP(64,17) under a resilience layer that
    injects ``plan``'s faults, if any.  Returns the run's observables:
    digest (profiles, output, cycles), counters, health, and the
    controller's compile log.
    """
    costs = CostModel()
    base_code = {
        method.name: optimize_method(method, program, 2, None, costs)[0]
        for method in program.iter_methods()
    }
    base = VirtualMachine(base_code, program.main, costs=costs).run()
    system = AdaptiveSystem(
        program,
        costs=costs,
        config=AdaptiveConfig(pep=SamplingConfig(64, 17)),
        resilience=ResilienceManager(plan=plan),
    )
    vm = system.make_vm(
        tick_interval=max(base.cycles / ticks, 1.0),
        tick_jitter=0.2,
        jitter_seed=jitter_seed,
    )
    result = vm.run()
    digest = payload_checksum(
        {
            "paths": path_profile_to_dict(vm.path_profile),
            "edges": edge_profile_to_dict(vm.edge_profile),
            "output": list(vm.output),
            "return_value": result.return_value,
            "cycles": result.cycles,
        }
    )
    return {
        "digest": digest,
        "cycles": result.cycles,
        "ticks": result.ticks,
        "samples": result.samples_taken,
        "strides": result.strides_skipped,
        "health": result.health.to_dict(),
        "compile_log": list(system.compile_log),
    }
