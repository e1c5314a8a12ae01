"""Minimal compile pipeline for tests.

The real pipeline lives in :mod:`repro.adaptive`; tests use this stripped
version to exercise instrumentation and the VM in isolation, with exactly
one compiled version per method and no adaptive machinery.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bytecode.method import Program
from repro.bytecode.validate import verify_method
from repro.instrument.blpp_full import apply_full_blpp
from repro.instrument.edge_instr import apply_edge_instrumentation
from repro.instrument.pep import apply_pep
from repro.instrument.yieldpoints import insert_yieldpoints
from repro.profiling.edges import EdgeProfile
from repro.vm.costs import CostModel
from repro.vm.interpreter import CompiledMethod, lower_method
from repro.vm.runtime import VirtualMachine


def compile_simple(
    program: Program,
    mode: Optional[str] = None,
    edge_profile: Optional[EdgeProfile] = None,
    costs: Optional[CostModel] = None,
    smart: bool = True,
    invert_smart: bool = False,
    tier: str = "opt2",
) -> Dict[str, CompiledMethod]:
    """Compile every method at one tier with the requested instrumentation.

    mode: None (plain), 'pep', 'full-hash', 'classic', or 'edges'.
    """
    costs = costs or CostModel()
    code: Dict[str, CompiledMethod] = {}
    for method in program.iter_methods():
        clone = method.clone()
        insert_yieldpoints(clone)
        inst = None
        if mode == "pep":
            inst = apply_pep(
                clone, edge_profile, smart=smart, invert_smart=invert_smart
            )
        elif mode == "full-hash":
            inst = apply_full_blpp(
                clone, edge_profile, style="pep", count_mode="hash", smart=smart
            )
        elif mode == "classic":
            inst = apply_full_blpp(
                clone, edge_profile, style="classic", count_mode="array", smart=smart
            )
        elif mode == "edges":
            apply_edge_instrumentation(clone)
        elif mode is not None:
            raise ValueError(f"unknown mode {mode!r}")
        verify_method(clone, program, allow_instrumentation=True)
        cm = lower_method(clone, tier, costs)
        if inst is not None:
            cm.attach_dag(inst.dag)
        code[method.name] = cm
    return code


def run_program(
    program: Program,
    mode: Optional[str] = None,
    sampler=None,
    tick_interval: Optional[float] = None,
    edge_profile: Optional[EdgeProfile] = None,
    costs: Optional[CostModel] = None,
    smart: bool = True,
    fuel: int = 50_000_000,
):
    """Compile and run; returns (vm, result)."""
    code = compile_simple(
        program, mode=mode, edge_profile=edge_profile, costs=costs, smart=smart,
    )
    vm = VirtualMachine(
        code,
        program.main,
        costs=costs,
        tick_interval=tick_interval,
        sampler=sampler,
    )
    result = vm.run(fuel=fuel)
    return vm, result


def expand_path_profile(vm, code) -> EdgeProfile:
    """Offline expansion: perfect path profile -> perfect edge profile.

    This is the paper's section 5.1 derivation: the perfect edge profile
    is generated from instrumentation-based *path* profiling.
    """
    by_key = {cm.profile_key: cm for cm in code.values()}
    edges = EdgeProfile()
    for key, path_number, freq in vm.path_profile.items():
        cm = by_key.get(key)
        if cm is None or cm.resolver is None:
            continue
        for branch, taken in cm.resolver.branch_events(path_number):
            edges.record(branch, taken, freq)
    return edges
