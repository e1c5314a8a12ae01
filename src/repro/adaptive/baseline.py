"""The baseline compiler (paper sections 4.1-4.2).

Fast compilation, slow code: yieldpoints everywhere, per-branch
taken/not-taken instrumentation (the one-time edge profile), and a 3x
execution cost multiplier.  Frequently executed methods don't stay
baseline-compiled for long, so this instrumentation's expense is
tolerable — exactly the paper's argument.
"""

from __future__ import annotations

from typing import Tuple

from repro.bytecode.method import Method
from repro.instrument.edge_instr import apply_edge_instrumentation
from repro.instrument.yieldpoints import insert_yieldpoints
from repro.vm.costs import CostModel
from repro.vm.interpreter import CompiledMethod, deferred_method, lower_method


def compile_baseline(
    method: Method,
    costs: CostModel,
    version: int = 0,
) -> Tuple[CompiledMethod, float]:
    """Compile one method at the baseline tier.

    Returns the compiled method and the compile-time cycles charged.
    The method comes back unbuilt: its passes and lowering run at its
    first entry (DESIGN.md §8), as Jikes RVM compiles a method when it
    is first invoked.
    """
    def build() -> CompiledMethod:
        clone = method.clone()
        insert_yieldpoints(clone)
        apply_edge_instrumentation(clone)
        return lower_method(clone, "baseline", costs, version=version)

    cm = deferred_method(
        method.name, version, "baseline", costs.tier_multiplier("baseline"),
        build,
    )
    return cm, costs.compile_cost("baseline", method.instruction_count())
