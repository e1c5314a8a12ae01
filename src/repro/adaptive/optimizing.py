"""The optimizing compiler (paper sections 4.1, 4.3).

Three levels with a fixed pass pipeline:

* level 0: branch layout only;
* level 1: + inlining;
* level 2: + constant folding and dead-code elimination.

After optimization, yieldpoints are inserted (skipping branch-free
leaves, section 4.3) and the requested profiling instrumentation is
applied as the final pass, exactly where the paper adds PEP.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bytecode.method import Method, Program
from repro.errors import CompilationError
from repro.instrument.blpp_full import apply_full_blpp
from repro.instrument.edge_instr import apply_edge_instrumentation
from repro.instrument.pep import PepInstrumentation, apply_pep
from repro.instrument.yieldpoints import insert_yieldpoints
from repro.adaptive.passes import (
    apply_branch_layout,
    eliminate_dead_code,
    fold_constants,
    inline_small_methods,
)
from repro.profiling.edges import EdgeProfile
from repro.vm import pgo
from repro.vm.costs import CostModel
from repro.vm.interpreter import CompiledMethod, lower_method

# Profiling instrumentation the optimizing compiler can attach:
#   None          - plain optimized code (the paper's Base)
#   "pep"         - PEP: cheap instrumentation + sample points
#   "pep-nosmart" - PEP with plain Ball-Larus numbering (ablation)
#   "pep-hot"     - PEP with inverted smart numbering (section 3.4 ablation)
#   "full-path"   - hash count[r]++ at every sample location (section 5.1)
#   "classic-blpp"- textbook Ball-Larus with array counters (section 2.2)
#   "edges"       - per-branch counters on optimized code (section 5.1)
INSTRUMENTATION_MODES = (
    None,
    "pep",
    "pep-nosmart",
    "pep-hot",
    "full-path",
    "classic-blpp",
    "edges",
)


def optimize_method(
    method: Method,
    program: Program,
    level: int,
    edge_profile: Optional[EdgeProfile],
    costs: CostModel,
    version: int = 0,
    instrumentation: Optional[str] = None,
    unroll: bool = False,
    injector=None,
    superblock_advice: Optional[Tuple[int, int]] = None,
    min_coverage: bool = False,
) -> Tuple[CompiledMethod, float]:
    """Compile one method at opt level 0-2 with optional instrumentation.

    ``unroll=True`` additionally replicates simple loop bodies
    (:mod:`repro.adaptive.unroll`), the paper's other source of multiple
    IR branches per bytecode branch.  It is off by default so the
    benchmark suite's path structure stays comparable across runs.

    ``injector`` (a :class:`repro.resilience.FaultInjector`) may force a
    deterministic :class:`CompilationError` at the ``opt-compile`` site;
    callers with a :class:`~repro.resilience.ResilienceManager` treat it
    like any real compile failure (keep the current body, back off).

    ``superblock_advice`` — ``(path_number, dag_fingerprint)`` from a
    superseded compiled version — pre-installs the hot trace on the new
    body when its P-DAG fingerprint matches (path numbers are only
    meaningful relative to one DAG, so a mismatch misses cleanly).
    Best-effort and observable only in wall clock: no cycles charged.

    ``min_coverage=True`` (meaningful only with ``instrumentation=
    "edges"``) places the per-branch counters on a spanning-tree
    complement instead of every arm (DESIGN.md §14); the attached
    ``cm.probe_plan`` lets the VM reconstruct the full edge profile at
    drain time.  Only one-shot pipelines may enable it: edge counters
    are shared across recompiled versions of a method, and mixing
    probed and full placements on one counter set would break the
    flow-conservation solve.  The effective value is part of the cache
    key — probed and fully-instrumented artefacts never conflate.

    Returns the compiled method and the compile-time cycles charged
    (including PEP's extra pass cost when instrumenting).
    """
    if level not in (0, 1, 2):
        raise CompilationError(f"unknown optimization level {level}")
    if instrumentation not in INSTRUMENTATION_MODES:
        raise CompilationError(
            f"unknown instrumentation mode {instrumentation!r}"
        )
    if injector is not None and injector.should_fire("opt-compile", method.name):
        raise CompilationError(
            f"{method.name}: injected opt-compile fault (level {level})"
        )

    # Content-addressed compile cache: lowering is deterministic, so a
    # prior compile of identical inputs is returned directly (compile
    # cycles are still charged — the cache saves wall-clock only).
    # Fault-injected compiles bypass the cache in both directions.
    from repro.vm import codecache

    min_coverage = bool(min_coverage and instrumentation == "edges")
    cache = codecache.active_cache() if injector is None else None
    key: Optional[tuple] = None
    if cache is not None:
        key = codecache.optimize_key(
            method, program, level, instrumentation, unroll, version,
            costs, edge_profile, min_coverage=min_coverage,
        )
        hit = cache.get(key)
        if hit is not None:
            if superblock_advice is not None:
                _apply_superblock_advice(hit[0], superblock_advice)
            return hit

    clone = method.clone()
    if level >= 1:
        inline_small_methods(clone, program)
    if level >= 2:
        fold_constants(clone)
        eliminate_dead_code(clone)
    if unroll:
        from repro.adaptive.unroll import unroll_simple_loops

        unroll_simple_loops(clone)
    apply_branch_layout(clone, edge_profile)
    insert_yieldpoints(clone, skip_trivial_leaves=True)

    inst: Optional[PepInstrumentation] = None
    if instrumentation == "pep":
        inst = apply_pep(clone, edge_profile, smart=True)
    elif instrumentation == "pep-nosmart":
        inst = apply_pep(clone, edge_profile, smart=False)
    elif instrumentation == "pep-hot":
        inst = apply_pep(clone, edge_profile, smart=True, invert_smart=True)
    elif instrumentation == "full-path":
        inst = apply_full_blpp(
            clone, edge_profile, style="pep", count_mode="hash"
        )
    elif instrumentation == "classic-blpp":
        inst = apply_full_blpp(
            clone, edge_profile, style="classic", count_mode="array"
        )
    probe_plan = None
    if instrumentation == "edges":
        if min_coverage:
            probe_plan = pgo.apply_min_coverage(clone)
        if probe_plan is None:
            apply_edge_instrumentation(clone)

    tier = f"opt{level}"
    cm = lower_method(clone, tier, costs, version=version)
    if inst is not None:
        cm.attach_dag(inst.dag)
    cm.probe_plan = probe_plan

    compile_cycles = costs.compile_cost(tier, method.instruction_count())
    if instrumentation is not None:
        compile_cycles += costs.pep_pass_cost_per_instr * method.instruction_count()
    if cache is not None and key is not None:
        cache.put(key, cm, compile_cycles)
    if superblock_advice is not None:
        _apply_superblock_advice(cm, superblock_advice)
    return cm, compile_cycles


def _apply_superblock_advice(cm: CompiledMethod, advice: tuple) -> None:
    """Carry a hot trace across a recompile; silent no-op on mismatch.

    A shared cache-hit instance may already hold a (different) trace —
    first-wins is fine, every superblock is behaviorally identical to
    plain blockjit.  Failures degrade to plain blockjit rather than
    failing the compile: the advice is an optimization hint, not part of
    the compiled artefact's contract.  ``advice`` is
    ``(path_number, dag_fingerprint)``.
    """
    from repro.profiling.regenerate import dag_fingerprint
    from repro.util.flags import superblock_enabled
    from repro.vm.superblock import install_superblock

    path_number, dag_fp = advice
    if cm.dag is None or not superblock_enabled():
        return
    if dag_fingerprint(cm.dag) != dag_fp:
        return
    try:
        install_superblock(cm, path_number)
    except Exception:
        pass
