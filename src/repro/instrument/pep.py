"""The PEP instrumentation pass (paper sections 3.2-3.4).

Given a method that already carries yieldpoints, the pass:

1. splits every loop header after its yieldpoint and builds the P-DAG
   (figure 3);
2. numbers paths — smart numbering driven by the edge profile collected so
   far (profile-guided profiling, figure 4), plain Ball-Larus numbering,
   or *inverted* smart numbering for the section 3.4 ablation;
3. places the cheap path-register instrumentation: ``r = 0`` at method
   entry, ``r += val`` on each non-zero-valued edge (appending to a
   single-successor source, prepending to a single-predecessor target, or
   splitting the edge), and the restored header sequence
   ``r += v_exit; <sample>; r = 0; r += v_entry``;
4. marks header and exit yieldpoints as *sample points* — or, in
   ``count_mode``, inserts an explicit ``count[r]++`` there instead, which
   is exactly the paper's instrumentation-based path profiling used to
   collect perfect profiles (section 5.1).

Headers without a yieldpoint (inlined uninterruptible loops) still reset
the path register — the DAG must stay consistent — but record nothing:
those paths are lost, as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bytecode.instructions import (
    Jmp,
    PathCount,
    PepAdd,
    PepInit,
    Yieldpoint,
)
from repro.bytecode.method import Method
from repro.cfg.dag import DUMMY_ENTRY, DUMMY_EXIT, EXIT_EDGE, REAL, PDag
from repro.cfg.graph import CFG
from repro.cfg.loops import LoopInfo, analyze_loops
from repro.profiling.ballarus import assign_ball_larus_values
from repro.profiling.edges import EdgeProfile
from repro.profiling.smart import assign_smart_values
from repro.instrument.structure import (
    ensure_entry_preheader,
    split_edge,
    split_loop_headers,
)


class PepInstrumentation:
    """Result of the PEP pass: the numbered P-DAG plus placement stats."""

    __slots__ = (
        "dag",
        "split_map",
        "num_paths",
        "adds_placed",
        "edges_split",
        "sample_points",
        "silent_headers",
    )

    def __init__(self, dag: PDag, split_map: Dict[str, str]) -> None:
        self.dag = dag
        self.split_map = split_map
        self.num_paths = dag.num_paths
        self.adds_placed = 0
        self.edges_split = 0
        self.sample_points = 0
        self.silent_headers = 0

    def __repr__(self) -> str:
        return (
            f"<PepInstrumentation {self.dag.method_name}: "
            f"{self.num_paths} paths, {self.adds_placed} adds>"
        )


def apply_pep(
    method: Method,
    edge_profile: Optional[EdgeProfile] = None,
    smart: bool = True,
    invert_smart: bool = False,
    count_mode: Optional[str] = None,
    loops: Optional[LoopInfo] = None,
) -> Optional[PepInstrumentation]:
    """Instrument ``method`` in place; returns None for trivial methods.

    A method with no conditional branch has exactly one path, so its
    profile is trivial and PEP skips it (paper section 4.3).  ``loops``
    is the method's loop analysis when the caller already has it (the
    optimizing compiler shares one with the yieldpoint pass, which adds
    no edges); by default the pass analyses the method itself.
    """
    if not any(True for _ in method.iter_branches()):
        return None

    if loops is None:
        loops = analyze_loops(CFG.from_method(method))
    if method.entry in loops.headers:
        ensure_entry_preheader(method)

    headers = [label for label in method.blocks if label in loops.headers]
    split_map = split_loop_headers(method, headers)

    from repro.cfg.dag import build_pep_dag  # local import avoids cycle risk

    dag = build_pep_dag(method, split_map)
    if smart:
        assign_smart_values(dag, edge_profile, invert=invert_smart)
    else:
        assign_ball_larus_values(dag)

    result = PepInstrumentation(dag, split_map)
    _place_real_edge_adds(method, dag, result)
    _insert_entry_init(method)
    _instrument_headers(method, dag, result, count_mode)
    _instrument_exits(method, dag, result, count_mode)
    return result


# --------------------------------------------------------------------------
# Placement helpers (shared with the classic-BLPP pass).
# --------------------------------------------------------------------------


def _place_real_edge_adds(method: Method, dag: PDag, result) -> None:
    """Place ``r += val`` on every non-zero-valued real DAG edge."""
    pred_counts = {
        label: len(preds) for label, preds in method.predecessors().items()
    }
    for edge in dag.edges:
        if edge.kind != REAL or edge.value == 0:
            continue
        src = method.block(edge.src)
        term = src.terminator
        if isinstance(term, Jmp):
            src.instrs.append(PepAdd(edge.value))
        elif pred_counts.get(edge.dst, 2) == 1:
            method.block(edge.dst).instrs.insert(0, PepAdd(edge.value))
        else:
            mid = split_edge(method, edge.src, edge.dst)
            method.block(mid).instrs.append(PepAdd(edge.value))
            result.edges_split += 1
        result.adds_placed += 1


def _insert_entry_init(method: Method) -> None:
    """``r = 0`` at method entry, after the entry yieldpoint if present."""
    entry = method.entry_block()
    index = 0
    if entry.instrs and isinstance(entry.instrs[0], Yieldpoint):
        index = 1
    entry.instrs.insert(index, PepInit())


def _instrument_headers(
    method: Method,
    dag: PDag,
    result,
    count_mode: Optional[str],
) -> None:
    """Rebuild each split header top with the restored-edge sequence."""
    dummy_entry_value = {
        edge.dst: edge.value for edge in dag.edges if edge.kind == DUMMY_ENTRY
    }
    dummy_exit_value = {
        edge.src: edge.value for edge in dag.edges if edge.kind == DUMMY_EXIT
    }
    for top_label, bottom_label in dag.split_map.items():
        top = method.block(top_label)
        v_exit = dummy_exit_value.get(top_label, 0)
        v_entry = dummy_entry_value.get(bottom_label, 0)

        yieldpoint: Optional[Yieldpoint] = None
        if top.instrs and isinstance(top.instrs[0], Yieldpoint):
            yieldpoint = top.instrs[0]

        rebuilt: List = []
        if yieldpoint is not None:
            # A recording point exists: finish the old path's number, then
            # record (sample or explicit count).
            if v_exit:
                rebuilt.append(PepAdd(v_exit))
            if count_mode is not None:
                rebuilt.append(PathCount(count_mode))
            else:
                yieldpoint.sample_point = True
                result.sample_points += 1
            rebuilt.append(yieldpoint)
        else:
            # Uninterruptible loop header: the completed path is dropped.
            result.silent_headers += 1
        rebuilt.append(PepInit())
        if v_entry:
            rebuilt.append(PepAdd(v_entry))
        top.instrs = rebuilt


def _instrument_exits(
    method: Method,
    dag: PDag,
    result,
    count_mode: Optional[str],
) -> None:
    """Finish and record paths at method-exit yieldpoints."""
    exit_values = {
        edge.src: edge.value for edge in dag.edges if edge.kind == EXIT_EDGE
    }
    for label in method.exit_labels():
        block = method.block(label)
        value = exit_values.get(label, 0)
        yp_index: Optional[int] = None
        last = block.instrs[-1] if block.instrs else None
        if isinstance(last, Yieldpoint) and last.kind == "exit":
            yp_index = len(block.instrs) - 1
        if yp_index is None:
            # No exit yieldpoint (uninterruptible): nothing can be
            # recorded, so emit no dead arithmetic either.
            continue
        insert_at = yp_index
        additions: List = []
        if value:
            additions.append(PepAdd(value))
        if count_mode is not None:
            additions.append(PathCount(count_mode))
        else:
            yieldpoint = block.instrs[yp_index]
            assert isinstance(yieldpoint, Yieldpoint)
            yieldpoint.sample_point = True
            result.sample_points += 1
        block.instrs[insert_at:insert_at] = additions
        result.adds_placed += 1 if value else 0

