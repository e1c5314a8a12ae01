"""A content-addressed cache of compiled methods.

Replay compilation and the adaptive system recompile the *same* source
methods over and over: every experiment cell re-lowers the whole program,
and fig6-style sweeps do it once per (config, workload) pair.  Lowering
is deterministic — a pure function of (method body, direct callee bodies,
opt level, instrumentation, version, cost model, layout profile) — so its
output can be memoised on a fingerprint of those inputs.

The fingerprints use :func:`repro.util.rng.stable_hash` over canonical
disassembly text, so keys are stable across processes (engine workers can
share a persisted cache file).  A cache hit returns the *same*
:class:`~repro.vm.interpreter.CompiledMethod` instance: compiled code is
immutable after lowering (all run-time state lives in frames and VMs), so
sharing is safe, and the recorded compile-time virtual cycles are charged
on every hit — the cache saves wall-clock, never virtual cycles, keeping
results bit-identical with caching on or off.

Fault injection bypasses the cache entirely: an injected compile fault is
part of the experiment, and its compiled artefact (or absence) must not
leak into other runs.

Disable with ``REPRO_CODECACHE=0``; bound via ``REPRO_CODECACHE_BOUND``.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Dict, Iterable, Optional, Tuple

from repro.bytecode.disasm import format_instr, format_terminator
from repro.bytecode.method import Method, Program
from repro.profiling.edges import EdgeProfile
from repro.util.flags import (
    fixedcost_enabled,
    kblpp_enabled,
    kblpp_k,
    pgo_inline_enabled,
    pgo_layout_enabled,
    samplefast_enabled,
)
from repro.util.rng import stable_hash
from repro.vm.costs import CostModel
from repro.vm.interpreter import CompiledMethod

ENV_DISABLE = "REPRO_CODECACHE"
ENV_BOUND = "REPRO_CODECACHE_BOUND"
DEFAULT_BOUND = 2048
# Format 2: CompiledMethod pickles carry the blockjit-generated source
# (``jit_source``) so warm runs skip codegen; per-process closures
# (``jit_entries``) are dropped on pickle and rebuilt lazily.  Cache
# keys also gained a resolved ``fuse`` field (previously always None).
# Format 3: keys gained a resolved ``samplefast`` field — the blockjit
# yieldpoint template (and thus the persisted ``jit_source``) differs
# between the countdown and legacy datapaths (DESIGN.md §10), and a key
# must never conflate the two.
# Format 4: CompiledMethod pickles additionally carry the path-guided
# superblock artefacts (``sb_source``/``sb_path``/``sb_fingerprint``,
# DESIGN.md §11).  The fingerprint ties the trace to this version's
# P-DAG and the resolved samplefast flag; ``ensure_jit`` revalidates it
# on warm loads, so stale superblock advice misses cleanly while the
# plain blockjit entry still hits.
# Format 5: the ``sb_*`` slots may now carry whole-method tracefast
# sources (DESIGN.md §13) and ``sb_fingerprint`` hashes the resolved
# tracefast flag, so the two trace backends' artefacts never cross.
# Because format-4 fingerprints were computed without that component, a
# format-4 cache loaded under format 5 is dropped wholesale (the
# standard wrong-format path below) rather than partially reused.
# Format 6: CompiledMethod pickles additionally carry PGO advice
# (``pgo_layout``/``pgo_inline``/``probe_plan``, DESIGN.md §14), the
# keys gained the resolved ``REPRO_PGO_LAYOUT``/``REPRO_PGO_INLINE``
# flags plus the effective minimum-coverage placement bit, and
# ``sb_fingerprint`` folds in :func:`repro.vm.pgo.pgo_fingerprint`.
# Format-5 entries know none of this, so a format-5 cache loaded under
# format 6 is dropped wholesale — flag flips within format 6 miss
# cleanly through the key/fingerprint components instead.
# Format 7: CompiledMethod pickles additionally carry the fixed-point
# fold verdict (``fold_q``, DESIGN.md §15) which selects the persisted
# ``jit_source``/``sb_source`` chain shape, the keys gained the
# resolved ``REPRO_FIXEDCOST``/``REPRO_WARMJIT`` flags, the ``sb_*``
# slots may carry warm token ladders (``sb_path == -1``), and
# ``sb_fingerprint`` folds in the fold verdict.  Format-6 entries
# predate all of that (and the recalibrated dyadic tier multipliers
# shift their cost fingerprints anyway), so a format-6 cache loaded
# under format 7 is dropped wholesale.
# Format 8: the ``sb_*`` slots may carry k-iteration superblock traces
# (``sb_path <= -2``, DESIGN.md §16) whose fingerprints fold in the
# resolved window width, and the keys gained the resolved
# ``REPRO_KBLPP``/``REPRO_KBLPP_K`` pair so a persisted k-trace never
# revives under a different k (or with the tier off) via a key hit.
# Format-7 entries predate the encoding, so a format-7 cache loaded
# under format 8 is dropped wholesale.
# Format 9: the warm token ladder is retired (DESIGN.md §15), so the
# keys lose the resolved ``REPRO_WARMJIT`` flag and no ``sb_*`` slot
# carries ``sb_path == -1`` any more.  A format-8 cache may hold warm
# ladders, so it is dropped wholesale: persisted ladders miss instead
# of loading.
_FORMAT = 9


# -- fingerprints -----------------------------------------------------------


def fingerprint_method(method: Method) -> int:
    """Hash of everything about a source method that lowering can see."""
    parts = [
        method.name,
        str(method.num_params),
        str(method.num_regs),
        str(method.uninterruptible),
        str(method.entry),
        ",".join(sorted(method.no_yield_labels)),
    ]
    for label, block in method.blocks.items():
        parts.append(f"@{label}")
        for instr in block.instrs:
            parts.append(format_instr(instr))
        term = block.terminator
        if term is not None:
            parts.append(format_terminator(term))
            # format_terminator omits count_arms (display-only); the
            # cache must not conflate instrumented and plain branches.
            parts.append(str(getattr(term, "count_arms", False)))
    return stable_hash("\x1f".join(parts))


def fingerprint_costs(costs: CostModel) -> int:
    parts = []
    for slot in CostModel.__slots__:
        value = getattr(costs, slot)
        if isinstance(value, dict):
            parts.append(
                f"{slot}={{{','.join(f'{k}:{v!r}' for k, v in sorted(value.items()))}}}"
            )
        else:
            parts.append(f"{slot}={value!r}")
    return stable_hash("|".join(parts))


def fingerprint_profile(profile: Optional[EdgeProfile]) -> int:
    """Hash of the layout-guiding edge profile (None = no profile)."""
    if profile is None:
        return 0
    parts = [
        f"{branch!r}:{taken!r}/{not_taken!r}"
        for branch, (taken, not_taken) in sorted(
            profile.items(), key=lambda item: item[0]
        )
    ]
    return stable_hash("|".join(parts))


def _callee_fingerprints(
    method: Method, program: Optional[Program]
) -> Tuple[int, ...]:
    """Fingerprints of direct callees (the inliner's only other input)."""
    if program is None:
        return ()
    names = []
    seen = set()
    for block in method.blocks.values():
        for instr in block.instrs:
            if instr.op == "call" and instr.callee not in seen:
                seen.add(instr.callee)
                names.append(instr.callee)
    prints = []
    for name in sorted(names):
        callee = program.methods.get(name)
        if callee is not None and callee is not method:
            prints.append(fingerprint_method(callee))
    return tuple(prints)


def optimize_key(
    method: Method,
    program: Optional[Program],
    level: int,
    instrumentation: Optional[str],
    unroll: bool,
    version: int,
    costs: CostModel,
    edge_profile: Optional[EdgeProfile],
    fuse: Optional[bool] = None,
    samplefast: Optional[bool] = None,
    min_coverage: bool = False,
) -> tuple:
    return (
        "opt",
        fingerprint_method(method),
        _callee_fingerprints(method, program),
        level,
        instrumentation,
        unroll,
        version,
        fingerprint_costs(costs),
        fingerprint_profile(edge_profile),
        fuse,
        samplefast_enabled(samplefast),
        # Resolved PGO components (format 6): layout advice shapes the
        # persisted jit_source, and the probe-placement bit decides the
        # branch masks — neither may conflate across a flag flip.
        pgo_layout_enabled(),
        pgo_inline_enabled(),
        bool(min_coverage),
        # Resolved fixed-point component (format 7): the fold verdict
        # is taken at lowering and baked into every generated source's
        # chain shape.
        fixedcost_enabled(),
        # Resolved k-iteration components (format 8): a cached method
        # may carry a k-trace in its sb_* slots, and the window width
        # is baked into its fingerprint — neither may conflate across
        # a REPRO_KBLPP flip or a k change.
        kblpp_enabled(),
        kblpp_k(),
    )


def baseline_key(
    method: Method,
    version: int,
    costs: CostModel,
    fuse: Optional[bool] = None,
    samplefast: Optional[bool] = None,
) -> tuple:
    return (
        "base",
        fingerprint_method(method),
        version,
        fingerprint_costs(costs),
        fuse,
        samplefast_enabled(samplefast),
        # Baseline compilation takes no PGO advice (no profile exists
        # yet), but its jit_source is still emitted layout-aware when
        # the flag is on (canonical order, byte-identical source) — the
        # resolved flag keeps the keyspace aligned with optimize_key.
        pgo_layout_enabled(),
        # Format 7: the fold verdict shapes baseline jit_source too.
        fixedcost_enabled(),
    )


# -- the cache --------------------------------------------------------------


class CompilationCache:
    """LRU map from compile key to (CompiledMethod, compile cycles)."""

    __slots__ = ("bound", "entries", "hits", "misses")

    def __init__(self, bound: int = DEFAULT_BOUND) -> None:
        self.bound = bound
        self.entries: Dict[tuple, Tuple[CompiledMethod, float]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Optional[Tuple[CompiledMethod, float]]:
        entry = self.entries.pop(key, None)
        if entry is None:
            self.misses += 1
            return None
        self.entries[key] = entry  # refresh recency
        self.hits += 1
        return entry

    def put(self, key: tuple, cm: CompiledMethod, cycles: float) -> None:
        entries = self.entries
        if key in entries:
            entries.pop(key)
        elif len(entries) >= self.bound:
            entries.pop(next(iter(entries)))
        entries[key] = (cm, cycles)

    def clear(self) -> None:
        self.entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.entries)

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self.entries), "hits": self.hits, "misses": self.misses}

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        """Atomically persist the cache (temp file + ``os.replace``)."""
        payload = {"format": _FORMAT, "entries": list(self.entries.items())}
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def load(self, path: str) -> int:
        """Merge entries from a persisted cache; returns entries loaded.

        A missing, corrupt, or wrong-format file loads nothing — the
        cache is an accelerator, never a correctness dependency.
        """
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            return 0
        if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
            return 0
        entries = payload.get("entries")
        if not isinstance(entries, list):
            return 0
        loaded = 0
        for item in entries:
            try:
                key, (cm, cycles) = item
            except (TypeError, ValueError):
                continue
            if not isinstance(cm, CompiledMethod):
                continue
            self.put(tuple(key), cm, float(cycles))
            loaded += 1
        return loaded


GLOBAL = CompilationCache(
    bound=int(os.environ.get(ENV_BOUND, DEFAULT_BOUND) or DEFAULT_BOUND)
)


def active_cache() -> Optional[CompilationCache]:
    """The process-wide cache, or None when disabled via the environment."""
    flag = os.environ.get(ENV_DISABLE, "1").strip().lower()
    if flag in ("0", "off", "no", "false"):
        return None
    return GLOBAL
