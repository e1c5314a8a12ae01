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
from repro.errors import ReproError
from repro.profiling.edges import EdgeProfile
from repro.util.rng import stable_hash
from repro.vm.costs import CostModel
from repro.vm.interpreter import CompiledMethod

ENV_DISABLE = "REPRO_CODECACHE"
ENV_BOUND = "REPRO_CODECACHE_BOUND"
DEFAULT_BOUND = 2048
# Format 15.  A key is ``optimize_key`` or ``baseline_key`` below.  A
# value is (CompiledMethod, compile cycles); the pickled method carries
# its blockjit source (``jit_source``, one function per region root,
# DESIGN.md §9), its fold verdict (``fold_q``, 20 or 0, DESIGN.md §15)
# and at most one 1-path superblock trace
# (``sb_source``/``sb_path``/``sb_fingerprint``, DESIGN.md §11).  Its
# closures (``jit_entries``, ``sb_entry``) do not pickle and are rebuilt
# on first use; ``ensure_jit`` revalidates the trace fingerprint then.
# Every earlier format keyed on, fingerprinted with, or persisted
# something since retired: kill-switch flags, warm ladders, whole-method
# traces, k-iteration traces, sources calling globals no longer bound,
# per-block segments whose names regions no longer define.
# Reusing part of such a cache could revive a stale artefact under a key
# that now means something else, so a file stamped with any other
# format loads nothing (DESIGN.md §8).
_FORMAT = 15


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
        # The effective probe-placement bit (format 6) decides the
        # branch masks, so probed and fully-instrumented artefacts
        # never conflate.
        bool(min_coverage),
    )


def baseline_key(method: Method, version: int, costs: CostModel) -> tuple:
    return (
        "base",
        fingerprint_method(method),
        version,
        fingerprint_costs(costs),
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
                key = tuple(key)
                hash(key)
                cycles = float(cycles)
            except (TypeError, ValueError):
                continue
            if not isinstance(cm, CompiledMethod):
                continue
            self.put(key, cm, cycles)
            loaded += 1
        return loaded


GLOBAL = CompilationCache()


def _env_bound() -> int:
    """The LRU bound ``REPRO_CODECACHE_BOUND`` asks for (default 2048).

    A bound below 1 would leave ``put`` nothing to evict, so it is
    rejected like a value that is not an integer.
    """
    raw = os.environ.get(ENV_BOUND, "").strip()
    if not raw:
        return DEFAULT_BOUND
    try:
        bound = int(raw)
    except ValueError:
        raise ReproError(
            f"{ENV_BOUND} must be an integer, got {raw!r}"
        ) from None
    if bound < 1:
        raise ReproError(f"{ENV_BOUND} must be at least 1, got {bound}")
    return bound


def active_cache() -> Optional[CompilationCache]:
    """The process-wide cache, or None when disabled via the environment.

    The bound is read from the environment on every call, so a bad
    ``REPRO_CODECACHE_BOUND`` fails the first compile that would use
    the cache, with a :class:`~repro.errors.ReproError`.
    """
    flag = os.environ.get(ENV_DISABLE, "1").strip().lower()
    if flag in ("0", "off", "no", "false"):
        return None
    GLOBAL.bound = _env_bound()
    return GLOBAL
