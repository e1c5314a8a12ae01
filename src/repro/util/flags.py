"""Process-wide feature flags resolved from the environment.

The sampling fast path (countdown yieldpoints, dense profile tables,
buffered sample recording — see DESIGN.md §10) is controlled by
``REPRO_SAMPLEFAST``.  Every flag here resolves the same way: an
explicit argument wins, then the module flag (tests may pin it), then
the environment variable, then the built-in default (*on* for every
boolean switch).

Both datapaths are bit-identical in every observable (profiles, virtual
cycles, fault-injection sequences — ``tests/test_samplefast.py`` proves
it), so the flag only moves wall clock; ``REPRO_SAMPLEFAST=0`` is the
kill switch that reverts to the legacy per-sample datapath.
"""

from __future__ import annotations

import os
from typing import Optional

SAMPLEFAST_ENV = "REPRO_SAMPLEFAST"

#: Module override: tests may pin this to force a datapath regardless of
#: the environment.  ``None`` means "consult the environment".
SAMPLEFAST: Optional[bool] = None

SUPERBLOCK_ENV = "REPRO_SUPERBLOCK"

#: Module override for path-guided superblock formation (DESIGN.md §11).
SUPERBLOCK: Optional[bool] = None

TRACEFAST_ENV = "REPRO_TRACEFAST"

#: Module override for the slotted-frame trace backend (DESIGN.md §13):
#: when a dominant path is promoted, compile the *whole method* into one
#: generated function (registers promoted to locals across every block,
#: token dispatch instead of the segment trampoline, batched cost/PEP
#: chains) instead of the single-trace ``_sb`` function of §11.
TRACEFAST: Optional[bool] = None

TRACEFAST_AOT_ENV = "REPRO_TRACEFAST_AOT"

#: Module override for the optional AOT sub-tier of the tracefast
#: backend: when a supported ahead-of-time compiler (Cython) and a C
#: toolchain are importable, the hottest generated trace modules are
#: compiled to native extensions keyed by their content fingerprints.
#: Inert (pure-Python tracefast) when the toolchain is missing.
TRACEFAST_AOT: Optional[bool] = None


PGO_ENV = "REPRO_PGO"

#: Module override for the profile-guided optimization tier (DESIGN.md
#: §14): master switch over the three PGO transforms below.  All three
#: are bit-identical in every observable (``tests/test_pgo.py`` proves
#: it); ``REPRO_PGO=0`` reverts codegen to the PR-7 shapes byte for
#: byte.
PGO: Optional[bool] = None

PGO_LAYOUT_ENV = "REPRO_PGO_LAYOUT"

#: Module override for profile-guided code layout: order blockjit's
#: segment definitions and tracefast's token-ladder arms by observed
#: edge heat so the hot successor is the first-tested arm.
PGO_LAYOUT: Optional[bool] = None

PGO_INLINE_ENV = "REPRO_PGO_INLINE"

#: Module override for dominant-path callee inlining: splice a hot
#: monomorphic callee's dominant Ball-Larus path into the caller's
#: tracefast trace behind a guard that side-exits to the normal call.
PGO_INLINE: Optional[bool] = None

PGO_PROBES_ENV = "REPRO_PGO_PROBES"

#: Module override for minimum-coverage probe placement: instrument only
#: a spanning-tree complement of each method's CFG in the dedicated
#: edge-instrumentation mode and reconstruct the full edge profile at
#: drain time (Knuth / Ball-Larus minimum instrumentation).
PGO_PROBES: Optional[bool] = None

KBLPP_ENV = "REPRO_KBLPP"

#: Module override for k-iteration Ball-Larus path profiling (DESIGN.md
#: §16): record paths spanning ``k`` consecutive loop iterations in a
#: shadow table alongside the 1-paths, and let the adaptive controller
#: promote a dominant k-path into a multi-iteration trace when no
#: dominant 1-path exists.  Pure wall-clock steering — the k-path table
#: never enters digests; ``REPRO_KBLPP=0`` is the kill switch.
KBLPP: Optional[bool] = None

KBLPP_K_ENV = "REPRO_KBLPP_K"

#: Module override for the window length ``k`` (iterations per k-path).
#: ``None`` means "consult the environment"; the built-in default is 2.
KBLPP_K: Optional[int] = None

#: Built-in default window length and the sanity bounds applied to the
#: environment override (a silly ``k`` would blow the path space long
#: before the dense-table cap could help).
KBLPP_K_DEFAULT = 2
KBLPP_K_MAX = 8


def _env_enabled(name: str, default: bool = True) -> bool:
    env = os.environ.get(name)
    if env is not None and env.strip():
        return env.strip().lower() not in ("0", "off", "no", "false")
    return default


def samplefast_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the effective sampling-fast-path setting.

    Components that persist artefacts shaped by this flag (the blockjit
    codecache keys) must store the *resolved* value, never the raw
    ``None``, so cached artefacts from one mode are never replayed in
    the other.
    """
    if explicit is not None:
        return bool(explicit)
    if SAMPLEFAST is not None:
        return bool(SAMPLEFAST)
    return _env_enabled(SAMPLEFAST_ENV)


def superblock_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the effective superblock-formation setting.

    ``REPRO_SUPERBLOCK=0`` is the kill switch: the adaptive controller
    stops forming superblocks and persisted superblock sources are not
    re-installed.  Both settings are bit-identical in every observable
    (``tests/test_superblock.py`` proves it); the flag only moves wall
    clock.
    """
    if explicit is not None:
        return bool(explicit)
    if SUPERBLOCK is not None:
        return bool(SUPERBLOCK)
    return _env_enabled(SUPERBLOCK_ENV)


def tracefast_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the effective tracefast-backend setting.

    ``REPRO_TRACEFAST=0`` is the kill switch: promoted methods fall back
    to the PR-5 single-trace superblock backend and persisted tracefast
    sources are not re-installed (their fingerprints embed the resolved
    flag, so a flag flip misses cleanly).  Both backends are bit-identical
    in every observable (``tests/test_tracefast.py`` proves it); the flag
    only moves wall clock.
    """
    if explicit is not None:
        return bool(explicit)
    if TRACEFAST is not None:
        return bool(TRACEFAST)
    return _env_enabled(TRACEFAST_ENV)


def tracefast_aot_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the AOT sub-tier setting (effective only if a toolchain
    actually imports; ``repro.vm.aot`` gates on availability separately).
    ``REPRO_TRACEFAST_AOT=0`` forces the pure-Python tracefast path."""
    if explicit is not None:
        return bool(explicit)
    if TRACEFAST_AOT is not None:
        return bool(TRACEFAST_AOT)
    return _env_enabled(TRACEFAST_AOT_ENV)


def pgo_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the PGO master switch.

    ``REPRO_PGO=0`` is the tier-wide kill switch: every generated
    artefact reverts to its PR-7 shape byte for byte.  The resolved
    value participates in codecache keys and superblock fingerprints
    through the three sub-flags below, never on its own.
    """
    if explicit is not None:
        return bool(explicit)
    if PGO is not None:
        return bool(PGO)
    return _env_enabled(PGO_ENV)


def pgo_layout_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the effective profile-guided-layout setting.

    The master switch gates every sub-flag: ``REPRO_PGO=0`` disables
    layout even when ``REPRO_PGO_LAYOUT=1``.  Persisted artefacts shaped
    by this flag (blockjit/tracefast sources in the codecache) embed the
    resolved value in their keys/fingerprints, so a flip drops stale
    advice wholesale instead of replaying it.
    """
    if not pgo_enabled():
        return False
    if explicit is not None:
        return bool(explicit)
    if PGO_LAYOUT is not None:
        return bool(PGO_LAYOUT)
    return _env_enabled(PGO_LAYOUT_ENV)


def pgo_inline_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the effective dominant-path-inlining setting (master
    switch gates it; see :func:`pgo_layout_enabled` for the key/
    fingerprint contract)."""
    if not pgo_enabled():
        return False
    if explicit is not None:
        return bool(explicit)
    if PGO_INLINE is not None:
        return bool(PGO_INLINE)
    return _env_enabled(PGO_INLINE_ENV)


def pgo_probes_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the effective minimum-coverage-probes setting (master
    switch gates it).  Applies only to the dedicated one-shot
    edge-instrumentation mode — baseline one-time instrumentation and
    the sweep configurations are untouched, which is what keeps every
    sweep digest bit-identical under the flip."""
    if not pgo_enabled():
        return False
    if explicit is not None:
        return bool(explicit)
    if PGO_PROBES is not None:
        return bool(PGO_PROBES)
    return _env_enabled(PGO_PROBES_ENV)


def kblpp_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the k-iteration path-profiling setting.

    Effective recording further requires the tracefast/superblock tiers
    for the *promotion* half, but the flag itself only gates the shadow
    k-path table and the controller's k-path fallback.
    ``REPRO_KBLPP=0`` is the kill switch: the sampler stops chaining
    windows, the controller never consults the k-table, and persisted
    k-path traces are kept but not re-installed (as under
    ``REPRO_SUPERBLOCK=0``).  Digests are bit-identical either way —
    the k-table is a shadow structure that charges no virtual cycles.
    """
    if explicit is not None:
        return bool(explicit)
    if KBLPP is not None:
        return bool(KBLPP)
    return _env_enabled(KBLPP_ENV)


def kblpp_k(explicit: Optional[int] = None) -> int:
    """Resolve the effective window length ``k`` (clamped to sane bounds).

    Components that persist artefacts shaped by ``k`` (k-path trace
    fingerprints, codecache keys) must store this *resolved* value so a
    ``REPRO_KBLPP_K`` change drops stale k-traces instead of decoding a
    path number in the wrong path space.
    """
    value: Optional[int] = None
    if explicit is not None:
        value = int(explicit)
    elif KBLPP_K is not None:
        value = int(KBLPP_K)
    else:
        env = os.environ.get(KBLPP_K_ENV)
        if env is not None and env.strip():
            try:
                value = int(env.strip())
            except ValueError:
                value = None
    if value is None:
        value = KBLPP_K_DEFAULT
    return max(1, min(KBLPP_K_MAX, value))

