"""Process-wide feature flags resolved from the environment.

Four knobs live here: superblock traces (``REPRO_SUPERBLOCK``,
DESIGN.md §11), minimum-coverage probe placement
(``REPRO_PGO_PROBES``, §14), and k-iteration path profiling with its
window length (``REPRO_KBLPP``, ``REPRO_KBLPP_K``, §16).  Every flag
resolves the same way: an explicit argument wins, then the module flag
(tests may pin it), then the environment variable, then the built-in
default (*on* for every boolean switch).

Setting a boolean switch to ``0`` is a kill switch that moves wall
clock only: profiles, virtual cycles and fault-injection sequences stay
bit-identical.  The one exception is probe placement
(``REPRO_PGO_PROBES``), which deliberately lowers the one-shot edges
mode's charges.
"""

from __future__ import annotations

import os
from typing import Optional

SUPERBLOCK_ENV = "REPRO_SUPERBLOCK"

#: Module override for path-guided superblock formation (DESIGN.md §11).
SUPERBLOCK: Optional[bool] = None

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


def pgo_probes_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the effective minimum-coverage-probes setting.  Applies
    only to the dedicated one-shot edge-instrumentation mode — baseline
    one-time instrumentation and the sweep configurations are
    untouched, which is what keeps every sweep digest bit-identical
    under the flip."""
    if explicit is not None:
        return bool(explicit)
    if PGO_PROBES is not None:
        return bool(PGO_PROBES)
    return _env_enabled(PGO_PROBES_ENV)


def kblpp_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the k-iteration path-profiling setting.

    Effective recording further requires superblock formation for the
    *promotion* half, but the flag itself only gates the shadow k-path
    table and the controller's k-path fallback.
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

