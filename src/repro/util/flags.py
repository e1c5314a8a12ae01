"""Process-wide feature flags resolved from the environment.

Two knobs live here: superblock traces (``REPRO_SUPERBLOCK``,
DESIGN.md §11) and minimum-coverage probe placement
(``REPRO_PGO_PROBES``, §14).  Every flag resolves the same way: an
explicit argument wins, then the module flag (tests may pin it), then
the environment variable, then the built-in default (*on* for every
boolean switch).

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
