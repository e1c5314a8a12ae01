"""Process-wide feature flags resolved from the environment.

One knob lives here: minimum-coverage probe placement
(``REPRO_PGO_PROBES``, DESIGN.md §14).  An explicit argument wins, then
the module flag (tests may pin it), then the environment variable, then
the built-in default (*on*).

The flag is not a pure wall-clock toggle: probe placement deliberately
lowers the one-shot edges mode's charges.
"""

from __future__ import annotations

import os
from typing import Optional

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
