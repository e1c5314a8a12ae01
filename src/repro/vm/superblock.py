"""Benchmark shims left by the retired superblock trace tier.

Every method runs on its region blockjit code; path-guided traces are
retired (DESIGN.md §11).  The benchmark in ``perfbench/`` still imports
:func:`is_kpath` and wraps :func:`install_superblock` in its span
tracer, so both stay until ROADMAP item 2's benchmark change deletes
them, together with ``AdaptiveSystem.superblock_log`` and
``warmjit_log``.
"""

from __future__ import annotations

from typing import Optional


def is_kpath(path_number: Optional[int]) -> bool:
    """Always False: no trace, k-iteration or otherwise, is ever formed."""
    return False


def install_superblock(cm, path_number: int) -> bool:
    """Installs nothing and returns False: no trace is ever formed."""
    return False
