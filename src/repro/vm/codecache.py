"""A shim for the benchmark: there is no compilation cache.

Every compile lowers afresh (DESIGN.md §8):
:func:`~repro.adaptive.optimizing.optimize_method` and
:func:`~repro.adaptive.baseline.compile_baseline` keep no cache, and a
:class:`~repro.vm.interpreter.CompiledMethod` lives only as long as the
image that holds it.

``perfbench/`` still calls :func:`active_cache` before each pass, to
clear the cache and read its hit counts, and skips both when it returns
None.  The shim goes with the benchmark's other shims.
"""

from __future__ import annotations


def active_cache() -> None:
    """Always None: there is no compilation cache to clear or count."""
    return None
