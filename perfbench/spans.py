"""Span tracing around the system's public layer functions.

A :class:`Tracer` replaces each target function with a wrapper that
times the call and charges its duration to the enclosing wrapped call,
so a layer's *self time* is its span minus the spans of wrapped
children.  Spans are aggregated in memory per layer (calls, total,
child time, truthy returns); a run with millions of yieldpoint calls
would not fit one record per span.

Module-level functions are patched under every name a caller holds:
``from repro.adaptive.optimizing import optimize_method`` in the
controller binds a second reference, so each ``repro.*`` module
attribute that *is* the original function gets the wrapper.  Methods
are patched on their class.  :meth:`Tracer.restore` puts every
original object back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Dict, List, Tuple

#: (layer, module, function) — module-level functions.
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("optimizing.compile", "repro.adaptive.optimizing", "optimize_method"),
    ("baseline.compile", "repro.adaptive.baseline", "compile_baseline"),
    ("superblock.install", "repro.vm.superblock", "install_superblock"),
    ("blockjit.ensure_jit", "repro.vm.blockjit", "ensure_jit"),
    ("replay.record_advice", "repro.adaptive.replay", "record_advice"),
    ("replay.compile", "repro.adaptive.replay", "replay_compile"),
    ("replay.iter2", "repro.harness.experiment", "run_config"),
    ("accuracy.perfect", "repro.harness.accuracy", "collect_perfect_profiles"),
    ("accuracy.path_score", "repro.metrics.wall", "path_profile_accuracy"),
    ("accuracy.edge_score", "repro.metrics.overlap", "relative_overlap"),
)

#: (layer, module, class, method) — methods patched on their class.
METHOD_SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("runtime.exec", "repro.vm.runtime", "VirtualMachine", "run"),
    ("runtime.tick", "repro.vm.runtime", "VirtualMachine", "on_tick"),
    ("runtime.yieldpoint", "repro.vm.runtime", "VirtualMachine",
     "dispatch_yieldpoint"),
    ("sampler.yieldpoint", "repro.sampling.arnold_grove",
     "ArnoldGroveSampler", "on_yieldpoint"),
    ("sampler.tick", "repro.sampling.arnold_grove",
     "ArnoldGroveSampler", "on_tick"),
    ("sampler.flush", "repro.sampling.arnold_grove",
     "ArnoldGroveSampler", "flush"),
    ("resolver.branch_events", "repro.profiling.regenerate",
     "PathResolver", "branch_events"),
    ("controller", "repro.adaptive.controller", "AdaptiveSystem",
     "on_method_sample"),
)

LAYERS = tuple(s[0] for s in FUNCTION_SPANS) + tuple(s[0] for s in METHOD_SPANS)


def _program_modules() -> list:
    """The program's loaded modules: ``repro`` and its submodules."""
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class LayerStats:
    """Aggregated spans of one layer."""

    __slots__ = ("calls", "total_s", "child_s", "truthy")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0
        # Calls that returned exactly True (install_superblock: installed).
        self.truthy = 0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Installs span wrappers; aggregates per-layer statistics."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {name: LayerStats() for name in LAYERS}
        # Child-time accumulators of the wrapped calls in flight.
        self._stack: List[List[float]] = []
        # (owner, attribute, original object) for restore().
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        stats = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.child_s += children[0]
                if stack:
                    stack[-1][0] += duration
            if result is True:
                stats.truthy += 1
            return result

        return span

    def install(self) -> None:
        """Wrap every target; the program must already be imported."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, module_name, attr in FUNCTION_SPANS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(layer, original)
            for module in _program_modules():
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for layer, module_name, cls_name, attr in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(layer, original))

    def restore(self) -> None:
        """Put every original function and method back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        for stats in self.stats.values():
            stats.__init__()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def installed_wrappers() -> List[str]:
    """Targets that are currently *not* their original objects.

    Every wrapper keeps its original in ``__wrapped__``; an empty list
    means no span wrapper is left anywhere a caller could reach it.
    """
    left = []
    for _layer, _module_name, attr in FUNCTION_SPANS:
        for module in _program_modules():
            if hasattr(getattr(module, attr, None), "__wrapped__"):
                left.append(f"{module.__name__}.{attr}")
    for _layer, module_name, cls_name, attr in METHOD_SPANS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        if hasattr(cls.__dict__[attr], "__wrapped__"):
            left.append(f"{module_name}.{cls_name}.{attr}")
    return left
