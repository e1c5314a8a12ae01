"""The named benchmark suite (paper section 5).

SPEC JVM98 (compress, jess, db, javac, mpegaudio, mtrt, jack), a
fixed-workload SPEC JBB2000 (pseudojbb), the DaCapo benchmarks that ran
on Jikes RVM (antlr, bloat, fop, pmd, ps, xalan; hsqldb omitted as in
the paper), and three bimodal alternating-arm kernels (zigzag, seesaw,
pingpong) whose loops strictly alternate two arms (DESIGN.md §11).

``ticks_target`` scales each benchmark's virtual timer so a run receives
a paper-proportional number of ticks: the paper's runs last ~4-30 s at
one tick per 20 ms (200-1500 ticks); jack is the short one.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from repro.bytecode.method import Program
from repro.errors import WorkloadError
from repro.workloads import bimodal, dacapo, specjvm


class Workload:
    """A named benchmark: builder plus methodology parameters."""

    __slots__ = ("name", "builder", "ticks_target", "group")

    def __init__(
        self,
        name: str,
        builder: Callable[[float], Program],
        ticks_target: int,
        group: str,
    ) -> None:
        self.name = name
        self.builder = builder
        self.ticks_target = ticks_target
        self.group = group

    def build(self, scale: float = 1.0) -> Program:
        # NaN fails every comparison and infinity is positive, so both
        # need the explicit finiteness check.
        if not (math.isfinite(scale) and scale > 0):
            raise WorkloadError(
                f"{self.name}: scale must be a positive finite number, "
                f"got {scale!r}"
            )
        return self.builder(scale)

    def __repr__(self) -> str:
        return f"<Workload {self.name} ({self.group})>"


_SUITE: List[Workload] = [
    Workload("compress", specjvm.build_compress, 100, "specjvm98"),
    Workload("jess", specjvm.build_jess, 85, "specjvm98"),
    Workload("db", specjvm.build_db, 95, "specjvm98"),
    Workload("javac", specjvm.build_javac, 90, "specjvm98"),
    Workload("mpegaudio", specjvm.build_mpegaudio, 95, "specjvm98"),
    Workload("mtrt", specjvm.build_mtrt, 85, "specjvm98"),
    Workload("jack", specjvm.build_jack, 45, "specjvm98"),
    Workload("pseudojbb", specjvm.build_pseudojbb, 115, "specjbb"),
    Workload("antlr", dacapo.build_antlr, 70, "dacapo"),
    Workload("bloat", dacapo.build_bloat, 90, "dacapo"),
    Workload("fop", dacapo.build_fop, 70, "dacapo"),
    Workload("pmd", dacapo.build_pmd, 75, "dacapo"),
    Workload("ps", dacapo.build_ps, 90, "dacapo"),
    Workload("xalan", dacapo.build_xalan, 90, "dacapo"),
    # Bimodal alternating-arm kernels (DESIGN.md §11).
    Workload("zigzag", bimodal.build_zigzag, 70, "bimodal"),
    Workload("seesaw", bimodal.build_seesaw, 70, "bimodal"),
    Workload("pingpong", bimodal.build_pingpong, 70, "bimodal"),
]

_BY_NAME: Dict[str, Workload] = {w.name: w for w in _SUITE}


def benchmark_suite() -> List[Workload]:
    """All seventeen workloads, in the paper's grouping order."""
    return list(_SUITE)


def get_workload(name: str) -> Workload:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {sorted(_BY_NAME)}"
        ) from None
