"""Bimodal alternating-arm loop workloads (DESIGN.md §11).

Each builder centres on a *pulse* kernel: a short loop that strictly
alternates between two arms, so its 1-path samples split ~evenly across
the two iteration paths (diluted further by the prologue path).  The
kernels were added for k-iteration path profiling, which stitched two
iterations into one trace; that tier and every other trace tier are
retired, so, like every method, the kernels run on region blockjit.
They stay because every figure and every benchmark workload runs the
full seventeen-workload suite.

The kernels alternate *deterministically* (parity or a flipped toggle);
LCG-derived guest data feeds the arms' arithmetic but never the branch.
Driver structure and calibration follow :mod:`repro.workloads.specjvm`
(chunked workers, ``_per_chunk``).
"""

from __future__ import annotations

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.method import Program
from repro.workloads.common import hash_step, lcg_bits
from repro.workloads.specjvm import CHUNKS, _per_chunk


def build_zigzag(scale: float = 1.0) -> Program:
    """Parity-alternating accumulate/scramble kernel."""
    pb = ProgramBuilder("zigzag")

    pulse = pb.function("zig_pulse", ["seed"])
    seed = pulse.p("seed")
    acc = pulse.local(0)

    def body(i):
        def even():
            pulse.assign(acc, (acc + seed) & 0xFFFFF)
            pulse.assign(acc, (acc * 33 + i) & 0xFFFFF)
            pulse.assign(acc, (acc ^ (acc >> 7)) & 0xFFFFF)
            pulse.assign(acc, (acc + (seed & 255)) & 0xFFFFF)
            pulse.assign(acc, (acc * 5 + 3) & 0xFFFFF)
            pulse.assign(acc, (acc ^ (seed << 1)) & 0xFFFFF)

        def odd():
            pulse.assign(acc, (acc ^ (seed * 13)) & 0xFFFFF)
            pulse.assign(acc, (acc + (i << 2)) & 0xFFFFF)
            pulse.assign(acc, (acc * 17 + 9) & 0xFFFFF)
            pulse.assign(acc, (acc ^ (acc >> 5)) & 0xFFFFF)
            pulse.assign(acc, (acc + (seed >> 4)) & 0xFFFFF)
            pulse.assign(acc, (acc * 3 + 1) & 0xFFFFF)

        pulse.if_((i % 2).eq(0), even, odd)

    pulse.for_range(0, 4, 1, body)
    pulse.ret(acc)

    w = pb.function("zigzag_chunk", ["g"])
    g = w.p("g")
    state = w.load(g, 0)
    total = w.load(g, 1)

    def per_item(_j):
        s = lcg_bits(w, state, 16)
        w.assign(total, (total + w.call("zig_pulse", s)) & 0xFFFFF)
        hash_step(w, total, s)
        # Rare checksum fold — biased driver branch, outside the kernel.
        w.if_((s & 15).eq(0), lambda: hash_step(w, total, 97))

    w.for_range(0, _per_chunk(620, scale), 1, per_item)
    w.store(g, 0, state)
    w.store(g, 1, total)
    w.ret()

    f = pb.function("main")
    g_main = f.array(f.const(2))
    f.store(g_main, 0, 9191)
    f.for_range(0, CHUNKS, 1, lambda _b: f.call_void("zigzag_chunk", g_main))
    result = f.load(g_main, 1)
    f.emit(result)
    f.ret(result)
    return pb.build()


def build_seesaw(scale: float = 1.0) -> Program:
    """Toggle-flipped load/settle kernel (state alternation, not parity)."""
    pb = ProgramBuilder("seesaw")

    pulse = pb.function("saw_pulse", ["seed"])
    seed = pulse.p("seed")
    acc = pulse.local(0)
    tilt = pulse.local(0)

    def body(i):
        def load_side():
            pulse.assign(acc, (acc + (seed << 1)) & 0xFFFFF)
            pulse.assign(acc, (acc * 21 + i) & 0xFFFFF)
            pulse.assign(acc, (acc ^ (seed >> 3)) & 0xFFFFF)
            pulse.assign(acc, (acc + 77) & 0xFFFFF)
            pulse.assign(acc, (acc * 9 + (seed & 63)) & 0xFFFFF)

        def settle_side():
            pulse.assign(acc, (acc ^ (acc >> 9)) & 0xFFFFF)
            pulse.assign(acc, (acc + (i * 3)) & 0xFFFFF)
            pulse.assign(acc, (acc * 7 + 5) & 0xFFFFF)
            pulse.assign(acc, (acc ^ (seed * 29)) & 0xFFFFF)
            pulse.assign(acc, (acc + (seed & 31)) & 0xFFFFF)

        pulse.if_(tilt.eq(0), load_side, settle_side)
        pulse.assign(tilt, 1 - tilt)

    pulse.for_range(0, 6, 1, body)
    pulse.ret(acc)

    w = pb.function("seesaw_chunk", ["g"])
    g = w.p("g")
    state = w.load(g, 0)
    total = w.load(g, 1)

    def per_item(_j):
        s = lcg_bits(w, state, 16)
        w.assign(total, (total + w.call("saw_pulse", s)) & 0xFFFFF)
        hash_step(w, total, s)
        # Rare checksum fold — biased driver branch, outside the kernel.
        w.if_((s & 15).eq(0), lambda: hash_step(w, total, 89))

    w.for_range(0, _per_chunk(460, scale), 1, per_item)
    w.store(g, 0, state)
    w.store(g, 1, total)
    w.ret()

    f = pb.function("main")
    g_main = f.array(f.const(2))
    f.store(g_main, 0, 2468)
    f.for_range(0, CHUNKS, 1, lambda _b: f.call_void("seesaw_chunk", g_main))
    result = f.load(g_main, 1)
    f.emit(result)
    f.ret(result)
    return pb.build()


def build_pingpong(scale: float = 1.0) -> Program:
    """Parity-alternating produce/consume kernel with asymmetric arms."""
    pb = ProgramBuilder("pingpong")

    pulse = pb.function("rally", ["seed"])
    seed = pulse.p("seed")
    acc = pulse.local(0)

    def body(i):
        def produce():
            pulse.assign(acc, (acc + (seed * 11)) & 0xFFFFF)
            pulse.assign(acc, (acc ^ (i << 3)) & 0xFFFFF)
            pulse.assign(acc, (acc * 13 + 2) & 0xFFFFF)
            pulse.assign(acc, (acc + (seed >> 2)) & 0xFFFFF)

        def consume():
            pulse.assign(acc, (acc - (acc >> 4)) & 0xFFFFF)
            pulse.assign(acc, (acc ^ (seed + i)) & 0xFFFFF)
            pulse.assign(acc, (acc * 25 + 7) & 0xFFFFF)
            pulse.assign(acc, (acc + (seed & 127)) & 0xFFFFF)
            pulse.assign(acc, (acc ^ (acc >> 11)) & 0xFFFFF)
            pulse.assign(acc, (acc + 13) & 0xFFFFF)

        pulse.if_((i % 2).eq(0), produce, consume)

    pulse.for_range(0, 4, 1, body)
    pulse.ret(acc)

    w = pb.function("pingpong_chunk", ["g"])
    g = w.p("g")
    state = w.load(g, 0)
    total = w.load(g, 1)

    def per_item(_j):
        s = lcg_bits(w, state, 16)
        w.assign(total, (total + w.call("rally", s)) & 0xFFFFF)
        hash_step(w, total, s)
        # Rare checksum fold — biased driver branch, outside the kernel.
        w.if_((s & 15).eq(0), lambda: hash_step(w, total, 83))

    w.for_range(0, _per_chunk(560, scale), 1, per_item)
    w.store(g, 0, state)
    w.store(g, 1, total)
    w.ret()

    f = pb.function("main")
    g_main = f.array(f.const(2))
    f.store(g_main, 0, 7777)
    f.for_range(0, CHUNKS, 1, lambda _b: f.call_void("pingpong_chunk", g_main))
    result = f.load(g_main, 1)
    f.emit(result)
    f.ret(result)
    return pb.build()
