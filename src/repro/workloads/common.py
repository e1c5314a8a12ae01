"""Shared guest-code idioms for the synthetic benchmark suite.

Guest programs need *data-dependent* branches — a profiler exercised only
on counter-based conditions would see unrealistically regular paths.  The
idioms here generate pseudo-random guest data from in-guest LCGs, derive
biased conditions from it, and provide small reusable kernels (hashing,
clamping, table mixing) that give loop bodies realistic weight.

Everything here emits *guest* bytecode through the builder; nothing is
evaluated at build time except structure.
"""

from __future__ import annotations

from repro.bytecode.builder import FunctionBuilder, Value

LCG_MULT = 1103515245
LCG_INC = 12345
LCG_MASK = (1 << 31) - 1


def lcg_next(f: FunctionBuilder, state: Value) -> Value:
    """Advance a guest-side LCG in place; returns the new state value."""
    new = ((state * LCG_MULT) + LCG_INC) & LCG_MASK
    f.assign(state, new)
    return state


def lcg_byte(f: FunctionBuilder, state: Value) -> Value:
    """Advance the LCG and extract a well-mixed byte (0..255)."""
    lcg_next(f, state)
    return (state >> 16) & 255


def lcg_bits(f: FunctionBuilder, state: Value, bits: int) -> Value:
    """Advance the LCG and extract ``bits`` pseudo-random bits."""
    lcg_next(f, state)
    return (state >> (30 - bits)) & ((1 << bits) - 1)


def biased_flag(f: FunctionBuilder, state: Value, percent_true: int) -> Value:
    """A 0/1 guest value that is 1 roughly ``percent_true``% of the time."""
    byte = lcg_byte(f, state)
    threshold = (percent_true * 256) // 100
    return f.bool(byte < threshold)


def hash_step(f: FunctionBuilder, h: Value, x: Value) -> None:
    """One FNV-ish guest hashing step: h = ((h*31) ^ x) mod 2^20."""
    f.assign(h, ((h * 31) ^ x) & ((1 << 20) - 1))


def mix_kernel(f: FunctionBuilder, a: Value, b: Value, rounds: int = 3) -> None:
    """A chunky arithmetic kernel giving loop bodies realistic weight.

    Each round is ~6 guest operations; real loop bodies (compression
    inner loops, DSP filters) are tens of operations, and the PEP
    instrumentation-overhead numbers only make sense against bodies of
    that size (see DESIGN.md calibration notes).
    """
    for _ in range(rounds):
        f.assign(a, ((a * 5) + b) & 0xFFFF)
        f.assign(b, (b ^ (a >> 3)) & 0xFFFF)


def branchy_segment(
    f: FunctionBuilder,
    state: Value,
    acc: Value,
    biases=(80, 55, 92),
) -> None:
    """A run of independent, data-dependent, biased branches.

    Each entry in ``biases`` adds one branch whose taken-probability is
    that percentage, with distinct arithmetic on both arms — so a loop
    body containing one segment of k branches contributes up to 2^k
    distinct Ball-Larus paths with a skewed frequency distribution, the
    long-tail shape real programs exhibit and the Wall accuracy metric is
    sensitive to.
    """
    for index, bias in enumerate(biases):
        byte = lcg_byte(f, state)
        threshold = (bias * 256) // 100
        shift = (index % 3) + 1

        def hot(by=byte, sh=shift):
            f.assign(acc, (acc + (by << sh)) & 0xFFFFF)

        def cold(by=byte, sh=shift):
            f.assign(acc, (acc ^ (by * 13)) & 0xFFFFF)
            f.assign(acc, (acc + sh) & 0xFFFFF)

        f.if_(byte < threshold, hot, cold)
        f.assign(acc, (acc * 3 + 7) & 0xFFFFF)


def clamp(f: FunctionBuilder, x: Value, lo: int, hi: int) -> Value:
    """Guest-side clamp via min/max registers."""
    low = f.const(lo)
    high = f.const(hi)
    tmp = f.local(0)
    f.assign(tmp, x)
    f.if_(tmp < low, lambda: f.assign(tmp, low))
    f.if_(tmp > high, lambda: f.assign(tmp, high))
    return tmp
