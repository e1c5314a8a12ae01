"""Deterministic pseudo-random number generation.

Every stochastic choice in the library (workload generation, adaptive-timer
jitter, random CFG construction) flows through :class:`DeterministicRng`, a
small, explicitly-seeded linear congruential generator.  We avoid the global
``random`` module so that two runs with the same seeds are bit-identical,
which the replay-compilation methodology (paper section 5) depends on.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, TypeVar

T = TypeVar("T")

# Knuth's MMIX LCG constants: full period over 2**64.
_MULTIPLIER = 6364136223846793005
_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1

#: Draws per jump-ahead block (:meth:`DeterministicRng.random_block`).
JUMP_BLOCK = 4096


@functools.lru_cache(maxsize=None)
def _jump_table() -> tuple:
    """The jump-ahead table: uint64 arrays ``(mul, add)`` such that the
    state ``j`` draws after state ``s`` is ``mul[j-1] * s + add[j-1]``
    (mod 2**64), for ``j`` = 1 .. JUMP_BLOCK.  Read-only once built."""
    import numpy as np

    mul = np.empty(JUMP_BLOCK, dtype=np.uint64)
    add = np.empty(JUMP_BLOCK, dtype=np.uint64)
    mul[0], add[0] = _MULTIPLIER, _INCREMENT
    done = 1
    while done < JUMP_BLOCK:
        # j + done draws = j draws after the first ``done``.
        n = min(done, JUMP_BLOCK - done)
        mul[done:done + n] = mul[:n] * mul[done - 1]
        add[done:done + n] = mul[:n] * add[done - 1] + add[:n]
        done += n
    return mul, add


#: Distinct texts :func:`stable_hash` remembers, least recently used
#: evicted first.  Its callers hash P-DAG fingerprints (the keys of the
#: shared path-resolver memos) and RNG stream names, and rehash the same
#: texts: one pass of a perfbench workload (seed 7) makes 62-114 calls
#: on 37-83 distinct texts, and a suite-replay pass hashes one text up
#: to 17 times.
STABLE_HASH_MEMO = 1024


@functools.lru_cache(maxsize=STABLE_HASH_MEMO)
def stable_hash(text: str) -> int:
    """Return a deterministic 64-bit hash of ``text``.

    ``hash()`` is salted per-process for strings, so it cannot be used to
    derive reproducible seeds.  This is FNV-1a, which is stable everywhere.
    The byte loop runs once per distinct text (see :data:`STABLE_HASH_MEMO`).
    """
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & _MASK64
    return value


class DeterministicRng:
    """A seeded 64-bit linear congruential generator.

    The generator is deliberately minimal: the library needs reproducibility
    and speed, not cryptographic quality.  The high 32 bits of the state are
    used as output, which passes the statistical needs of workload shaping.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int = 0) -> None:
        self._state = (seed * _MULTIPLIER + _INCREMENT) & _MASK64
        # Warm up so that small seeds diverge quickly.
        self.next_u32()
        self.next_u32()

    @classmethod
    def from_name(cls, name: str, salt: int = 0) -> "DeterministicRng":
        """Build an RNG whose stream depends only on ``name`` and ``salt``."""
        return cls(stable_hash(name) ^ (salt * 0x9E3779B97F4A7C15))

    def next_u32(self) -> int:
        """Advance the state and return 32 uniform bits."""
        self._state = (self._state * _MULTIPLIER + _INCREMENT) & _MASK64
        return self._state >> 32

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u32() % span

    def random(self) -> float:
        """Return a uniform float in [0, 1)."""
        return self.next_u32() / 4294967296.0

    def random_block(self, n: int):
        """Return the next ``n`` :meth:`random` draws as a NumPy array.

        The state does not move: :meth:`skip` commits however many of
        the draws the caller consumes.  Each element is bit-identical to
        the scalar draw — the uint64 jump-ahead wraps exactly like the
        masked integer update, and ``hi32 / 2**32`` is exact in float64.
        Requires NumPy and ``1 <= n <= JUMP_BLOCK``.
        """
        import numpy as np

        mul, add = _jump_table()
        states = mul[:n] * np.uint64(self._state)
        states += add[:n]
        states >>= np.uint64(32)
        return states / 4294967296.0

    def skip(self, n: int) -> None:
        """Advance the state as ``n`` calls to :meth:`next_u32` would."""
        # Compose the LCG step with itself by binary powering.
        mul, add = 1, 0
        step_mul, step_add = _MULTIPLIER, _INCREMENT
        while n:
            if n & 1:
                mul = (mul * step_mul) & _MASK64
                add = (add * step_mul + step_add) & _MASK64
            step_add = (step_add * (step_mul + 1)) & _MASK64
            step_mul = (step_mul * step_mul) & _MASK64
            n >>= 1
        self._state = (mul * self._state + add) & _MASK64

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        return self.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly chosen element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items) - 1)]

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place (Fisher-Yates)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def sample_weights(self, weights: Sequence[float]) -> int:
        """Return an index drawn proportionally to non-negative weights."""
        total = float(sum(weights))
        if total <= 0.0:
            raise ValueError("weights must sum to a positive value")
        point = self.random() * total
        acc = 0.0
        for index, weight in enumerate(weights):
            acc += weight
            if point < acc:
                return index
        return len(weights) - 1

    def split(self, salt: int) -> "DeterministicRng":
        """Derive an independent child generator."""
        child = DeterministicRng(self._state ^ (salt * 0xD1B54A32D192ED03))
        return child
