"""Tests for the deterministic RNG."""

import random
import string

import pytest
from hypothesis import given, strategies as st

try:
    import numpy
except ImportError:  # random_block is skipped without NumPy
    numpy = None

from repro.util.rng import JUMP_BLOCK, DeterministicRng, stable_hash


def fnv1a(text: str) -> int:
    """The byte-wise FNV-1a loop, written out independently."""
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & ((1 << 64) - 1)
    return value


def test_same_seed_same_stream():
    a = DeterministicRng(42)
    b = DeterministicRng(42)
    assert [a.next_u32() for _ in range(50)] == [b.next_u32() for _ in range(50)]


def test_different_seeds_diverge():
    a = DeterministicRng(1)
    b = DeterministicRng(2)
    assert [a.next_u32() for _ in range(8)] != [b.next_u32() for _ in range(8)]


def test_from_name_is_stable():
    assert (
        DeterministicRng.from_name("compress").next_u32()
        == DeterministicRng.from_name("compress").next_u32()
    )
    assert (
        DeterministicRng.from_name("compress").next_u32()
        != DeterministicRng.from_name("jess").next_u32()
    )


def test_stable_hash_known_value():
    # FNV-1a of the empty string is the offset basis.
    assert stable_hash("") == 0xCBF29CE484222325
    assert stable_hash("a") != stable_hash("b")


def test_stable_hash_memo_matches_fnv1a():
    draw = random.Random(5)
    alphabets = (
        string.printable,
        "aé€𝄞\x00\x1f|ÿ",  # 1- to 4-byte UTF-8, separators, NUL
    )
    texts = [
        "".join(draw.choice(alphabet) for _ in range(draw.randint(0, 40)))
        for alphabet in alphabets
        for _ in range(1024)
    ]
    for _ in range(2):
        for text in texts:
            assert stable_hash(text) == fnv1a(text)
    # Repeated calls on one long text agree.
    hot = "\x1f".join(texts[:50])
    assert {stable_hash(hot) for _ in range(5)} == {fnv1a(hot)}


@given(st.integers(min_value=-100, max_value=100), st.integers(min_value=0, max_value=200))
def test_randint_in_range(low, span):
    rng = DeterministicRng(7)
    high = low + span
    for _ in range(20):
        value = rng.randint(low, high)
        assert low <= value <= high


def test_randint_empty_range_raises():
    with pytest.raises(ValueError):
        DeterministicRng(0).randint(5, 4)


def test_random_in_unit_interval():
    rng = DeterministicRng(3)
    for _ in range(100):
        x = rng.random()
        assert 0.0 <= x < 1.0


def test_choice_and_empty_choice():
    rng = DeterministicRng(9)
    items = ["x", "y", "z"]
    for _ in range(20):
        assert rng.choice(items) in items
    with pytest.raises(ValueError):
        rng.choice([])


def test_shuffle_is_permutation():
    rng = DeterministicRng(11)
    items = list(range(30))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items


def test_sample_weights_respects_zero_weight():
    rng = DeterministicRng(13)
    for _ in range(50):
        assert rng.sample_weights([0.0, 1.0, 0.0]) == 1


def test_sample_weights_requires_positive_total():
    with pytest.raises(ValueError):
        DeterministicRng(1).sample_weights([0.0, 0.0])


def test_sample_weights_distribution_roughly_proportional():
    rng = DeterministicRng(17)
    counts = [0, 0]
    for _ in range(2000):
        counts[rng.sample_weights([1.0, 3.0])] += 1
    assert counts[1] > counts[0] * 2  # expect ~3x


def test_split_streams_are_independent():
    parent = DeterministicRng(5)
    child_a = parent.split(1)
    child_b = parent.split(2)
    assert [child_a.next_u32() for _ in range(5)] != [
        child_b.next_u32() for _ in range(5)
    ]


def test_chance_extremes():
    rng = DeterministicRng(23)
    assert not any(rng.chance(0.0) for _ in range(50))
    assert all(rng.chance(1.0) for _ in range(50))


@pytest.mark.skipif(numpy is None, reason="random_block needs NumPy")
@pytest.mark.parametrize("n", [1, 2, 17, JUMP_BLOCK])
def test_random_block_equals_scalar_draws(n):
    for seed in (0, 7, 2**63 + 5):
        block_rng = DeterministicRng(seed)
        scalar_rng = DeterministicRng(seed)
        block = block_rng.random_block(n)
        assert block.tolist() == [scalar_rng.random() for _ in range(n)]
        # The block only peeks; skip() commits the consumed draws.
        block_rng.skip(n)
        assert block_rng.next_u32() == scalar_rng.next_u32()


@pytest.mark.parametrize("n", [0, 1, 5, JUMP_BLOCK - 1, JUMP_BLOCK, 3 * JUMP_BLOCK + 2])
def test_skip_equals_repeated_draws(n):
    jumped = DeterministicRng(42)
    stepped = DeterministicRng(42)
    jumped.skip(n)
    for _ in range(n):
        stepped.next_u32()
    assert jumped.next_u32() == stepped.next_u32()
