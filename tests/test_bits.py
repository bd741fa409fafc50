import copy
import pickle
import random
import struct
from fractions import Fraction
from itertools import islice
from typing import Iterator

import pytest

from sentprob.bits import (
    _GOLDEN,
    _MASK64,
    _SEED_INIT,
    EMPTY_BITS,
    Bits,
    child_draws,
    child_states,
    derive_seed,
    parent_state,
    random_bits,
    read_gamma,
)


def gamma_encode(v: int) -> Bits:
    """Elias gamma code of v >= 1: (bitlen-1) zeros, then v in binary. The
    pipeline only reads gamma codes, so the writer lives with the tests."""
    if v < 1:
        raise ValueError("gamma codes start at 1")
    return Bits(v, 2 * v.bit_length() - 1)


def test_bits_construction_rejects_bad_values():
    with pytest.raises(ValueError):
        Bits(-1, 4)
    with pytest.raises(ValueError):
        Bits(16, 4)
    with pytest.raises(ValueError):
        Bits(0, -1)
    assert Bits(15, 4).to_string() == "1111"


def test_bits_value_semantics():
    b = Bits(5, 3)
    assert b == Bits.from_string("101") and hash(b) == hash(Bits(5, 3))
    assert b != Bits(5, 4) and b != (5, 3)
    assert copy.copy(b) == pickle.loads(pickle.dumps(b)) == b
    assert repr(b) == "Bits(value=5, length=3)"


def test_bits_msb_first_indexing():
    b = Bits.from_string("1011")
    assert [b.bit(i) for i in range(4)] == [1, 0, 1, 1]
    with pytest.raises(IndexError):
        b.bit(4)
    with pytest.raises(IndexError):
        b.bit(-1)


def test_bits_round_trip_and_concat():
    for s in ("", "0", "1", "0001", "110010"):
        assert Bits.from_string(s).to_string() == s
    assert Bits.from_string("101").concat(Bits.from_string("01")).to_string() == "10101"
    assert EMPTY_BITS.concat(Bits.from_string("1")).to_string() == "1"
    with pytest.raises(ValueError):
        Bits.from_string("10x")


def test_starts_with():
    b = Bits.from_string("11010")
    assert b.starts_with(EMPTY_BITS)
    assert b.starts_with(Bits.from_string("110"))
    assert not b.starts_with(Bits.from_string("111"))
    assert not b.starts_with(Bits.from_string("110101"))


# Worked gamma codes: 1 -> 1, 2 -> 010, 3 -> 011, 12 -> 0001100.
def test_gamma_known_codes():
    assert gamma_encode(1).to_string() == "1"
    assert gamma_encode(2).to_string() == "010"
    assert gamma_encode(3).to_string() == "011"
    assert gamma_encode(12).to_string() == "0001100"
    with pytest.raises(ValueError):
        gamma_encode(0)


def test_gamma_round_trip():
    for v in list(range(1, 200)) + [2**10, 2**17 - 1, 2**17]:
        enc = gamma_encode(v)
        assert enc.length == 2 * v.bit_length() - 1
        assert read_gamma(enc.value, enc.length, 0) == (v, enc.length)
        # Trailing bits after the code change neither the value nor the end.
        padded = enc.concat(Bits.from_string("101"))
        assert read_gamma(padded.value, padded.length, 0) == (v, enc.length)


def test_gamma_concatenation_is_self_delimiting():
    stream = gamma_encode(5).concat(gamma_encode(1)).concat(gamma_encode(9))
    pos, values = 0, []
    for _ in range(3):
        v, pos = read_gamma(stream.value, stream.length, pos)
        values.append(v)
    assert values == [5, 1, 9]
    assert pos == stream.length


def test_read_gamma_truncated():
    for s in ("", "00", "001", "0001100"[:6]):
        b = Bits.from_string(s)
        assert read_gamma(b.value, b.length, 0) is None
    # A code that starts mid-string is cut by the end of the string alike.
    b = Bits.from_string("1" "0001")
    assert read_gamma(b.value, b.length, 1) is None
    assert read_gamma(b.value, b.length, b.length) is None


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(1, 2, 3)
    assert a == derive_seed(1, 2, 3)
    assert a != derive_seed(1, 2, 4)
    assert a != derive_seed(1, 3, 2)
    assert derive_seed(0) != derive_seed(1)
    assert 0 <= a < 2**64


def test_random_bits_deterministic():
    a = random_bits(42, 100)
    assert a == random_bits(42, 100)
    assert a != random_bits(43, 100)
    assert a.length == 100
    assert random_bits(42, 0) == EMPTY_BITS


def test_random_bits_prefix_consistency():
    # Same seed, shorter request: same leading bits.
    long = random_bits(7, 64)
    short = random_bits(7, 40)
    assert long.to_string()[:40] == short.to_string()


def test_random_bits_roughly_uniform():
    ones = sum(random_bits(seed, 64).to_string().count("1") for seed in range(200))
    frac = Fraction(ones, 200 * 64)
    assert Fraction(45, 100) < frac < Fraction(55, 100)


# Outputs of the generator, fixed: every sample, trajectory and pinned
# artifact depends on them, so a faster implementation must reproduce them
# exactly. Parts and seeds are taken mod 2**64.
DERIVED_SEEDS = {
    (0,): 0x443890440FEF12F0,
    (1,): 0x8CC8E3C0F8875A9D,
    (2**64,): 0x443890440FEF12F0,
    (2**64 + 1,): 0x8CC8E3C0F8875A9D,
    (2**64 - 1,): 0x6C271F6970202345,
    (2**64 - 1, 2**64): 0x66F4608BCFEE0C46,
    (20260817, 5, 3): 0x8EA02669B51FEBE0,
    (20260817, 2**64 + 5, 3): 0x8EA02669B51FEBE0,
}

RANDOM_BITS_42 = {
    0: 0x0,
    1: 0x1,
    63: 0x5EEB991317F5B74A,
    64: 0xBDD732262FEB6E95,
    65: 0x17BAE644C5FD6DD2A,
    384: int(
        "bdd732262feb6e9528efe333b266f10347526757130f9f52"
        "581ce1ff0e4ae39409bc585a244823f2de4431fa3c80db06",
        16,
    ),
    512: int(
        "bdd732262feb6e9528efe333b266f10347526757130f9f52"
        "581ce1ff0e4ae39409bc585a244823f2de4431fa3c80db06"
        "37e9671c45376d5dccf635ee9e9e2fa4",
        16,
    ),
}


def test_derive_seed_pinned():
    for parts, seed in DERIVED_SEEDS.items():
        assert derive_seed(*parts) == seed, parts


def test_random_bits_pinned():
    for length, value in RANDOM_BITS_42.items():
        for seed in (42, 2**64 + 42, 2**70 + 42):
            assert random_bits(seed, length) == Bits(value, length), (seed, length)
    assert random_bits(2**64, 64).value == 0xE220A8397B1DCDAF
    assert random_bits(2**64 - 1, 65).value == 0x1C9B2E2EE36CA5841


def test_random_bits_rejects_negative_length():
    with pytest.raises(ValueError, match="negative length"):
        random_bits(5, -1)


def child_seeds(parent: int, count: int) -> Iterator[int]:
    """Scalar oracle for bits.child_draws: yield derive_seed(parent, j) for
    j in range(count), each when it is read, with the parent's mixing step
    run once and each child's two splitmix steps inlined."""
    z = state = ((_SEED_INIT ^ (parent & _MASK64)) + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    h = state ^ z ^ (z >> 31)
    yield from map(lane_seed, (h ^ j for j in range(count)))


def lane_seed(lane: int) -> int:
    """The child seed of one lane, parent_state(parent) ^ j, computed as
    derive_seed's last two splitmix steps on one 64-bit value."""
    # derive_seed's mixing step for part j ...
    z = state = (lane + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    # ... then its final step, on state ^ out.
    z = ((state ^ z ^ (z >> 31)) + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def leading_word(seed: int) -> int:
    """Scalar oracle: the first splitmix64 word that follows seed;
    random_bits(seed, length) begins with its top min(length, 64) bits."""
    z = (seed + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def test_child_seeds_match_derive_seed():
    for parent in (0, 7, 20260817, 2**64 - 1, 2**64 + 3):
        for count in (0, 1, 384):
            assert list(child_seeds(parent, count)) == [derive_seed(parent, j) for j in range(count)]


def test_child_seeds_are_lazy():
    # Reading part of the iterator yields the derive_seed prefix, and the
    # rest is still there to read: a sampler that stops early derives only
    # the seeds it takes.
    seeds = child_seeds(20260817, 64)
    assert iter(seeds) is seeds
    head = list(islice(seeds, 5))
    assert head == [derive_seed(20260817, j) for j in range(5)]
    assert next(seeds) == derive_seed(20260817, 5)
    assert len(list(seeds)) == 64 - 6
    assert next(child_seeds(7, 2**40)) == derive_seed(7, 0)


LANE_COUNTS = (0, 1, 2, 63, 64, 65, 384, 1000)


def test_leading_word_is_the_first_word_of_every_string():
    for seed in (0, 42, 2**64 - 1, 20260817):
        word = leading_word(seed)
        assert random_bits(seed, 64).value == word
        assert random_bits(seed, 13).value == word >> 51
        assert random_bits(seed, 200).value >> 136 == word


def test_child_draws_match_scalar_seeds_and_words():
    # Every lane count around the 64-lane mark and past the extension
    # sampler's 1,000 samples, at the extreme parents and random ones.
    rng = random.Random(22)
    parents = [0, 2**64 - 1, 20260817] + [rng.getrandbits(64) for _ in range(3)]
    for parent in parents:
        state = parent_state(parent)
        for count in LANE_COUNTS:
            lanes = [state ^ j for j in range(count)]
            seeds = list(child_seeds(parent, count))
            words = [leading_word(s) for s in seeds]
            assert child_draws(lanes, True) == (words, seeds), (parent, count)
            assert child_draws(lanes, False) == (words,), (parent, count)
            assert child_states(parent, count) == [parent_state(s) for s in seeds]
    assert seeds == [derive_seed(parent, j) for j in range(1000)]


def test_child_draws_keep_carries_in_their_lane():
    # A lane whose value plus the golden increment carries past bit 63,
    # beside lanes that do not and lanes at the extremes: a carry, or a bit
    # shifted across a lane boundary, must not reach a neighbour.
    near = [2**64 - 1, 2**64 - _GOLDEN, 2**64 - _GOLDEN - 1, 0, 1, 2**63, _GOLDEN]
    rng = random.Random(7)
    for count in LANE_COUNTS:
        lanes = [rng.choice(near) ^ rng.getrandbits(3) for _ in range(count)]
        seeds = [lane_seed(x) for x in lanes]
        assert child_draws(lanes, True) == ([leading_word(s) for s in seeds], seeds), count
    assert sum((x + _GOLDEN) >> 64 for x in lanes) > 300
    # Alternating carry and no carry, lane by lane.
    lanes = [2**64 - 1 if j % 2 else 0 for j in range(65)]
    assert child_draws(lanes, True)[1] == [lane_seed(x) for x in lanes]
    # A lane past 64 bits would spill into its neighbour; it is refused.
    with pytest.raises(struct.error):
        child_draws([2**64], False)


# Words and seeds of a parent's first children, fixed like DERIVED_SEEDS.
CHILD_DRAWS_20260817 = (
    [0x0C8694AE8E0CCCDB, 0x929262A6DEDC7474, 0xE75D7506FE4693A4],
    [0xD2A15AA5AA956709, 0x1A2D3B236F34BC19, 0x48CC899990EC26E8],
)


def test_child_draws_pinned():
    lanes = [parent_state(20260817) ^ j for j in range(3)]
    assert child_draws(lanes, True) == CHILD_DRAWS_20260817
    assert child_states(20260817, 2) == [0x76A14AAB0D85798D, 0xFF5B7CE3D096E7B0]
