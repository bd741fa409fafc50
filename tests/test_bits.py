from fractions import Fraction

import pytest

from sentprob.bits import (
    EMPTY_BITS,
    Bits,
    derive_seed,
    gamma_encode,
    random_bits,
    read_gamma,
)


def test_bits_construction_rejects_bad_values():
    with pytest.raises(ValueError):
        Bits(-1, 4)
    with pytest.raises(ValueError):
        Bits(16, 4)
    with pytest.raises(ValueError):
        Bits(0, -1)
    assert Bits(15, 4).to_string() == "1111"


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
