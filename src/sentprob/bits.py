"""Bit strings, Elias gamma codes, and seeded bit streams.

Bit strings are MSB-first: bit 0 is the leftmost bit. All randomness in the
package flows through ``derive_seed`` / ``random_bits`` so that runs are
reproducible across platforms and Python versions.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Bits:
    """An immutable bit string stored as (integer value, bit length)."""

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("negative length")
        if self.value < 0 or self.value >> self.length:
            raise ValueError("value does not fit in length")

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> (self.length - 1 - i)) & 1

    def concat(self, other: "Bits") -> "Bits":
        return Bits((self.value << other.length) | other.value, self.length + other.length)

    def starts_with(self, prefix: "Bits") -> bool:
        if prefix.length > self.length:
            return False
        return (self.value >> (self.length - prefix.length)) == prefix.value

    def to_string(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    @classmethod
    def from_string(cls, s: str) -> "Bits":
        if s and set(s) - {"0", "1"}:
            raise ValueError(f"not a bit string: {s!r}")
        return cls(int(s, 2) if s else 0, len(s))


EMPTY_BITS = Bits(0, 0)


def gamma_encode(v: int) -> Bits:
    """Elias gamma code of v >= 1: (bitlen-1) zeros, then v in binary."""
    if v < 1:
        raise ValueError("gamma codes start at 1")
    width = v.bit_length()
    return Bits(v, 2 * width - 1)


def read_gamma(value: int, length: int, pos: int) -> tuple[int, int] | None:
    """Read the gamma code that starts at bit pos of the length-bit string
    value. Returns (v, end), end being the position just past the code, or
    None when the string ends inside the code."""
    rest = length - pos
    tail = value & ((1 << rest) - 1)
    zeros = rest - tail.bit_length()
    end = pos + 2 * zeros + 1
    if end > length:
        return None
    return tail >> (length - end), end


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Mix integers into a 64-bit seed; the splittable scheme used everywhere."""
    h = 0x1D8E4E27C47D124F
    for p in parts:
        h, out = _splitmix64(h ^ (p & _MASK64))
        h ^= out
    _, out = _splitmix64(h)
    return out


def random_bits(seed: int, length: int) -> Bits:
    """Deterministic uniform bit string of the given length."""
    v = 0
    filled = 0
    state = seed & _MASK64
    while filled < length:
        state, word = _splitmix64(state)
        v = (v << 64) | word
        filled += 64
    if filled > length:
        v >>= filled - length
    return Bits(v & ((1 << length) - 1), length)
