"""Bit strings, Elias gamma codes, and seeded bit streams.

Bit strings are MSB-first: bit 0 is the leftmost bit. All randomness in the
package flows through ``derive_seed`` / ``random_bits`` so that runs are
reproducible across platforms and Python versions. Samplers derive many
children of a parent at once: ``derive_seed(parent, j)`` mixes j into
``parent_state(parent)``, and ``child_draws`` takes one lane
``parent_state(parent) ^ j`` per child and returns every child's leading
word, and on request its seed, from one splitmix64 pass over all lanes.
The leading word is the first splitmix64 word of ``random_bits(seed,
length)``, whose top bits are the string's leading bits at every length, so
a caller can read those bits without the seed: at length <= 64 the string
is ``word >> (64 - length)``, and a longer one begins with all 64.
"""

from __future__ import annotations

import sys
from struct import pack
from typing import Sequence


class SlottedRecord:
    """Base of the immutable records that hot loops read by attribute; every
    other record is a NamedTuple. CPython 3.11 specializes reads of a slot
    but not of a NamedTuple field, which cost about twice as much. A
    subclass lists its fields in ``__slots__``, in constructor order, and
    fills them through ``object.__setattr__`` or the slot descriptors; it
    compares, hashes, prints and pickles by them, as a NamedTuple would, but
    equals only its own class."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, *_) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({parts})"


class Bits(SlottedRecord):
    """An immutable bit string stored as (integer value, bit length)."""

    __slots__ = ("value", "length")
    value: int
    length: int

    def __init__(self, value: int, length: int) -> None:
        if length < 0:
            raise ValueError("negative length")
        if value < 0 or value >> length:
            raise ValueError("value does not fit in length")
        _set_value(self, value)
        _set_length(self, length)

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


# The constructor and random_bits fill a Bits' slots through their
# descriptors; random_bits also skips the constructor's range check for a
# value it has just cut to length.
_new_bits = object.__new__
_set_value = Bits.value.__set__
_set_length = Bits.length.__set__

EMPTY_BITS = Bits(0, 0)


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
_SEED_INIT = 0x1D8E4E27C47D124F
# The lane kernel packs lanes 128 bits apart in one int, so each step of
# splitmix64 is one bigint operation over every lane: a lane times a 64-bit
# constant fits in 128 bits, and masking lanes to 64 bits after every add,
# xor-shift and multiply keeps carries and shifted bits out of neighbours.
# _LOW picks each lane's low native 64-bit word under either byte order.
_LOW = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _mix(x: int, mask: int = _MASK64, golden: int = _GOLDEN) -> tuple[int, int]:
    """One splitmix64 step, (state, output), on every lane of x; on a plain
    64-bit value with the default one-lane mask and increment."""
    state = (x + golden) & mask
    z = ((state ^ (state >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return state, (z ^ (z >> 31)) & mask


def derive_seed(*parts: int) -> int:
    """Mix integers into a 64-bit seed; the splittable scheme used everywhere."""
    h = _SEED_INIT
    for p in parts:
        state, out = _mix(h ^ (p & _MASK64))
        h = state ^ out
    return _mix(h)[1]


def parent_state(parent: int) -> int:
    """The state that derive_seed(parent, part) mixes part into."""
    state, out = _mix(_SEED_INIT ^ (parent & _MASK64))
    return state ^ out


def _spread(word: int, count: int) -> int:
    """word in each of count lanes."""
    return int.from_bytes(word.to_bytes(16, "little") * count, "little")


def _unpack(packed: int, count: int) -> list[int]:
    return memoryview(packed.to_bytes(16 * count, sys.byteorder)).cast("Q")[_LOW].tolist()


def _child_seeds(lanes: Sequence[int]) -> tuple[int, int, int]:
    """The lanes' packed child seeds, with the lane mask and increment."""
    count = len(lanes)
    packed = memoryview(bytearray(16 * count)).cast("Q")
    packed[_LOW] = memoryview(pack(f"{count}Q", *lanes)).cast("Q")
    mask, golden = _spread(_MASK64, count), _spread(_GOLDEN, count)
    # derive_seed's mixing step for part j, then its final step.
    state, out = _mix(int.from_bytes(packed, sys.byteorder), mask, golden)
    return _mix(state ^ out, mask, golden)[1], mask, golden


def child_draws(lanes: Sequence[int], with_seeds: bool) -> tuple[list[int], ...]:
    """For each lane parent_state(parent) ^ j, with 0 <= j < 2**64, the
    leading word of derive_seed(parent, j): (words, seeds) when with_seeds
    is set, else (words,)."""
    seeds, mask, golden = _child_seeds(lanes)
    words = _unpack(_mix(seeds, mask, golden)[1], len(lanes))
    return (words, _unpack(seeds, len(lanes))) if with_seeds else (words,)


def child_states(parent: int, count: int) -> list[int]:
    """parent_state(derive_seed(parent, i)) for i in range(count)."""
    state = parent_state(parent)
    seeds, mask, golden = _child_seeds([state ^ i for i in range(count)])
    state, out = _mix(seeds ^ _spread(_SEED_INIT, count), mask, golden)
    return _unpack(state ^ out, count)


def random_bits(seed: int, length: int) -> Bits:
    """Deterministic uniform bit string of the given length: the leading
    length bits of the splitmix64 words that follow seed."""
    if length < 0:
        raise ValueError("negative length")
    v = 0
    filled = 0
    state = seed & _MASK64
    while filled < length:
        state = (state + _GOLDEN) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        v = (v << 64) | (z ^ (z >> 31))
        filled += 64
    # v holds filled >= length bits, so the shift leaves exactly length bits
    # and the Bits need no range check.
    bits = _new_bits(Bits)
    _set_value(bits, v >> (filled - length))
    _set_length(bits, length)
    return bits
