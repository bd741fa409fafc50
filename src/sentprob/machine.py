"""Prefix-free program encoding and a bounded interpreter.

A program is decoded from the front of a bitstring; the bits after the
encoding are the machine's input data. The encoding is self-delimiting, so no
valid encoding is a proper prefix of another.

Wire format (MSB-first, gamma = Elias gamma code):

    gamma(1) = '1'            generator program:
        gamma(g+1)                builtin family slot, position g % SLOT_COUNT
                                  in sequences.builtin_catalog()
        1 mode bit                0 = stream, 1 = indexed
    gamma(v), v >= 2          register machine with v-1 instructions, each:
        4-bit opcode              value mod 8 selects the instruction
        2-bit register            one of 4 unbounded natural registers
        gamma(t), JZ only         jump target, resolved as (t-1) mod count

Register instructions: INC, DEC (floor 0), JZ (jump when register is zero),
OUT (emit the sentence whose index is the register value), HALT, LOADBIT
(shift one data bit into the register: r := 2r + bit), SHL (double), NOP.
Falling off the end halts; exhausting the data during LOADBIT halts.

A stream generator ignores its data and emits family member i-1 at step
4*i*i, so a budget of t steps yields isqrt(t // 4) members in order. An
indexed generator reads gamma(n+1) from its data at one bit per step, then
spends one step emitting member n and halts; an index beyond the step budget
is dropped (the member is never materialized), which keeps a t-step run from
building sentences no t-step process could use.

API: ``run_prefix(bits, t)`` decodes the program at the front of a bit
string and runs it under a budget of t steps. The estimators read only
emissions (``emission``, ``wide_emission``, ``register_emissions``): what a
run emits and the leading bits that depends on, so one run answers every
string that shares them. Each decodes once and reads the data as an
integer slice; an indexed generator's run is in closed form, and generator
traces are memoised in bounded caches, a stream's by (slot, t) and an
indexed one's by (slot, n), so repeated runs share the emitted sentences.

Decoding is one pass that builds only a machine's instruction tuple: there
is one ``GeneratorProgram`` per (slot, mode) and one ``Instruction`` per
non-JZ 6-bit word and per JZ (register, target). A program with no OUT
decodes to a ``SilentProgram``, which the emission path never runs.

A register machine can only jump back through a taken JZ, so the
interpreter records the state (pc, data bits left, registers) after each
one. When a state repeats, no LOADBIT ran since its first visit and the
registers are back where they were, so the run repeats that lap until its
budget ends: the interpreter appends the lap's emissions once per whole lap
left, advances the step count by those laps, and runs the partial lap that
remains step by step. Traces are those of stepping through every lap.

Decoding costs no run steps; the step budget governs the run only. The
trace invariant bits_read <= steps_used refers to data bits.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .bits import Bits, SlottedRecord, read_gamma
from .logic import Sentence, sentence_at
from .sequences import builtin_catalog

SLOT_COUNT = len(builtin_catalog())


class Opcode(IntEnum):
    INC = 0
    DEC = 1
    JZ = 2
    OUT = 3
    HALT = 4
    LOADBIT = 5
    SHL = 6
    NOP = 7


class Instruction(SlottedRecord):
    # A slotted record: the interpreter reads op and reg every step.
    __slots__ = ("op", "reg", "target")
    op: Opcode
    reg: int
    target: int  # JZ only; an index into the instruction list

    def __init__(self, op: Opcode, reg: int, target: int = 0) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "reg", reg)
        object.__setattr__(self, "target", target)


class MachineProgram(NamedTuple):
    instructions: tuple[Instruction, ...]


class SilentProgram(MachineProgram):
    """A register program with no OUT, equal to its MachineProgram; it emits nothing."""

    __slots__ = ()


class GeneratorProgram(NamedTuple):
    slot: int  # position in sequences.builtin_catalog()
    indexed: bool


Program = Union[MachineProgram, GeneratorProgram]


class OutputTrace(NamedTuple):
    emitted: tuple[Sentence, ...]
    steps_used: int
    halted: bool
    bits_read: int


# Module-level aliases: looking a member up on the enum class costs about
# ten times as much as a global, and the interpreter does it every step.
_OPCODES = tuple(Opcode)
_INC, _DEC, _JZ, _OUT, _HALT, _LOADBIT, _SHL = _OPCODES[:7]


_GENERATORS = tuple(
    GeneratorProgram(slot, indexed) for slot in range(SLOT_COUNT) for indexed in (False, True)
)
# Indexed by the 6-bit word (4-bit opcode, 2-bit register); None for JZ,
# whose jump target is read after the word.
_WORD_INSTRUCTIONS = tuple(
    None if _OPCODES[(word >> 2) & 7] is _JZ else Instruction(_OPCODES[(word >> 2) & 7], word & 3)
    for word in range(64)
)
# JZ instructions by target << 2 | register, each built on first use.
_JUMPS: dict[int, Instruction] = {}
_tuple_new = tuple.__new__  # builds a program without its NamedTuple __new__ frame
_ALL_WORDS = range(64)
_OUT_WORDS = tuple(word for word in _ALL_WORDS if (word >> 2) & 7 == _OUT)


def _decode(value: int, length: int) -> tuple[Optional[Program], int]:
    """The program at the front of the length-bit string value and the
    position of its first data bit, or (None, k) when the string ends inside
    the encoding, k being the number of leading bits that decide so: every
    string of this length that shares them ends inside it too."""
    # The header's gamma code, read as read_gamma(value, length, 0) would:
    # value has no bits above length, so it needs no mask.
    pos = 2 * (length - value.bit_length()) + 1
    if pos > length:
        return None, _gamma_cut(length, 0)
    header = value >> (length - pos)
    if header == 1:
        code = read_gamma(value, length, pos)
        if code is None or code[1] == length:
            # The slot's code leaves no room for the mode bit.
            return None, _gamma_cut(length - 1, pos)
        slot, pos = code
        indexed = (value >> (length - 1 - pos)) & 1
        return _GENERATORS[2 * ((slot - 1) % SLOT_COUNT) + indexed], pos + 1
    count = header - 1
    # Every instruction takes at least 6 bits, so a count the rest of the
    # string cannot hold is incomplete without decoding any instruction; only
    # a jump target's gamma code can use up that room (the slack) later.
    slack = length - pos - 6 * count
    if slack < 0:
        return None, pos
    instructions = []
    kind = SilentProgram
    rest = length - pos  # bits after the current word
    for _ in range(count):
        rest -= 6
        ins = _WORD_INSTRUCTIONS[(value >> rest) & 0x3F]
        if ins is None:
            # The jump target's gamma code, read as read_gamma would.
            tail = value & ((1 << rest) - 1)
            size = 2 * (rest - tail.bit_length()) + 1
            if size > slack:
                # The target's code leaves no room for the later instructions.
                pos = length - rest
                return None, _gamma_cut(pos + slack, pos)
            slack -= size
            rest -= size
            key = ((tail >> rest) - 1) % count << 2 | (value >> (rest + size)) & 3
            ins = _JUMPS.get(key) or _JUMPS.setdefault(key, Instruction(_JZ, key & 3, key >> 2))
        elif ins.op is _OUT:
            kind = MachineProgram
        instructions.append(ins)
    return _tuple_new(kind, (tuple(instructions),)), length - rest


def _gamma_cut(room: int, pos: int) -> int:
    """The leading bits that decide that a gamma code at pos does not end
    within the first room bits. A code with z zeros ends at pos + 2z + 1,
    so it does not once its first (room - pos + 1) // 2 bits are zeros."""
    return pos + (room - pos + 1) // 2


def run_prefix(bits: Bits, t: int) -> OutputTrace:
    """Decode a program from the front of bits and run it for at most t steps
    on the remainder. An incomplete encoding yields the empty trace."""
    if t < 0:
        raise ValueError("step budget must be a natural number")
    program, pos = _decode(bits.value, bits.length)
    return _run_decoded(program, pos, bits.value, bits.length, t)[0]


def emission(value: int, length: int, t: int) -> tuple[tuple[Sentence, ...], int]:
    """The sentences that ``run_prefix`` of the length-bit string value
    emits under budget t, and the number of leading bits they depend on:
    every string of this length that shares those bits emits the same tuple
    under budget t. A register program with no OUT emits nothing whatever
    its data, so it is not run and its extent is its decode position; any
    other program's extent is its run's."""
    if t < 0:
        raise ValueError("step budget must be a natural number")
    program, pos = _decode(value, length)
    return _emit_decoded(program, pos, value, length, t)


def wide_emission(word: int, t: int, whole: Callable[[], Bits]) -> tuple[tuple[Sentence, ...], int]:
    """``emission`` of a string longer than 64 bits whose first 64 bits are
    word, where whole() builds the string. The word alone settles it when
    its program decodes within the word and runs with an extent below 64:
    every code and length check that passes within 64 bits passes in a
    longer string at the same positions, so the program decodes the same
    way, and such a run never loaded a bit at or past 64, nor found the
    data exhausted, and its indexed gamma code ends within the word. Only
    otherwise is the string built, and a program decoded within the word
    runs on it with no second decode."""
    if t < 0:
        raise ValueError("step budget must be a natural number")
    program, pos = _decode(word, 64)
    if program is not None:
        result = _emit_decoded(program, pos, word, 64, t)
        if result[1] < 64:
            return result
    bits = whole()
    if program is None:
        program, pos = _decode(bits.value, bits.length)
    return _emit_decoded(program, pos, bits.value, bits.length, t)


def register_emissions(length: int, t: int) -> Iterator[tuple[tuple[Sentence, ...], int]]:
    """The emission of every block of length-bit strings whose register
    program has an OUT, in ascending order, with the number of strings in
    the block: a block shares the leading bits its emission depends on.
    Every other register string emits ``()`` and is not visited. Each
    encoding ``_out_encodings`` walks is decoded once, padded with zero
    data, and its data blocks are run through ``_emit_decoded``."""
    if t < 0:
        raise ValueError("step budget must be a natural number")
    for prefix, end in _out_encodings(length):
        start = prefix << (length - end)
        program, pos = _decode(start, length)
        value, stop = start, start + (1 << (length - pos))
        while value < stop:
            emitted, extent = _emit_decoded(program, pos, value, length, t)
            block_end = (value | ((1 << (length - extent)) - 1)) + 1
            yield emitted, block_end - value
            value = block_end


def _out_encodings(length: int) -> Iterator[tuple[int, int]]:
    """Every complete register encoding with an OUT that fits length bits,
    as (bits, bit count), in ascending order of the strings that start
    with it: headers and jump targets with more leading zeros come first.
    Depth first on a stack of (bits, bit count, instructions left, has an
    OUT), each node's children pushed in reverse so they pop in order."""
    stack: list[tuple[int, int, int, bool]] = []
    for zeros in range(1, (length + 1) // 2):
        end = 2 * zeros + 1
        headers = range(1 << zeros, 2 << zeros)
        fits = [(h, end, h - 1, False) for h in headers if end + 6 * (h - 1) <= length]
        stack += reversed(fits)
    while stack:
        prefix, pos, left, has_out = stack.pop()
        if not left:
            yield prefix, pos  # the last word of an OUT-free prefix is an OUT
            continue
        later = left - 1
        room = length - 6 * later  # where the jump target must end
        children = []
        for w in _ALL_WORDS if has_out or later else _OUT_WORDS:
            head, end = prefix << 6 | w, pos + 6
            out = has_out or (w >> 2) & 7 == _OUT
            if _WORD_INSTRUCTIONS[w] is not None:
                children.append((head, end, later, out))
                continue
            for zeros in range((room - end - 1) // 2, -1, -1):
                size = 2 * zeros + 1
                for target in range(1 << zeros, 2 << zeros):
                    children.append((head << size | target, end + size, later, out))
        stack += reversed(children)


def _emit_decoded(program: Optional[Program], pos: int, value: int, length: int, t: int) -> tuple:
    """``emission`` of a decoded program, its data starting at bit pos of value."""
    if program.__class__ is SilentProgram:
        return (), pos
    run, extent = _run(program, pos, value, length, t)
    return run[0], extent


def _run_decoded(
    program: Optional[Program], pos: int, value: int, length: int, t: int
) -> tuple[OutputTrace, int]:
    """``_run`` with the run as an ``OutputTrace``."""
    run, extent = _run(program, pos, value, length, t)
    return (run if run.__class__ is OutputTrace else OutputTrace._make(run)), extent


def _run(program: Optional[Program], pos: int, value: int, length: int, t: int) -> tuple:
    """The run of the decoded program whose data starts at bit pos of the
    length-bit string value, as an ``OutputTrace``'s fields (a plain tuple
    or a memoised trace), and its extent: every string of this length that
    shares that many leading bits runs the same under budget t. It is the
    decode position for a stream generator and an incomplete encoding, plus
    the gamma code's bits (at most all the data) for an indexed generator,
    or plus the data bits loaded for a register machine."""
    width = length - pos
    if program.__class__ is GeneratorProgram:
        if not program.indexed:
            return _stream_trace(program.slot, t), pos
        # Closed form of reading gamma(n+1) one data bit per step: the code
        # spans need = 2z + 1 bits, z being the data's leading zeros (all of
        # them when it has no 1). The read stops at bit min(t, width) if that
        # comes first, on the budget when t <= width, else on the data.
        data = value & ((1 << width) - 1)
        need = 2 * (width - data.bit_length()) + 1
        extent = pos + min(need, width)
        if t < need or width < need:
            return ((), t, False, t) if t <= width else ((), width, True, width), extent
        n = (data >> (width - need)) - 1
        if n > t or need >= t:  # an index past the budget halts unemitted
            return ((), need, n > t, need), extent
        return _indexed_trace(program.slot, n), extent
    if program is None:
        return ((), 0, True, 0), pos
    run = _run_machine(program, value & ((1 << width) - 1), width, t)
    return run, pos + run[3]


# A run uses one budget per stage, so a few hundred entries hold every live
# (slot, t) pair while the bound keeps memory flat for callers that sweep t.
@lru_cache(maxsize=256)
def _stream_trace(slot: int, t: int) -> OutputTrace:
    family = builtin_catalog()[slot]
    return OutputTrace(tuple(family.emit(i) for i in range(isqrt(t // 4))), t, False, 0)


# An emitting indexed run reads the 2 * bitlen(n + 1) - 1 bits of gamma(n + 1)
# and emits member n <= t, so it depends on (slot, n) alone and a stage reaches
# at most SLOT_COUNT * (t + 1) of them, skewed toward small n by the gamma code:
# the bound holds the common ones at the standard budgets, with memory flat.
@lru_cache(maxsize=4096)
def _indexed_trace(slot: int, n: int) -> OutputTrace:
    need = 2 * (n + 1).bit_length() - 1
    return OutputTrace((builtin_catalog()[slot].emit(n),), need + 1, True, need)


def _run_machine(program: MachineProgram, data: int, width: int, t: int) -> tuple:
    instructions = program.instructions
    size = len(instructions)
    regs = [0, 0, 0, 0]
    emitted: list[Sentence] = []
    pc = 0
    steps = 0
    left = width  # data bits not yet loaded; the next one is bit left-1 of data
    halted = False
    # (pc, left, r0-r3) after each taken JZ -> (steps, number emitted); None
    # once a lap has been skipped.
    seen: Optional[dict] = {}
    while steps < t:
        if pc >= size:
            halted = True
            break
        ins = instructions[pc]
        steps += 1
        op = ins.op
        if op is _INC:
            regs[ins.reg] += 1
            pc += 1
        elif op is _DEC:
            if regs[ins.reg]:
                regs[ins.reg] -= 1
            pc += 1
        elif op is _JZ:
            if regs[ins.reg]:
                pc += 1
                continue
            pc = ins.target
            if seen is None:
                continue
            state = (pc, left, *regs)
            first = seen.get(state)
            if first is None:
                seen[state] = (steps, len(emitted))
                continue
            # The run is back in a state it was in, so it repeats the lap
            # since then until the budget ends; take the whole laps at once.
            lap = steps - first[0]
            laps = (t - steps) // lap
            emitted.extend(emitted[first[1]:] * laps)
            steps += laps * lap
            seen = None
        elif op is _OUT:
            emitted.append(sentence_at(regs[ins.reg]))
            pc += 1
        elif op is _HALT:
            halted = True
            break
        elif op is _LOADBIT:
            if not left:
                halted = True
                break
            left -= 1
            regs[ins.reg] = regs[ins.reg] * 2 + ((data >> left) & 1)
            pc += 1
        elif op is _SHL:
            regs[ins.reg] *= 2
            pc += 1
        else:
            pc += 1
    return tuple(emitted), steps, halted, width - left
