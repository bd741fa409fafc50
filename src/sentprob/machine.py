"""Prefix-free program encoding and a bounded interpreter.

A program is decoded from the front of a bitstring; the bits after the
encoding are the machine's input data. The encoding is self-delimiting, so no
valid encoding is a proper prefix of another.

Wire format (MSB-first, gamma = Elias gamma code):

    gamma(1) = '1'            generator program:
        gamma(g+1)                builtin family slot, position g % 14 in
                                  sequences.builtin_catalog()
        1 mode bit                0 = stream, 1 = indexed
    gamma(v), v >= 2          register machine with v-1 instructions, each:
        4-bit opcode              value mod 8 selects the instruction
        2-bit register            one of 4 unbounded natural registers
        gamma(t), JZ only         jump target, resolved as (t-1) mod count

Register instructions: INC, DEC (floor 0), JZ (jump when register is zero),
OUT (emit the sentence whose index is the register value), HALT, LOADBIT (shift one data
bit into the register: r := 2r + bit), SHL (double), NOP. Falling off the end
halts; exhausting the data during LOADBIT halts.

A stream generator ignores its data and emits family member i-1 at step
4*i*i, so a budget of t steps yields isqrt(t // 4) members in order. An
indexed generator reads gamma(n+1) from its data at one bit per step, then
spends one step emitting member n and halts; an index beyond the step budget
is dropped (the member is never materialized), which keeps a t-step run from
building sentences no t-step process could use.

API: ``decode_program(bits)`` decodes the program at the front of a bit
string and returns it with the position of its first data bit, or None when
the string ends inside the encoding. ``run_prefix(bits, t)`` decodes and runs
under a budget of t steps, reading the data as an integer slice of
``bits.value``: gamma codes are read by counting leading zeros, each
instruction's 6 bits come out with one mask, LOADBIT shifts its bit out of the
data integer, and an indexed generator's run is computed in closed form from
the data's leading-zero count. Stream generators ignore their data, so their
traces are memoised by (slot, t) in a bounded cache; repeated runs share the
emitted sentence objects and the hashes cached on them.

Decoding costs no run steps; the step budget governs the run only. The
trace invariant bits_read <= steps_used refers to data bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from math import isqrt
from typing import Optional, Union

from .bits import Bits, gamma_encode, read_gamma
from .logic import Sentence, sentence_at
from .sequences import SequenceDef, builtin_catalog, sequence_by_id

SLOT_COUNT = len(builtin_catalog())

_GENERATOR_MARK = gamma_encode(1)
_STREAM_BIT = Bits(0, 1)
_INDEXED_BIT = Bits(1, 1)


class Opcode(IntEnum):
    INC = 0
    DEC = 1
    JZ = 2
    OUT = 3
    HALT = 4
    LOADBIT = 5
    SHL = 6
    NOP = 7


@dataclass(frozen=True, slots=True)
class Instruction:
    op: Opcode
    reg: int
    target: int = 0  # JZ only; an index into the instruction list


@dataclass(frozen=True)
class MachineProgram:
    instructions: tuple[Instruction, ...]


@dataclass(frozen=True)
class GeneratorProgram:
    slot: int  # position in sequences.builtin_catalog()
    indexed: bool

    @property
    def family(self) -> SequenceDef:
        return builtin_catalog()[self.slot]


Program = Union[MachineProgram, GeneratorProgram]


@dataclass(frozen=True)
class OutputTrace:
    emitted: tuple[Sentence, ...]
    steps_used: int
    halted: bool
    bits_read: int


_EMPTY_TRACE = OutputTrace((), 0, True, 0)


# Module-level aliases: looking a member up on the enum class costs about
# ten times as much as a global, and the interpreter does it every step.
_OPCODES = tuple(Opcode)
_INC, _DEC, _JZ, _OUT, _HALT, _LOADBIT, _SHL = _OPCODES[:7]


def decode_program(bits: Bits) -> Optional[tuple[Program, int]]:
    """Decode the program at the front of bits. Returns it with the position
    of its first data bit, or None when bits end inside the encoding."""
    value, length = bits.value, bits.length
    head = read_gamma(value, length, 0)
    if head is None:
        return None
    header, pos = head
    if header == 1:
        code = read_gamma(value, length, pos)
        if code is None or code[1] == length:
            return None
        slot, pos = code
        indexed = (value >> (length - 1 - pos)) & 1
        return GeneratorProgram((slot - 1) % SLOT_COUNT, bool(indexed)), pos + 1
    count = header - 1
    # Every instruction takes at least 6 bits, so a count the rest of the
    # string cannot hold is incomplete without decoding any instruction; only
    # a jump target's gamma code can use up that room later.
    if pos + 6 * count > length:
        return None
    instructions = []
    for later in range(count - 1, -1, -1):
        pos += 6
        word = (value >> (length - pos)) & 0x3F
        op = _OPCODES[(word >> 2) & 7]
        target = 0
        if op is _JZ:
            code = read_gamma(value, length, pos)
            if code is None:
                return None
            target, pos = code
            target = (target - 1) % count
            if pos + 6 * later > length:
                return None
        instructions.append(Instruction(op, word & 3, target))
    return MachineProgram(tuple(instructions)), pos


def _slot_of(fid: str) -> int:
    for g, seq in enumerate(builtin_catalog()):
        if seq.id == fid:
            return g
    raise ValueError(f"unknown generator id: {fid!r}")


def encode_generator(fid: str, indexed: bool) -> Bits:
    slot = _slot_of(fid)
    mode = _INDEXED_BIT if indexed else _STREAM_BIT
    return _GENERATOR_MARK.concat(gamma_encode(slot + 1)).concat(mode)


def encode_machine_program(p: MachineProgram) -> Bits:
    count = len(p.instructions)
    out = gamma_encode(count + 1)
    for ins in p.instructions:
        if not 0 <= ins.reg < 4:
            raise ValueError(f"register out of range: {ins.reg}")
        out = out.concat(Bits(int(ins.op), 4)).concat(Bits(ins.reg, 2))
        if ins.op is Opcode.JZ:
            if not 0 <= ins.target < count:
                raise ValueError(f"jump target out of range: {ins.target}")
            out = out.concat(gamma_encode(ins.target + 1))
    return out


def assemble_emit_one(k: int) -> Bits:
    """Bitstring that decodes to a program emitting exactly the sentence at
    enumeration index k, then halting. Length is 9 + |gamma(k+1)| bits; the run needs a step budget of
    at least max(k, |gamma(k+1)| + 1)."""
    if k < 0:
        raise ValueError("sentence index must be a natural number")
    return assemble_sequence_emitter("enumeration").concat(gamma_encode(k + 1))


def assemble_sequence_emitter(fid: str) -> Bits:
    """Program prefix for the indexed form of a builtin family: append
    gamma(n+1) and the run emits member n."""
    return encode_generator(fid, indexed=True)


def assemble_stream_emitter(fid: str) -> Bits:
    """Program bits for the in-order form of a builtin family; the run emits
    members 0, 1, ... on the quadratic schedule until the budget is spent."""
    return encode_generator(fid, indexed=False)


def run_prefix(bits: Bits, t: int) -> OutputTrace:
    """Decode a program from the front of bits and run it for at most t steps
    on the remainder. An incomplete encoding yields the empty trace."""
    if t < 0:
        raise ValueError("step budget must be a natural number")
    decoded = decode_program(bits)
    if decoded is None:
        return _EMPTY_TRACE
    program, pos = decoded
    if isinstance(program, GeneratorProgram) and not program.indexed:
        return _stream_trace(program.slot, t)
    width = bits.length - pos
    data = bits.value & ((1 << width) - 1)
    if isinstance(program, GeneratorProgram):
        return _run_indexed(program.family, data, width, t)
    return _run_machine(program, data, width, t)


# A run uses one budget per stage, so a few hundred entries hold every live
# (slot, t) pair while the bound keeps memory flat for callers that sweep t.
@lru_cache(maxsize=256)
def _stream_trace(slot: int, t: int) -> OutputTrace:
    family = builtin_catalog()[slot]
    return OutputTrace(tuple(family.emit(i) for i in range(isqrt(t // 4))), t, False, 0)


def _run_indexed(family: SequenceDef, data: int, width: int, t: int) -> OutputTrace:
    """Closed form of reading gamma(n+1) from the width-bit data one bit per
    step: the code spans need = 2z + 1 bits, z being the data's leading zeros
    (all of them when the data has no 1). The read stops at bit min(t, width)
    if that comes first, on the budget when t <= width, else on the data."""
    need = 2 * (width - data.bit_length()) + 1
    if t < need or width < need:
        if t <= width:
            return OutputTrace((), t, False, t)
        return OutputTrace((), width, True, width)
    n = (data >> (width - need)) - 1
    if n > t:
        return OutputTrace((), need, True, need)
    if need >= t:
        return OutputTrace((), need, False, need)
    return OutputTrace((family.emit(n),), need + 1, True, need)


def _run_machine(program: MachineProgram, data: int, width: int, t: int) -> OutputTrace:
    instructions = program.instructions
    size = len(instructions)
    regs = [0, 0, 0, 0]
    emitted: list[Sentence] = []
    pc = 0
    steps = 0
    left = width  # data bits not yet loaded; the next one is bit left-1 of data
    halted = False
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
            pc = ins.target if regs[ins.reg] == 0 else pc + 1
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
    return OutputTrace(tuple(emitted), steps, halted, width - left)


def machine_backed(fid: str, budget_slack: int = 16) -> SequenceDef:
    """A machine-run twin of a builtin family: member n is produced by the
    indexed emitter under a linear step budget. Exceeding the budget raises,
    since that would mean the family is not quickly computable as encoded."""
    base = sequence_by_id(fid)
    prefix = assemble_sequence_emitter(base.id)

    def emit(n: int) -> Sentence:
        bits = prefix.concat(gamma_encode(n + 1))
        budget = 2 * n + budget_slack
        trace = run_prefix(bits, budget)
        if len(trace.emitted) != 1:
            raise RuntimeError(
                f"emitter for {base.id!r} produced {len(trace.emitted)} sentences at n={n}"
            )
        return trace.emitted[0]

    return SequenceDef(
        f"{base.id}@machine",
        "machine",
        f"machine-run twin of {base.id}",
        emit,
        machine_prefix=prefix,
    )
