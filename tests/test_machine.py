import math
import random
from dataclasses import dataclass
from typing import Optional

import pytest

from sentprob.bits import Bits, gamma_encode, random_bits
from sentprob.logic import Atom, Bottom, Sentence, render_sentence, sentence_at
from sentprob.machine import (
    SLOT_COUNT,
    GeneratorProgram,
    Instruction,
    MachineProgram,
    Opcode,
    OutputTrace,
    _stream_trace,
    assemble_emit_one,
    assemble_sequence_emitter,
    assemble_stream_emitter,
    decode_program,
    encode_machine_program,
    machine_backed,
    run_prefix,
)
from sentprob.sequences import SequenceDef, builtin_catalog


# --- bit-serial reference ------------------------------------------------
# The decoder and interpreter as first written: one bit at a time through an
# advance-only reader. run_prefix must reproduce every trace it gives.


class BitsExhausted(Exception):
    pass


class BitReader:
    __slots__ = ("bits", "pos")

    def __init__(self, bits: Bits) -> None:
        self.bits = bits
        self.pos = 0

    def read(self) -> Optional[int]:
        if self.pos >= self.bits.length:
            return None
        b = self.bits.bit(self.pos)
        self.pos += 1
        return b

    def take(self) -> int:
        b = self.read()
        if b is None:
            raise BitsExhausted(self.pos)
        return b

    def take_int(self, width: int) -> int:
        v = 0
        for _ in range(width):
            v = (v << 1) | self.take()
        return v


def ref_read_gamma(reader: BitReader) -> int:
    zeros = 0
    while reader.take() == 0:
        zeros += 1
    v = 1
    for _ in range(zeros):
        v = (v << 1) | reader.take()
    return v


@dataclass(frozen=True)
class RefGenerator:
    family: SequenceDef
    indexed: bool


def ref_decode_program(reader: BitReader):
    try:
        header = ref_read_gamma(reader)
        if header == 1:
            slot = ref_read_gamma(reader)
            mode = reader.take()
            family = builtin_catalog()[(slot - 1) % SLOT_COUNT]
            return RefGenerator(family, indexed=bool(mode))
        count = header - 1
        instructions = []
        for _ in range(count):
            op = Opcode(reader.take_int(4) % 8)
            reg = reader.take_int(2)
            target = 0
            if op is Opcode.JZ:
                target = (ref_read_gamma(reader) - 1) % count
            instructions.append(Instruction(op, reg, target))
        return MachineProgram(tuple(instructions))
    except BitsExhausted:
        return None


def ref_run_generator(program: RefGenerator, data: BitReader, t: int) -> OutputTrace:
    family = program.family
    if not program.indexed:
        members = math.isqrt(t // 4)
        emitted = tuple(family.emit(i) for i in range(members))
        return OutputTrace(emitted, t, False, 0)
    zeros = 0
    steps = 0
    value: Optional[int] = None
    while steps < t:
        bit = data.read()
        if bit is None:
            return OutputTrace((), steps, True, steps)
        steps += 1
        if bit == 0:
            zeros += 1
            continue
        value = 1
        break
    if value is None:
        return OutputTrace((), steps, False, steps)
    for _ in range(zeros):
        if steps >= t:
            return OutputTrace((), steps, False, steps)
        bit = data.read()
        if bit is None:
            return OutputTrace((), steps, True, steps)
        steps += 1
        value = value * 2 + bit
    n = value - 1
    bits_read = steps
    if n > t:
        return OutputTrace((), steps, True, bits_read)
    if steps >= t:
        return OutputTrace((), steps, False, bits_read)
    steps += 1
    return OutputTrace((family.emit(n),), steps, True, bits_read)


def ref_run_machine(program: MachineProgram, data: BitReader, t: int) -> OutputTrace:
    instructions = program.instructions
    regs = [0, 0, 0, 0]
    emitted: list[Sentence] = []
    pc = 0
    steps = 0
    bits_read = 0
    halted = False
    while steps < t:
        if pc >= len(instructions):
            halted = True
            break
        ins = instructions[pc]
        steps += 1
        op = ins.op
        if op is Opcode.INC:
            regs[ins.reg] += 1
            pc += 1
        elif op is Opcode.DEC:
            if regs[ins.reg]:
                regs[ins.reg] -= 1
            pc += 1
        elif op is Opcode.JZ:
            pc = ins.target if regs[ins.reg] == 0 else pc + 1
        elif op is Opcode.OUT:
            emitted.append(sentence_at(regs[ins.reg]))
            pc += 1
        elif op is Opcode.HALT:
            halted = True
            break
        elif op is Opcode.LOADBIT:
            bit = data.read()
            if bit is None:
                halted = True
                break
            bits_read += 1
            regs[ins.reg] = regs[ins.reg] * 2 + bit
            pc += 1
        elif op is Opcode.SHL:
            regs[ins.reg] *= 2
            pc += 1
        else:
            pc += 1
    return OutputTrace(tuple(emitted), steps, halted, bits_read)


def ref_run_prefix(bits: Bits, t: int) -> OutputTrace:
    reader = BitReader(bits)
    program = ref_decode_program(reader)
    if program is None:
        return OutputTrace((), 0, True, 0)
    if isinstance(program, RefGenerator):
        return ref_run_generator(program, reader, t)
    return ref_run_machine(program, reader, t)


def ref_decode(bits: Bits):
    """The reference decode in the integer API's shape: (program, end) or None."""
    reader = BitReader(bits)
    program = ref_decode_program(reader)
    if program is None:
        return None
    if isinstance(program, RefGenerator):
        slot = builtin_catalog().index(program.family)
        return GeneratorProgram(slot, program.indexed), reader.pos
    return program, reader.pos


def assert_matches_reference(bits: Bits, budgets) -> None:
    assert decode_program(bits) == ref_decode(bits), bits.to_string()
    for t in budgets:
        assert run_prefix(bits, t) == ref_run_prefix(bits, t), (bits.to_string(), t)


def test_matches_reference_on_every_short_string():
    for length in range(13):
        for v in range(1 << length):
            assert_matches_reference(Bits(v, length), (0, 1, 2, 3, 5, 8, 12, 13))


def test_matches_reference_on_random_64_bit_strings():
    rng = random.Random(64)
    for _ in range(3000):
        assert_matches_reference(random_bits(rng.randrange(2**63), 64), (64,))


def test_matches_reference_on_random_384_bit_strings():
    rng = random.Random(384)
    for _ in range(300):
        assert_matches_reference(random_bits(rng.randrange(2**63), 384), (384,))


def test_matches_reference_on_assembled_programs():
    # Random strings rarely decode to long indexed codes or loops, so run
    # assembled ones too, cut at every length and at budgets around each
    # step count where the outcome changes.
    emitters = [assemble_sequence_emitter(seq.id) for seq in builtin_catalog()]
    loop = encode_machine_program(
        MachineProgram(
            (
                Instruction(Opcode.LOADBIT, 0),
                Instruction(Opcode.OUT, 0),
                Instruction(Opcode.JZ, 1, 0),
            )
        )
    )
    rng = random.Random(9)
    for prefix in emitters[:3] + [loop]:
        for n in (0, 1, 2, 5, 17, 40):
            full = prefix.concat(gamma_encode(n + 1)).concat(random_bits(rng.randrange(2**31), 4))
            for cut in range(full.length + 1):
                bits = Bits(full.value >> (full.length - cut), cut)
                assert_matches_reference(bits, range(0, 2 * n + 14))


def test_slot_count_matches_catalog():
    assert SLOT_COUNT == len(builtin_catalog())


def test_emit_one_golden():
    assert assemble_emit_one(1).to_string() == "100011001010"
    trace = run_prefix(assemble_emit_one(1), 100)
    assert trace.emitted == (Atom(0),)
    assert trace.halted


def test_emit_one_emits_the_indexed_sentence():
    for k in (0, 1, 2, 7, 40, 513):
        trace = run_prefix(assemble_emit_one(k), 10_000)
        assert trace.emitted == (sentence_at(k),)
        assert trace.halted


def test_emit_one_length_bound():
    for k in (0, 1, 2, 7, 100, 10_000, 10**9):
        assert assemble_emit_one(k).length <= 10 + 2 * max(k.bit_length(), 1)


def test_emit_one_rejects_negative_index():
    with pytest.raises(ValueError):
        assemble_emit_one(-1)


def test_halt_machine_golden():
    trace = run_prefix(Bits.from_string("010010000"), 100)
    assert trace.halted
    assert trace.emitted == ()
    assert trace.steps_used == 1


def test_incomplete_encoding_yields_empty_trace():
    trace = run_prefix(Bits.from_string("10001"), 100)
    assert trace.emitted == ()
    assert trace.bits_read == 0


def test_decode_is_prefix_free():
    # The decoded program and the position of the first data bit never
    # depend on what follows the encoding.
    rng = random.Random(5)
    decodable = 0
    for _ in range(1000):
        base = random_bits(rng.randrange(2**31), 40)
        decoded = decode_program(base)
        if decoded is None:
            continue
        longer = base.concat(random_bits(rng.randrange(2**31), 8))
        assert decode_program(longer) == decoded
        decodable += 1
    assert decodable > 500


def test_truncated_encoding_is_incomplete():
    # Every proper prefix of an encoding decodes to None, and the full
    # encoding decodes with its end position at its length: the fixed-width
    # fields and the gamma codes all report running out of bits.
    programs = [
        assemble_stream_emitter("atom_chain"),
        assemble_sequence_emitter("enumeration"),
        encode_machine_program(
            MachineProgram(
                (
                    Instruction(Opcode.LOADBIT, 1),
                    Instruction(Opcode.JZ, 1, 2),
                    Instruction(Opcode.SHL, 2),
                    Instruction(Opcode.OUT, 3),
                )
            )
        ),
    ]
    for full in programs:
        _, end = decode_program(full)
        assert end == full.length
        for cut in range(full.length):
            assert decode_program(Bits(full.value >> (full.length - cut), cut)) is None
    # A 4-bit opcode field selects its instruction mod 8, MSB first.
    assert decode_program(Bits.from_string("010" "1101" "10")) == (
        MachineProgram((Instruction(Opcode.LOADBIT, 2),)),
        9,
    )


def test_output_is_prefix_monotone_in_budget():
    rng = random.Random(5)
    for _ in range(300):
        bits = random_bits(rng.randrange(2**31), 48)
        early = run_prefix(bits, 100)
        late = run_prefix(bits, 1000)
        assert late.emitted[: len(early.emitted)] == early.emitted
        assert late.steps_used >= early.steps_used


def test_stream_emitter_cadence():
    bits = assemble_stream_emitter("atom_chain")
    for t in (0, 3, 4, 16, 100, 384):
        trace = run_prefix(bits, t)
        assert len(trace.emitted) == math.isqrt(t // 4)
        assert not trace.halted
    t384 = run_prefix(bits, 384)
    assert [render_sentence(s) for s in t384.emitted[:3]] == ["a0", "a1", "a2"]


def test_indexed_emitter_step_growth_is_shallow():
    prefix = assemble_sequence_emitter("atom_chain")
    steps = {}
    for n in (1, 4, 16, 64):
        trace = run_prefix(prefix.concat(gamma_encode(n + 1)), 10_000)
        assert len(trace.emitted) == 1
        steps[n] = trace.steps_used
    # fitted growth exponent over the measured range stays well below cubic
    exponent = math.log(steps[64] / steps[1]) / math.log(64)
    assert exponent <= 3


def test_machine_backed_twin_agrees():
    twin = machine_backed("tautology_chain")
    base = builtin_catalog()[1]
    assert base.id == "tautology_chain"
    for n in range(65):
        assert twin.emit(n) == base.emit(n)


def test_register_machine_round_trip():
    p = MachineProgram(
        (
            Instruction(Opcode.LOADBIT, 1),
            Instruction(Opcode.JZ, 1, 3),
            Instruction(Opcode.OUT, 0),
            Instruction(Opcode.HALT, 0),
        )
    )
    bits = encode_machine_program(p)
    assert decode_program(bits) == (p, bits.length)
    data = Bits.from_string("0110")
    assert decode_program(bits.concat(data)) == (p, bits.length)


def test_encode_machine_program_validation():
    with pytest.raises(ValueError):
        encode_machine_program(MachineProgram((Instruction(Opcode.INC, 4),)))
    with pytest.raises(ValueError):
        encode_machine_program(
            MachineProgram((Instruction(Opcode.JZ, 0, 5), Instruction(Opcode.HALT, 0)))
        )


def test_out_emits_register_indexed_sentence():
    # OUT writes sentence_at(reg value); a fresh machine has all-zero
    # registers, so an immediate OUT emits the contradiction.
    p = MachineProgram((Instruction(Opcode.OUT, 0), Instruction(Opcode.HALT, 0)))
    trace = run_prefix(encode_machine_program(p), 100)
    assert trace.emitted == (Bottom(),)
    assert trace.halted


def test_negative_budget_is_rejected_for_every_input():
    undecodable = Bits(0, 3)
    assert decode_program(undecodable) is None
    for bits in (
        undecodable,
        assemble_emit_one(3),
        assemble_stream_emitter("atom_chain"),
        Bits.from_string("010010000"),
    ):
        with pytest.raises(ValueError):
            run_prefix(bits, -1)


def test_stream_memo_shares_traces_and_is_bounded():
    bits = assemble_stream_emitter("monotone_chain")
    first = run_prefix(bits, 400)
    assert run_prefix(bits.concat(Bits.from_string("1011")), 400) is first
    limit = _stream_trace.cache_info().maxsize
    assert limit is not None
    for t in range(limit + 10):
        run_prefix(bits, t)
    assert _stream_trace.cache_info().currsize <= limit
