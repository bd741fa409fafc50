import math
import random
from dataclasses import dataclass
from typing import Optional

import pytest

from sentprob import machine
from sentprob.bits import Bits, random_bits
from sentprob.logic import Atom, Bottom, Sentence, render_sentence, sentence_at
from sentprob.machine import (
    SLOT_COUNT,
    GeneratorProgram,
    Instruction,
    MachineProgram,
    Opcode,
    OutputTrace,
    SilentProgram,
    _decode,
    _indexed_trace,
    _run_decoded,
    _run_machine,
    _stream_trace,
    emission,
    run_prefix,
    wide_emission,
)
from sentprob.sequences import SequenceDef, builtin_catalog, sequence_by_id
from test_bits import gamma_encode


def run_with_extent(value: int, length: int, t: int) -> tuple[OutputTrace, int]:
    """``run_prefix`` on the length-bit string value, with the run's extent,
    as ``machine._run_decoded`` gives them. The pipeline reads extents only
    through ``emission``, so this entry point lives with the tests."""
    program, pos = _decode(value, length)
    return _run_decoded(program, pos, value, length, t)


# --- encoders --------------------------------------------------------------
# The wire format's writers. The pipeline only decodes, so they live here.

_GENERATOR_MARK = gamma_encode(1)
_STREAM_BIT = Bits(0, 1)
_INDEXED_BIT = Bits(1, 1)


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


def decode(bits: Bits):
    """machine._decode on a Bits: (program, end), or None when bits end
    inside the encoding."""
    program, end = _decode(bits.value, bits.length)
    return None if program is None else (program, end)


def assert_matches_reference(bits: Bits, budgets) -> None:
    assert decode(bits) == ref_decode(bits), bits.to_string()
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
    emitters = [encode_generator(seq.id, indexed=True) for seq in builtin_catalog()]
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


def assemble(*instructions) -> Bits:
    """Encoding of the register machine with these (op, reg[, target])."""
    return encode_machine_program(MachineProgram(tuple(Instruction(*i) for i in instructions)))


def test_looping_machines_skip_whole_laps_with_identical_traces(monkeypatch):
    INC, DEC, JZ, OUT, LOADBIT, SHL = (
        Opcode.INC, Opcode.DEC, Opcode.JZ, Opcode.OUT, Opcode.LOADBIT, Opcode.SHL
    )
    # r1 is never written, so "JZ 1" always jumps.
    loops = {
        "emitting": assemble((INC, 0), (OUT, 0), (JZ, 1, 1)),
        "spin": assemble((JZ, 0, 0)),
        "silent": assemble((INC, 0), (DEC, 0), (JZ, 1, 1)),
        "loads first": assemble(
            (LOADBIT, 0), (LOADBIT, 2), (OUT, 0), (DEC, 3), (OUT, 2), (JZ, 3, 2)
        ),
        "counts down into a lap": assemble(
            (INC, 0), (INC, 0), (INC, 0), (DEC, 0), (OUT, 0), (JZ, 1, 3)
        ),
        "two nested laps": assemble((INC, 2), (DEC, 2), (OUT, 2), (JZ, 2, 1), (JZ, 1, 0)),
        "never repeats": assemble((INC, 0), (OUT, 0), (SHL, 0), (JZ, 1, 1)),
        "loads in the lap": assemble((LOADBIT, 0), (OUT, 0), (JZ, 1, 0)),
    }
    # Budgets from 0 past several laps, so runs end at every point of a lap.
    for name, program in loops.items():
        for data in (Bits(0, 0), Bits(0b10, 2), Bits(0b1101, 4), Bits(0b011, 3), Bits(0, 6)):
            bits = program.concat(data)
            for t in (*range(40), 97, 255, 512):
                assert run_prefix(bits, t) == ref_run_prefix(bits, t), (name, data, t)
    # The emitting loop runs two laps and the partial lap at the end, not
    # one OUT per lap.
    built = []
    monkeypatch.setattr(machine, "sentence_at", lambda k: built.append(k) or sentence_at(k))
    trace = run_prefix(loops["emitting"], 512)
    assert (len(trace.emitted), trace.steps_used, trace.halted) == (256, 512, False)
    assert built == [1, 1, 1]


EXTENT_BUDGETS = (0, 1, 4, 12, 40)


def assert_blocks_share_traces(runs, width, where):
    """runs[v] is run_with_extent, or emission, of the v-th of consecutive
    width-bit strings that share all but their last log2(len(runs)) bits.
    Checks that every one of them that shares a run's reported leading bits
    gives its trace, or emits its tuple. Traces are numbered by runs of equal neighbours, so an aligned
    block has one trace iff its first and last members share a number."""
    segment = [0] * len(runs)
    for v in range(1, len(runs)):
        segment[v] = segment[v - 1] + (runs[v][0] != runs[v - 1][0])
    for v, (_, extent) in enumerate(runs):
        assert 0 <= extent <= width
        free = (1 << (width - extent)) - 1
        assert segment[v & ~free] == segment[v | free], (where, v, extent)


def test_extent_covers_every_string_sharing_its_bits():
    for width in range(13):
        for t in EXTENT_BUDGETS:
            runs = [run_with_extent(v, width, t) for v in range(1 << width)]
            for v, (trace, _) in enumerate(runs):
                assert trace == run_prefix(Bits(v, width), t)
            assert_blocks_share_traces(runs, width, (width, t))


def test_extent_covers_random_long_strings():
    # Past the first 12 bits: redraw every bit after the extent of random
    # and assembled strings and the trace stays the same.
    rng = random.Random(12)
    atoms = encode_generator("atom_chain", indexed=True)
    loop = encode_machine_program(
        MachineProgram(
            (
                Instruction(Opcode.LOADBIT, 0),
                Instruction(Opcode.OUT, 0),
                Instruction(Opcode.JZ, 1, 0),
            )
        )
    )
    strings = [random_bits(rng.randrange(2**63), 64) for _ in range(2000)]
    strings += [p.concat(gamma_encode(n + 1)) for p in (atoms, loop) for n in (0, 3, 17, 40)]
    for bits in strings:
        bits = bits.concat(random_bits(rng.randrange(2**63), 8))
        for t in (*EXTENT_BUDGETS, 64):
            trace, extent = run_with_extent(bits.value, bits.length, t)
            free = bits.length - extent
            for _ in range(4):
                other = (bits.value >> free << free) | rng.getrandbits(free)
                assert run_with_extent(other, bits.length, t)[0] == trace, (bits.to_string(), t)
    # Every data string of up to 10 bits behind programs that read their
    # data, with the block check of the short-string test.
    for prefix in (atoms, loop):
        for data_bits in range(11):
            width = prefix.length + data_bits
            for t in EXTENT_BUDGETS:
                base = prefix.value << data_bits
                runs = [run_with_extent(base | d, width, t) for d in range(1 << data_bits)]
                assert min(extent for _, extent in runs) >= prefix.length
                assert_blocks_share_traces(runs, width, (prefix.to_string(), data_bits, t))


def test_extent_of_each_kind_of_run():
    # Incomplete header: its first (length + 1) // 2 zeros decide.
    assert run_with_extent(0, 16, 16) == (OutputTrace((), 0, True, 0), 8)
    assert run_with_extent(1, 16, 16)[1] == 8
    # Stream generator: the encoding only.
    stream = encode_generator("atom_chain", indexed=False).concat(Bits(0b1011, 4))
    assert run_with_extent(stream.value, stream.length, 40)[1] == stream.length - 4
    # Indexed generator: the encoding and the gamma code it reads.
    code = encode_generator("atom_chain", indexed=True).concat(gamma_encode(6))
    bits = code.concat(Bits(0b101, 3))
    assert run_with_extent(bits.value, bits.length, 40) == (
        run_prefix(bits, 40),
        code.length,
    )
    # Register machine: the encoding and the data bits it loads.
    loader = encode_machine_program(
        MachineProgram((Instruction(Opcode.LOADBIT, 0), Instruction(Opcode.OUT, 0)))
    )
    bits = loader.concat(Bits(0b1011, 4))
    trace, extent = run_with_extent(bits.value, bits.length, 40)
    assert (trace.emitted, trace.bits_read, extent) == ((sentence_at(1),), 1, loader.length + 1)


def silent_program_end(bits: Bits) -> Optional[int]:
    """The reference decode position of a register program with no OUT at
    the front of bits, or None when bits start with anything else."""
    decoded = ref_decode(bits)
    if decoded is None or not isinstance(decoded[0], MachineProgram):
        return None
    program, end = decoded
    return None if any(ins.op is Opcode.OUT for ins in program.instructions) else end


def assert_emission_matches_run(bits: Bits, t: int) -> tuple[tuple, int]:
    emitted, extent = emission(bits.value, bits.length, t)
    where = (bits.to_string(), t)
    assert emitted == run_prefix(bits, t).emitted, where
    assert extent <= run_with_extent(bits.value, bits.length, t)[1], where
    end = silent_program_end(bits)
    if end is not None:
        assert (emitted, extent) == ((), end), where
    return emitted, extent


def test_emission_matches_runs_on_every_short_string():
    # Every string of 0-12 bits at budgets 0, 1, 4, its width and three
    # times it: emission gives the tuple the run emits; every string sharing
    # its reported bits emits that tuple; and a register program without OUT
    # reports its decode position, never past the run's extent.
    silent = 0
    for width in range(13):
        for t in sorted({0, 1, 4, width, 3 * width}):
            runs = [assert_emission_matches_run(Bits(v, width), t) for v in range(1 << width)]
            assert_blocks_share_traces(runs, width, (width, t))
        silent += sum(silent_program_end(Bits(v, width)) is not None for v in range(1 << width))
    assert silent > 500


def test_emission_matches_runs_on_random_long_strings():
    rng = random.Random(17)
    for width in (64, 384):
        for _ in range(2000):
            bits = random_bits(rng.randrange(2**63), width)
            for t in (0, 1, 4, width, 3 * width):
                assert_emission_matches_run(bits, t)


def test_emission_skips_silent_programs(monkeypatch):
    # A register program with no OUT is decoded and never run, whatever its
    # data; one with an OUT is run once.
    runs = []

    def counted(*args):
        runs.append(args)
        return _run_machine(*args)

    monkeypatch.setattr(machine, "_run_machine", counted)
    silent = assemble((Opcode.LOADBIT, 0), (Opcode.INC, 0), (Opcode.JZ, 1, 0))
    for data in (Bits(0, 0), Bits(0b1011, 4)):
        bits = silent.concat(data)
        assert emission(bits.value, bits.length, 40) == ((), silent.length)
    assert runs == []
    loud = assemble((Opcode.LOADBIT, 0), (Opcode.OUT, 0))
    bits = loud.concat(Bits(0b1011, 4))
    assert emission(bits.value, bits.length, 40) == ((sentence_at(1),), loud.length + 1)
    assert len(runs) == 1
    with pytest.raises(ValueError):
        emission(silent.value, silent.length, -1)


def ending_at(end: int, first: Opcode) -> Bits:
    """A 9-instruction register program whose encoding ends at bit end, one
    of 62-65: `first` on r0, OUT r0, HALT, then NOPs and JZ r1s after the
    HALT whose jump targets' gamma codes lengthen it. Unpadded it is 61
    bits long."""
    targets = {62: (0,), 63: (0, 0), 64: (1,), 65: (1, 0)}[end]
    nops = [(Opcode.NOP, 0)] * (6 - len(targets))
    bits = assemble((first, 0), (Opcode.OUT, 0), (Opcode.HALT, 0), *nops,
                    *((Opcode.JZ, 1, t) for t in targets))
    assert bits.length == end
    return bits


def generator_ending_at(end: int, indexed: bool) -> Bits:
    """A generator header whose (odd) length is end, its slot code padded
    with leading zeros: gamma(g + 1) names slot g % SLOT_COUNT."""
    g = (1 << (end - 3) // 2) + 1
    return gamma_encode(1).concat(gamma_encode(g + 1)).concat(Bits(int(indexed), 1))


def prefix_boundary_strings() -> list[tuple[str, Bits, float]]:
    """Leading bits of strings on both sides of the first splitmix word's
    64 bits, named, each with the budget below which its first 64 bits
    settle its emission: its program decodes within them and its run ends
    before bit 64. A LOADBIT of bit 63 reaches it at any budget but 0."""
    indexed = encode_generator("enumeration", indexed=True)
    code_at = indexed.length
    always, never = math.inf, 0
    return [
        ("stream decoded at 63", generator_ending_at(63, False), always),
        ("stream decoded at 65", generator_ending_at(65, False), never),
        ("indexed decoded at 63", generator_ending_at(63, True), never),
        ("register decoded at 63", ending_at(63, Opcode.INC), always),
        ("register decoded at 64", ending_at(64, Opcode.INC), never),
        ("register decoded at 65", ending_at(65, Opcode.INC), never),
        ("LOADBIT reads bit 62", ending_at(62, Opcode.LOADBIT), always),
        ("LOADBIT reads bit 63", ending_at(63, Opcode.LOADBIT), 1),
        ("LOADBIT reads bit 64", ending_at(64, Opcode.LOADBIT), never),
        # gamma(n + 1) after the (odd-length) indexed header: ending at bit
        # 62 or 64, or with its zeros up to bit 63 and its 1 at bit 64.
        ("gamma code ends at 62", indexed.concat(gamma_encode(1 << (61 - code_at) // 2)), always),
        ("gamma code ends at 64", indexed.concat(gamma_encode(1 << (63 - code_at) // 2)), never),
        ("gamma code straddles 64", indexed.concat(Bits(1, 65 - code_at)), never),
        ("all-zero leading word", Bits(0, 64), never),
    ]


def boundary_strings(width: int) -> list[tuple[str, Bits, float]]:
    """prefix_boundary_strings completed to width bits, each by all zeros,
    all ones and random bits."""
    rng = random.Random(width)
    out = []
    for name, prefix, settled_below in prefix_boundary_strings():
        rest = width - prefix.length
        for tail in (0, (1 << rest) - 1, rng.getrandbits(rest)):
            out.append((name, prefix.concat(Bits(tail, rest)), settled_below))
    return out


def test_word_emission_settles_only_what_the_leading_word_decides(monkeypatch):
    # A string's first 64 bits settle its emission when its program decodes
    # within them and runs without reaching bit 64; wide_emission builds the
    # whole string only otherwise, and decodes it only when the word ends
    # inside the encoding. Its emission is the whole string's either way.
    decodes = []
    monkeypatch.setattr(machine, "_decode", lambda v, n: decodes.append(n) or _decode(v, n))

    def wide(word, t, bits):
        """(emission, whether the whole string was built, the decodes)."""
        built, decodes[:] = [], []
        got = wide_emission(word, t, lambda: built.append(bits) or bits)
        return got, bool(built), list(decodes)

    for width in (65, 96, 127, 128, 384, 512):
        for name, bits, settled_below in boundary_strings(width):
            word = bits.value >> (width - 64)
            decoded = _decode(word, 64)[0] is not None
            for t in sorted({0, 4, width, 3 * width}):
                got, built, seen = wide(word, t, bits)
                assert built == (t >= settled_below), (name, width, t)
                assert seen == ([64] if decoded else [64, width]), (name, width, t)
                assert got == emission(bits.value, width, t), (name, width, t)
    rng = random.Random(23)
    settled = 0
    for _ in range(500):
        bits = random_bits(rng.randrange(2**63), 384)
        for t in (0, 4, 384):
            got, built, _ = wide(bits.value >> 320, t, bits)
            settled += not built
            assert got == emission(bits.value, 384, t)
    assert settled > 500
    with pytest.raises(ValueError):
        wide_emission(1 << 63, -1, lambda: None)


def assemble_emit_one(k: int) -> Bits:
    """Bitstring that decodes to a program emitting exactly the sentence at
    enumeration index k, then halting. Length is 9 + |gamma(k+1)| bits; the
    run needs a step budget of at least max(k, |gamma(k+1)| + 1)."""
    if k < 0:
        raise ValueError("sentence index must be a natural number")
    return encode_generator("enumeration", indexed=True).concat(gamma_encode(k + 1))


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
        decoded = decode(base)
        if decoded is None:
            continue
        longer = base.concat(random_bits(rng.randrange(2**31), 8))
        assert decode(longer) == decoded
        decodable += 1
    assert decodable > 500


def test_truncated_encoding_is_incomplete():
    # Every proper prefix of an encoding decodes to None, and the full
    # encoding decodes with its end position at its length: the fixed-width
    # fields and the gamma codes all report running out of bits.
    programs = [
        encode_generator("atom_chain", indexed=False),
        encode_generator("enumeration", indexed=True),
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
        _, end = decode(full)
        assert end == full.length
        for cut in range(full.length):
            assert decode(Bits(full.value >> (full.length - cut), cut)) is None
    # A 4-bit opcode field selects its instruction mod 8, MSB first.
    assert decode(Bits.from_string("010" "1101" "10")) == (
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
    bits = encode_generator("atom_chain", indexed=False)
    for t in (0, 3, 4, 16, 100, 384):
        trace = run_prefix(bits, t)
        assert len(trace.emitted) == math.isqrt(t // 4)
        assert not trace.halted
    t384 = run_prefix(bits, 384)
    assert [render_sentence(s) for s in t384.emitted[:3]] == ["a0", "a1", "a2"]


def test_indexed_emitter_step_growth_is_shallow():
    prefix = encode_generator("atom_chain", indexed=True)
    steps = {}
    for n in (1, 4, 16, 64):
        trace = run_prefix(prefix.concat(gamma_encode(n + 1)), 10_000)
        assert len(trace.emitted) == 1
        steps[n] = trace.steps_used
    # fitted growth exponent over the measured range stays well below cubic
    exponent = math.log(steps[64] / steps[1]) / math.log(64)
    assert exponent <= 3


def machine_backed(fid: str, budget_slack: int = 16) -> SequenceDef:
    """A machine-run twin of a builtin family: member n is produced by the
    indexed emitter under a linear step budget. Exceeding the budget raises,
    since that would mean the family is not quickly computable as encoded."""
    base = sequence_by_id(fid)
    prefix = encode_generator(base.id, indexed=True)

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
    )


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
    assert decode(bits) == (p, bits.length)
    data = Bits.from_string("0110")
    assert decode(bits.concat(data)) == (p, bits.length)


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
    assert decode(undecodable) is None
    for bits in (
        undecodable,
        assemble_emit_one(3),
        encode_generator("atom_chain", indexed=False),
        Bits.from_string("010010000"),
    ):
        with pytest.raises(ValueError):
            run_prefix(bits, -1)


def test_stream_memo_shares_traces_and_is_bounded():
    bits = encode_generator("monotone_chain", indexed=False)
    first = run_prefix(bits, 400)
    assert run_prefix(bits.concat(Bits.from_string("1011")), 400) is first
    limit = _stream_trace.cache_info().maxsize
    assert limit is not None
    for t in range(limit + 10):
        run_prefix(bits, t)
    assert _stream_trace.cache_info().currsize <= limit


def test_decoded_generators_are_interned():
    for fid in ("atom_chain", "enumeration"):
        slot = builtin_catalog().index(sequence_by_id(fid))
        for indexed in (False, True):
            bits = encode_generator(fid, indexed)
            first, _ = decode(bits)
            assert first == GeneratorProgram(slot, indexed)
            again, _ = decode(bits.concat(Bits.from_string("0110")))
            assert again is first
            # A slot code past the catalog wraps onto the same program.
            wrapped = gamma_encode(1).concat(gamma_encode(slot + 1 + SLOT_COUNT))
            assert decode(wrapped.concat(Bits(int(indexed), 1)))[0] is first


def test_repeated_instruction_words_share_one_instruction():
    inc, out = Instruction(Opcode.INC, 1), Instruction(Opcode.OUT, 2)
    program = MachineProgram((inc, out, inc, Instruction(Opcode.JZ, 0, 1)))
    decoded, _ = decode(encode_machine_program(program))
    assert decoded == program
    assert decoded.instructions[0] is decoded.instructions[2]
    other, _ = decode(encode_machine_program(MachineProgram((out, inc))))
    assert other.instructions[0] is decoded.instructions[1]
    assert other.instructions[1] is decoded.instructions[0]


def check_decoded_register_program(value: int, length: int, jumps: dict) -> bool:
    """Whether the string decodes to a register program. If it does, checks
    that the decoder's class records whether it has an OUT, and that each
    of its JZs is the one instruction of its (register, target) in jumps."""
    program, _ = _decode(value, length)
    if not isinstance(program, MachineProgram):
        return False
    emits = any(ins.op is Opcode.OUT for ins in program.instructions)
    assert type(program) is (MachineProgram if emits else SilentProgram), (value, length)
    assert program == MachineProgram(program.instructions)
    for ins in program.instructions:
        if ins.op is Opcode.JZ:
            assert jumps.setdefault((ins.reg, ins.target), ins) is ins, (value, length)
    return True


def test_decode_records_out_and_interns_every_jump():
    # Every string of up to 16 bits and random ones of 64-1536 bits.
    jumps: dict = {}
    decoded = sum(
        check_decoded_register_program(value, length, jumps)
        for length in range(17)
        for value in range(1 << length)
    )
    rng = random.Random(1536)
    for _ in range(3000):
        length = rng.randint(64, 1536)
        decoded += check_decoded_register_program(rng.getrandbits(length), length, jumps)
    assert decoded > 25_000 and len(jumps) > 50


def test_indexed_memo_shares_members_and_is_bounded():
    prefix = encode_generator("monotone_chain", indexed=True)
    bits = prefix.concat(gamma_encode(41))
    first = run_prefix(bits, 100)
    assert first.emitted == (sequence_by_id("monotone_chain").emit(40),)
    # Trailing data and a larger budget leave the run, and its member, alone.
    assert run_prefix(bits.concat(Bits.from_string("1011")), 300) is first
    limit = _indexed_trace.cache_info().maxsize
    assert limit is not None
    atoms = encode_generator("atom_chain", indexed=True)
    for n in range(limit + 10):
        assert run_prefix(atoms.concat(gamma_encode(n + 1)), n + 64).emitted == (Atom(n),)
    assert _indexed_trace.cache_info().currsize <= limit
