import importlib.resources
import math
import random
from fractions import Fraction

import pytest

from sentprob import estimator, machine
from sentprob.bits import Bits, derive_seed, random_bits
from sentprob.consistency import ConCache
from sentprob.estimator import (
    StageParams,
    accumulate_claims,
    default_growth,
    default_schedule,
    extension_probabilities,
    membership_counts,
    membership_counts_exact,
    monte_carlo_estimate,
    sequence_trajectories,
    single_machine_stage,
    wilson_halfwidth,
)
from sentprob.harness import load_config
from sentprob.logic import (
    BOTTOM,
    EMPTY_THEORY,
    And,
    Atom,
    Implies,
    Not,
    Or,
    parse_sentence,
    render_sentence,
    sentence_at,
)
from sentprob.machine import (
    Instruction,
    MachineProgram,
    Opcode,
    OutputTrace,
    _decode,
    emission,
    register_emissions,
    run_prefix,
)
from sentprob.prover import refute_bounded, semantic_consistent
from sentprob.sequences import sequence_by_id
from test_bits import leading_word
from test_logic import theory_from_axioms
from test_machine import assemble_emit_one, boundary_strings
from test_sequences import constant_of

BATTERY_TEXTS = [
    "a0",
    "!a0",
    "(_|_ -> _|_)",
    "_|_",
    "a1",
    "(a0 & a1)",
    "!!a0",
    "(a0 | !a0)",
    "!a1",
    "(!a0 & !a1024)",
]

# Frozen against an independent enumeration of all 4096 inputs: run each
# 12-bit string through the machine and merge its output iff the whole
# emission is satisfiable, then count membership per battery sentence.
COUNTS_12BIT = [85, 783, 0, 0, 4, 0, 54, 207, 65, 198]


def sample_strings(stage: StageParams, sample_seed: int) -> list[Bits]:
    """The strings membership_counts draws for the sample with this seed,
    built whole."""
    width = stage.string_bits
    return [random_bits(derive_seed(sample_seed, j), width) for j in range(stage.machines)]


def battery():
    return [parse_sentence(t) for t in BATTERY_TEXTS]


def pad(bits, width):
    return bits.concat(Bits(0, width - bits.length))


def test_growth_and_schedule_shapes():
    assert [default_growth(n) for n in range(1, 8)] == [24, 48, 96, 192, 384, 512, 512]
    sch = default_schedule()
    assert [s.n for s in sch] == [1, 2, 3, 4, 5]
    for s, size in zip(sch, (24, 48, 96, 192, 384)):
        assert (s.machines, s.string_bits, s.steps, s.axioms) == (size,) * 4


def test_standard_con_budgets_track_growth():
    budgets = [s.proof_budget for s in default_schedule(9)]
    assert budgets[0] == 384
    assert budgets[4] == 16 * 384
    assert budgets[8] == 16 * 512
    capped = default_schedule(4, cap=50, proof_floor=1000, proof_factor=32)
    assert [s.machines for s in capped] == [24, 48, 50, 50]
    assert [s.proof_budget for s in capped] == [1000, 1536, 1600, 1600]
    with pytest.raises(ValueError, match="exceeds the growth ceiling 512"):
        default_schedule(cap=513)


def test_stage_record_and_public_surface():
    # A stage is a plain record of the values the pipeline reads, and every
    # public name resolves; the budget wrapper and the one-member mode enum
    # are gone.
    import sentprob

    assert list(StageParams._fields) == [
        "n", "machines", "string_bits", "steps", "axioms", "proof_budget", "theory"
    ]
    for name in sentprob.__all__:
        assert hasattr(sentprob, name), name
    assert not {"ConParams", "EstimateMode"} & set(sentprob.__all__)
    assert not hasattr(sentprob, "ConParams") and not hasattr(sentprob, "EstimateMode")


def test_records_are_immutable_and_sequences_compare_without_emit():
    stage = default_schedule(2)[-1]
    trace = OutputTrace((Atom(0),), 1, True, 0)
    records = [(Bits(5, 3), "value"), (Instruction(Opcode.INC, 0), "reg")]
    records += [(stage, "proof_budget"), (trace, "steps_used")]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    # A copy is checked as the constructor checks.
    assert stage._replace(proof_budget=0).proof_budget == 0
    with pytest.raises(ValueError, match="proof_budget"):
        stage._replace(proof_budget=-1)
    first, second = constant_of(Atom(3), "x"), constant_of(Atom(3), "x")
    assert first.emit is not second.emit
    assert first == second and not first != second and hash(first) == hash(second)
    assert first != constant_of(Atom(3), "y")


def test_single_machine_stage_overrides():
    st = single_machine_stage(12)
    assert (st.n, st.machines, st.string_bits, st.steps, st.axioms) == (1, 1, 12, 12, 0)
    st2 = single_machine_stage(12, step_budget=40, axiom_count=2)
    assert st2.steps == 40
    assert st2.axioms == 2


def test_stage_axioms():
    st = single_machine_stage(12, axiom_count=2, theory=theory_from_axioms("one", [Atom(0)]))
    ax = st.axiom_set
    assert ax.key == ("(_|_ -> _|_)", "a0")
    # Built once per stage: every sample starts from the same object.
    assert st.axiom_set is ax
    assert single_machine_stage(12).axiom_set.key == ()


def test_accumulate_order_dependence():
    st = single_machine_stage(16)
    w_pos = pad(assemble_emit_one(1), 16)
    w_neg = pad(assemble_emit_one(7), 16)
    assert accumulate_claims([w_pos, w_neg], st).key == ("a0",)
    assert accumulate_claims([w_neg, w_pos], st).key == ("!a0",)
    assert accumulate_claims([], st).key == ()


def test_accumulate_accepts_every_tautology_emitter():
    st = single_machine_stage(14)
    w_top = pad(assemble_emit_one(5), 14)
    claims = accumulate_claims([w_top, w_top, w_top], st)
    assert claims.key == ("(_|_ -> _|_)",)


def test_accumulate_rejects_short_strings():
    with pytest.raises(ValueError, match="needs 12"):
        accumulate_claims([Bits(0, 5)], single_machine_stage(12))


DRAW_WIDTHS = (0, 1, 11, 12, 13, 24, 63, 64, 65, 384)


def table_draws(table, seeds):
    """What the table draws for each seed from its leading word, passing
    the seed only past 64 bits: a narrower draw must never read it."""
    if table.width <= 64:
        return [table.draw(leading_word(s)) for s in seeds]
    return [table.draw(leading_word(s), s) for s in seeds]


def test_draw_table_matches_whole_string_runs(monkeypatch):
    # Each draw is what its whole string emits, whether its prefix class was
    # filled by an earlier draw or not: widths on both sides of the table's
    # 12 bits and of a splitmix word's 64, tables filled first by other seeds
    # in another order, and budgets that stop runs early and late.
    calls = {"emission": 0, "wide_emission": 0, "random_bits": 0}

    def counting(name):
        fn = getattr(estimator, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(estimator, name, counted)

    for name in calls:
        counting(name)
    seeds = [derive_seed(17, j) for j in range(300)]
    others = [derive_seed(18, j) for j in range(300)]
    for width in DRAW_WIDTHS:
        calls.update(dict.fromkeys(calls, 0))
        budgets = sorted({0, 4, width, 3 * width})
        for steps in budgets:
            want = [run_prefix(random_bits(s, width), steps).emitted for s in seeds]
            fresh = estimator._DrawTable(width, steps)
            assert table_draws(fresh, seeds) == want, (width, steps)
            reverse = estimator._DrawTable(width, steps)
            assert table_draws(reverse, seeds[::-1]) == want[::-1], (width, steps)
            filled = estimator._DrawTable(width, steps)
            table_draws(filled, others[::-1])
            assert table_draws(filled, seeds) == want, (width, steps)
        # A miss at width <= 64 takes the emission of the leading word
        # itself; a wider one reads the word first and builds the whole
        # string only when the word does not settle it, inside
        # wide_emission. The table answers some draws with no miss at all.
        builds, emissions = calls["random_bits"], calls["emission"]
        misses = emissions if width <= 64 else calls["wide_emission"]
        if width <= 64:
            assert builds == calls["wide_emission"] == 0, width
        else:
            assert 0 < builds < misses and emissions == 0, width
        assert misses < len(budgets) * (3 * len(seeds) + len(others)), width
    assert len(estimator._DrawTable(384, 0).slots) == 1 << estimator.TABLE_BITS
    assert len(estimator._DrawTable(11, 0).slots) == 1 << 11


WIDE_WIDTHS = (65, 96, 127, 128, 384, 512)


def test_prefix_settled_draws_match_whole_strings(monkeypatch):
    # Past 64 bits a miss first reads its leading word as a 64-bit prefix;
    # each draw still equals its whole string's run, and the table fills
    # exactly the slots of one that builds every missed string. Random
    # strings first, then strings built on both sides of bit 64, each
    # drawn by its index: its word is cut from the built string, and a
    # patched random_bits returns the whole string.
    def whole_string(word, t, whole):
        bits = whole()
        return emission(bits.value, bits.length, t)

    def compare(width, steps, seeds, strings, word=leading_word):
        want = [run_prefix(strings(s), steps).emitted for s in seeds]
        table = estimator._DrawTable(width, steps)
        draws = [table.draw(word(s), s) for s in seeds]
        with monkeypatch.context() as m:
            m.setattr(estimator, "wide_emission", whole_string)
            whole = estimator._DrawTable(width, steps)
            whole_draws = [whole.draw(word(s), s) for s in seeds]
        assert draws == whole_draws == want, (width, steps)
        assert table.slots == whole.slots, (width, steps)

    seeds = [derive_seed(19, j) for j in range(400)]
    for width in WIDE_WIDTHS:
        for steps in sorted({0, 4, width, 3 * width}):
            compare(width, steps, seeds, lambda s: random_bits(s, width))
    for width in WIDE_WIDTHS:
        built = [bits for _, bits, _ in boundary_strings(width)]
        monkeypatch.setattr(estimator, "random_bits", lambda i, n: built[i])
        for steps in sorted({0, 4, width, 3 * width}):
            compare(
                width,
                steps,
                range(len(built)),
                built.__getitem__,
                lambda i: built[i].value >> (width - 64),
            )


def test_membership_counts_match_explicit_strings():
    # membership_counts draws through its table what accumulating each
    # sample's whole strings merges.
    sentences = battery() + [sentence_at(k) for k in range(40)]
    for stage in default_schedule(3):
        counts = [0] * len(sentences)
        for i in range(6):
            strings = sample_strings(stage, derive_seed(5, stage.n, i))
            held = accumulate_claims(strings, stage)
            for j, phi in enumerate(sentences):
                counts[j] += phi in held
        assert membership_counts(sentences, stage, 6, 5) == counts, stage.n


# Falsum, both literals of a0 and a1, a tautology, and an atom whose index
# is past any register value or family member a run of at most 96 steps on
# at most 96 bits can reach, so no machine of stages 1-3 emits it.
SKIP_BATTERY = [parse_sentence(t) for t in ("_|_", "a0", "!a0", "a1", "!a1", "(a0 | !a0)")] + [
    Atom(1 << 250)
]


def full_merge(drawn, stage, cache):
    """The claim set of merging every drawn tuple in order, with no stop:
    the reference the stopping accumulation is compared against."""
    claims = stage.axiom_set
    for emitted in drawn:
        claims = estimator._merge(claims, emitted, stage.proof_budget, cache)
    return claims


def sample_emissions(stage, seed, i):
    """What each string of sample i of membership_counts(..., seed) emits."""
    strings = sample_strings(stage, derive_seed(seed, stage.n, i))
    return [run_prefix(bits, stage.steps).emitted for bits in strings]


def full_merge_counts(battery, stage, samples, seed):
    counts = [0] * len(battery)
    cache = ConCache()
    for i in range(samples):
        held = full_merge(sample_emissions(stage, seed, i), stage, cache)
        for j, phi in enumerate(battery):
            counts[j] += phi in held
    return counts


def test_membership_counts_skip_keeps_every_count():
    # A sample stops merging once no later draw can change a count; the
    # reference merges every draw. At budget 0 the gate accepts a clash of
    # unit literals, so only falsum settles a sentence there; at budgets 1
    # and 4 a clash does too, and the budget binds. The unit axioms a0 and
    # !a1 clash with !a0 and a1 before any draw.
    units = theory_from_axioms("units", [Atom(0), Not(Atom(1))])
    for budget in (0, 1, 4):
        for stage in default_schedule(3, proof_floor=budget, proof_factor=0):
            for stage in (stage, stage._replace(axioms=2, theory=units)):
                for seed in range(20):
                    full = full_merge_counts(SKIP_BATTERY, stage, 3, seed)
                    got = membership_counts(SKIP_BATTERY, stage, 3, seed)
                    assert got == full, (budget, stage.n, stage.theory.name, seed)


def test_skip_gates_fewer_merges(monkeypatch):
    calls = [0]
    gate = estimator.consistent_enough

    def counted(*args):
        calls[0] += 1
        return gate(*args)

    monkeypatch.setattr(estimator, "consistent_enough", counted)
    stage = default_schedule(3)[-1]
    full = full_merge_counts(SKIP_BATTERY, stage, 4, 7)
    full_calls, calls[0] = calls[0], 0
    assert membership_counts(SKIP_BATTERY, stage, 4, 7) == full
    assert 0 < calls[0] < full_calls


def test_accumulating_every_sentence_is_the_full_merge():
    # With no wanted set, accumulate_claims stops only where every later
    # merge adds nothing or is refuted by the clause summary, so it builds
    # the full merge's set and leaves it only summary decisions. The small
    # schedules (a budget of the stage's size, 2 and 0) make the proof
    # budget bind: some final sets are refuted at 4096 and kept here.
    binding = 0
    for floor, factor in ((256, 16), (1, 1), (2, 0), (0, 0)):
        cache, reference = ConCache(), ConCache()
        for stage in default_schedule(4, proof_floor=floor, proof_factor=factor):
            for i in range(15):
                drawn = sample_emissions(stage, 41, i)
                full = full_merge(drawn, stage, reference)
                got = accumulate_claims(drawn, stage, cache)
                assert got.key == full.key, (floor, factor, stage.n, i)
                binding += refute_bounded(full.sentences, 4096).refuted
        for path in ("closure", "plain"):
            assert cache.paths[path] == reference.paths[path], (floor, factor, cache.paths)
        assert cache.paths["summary"] < reference.paths["summary"], (floor, factor)
    assert binding > 50


def test_exact_counts_frozen():
    counts, total = membership_counts_exact(battery(), single_machine_stage(12), bit_budget=12)
    assert total == 4096
    assert counts == COUNTS_12BIT


def test_exact_counts_match_fresh_oracle():
    # Reimplement the whole pipeline from the machine up, with a one-shot
    # satisfiability gate instead of the bounded prover, and compare.
    from sentprob.machine import run_prefix

    st = single_machine_stage(12)
    sentences = battery()
    oracle = [0] * len(sentences)
    for v in range(1 << 12):
        emitted = run_prefix(Bits(v, 12), st.steps).emitted
        if not emitted or not semantic_consistent(list(emitted)):
            continue
        got = set(emitted)
        for j, phi in enumerate(sentences):
            if phi in got:
                oracle[j] += 1
    assert oracle == COUNTS_12BIT


def exact_counts_per_vector(battery, stage):
    """The exact pass as first written: split every bit vector of the stage
    into its machines' strings and run one accumulation per vector."""
    machines, width = stage.machines, stage.string_bits
    total = machines * width
    mask = (1 << width) - 1
    counts = [0] * len(battery)
    cache = ConCache()
    for value in range(1 << total):
        strings = [
            Bits((value >> (total - (j + 1) * width)) & mask, width) for j in range(machines)
        ]
        claims = accumulate_claims(strings, stage, cache)
        for j, s in enumerate(battery):
            if s in claims:
                counts[j] += 1
    return counts, 1 << total


def test_exact_counts_match_per_vector_oracle():
    # Single- and multi-machine stages with and without axioms, at proof
    # budgets 0-8; the budget decides some merges, with axioms and without.
    # Thirty machines on empty strings walk thirty levels deep. The walk
    # never builds its last level and merges there only the outputs that
    # can still add a battery sentence; SKIP_BATTERY and the unit axioms of
    # "units", which clash with !a0 and a1, exercise both refutations.
    theories = [
        theory_from_axioms(
            "three", [Not(Atom(0)), Implies(Atom(1), Atom(0)), Or(Atom(2), Atom(1))]
        ),
        theory_from_axioms("units", [Atom(0), Not(Atom(1)), Or(Atom(2), Atom(1))]),
    ]
    sentences = battery() + SKIP_BATTERY + [sentence_at(k) for k in range(40)]
    binding = set()
    for machines, width, steps, axiom_counts in (
        (1, 12, 40, (0, 3)),
        (2, 6, 8, (0, 3)),
        (3, 3, 12, (0, 3)),
        (2, 7, 4, (3,)),
        (30, 0, 4, (3,)),
    ):
        for axioms in axiom_counts:
            for theory in theories if axioms else theories[:1]:
                seen = set()
                for budget in range(9):
                    stage = StageParams(
                        n=1,
                        machines=machines,
                        string_bits=width,
                        steps=steps,
                        axioms=axioms,
                        proof_budget=budget,
                        theory=theory,
                    )
                    got = membership_counts_exact(sentences, stage, bit_budget=machines * width)
                    where = (machines, width, budget, theory.name, axioms)
                    assert got == exact_counts_per_vector(sentences, stage), where
                    seen.add(tuple(got[0]))
                if len(seen) > 1:
                    binding.add((theory.name, axioms))
    assert binding == {("three", 0), ("three", 3), ("units", 3)}
    # Sixteen bits leave room for register machines whose output depends on
    # the data they load.
    wide = single_machine_stage(16)
    assert membership_counts_exact(sentences, wide, bit_budget=16) == exact_counts_per_vector(
        sentences, wide
    )
    empty = StageParams(
        n=1, machines=0, string_bits=12, steps=12, axioms=3, proof_budget=0, theory=theories[0]
    )
    assert membership_counts_exact(sentences, empty) == exact_counts_per_vector(sentences, empty)
    assert membership_counts_exact(sentences, empty)[0][:10] == [0, 1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_exact_runs_each_block_once_per_stage(monkeypatch):
    # Every machine of a stage shares one pass over the blocks of 8-bit
    # strings, however many machines there are: 37 `emission` calls for the
    # generator half, and no register block, as no register program with an
    # OUT fits 8 bits. At 16 bits the generator half takes 1,345 calls and
    # the 968 register programs with an OUT run 1,096 data blocks; the 3,240
    # blocks of programs without OUT are never visited. A pass over every
    # block of emission extents takes 6,462 calls, one over run extents
    # 7,110.
    calls = []
    blocks = []

    def counted(value, length, t):
        calls.append(value)
        return emission(value, length, t)

    def counted_blocks(length, t):
        for block in register_emissions(length, t):
            blocks.append(block)
            yield block

    monkeypatch.setattr(estimator, "emission", counted)
    monkeypatch.setattr(estimator, "register_emissions", counted_blocks)
    for machines in (1, 2, 3):
        calls.clear()
        blocks.clear()
        stage = StageParams(
            n=1, machines=machines, string_bits=8, steps=8, axioms=0, proof_budget=96
        )
        membership_counts_exact(battery(), stage, bit_budget=24)
        assert (len(calls), len(blocks)) == (37, 0), machines
    calls.clear()
    membership_counts_exact(battery(), single_machine_stage(16), bit_budget=16)
    assert (len(calls), len(blocks)) == (1345, 1096)


def block_pass_reference(width, steps):
    """The emission table as the per-block pass first built it: one
    `emission` call per block of strings sharing the bits their emission
    depends on, register programs without OUT included."""
    outputs = {}
    value, size = 0, 1 << width
    while value < size:
        emitted, extent = emission(value, width, steps)
        end = (value | ((1 << (width - extent)) - 1)) + 1
        outputs[emitted] = outputs.get(emitted, 0) + end - value
        value = end
    return outputs


def test_emission_table_matches_the_per_block_pass():
    # The same counts, and the same key order, so the breadth-first walk
    # merges in the same order and every gate call and cache counter is
    # unchanged.
    cases = [(w, b) for w in range(17) for b in sorted({0, 1, 4, w, 3 * w})] + [(20, 20)]
    for width, steps in cases:
        got = estimator._emission_table(width, steps)
        assert list(got.items()) == list(block_pass_reference(width, steps).items()), (
            width,
            steps,
        )


def test_register_programs_with_out_are_decoded_once(monkeypatch):
    # The register half decodes each complete program with an OUT exactly
    # once, from its prefix padded with zeros, and no other register string.
    for width in (9, 15, 16, 18):
        half = 1 << (width - 1)
        want = set()
        for value in range(half):
            program, pos = machine._decode(value, width)
            if isinstance(program, MachineProgram) and any(
                ins.op is Opcode.OUT for ins in program.instructions
            ):
                want.add(value >> (width - pos) << (width - pos))
        decoded = []

        def counted(value, length):
            if value < half:
                decoded.append(value)
            return _decode(value, length)

        monkeypatch.setattr(machine, "_decode", counted)
        estimator._emission_table(width, width)
        monkeypatch.undo()
        assert sorted(decoded) == sorted(want) and len(set(decoded)) == len(decoded), width
    assert len(want) > 1000
    with pytest.raises(ValueError):
        next(register_emissions(16, -1))


def test_exact_counts_of_multi_machine_stages_frozen():
    # Counts of the depth-first walk that ran every machine's blocks under
    # every claim set the earlier machines reached.
    frozen = {
        (2, 12): [596870, 5692410, 0, 0, 32392, 0, 380862, 1652895, 527670, 1545192],
        (3, 8): [445725, 7591680, 0, 0, 0, 0, 445725, 2250432, 774208, 2174832],
    }
    for (machines, width), want in frozen.items():
        stage = StageParams(
            n=1, machines=machines, string_bits=width, steps=width, axioms=0, proof_budget=96
        )
        assert membership_counts_exact(battery(), stage) == (want, 1 << 24)


def test_exact_estimate_is_dyadic():
    (count,), total = membership_counts_exact([Atom(0)], single_machine_stage(12), bit_budget=12)
    value = Fraction(count, total)
    assert value == Fraction(85, 4096)
    assert total == 4096
    den = value.denominator
    assert den & (den - 1) == 0 and 4096 % den == 0


def test_exact_zero_cases():
    st = single_machine_stage(12)
    assert membership_counts_exact([BOTTOM], st, bit_budget=12) == ([0], 4096)
    empty = StageParams(n=1, machines=0, string_bits=12, steps=12, axioms=0, proof_budget=96)
    assert membership_counts_exact([Atom(0)], empty, bit_budget=12) == ([0], 1)


def test_exact_budget_errors():
    st = single_machine_stage(12)
    with pytest.raises(ValueError, match="capped at 24"):
        membership_counts_exact([BOTTOM], st, bit_budget=25)
    with pytest.raises(ValueError, match="Monte Carlo"):
        membership_counts_exact([BOTTOM], single_machine_stage(30), bit_budget=24)


def test_wilson_halfwidth():
    assert wilson_halfwidth(0, 0) == 0.0
    assert wilson_halfwidth(50, 100) == pytest.approx(0.0962, abs=5e-4)
    assert wilson_halfwidth(0, 100) == wilson_halfwidth(100, 100)
    assert 0 < wilson_halfwidth(0, 100) < wilson_halfwidth(50, 100)


def test_mc_requires_samples():
    with pytest.raises(ValueError, match="at least one sample"):
        monte_carlo_estimate(0, 0, 1)
    schedule = [single_machine_stage(12)]
    with pytest.raises(ValueError, match="at least one sample"):
        sequence_trajectories([sequence_by_id("atom_chain")], schedule, 0, 1)
    with pytest.raises(ValueError, match="at least one sample"):
        extension_probabilities([Atom(0)], 3, 2, 0)


def test_mc_reproducible_and_seed_sensitive():
    st = single_machine_stage(12)
    a = membership_counts(battery(), st, 500, 11)
    assert membership_counts(battery(), st, 500, 11) == a
    assert membership_counts(battery(), st, 500, 12) != a
    est = monte_carlo_estimate(a[0], 500, 11)
    assert (est.value, est.samples, est.seed) == (Fraction(a[0], 500), 500, 11)
    assert est.ci_halfwidth > 0


def test_mc_agrees_with_exact():
    st = single_machine_stage(12)
    (hits,) = membership_counts([Atom(0)], st, 10_000, 20260817)
    (count,), total = membership_counts_exact([Atom(0)], st, bit_budget=12)
    gap = abs(Fraction(hits, 10_000) - Fraction(count, total))
    assert gap <= 3 * wilson_halfwidth(hits, 10_000)
    # Three machines of 8 bits, where later machines' merges go through the
    # gate against what earlier ones claimed.
    st = StageParams(n=1, machines=3, string_bits=8, steps=8, axioms=0, proof_budget=96)
    sentences = [Atom(0), Not(Atom(0)), Or(Atom(0), Not(Atom(0)))]
    hits = membership_counts(sentences, st, 10_000, 20260817)
    counts, total = membership_counts_exact(sentences, st, bit_budget=24)
    for h, count in zip(hits, counts):
        assert count > 0
        gap = abs(Fraction(h, 10_000) - Fraction(count, total))
        assert gap <= 3 * wilson_halfwidth(h, 10_000)


def test_mc_intervals_cover_the_exact_oracle_over_seeds():
    # 60 seeds x 400 samples of the 1 x 16-bit stage at n = 1 against its
    # exact counts: the draw table, the seed tree and the Wilson formula in
    # one check. Each cell whose exact probability p is strictly between 0
    # and 1 gets the 95% Wilson interval of its estimate and the z-score
    # (estimate - p) / sqrt(p (1 - p) / samples). The bounds were fixed
    # before the first run: at most 10% of the intervals miss p, and the
    # mean z-score is within 0.2 of 0.
    stage = single_machine_stage(16)
    sentences = battery()
    counts, total = membership_counts_exact(sentences, stage, bit_budget=16)
    samples, z2 = 400, estimator._Z95**2
    misses, zs = 0, []
    for seed in range(60):
        for hits, count in zip(membership_counts(sentences, stage, samples, seed), counts):
            if not 0 < count < total:
                continue
            p, estimate = count / total, hits / samples
            center = (estimate + z2 / (2 * samples)) / (1 + z2 / samples)
            misses += abs(p - center) > wilson_halfwidth(hits, samples)
            zs.append((estimate - p) / math.sqrt(p * (1 - p) / samples))
    assert len(zs) >= 300
    assert misses <= 0.10 * len(zs)
    assert abs(sum(zs) / len(zs)) <= 0.2


def test_theorem_membership_at_moderate_stage():
    stage = default_schedule(2)[1]
    (hits,) = membership_counts([Or(Atom(0), Not(Atom(0)))], stage, 2000, 5)
    assert hits >= 1000


def test_simplicity_lower_bound_small():
    # any satisfiable sentence is seen at least as often as its own emitter
    st = single_machine_stage(12)
    counts, total = membership_counts_exact([sentence_at(1), sentence_at(2)], st, bit_budget=12)
    for k, count in zip((1, 2), counts):
        w = assemble_emit_one(k)
        assert w.length <= 12
        assert Fraction(count, total) >= Fraction(1, 2**w.length)


def test_probability_law_is_permutation_invariant():
    st = StageParams(n=1, machines=2, string_bits=12, steps=12, axioms=12, proof_budget=96)
    target = Atom(0)
    (base,) = membership_counts([target], st, 4000, 333)
    rng = random.Random(1)
    hits = 0
    for i in range(4000):
        strs = sample_strings(st, derive_seed(333, st.n, i))
        rng.shuffle(strs)
        if target in accumulate_claims(strs, st):
            hits += 1
    sigma = (wilson_halfwidth(base, 4000) + wilson_halfwidth(hits, 4000)) / 1.96
    assert abs(Fraction(base - hits, 4000)) <= 3 * sigma


def test_trajectories_shapes_and_decoupling():
    schedule = default_schedule(2)
    seqs = [sequence_by_id("constant_bottom"), sequence_by_id("tautology_chain")]
    both = sequence_trajectories(seqs, schedule, 40, 9, ConCache())
    assert set(both) == {"constant_bottom", "tautology_chain"}
    assert all(len(tr) == 2 for tr in both.values())
    alone = sequence_trajectories(seqs[:1], schedule, 40, 9, ConCache())["constant_bottom"]
    assert both["constant_bottom"] == alone
    for est in alone:
        assert est.samples == 40
        assert est.seed == 9
    assert all(e.value == 0 for e in both["constant_bottom"])


def test_trajectories_do_not_depend_on_sample_order(monkeypatch):
    # A gate miss stores a result that depends on the claim set and the
    # budget alone, so drawing every stage's samples in reverse order gives
    # the same trajectories and the same cache statistics.
    demo = importlib.resources.files("sentprob") / "configs" / "demo.ini"
    cfg = load_config(str(demo))
    seqs = [sequence_by_id(sid) for sid in cfg.sequence_ids]

    def trajectories():
        cache = ConCache()
        return sequence_trajectories(seqs, cfg.schedule, cfg.samples, cfg.seed, cache), cache.stats()

    forward = trajectories()
    drawn = []

    def reversed_seed(seed, n, i):
        drawn.append(i)
        return derive_seed(seed, n, cfg.samples - 1 - i)

    monkeypatch.setattr(estimator, "derive_seed", reversed_seed)
    backward = trajectories()
    assert len(drawn) == cfg.samples * len(cfg.schedule)
    assert backward == forward
    assert forward[1]["hits"] > 0


def test_extension_zero_rounds_is_bare():
    # With no rounds neither the axioms nor any machine claim is taken.
    one = theory_from_axioms("one", [Atom(0)])
    (e,) = extension_probabilities([Atom(0)], 3, 0, 5, theory=one)
    assert (e.value, e.undecided) == (0, 5)


def test_extension_keeps_axioms_and_stays_satisfiable():
    t = theory_from_axioms("one", [Atom(0)])
    sentences = [parse_sentence(x) for x in ("a1", "a2", "(a1 & a2)", "(a0 -> a2)", "(a1 | !a2)")]
    for rounds in (6, 64):
        ests = extension_probabilities(
            [Atom(0), BOTTOM] + sentences + [Not(s) for s in sentences], 7, rounds, 100, theory=t
        )
        assert ests[0].value == 1
        assert ests[1].value == 0
        k = len(sentences)
        for pos, neg in zip(ests[2 : 2 + k], ests[2 + k :]):
            assert pos.value + neg.value <= 1


def test_extension_rejects_axioms_outside_window():
    far = theory_from_axioms("far", [Atom(9)])
    with pytest.raises(ValueError, match="outside the window"):
        extension_probabilities([Atom(0)], 3, 1, 1, theory=far, atom_window=3)


def test_extension_projects_wide_claims(monkeypatch):
    # A claim mentioning an atom outside the window is projected out: it
    # decides nothing, and the window claims emitted with it are still taken.
    # Every draw is counted, so the patched table is known to be the one
    # the sampler drew from.
    draws = [0]

    def emitting(*claims):
        def draw(table, word, seed=None):
            draws[0] += 1
            return claims

        draws[0] = 0
        monkeypatch.setattr(estimator._DrawTable, "draw", draw)

    wide = And(Atom(0), Atom(5))
    emitting(wide)
    (e,) = extension_probabilities([Atom(0)], 3, 4, 10)
    assert (e.value, e.undecided) == (0, 10)
    assert draws[0] == 40
    emitting(wide, Atom(1))
    e, f = extension_probabilities([Atom(0), Atom(1)], 3, 4, 10)
    assert (e.value, e.undecided, f.value) == (0, 10, 1)
    assert draws[0] == 40
    emitting(And(Atom(0), Atom(2)))
    (e,) = extension_probabilities([Atom(0)], 3, 4, 10)
    assert e.value == 1
    assert draws[0] == 10


def full_round_models(seed, samples, rounds, base_models, draws, order, memo, stops):
    """Differential oracle for estimator._extension_models: the extension
    loop sample by sample, with no early stop and no draw table, every
    round's whole string built from a seed from derive_seed and run. Also
    returns the number of rounds, summed over the samples, each ran until
    its model set first held at most one valuation or decided every battery
    sentence, lying inside its pos or its neg mask (rounds when neither
    happened)."""

    def settled(models):
        if not models & (models - 1):
            return True
        pairs = zip(stops.pos, stops.neg)
        return all(models & p == models or models & n == models for p, n in pairs)

    left = []
    needed = 0
    for i in range(samples):
        sample_seed = derive_seed(seed, i)
        models = base_models
        settled_at = 0 if settled(models) else None
        for j in range(rounds):
            string = random_bits(derive_seed(sample_seed, j), draws.width)
            mask = models
            for s in run_prefix(string, draws.steps).emitted:
                m = estimator._window_mask(s, order, memo)
                if m is None:
                    continue
                mask &= m
                if not mask:
                    break
            if mask:
                models = mask
            if settled_at is None and settled(models):
                settled_at = j + 1
        left.append(models)
        needed += rounds if settled_at is None else settled_at
    return left, needed


EXTENSION_BATTERY = [
    parse_sentence(t)
    for t in ("_|_", "a0", "!a0", "a1", "!a1", "(a0 | !a0)", "(a2 -> a3)", "(a1 & a4)")
]


def early_stop_against_oracle(
    monkeypatch, seed, rounds, samples, theory, budget, window, battery=EXTENSION_BATTERY, left=None
):
    """Estimates and rounds drawn by the sampler, and of the full-round
    oracle with the number of rounds it needed before each set settled.
    When given, the list left gets the model set each sample stopped with.
    Each call of extension_probabilities must reach the seam patched for
    it, once, or the comparison would be of the sampler with itself."""
    runs = [0]
    needed = [0]
    calls = {"sampler": 0, "oracle": 0}
    derive = estimator.child_draws
    models_of = estimator._extension_models

    def counting_draws(lanes, with_seeds):
        # Every round drawn is derived here, table hit or miss.
        runs[0] += len(lanes)
        return derive(lanes, with_seeds)

    def recording_models(*args):
        calls["sampler"] += 1
        models = models_of(*args)
        if left is not None:
            left.extend(models)
        return models

    def oracle(*args):
        calls["oracle"] += 1
        models, settled_at = full_round_models(*args)
        needed[0] += settled_at
        return models

    args = (battery, seed, rounds, samples, theory, budget, window)
    with monkeypatch.context() as m:
        m.setattr(estimator, "child_draws", counting_draws)
        m.setattr(estimator, "_extension_models", recording_models)
        fast = extension_probabilities(*args)
    with monkeypatch.context() as m:
        m.setattr(estimator, "_extension_models", oracle)
        slow = extension_probabilities(*args)
    assert calls == {"sampler": 1, "oracle": 1}
    return fast, slow, runs[0], needed[0]


def test_extension_early_stop_matches_full_rounds(monkeypatch):
    # Stopping once the model set holds one valuation or none changes no
    # count and no undecided count, and no round runs after that point.
    # The axioms of "fixed" settle every window atom; "clash" leaves no model.
    # A 96-step budget draws 96-bit strings, whose misses need their seeds.
    clash = theory_from_axioms("clash", [Atom(0), Not(Atom(0))])
    total_runs = total_needed = 0
    for window in (1, 2, 3, 4):
        fixed = theory_from_axioms("fixed", [Atom(i) if i % 2 else Not(Atom(i)) for i in range(window)])
        for seed in (1, 2, 3, 123, 20260817):
            for rounds in (0, 1, 2, 64):
                for budget in (8, 64, 96):
                    for theory in (EMPTY_THEORY, fixed, clash):
                        fast, slow, runs, needed = early_stop_against_oracle(
                            monkeypatch, seed, rounds, 12, theory, budget, window
                        )
                        # Estimates compare counts and undecided counts.
                        case = (seed, window, rounds, budget, theory.name)
                        assert fast == slow, case
                        assert runs == needed <= 12 * rounds, case
                        total_runs += runs
                        total_needed += needed
    # The sweep drew rounds through the table and through the oracle.
    assert total_runs > 0 and total_needed > 0


def test_extension_early_stop_skips_settled_rounds(monkeypatch):
    # The standard crosscheck shape: most rounds come after the set settles.
    fast, slow, runs, needed = early_stop_against_oracle(
        monkeypatch, 123, 64, 200, EMPTY_THEORY, 64, 3
    )
    assert fast == slow
    assert 0 < runs == needed < 200 * 64 // 3
    # Axioms that fix every window atom settle the set before any round;
    # contradictory ones leave it empty. Either way no machine runs.
    fixed = theory_from_axioms("fixed", [Atom(0), Not(Atom(1)), Atom(2)])
    clash = theory_from_axioms("clash", [Atom(0), Not(Atom(0))])
    for theory in (fixed, clash):
        fast, slow, runs, needed = early_stop_against_oracle(
            monkeypatch, 123, 64, 50, theory, 64, 3
        )
        assert fast == slow
        assert runs == needed == 0
    (falsum,) = extension_probabilities([BOTTOM], 123, 64, 50, theory=clash)
    assert falsum.value == 1


def test_extension_stops_once_the_battery_is_decided(monkeypatch):
    # The standard crosscheck battery at window 3 reads a0 and a1 alone, so
    # a sample stops once both are fixed, with a2 still open: two
    # valuations left, rows r and r + 4 of the window's truth table, where
    # the one-valuation rule drew on (1,756 rounds in all).
    battery = [parse_sentence(t) for t in ("_|_", "a0", "!a0", "a1", "!a1", "(a0 | !a0)")]
    left = []
    fast, slow, runs, needed = early_stop_against_oracle(
        monkeypatch, 123, 64, 200, EMPTY_THEORY, 64, 3, battery, left
    )
    assert fast == slow
    assert runs == needed == 1521
    # Two more samples end with a1 open; they draw all 64 rounds.
    assert len(left) == 200
    assert sum(models in {0x11 << r for r in range(4)} for models in left) == 12


def test_extension_one_valuation_stops_with_a_wide_sentence_undecided(monkeypatch):
    # Axioms that fix a0, a1 and a2 leave one valuation, with a1 true. No
    # set of window valuations decides (a1 & a4) then, yet no round can
    # change the set, so the sample stops before any round and the
    # sentence stays undecided.
    fixed = theory_from_axioms("fixed", [Atom(0), Atom(1), Not(Atom(2))])
    left = []
    fast, slow, runs, needed = early_stop_against_oracle(
        monkeypatch, 123, 64, 50, fixed, 64, 3, [And(Atom(1), Atom(4))], left
    )
    assert fast == slow
    assert (fast[0].value, fast[0].undecided) == (0, 50)
    assert runs == needed == 0
    assert len(left) == 50 and set(left) == {1 << 0b011}


def test_extension_trichotomy():
    p, q = extension_probabilities([Atom(0), Not(Atom(0))], 99, 2, 300)
    assert p.undecided == q.undecided > 0
    assert p.value * 300 + q.value * 300 + p.undecided == 300


def test_extension_decides_with_more_rounds():
    undecided = []
    for rounds in (1, 4, 16, 64):
        (e,) = extension_probabilities([Atom(0)], 7, rounds, 300)
        undecided.append(e.undecided)
    assert undecided[0] > undecided[-1] == 0
    assert sorted(undecided, reverse=True) == undecided


def test_extension_endpoints():
    taut, bot = extension_probabilities([Or(Atom(0), Not(Atom(0))), BOTTOM], 13, 4, 200)
    assert taut.value == 1
    assert bot.value == 0


def test_extension_reproducible():
    a = extension_probabilities([Atom(1)], 21, 8, 150)
    b = extension_probabilities([Atom(1)], 21, 8, 150)
    assert a == b


def test_extension_complementarity_at_scale():
    ests = extension_probabilities([Atom(0), Not(Atom(0))], 424242, 64, 10_000)
    p, q = ests
    assert p.undecided == 0
    assert abs(float(p.value) + float(q.value) - 1) <= 0.05
