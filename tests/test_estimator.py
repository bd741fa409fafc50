import random
from fractions import Fraction

import pytest

from sentprob.bits import Bits, derive_seed
from sentprob.consistency import ConCache, ConParams
from sentprob.estimator import (
    EstimateMode,
    StageParams,
    accumulate_claims,
    default_growth,
    default_schedule,
    extension_probabilities,
    extension_probability,
    membership_counts_exact,
    membership_probability,
    membership_probability_exact,
    membership_trajectory,
    sample_extension,
    sample_strings,
    sequence_trajectories,
    single_machine_stage,
    stage_axioms,
    standard_con,
    standard_stage,
    wilson_halfwidth,
)
from sentprob.logic import (
    BOTTOM,
    Atom,
    Not,
    Or,
    parse_sentence,
    theory_from_axioms,
)
from sentprob.machine import assemble_emit_one
from sentprob.prover import semantic_consistent
from sentprob.sequences import sequence_by_id

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


def battery():
    return [parse_sentence(t) for t in BATTERY_TEXTS]


def pad(bits, width):
    return bits.concat(Bits(0, width - bits.length))


def test_growth_and_schedule_shapes():
    assert [default_growth(n) for n in range(1, 8)] == [24, 48, 96, 192, 384, 512, 512]
    sch = default_schedule()
    assert [s.n for s in sch] == [1, 2, 3, 4, 5]
    for s in sch:
        assert s.machines == s.string_bits == s.steps == s.axioms == s.size


def test_standard_con_budgets_track_growth():
    p = standard_con(1)
    assert p.proof_budget == 384
    assert standard_con(5).proof_budget == 16 * 384
    assert standard_con(9).proof_budget == 16 * 512


def test_single_machine_stage_overrides():
    st = single_machine_stage(12)
    assert (st.n, st.machines, st.string_bits, st.steps, st.axioms) == (1, 1, 12, 12, 0)
    st2 = single_machine_stage(12, step_budget=40, axiom_count=2)
    assert st2.steps == 40
    assert st2.axioms == 2


def test_stage_axioms():
    st = single_machine_stage(12, axiom_count=2, theory=theory_from_axioms("one", [Atom(0)]))
    ax = stage_axioms(st)
    assert ax.key == ("(_|_ -> _|_)", "a0")
    assert stage_axioms(single_machine_stage(12)).key == ()


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


def test_exact_estimate_is_dyadic():
    est = membership_probability_exact(Atom(0), single_machine_stage(12), bit_budget=12)
    assert est.mode is EstimateMode.EXACT
    assert est.value == Fraction(85, 4096)
    assert est.ci_halfwidth == 0.0
    assert est.samples == 4096
    den = est.value.denominator
    assert den & (den - 1) == 0 and 4096 % den == 0


def test_exact_zero_cases():
    st = single_machine_stage(12)
    assert membership_probability_exact(BOTTOM, st, bit_budget=12).value == 0
    empty = StageParams(
        n=1,
        growth=lambda n: 12,
        con=ConParams(proof_budget=96),
        machine_count=0,
        axiom_count=0,
    )
    est = membership_probability_exact(Atom(0), empty, bit_budget=12)
    assert est.value == 0
    assert est.samples == 1


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
        membership_probability(Atom(0), single_machine_stage(12), 0, 1)


def test_mc_reproducible_and_seed_sensitive():
    st = single_machine_stage(12)
    a = membership_probability(Atom(0), st, 500, 11)
    b = membership_probability(Atom(0), st, 500, 11)
    c = membership_probability(Atom(0), st, 500, 12)
    assert a == b
    assert c.seed != a.seed
    assert a.mode is EstimateMode.MONTE_CARLO
    assert a.ci_halfwidth > 0


def test_mc_agrees_with_exact():
    st = single_machine_stage(12)
    mc = membership_probability(Atom(0), st, 10_000, 20260817)
    exact = membership_probability_exact(Atom(0), st, bit_budget=12)
    assert abs(mc.value - exact.value) <= 3 * mc.ci_halfwidth


def test_theorem_membership_at_moderate_stage():
    est = membership_probability(Or(Atom(0), Not(Atom(0))), standard_stage(2), 2000, 5)
    assert est.value >= Fraction(1, 2)


def test_simplicity_lower_bound_small():
    # any satisfiable sentence is seen at least as often as its own emitter
    st = single_machine_stage(12)
    for k in (1, 2):
        w = assemble_emit_one(k)
        assert w.length <= 12
        est = membership_probability_exact(
            parse_sentence(["_|_", "a0", "!_|_"][k]), st, bit_budget=12
        )
        assert est.value >= Fraction(1, 2**w.length)


def test_probability_law_is_permutation_invariant():
    st = StageParams(
        n=1,
        growth=lambda n: 12,
        con=ConParams(proof_budget=96),
        machine_count=2,
    )
    target = Atom(0)
    base = membership_probability(target, st, 4000, 333)
    rng = random.Random(1)
    hits = 0
    for i in range(4000):
        strs = sample_strings(st, derive_seed(333, st.n, i))
        rng.shuffle(strs)
        if target in accumulate_claims(strs, st):
            hits += 1
    shuffled = Fraction(hits, 4000)
    sigma = (base.ci_halfwidth + wilson_halfwidth(hits, 4000)) / 1.96
    assert abs(base.value - shuffled) <= 3 * sigma


def test_trajectories_shapes_and_decoupling():
    schedule = default_schedule(2)
    seqs = [sequence_by_id("constant_bottom"), sequence_by_id("tautology_chain")]
    both = sequence_trajectories(seqs, schedule, 40, 9, ConCache())
    assert set(both) == {"constant_bottom", "tautology_chain"}
    assert all(len(tr) == 2 for tr in both.values())
    alone = membership_trajectory(seqs[0], schedule, 40, 9, ConCache())
    assert both["constant_bottom"] == alone
    for est in alone:
        assert est.samples == 40
        assert est.seed == 9
    assert all(e.value == 0 for e in both["constant_bottom"])


def test_extension_zero_rounds_is_bare():
    s = sample_extension(3, 0, theory=theory_from_axioms("one", [Atom(0)]))
    assert s.accepted.key == ()
    assert s.rounds == 0
    assert s.machine_log == ()


def test_extension_keeps_axioms_and_stays_satisfiable():
    t = theory_from_axioms("one", [Atom(0)])
    for seed in range(25):
        s = sample_extension(seed, 6, theory=t)
        assert Atom(0) in s.accepted
        assert semantic_consistent(list(s.accepted))
        assert len(s.machine_log) == 6


def test_extension_rejects_axioms_outside_window():
    far = theory_from_axioms("far", [Atom(9)])
    with pytest.raises(ValueError, match="outside the window"):
        sample_extension(3, 1, theory=far, atom_window=3)
    with pytest.raises(ValueError, match="outside the window"):
        extension_probabilities([Atom(0)], 3, 1, 1, theory=far, atom_window=3)


def test_extension_projects_wide_claims():
    total = 0
    for seed in range(40):
        s = sample_extension(seed, 8)
        for rec in s.machine_log:
            assert rec.projected_out >= 0
            total += rec.projected_out
    assert total > 0


def test_extension_trichotomy():
    p, q = extension_probabilities([Atom(0), Not(Atom(0))], 99, 2, 300)
    assert p.undecided == q.undecided > 0
    assert p.value * 300 + q.value * 300 + p.undecided == 300


def test_extension_decides_with_more_rounds():
    undecided = []
    for rounds in (1, 4, 16, 64):
        e = extension_probability(Atom(0), 7, rounds, 300)
        undecided.append(e.undecided)
    assert undecided[0] > undecided[-1] == 0
    assert sorted(undecided, reverse=True) == undecided


def test_extension_endpoints():
    taut = extension_probability(Or(Atom(0), Not(Atom(0))), 13, 4, 200)
    assert taut.value == 1
    bot = extension_probability(BOTTOM, 13, 4, 200)
    assert bot.value == 0


def test_extension_reproducible():
    a = extension_probability(Atom(1), 21, 8, 150)
    b = extension_probability(Atom(1), 21, 8, 150)
    assert a == b


def test_extension_complementarity_at_scale():
    ests = extension_probabilities([Atom(0), Not(Atom(0))], 424242, 64, 10_000)
    p, q = ests
    assert p.undecided == 0
    assert abs(float(p.value) + float(q.value) - 1) <= 0.05
