import heapq
import importlib.resources
import random

import pytest

from sentprob import consistency, estimator, harness, prover
from sentprob.consistency import ClaimSet, ConCache, consistent_enough
from sentprob.estimator import (
    StageParams,
    accumulate_claims,
    default_schedule,
    single_machine_stage,
)
from sentprob.logic import (
    BOTTOM,
    And,
    Atom,
    Implies,
    Not,
    Or,
    atoms_of,
    parse_sentence,
    render_sentence,
    sentence_at,
    sentence_index,
)
from sentprob.harness import load_config, run_suite
from sentprob.machine import run_prefix
from sentprob.prover import (
    RefutationResult,
    RefutationVerdict,
    refute_bounded,
    semantic_consistent,
    summarize,
    truth_table,
)
from sentprob.sequences import sequence_by_id
from test_estimator import sample_strings
from test_logic import theory_from_axioms
from test_prover import (
    COLLIDING,
    DEFINITION_CEILING,
    initial_entries,
    rand_sentence,
    reference_base,
)

BINDING_BUDGETS = (0, 1, 2, 3, 4, 8, 16, 64, 4096)
EMPTY_CLAIMS = ClaimSet.of(())


def antitone_check(claims, extra, budget, cache=None):
    """True unless adding ``extra`` turned a rejected set into an accepted
    one. The gate guarantees this only where the budget does not bind: at
    small budgets the added clauses can reorder the search and push a
    refutation past the budget."""
    if cache is None:
        cache = ConCache()
    base = consistent_enough(claims, budget, cache)
    grown = consistent_enough(claims.union((extra,)), budget, cache)
    return not (base is False and grown is True)


def units_clash(entries):
    """Whether two of the initial clause entries are clashing unit clauses:
    the oracle for ClauseSummary.clash."""
    units = {lits[0] for size, lits, *_ in entries if size == 1}
    return any(-l in units for l in units)


def full_loop(sentences, budget):
    """The resolution loop with no setup exit but falsum and with the
    maximal literal picked by a full scan: the reference refute_bounded must
    agree with."""
    ordered = sorted(set(sentences), key=render_sentence)
    refuted, candidates = initial_entries(ordered)
    if refuted:
        return RefutationResult(RefutationVerdict.REFUTED, 0)
    seen, heap = set(), []
    for entry in candidates:
        if entry[2] not in seen:
            seen.add(entry[2])
            heap.append(entry)
    heapq.heapify(heap)
    by_max, inferences = {}, 0
    while heap:
        _, lits, given = heapq.heappop(heap)[:3]
        m = max(lits, key=lambda l: (abs(l), l < 0))
        by_max.setdefault(m, []).append(given)
        for other in by_max.get(-m, ()):
            if inferences >= budget:
                return RefutationResult(RefutationVerdict.UNKNOWN, inferences)
            inferences += 1
            resolvent = (given - {m}) | (other - {-m})
            if not resolvent:
                return RefutationResult(RefutationVerdict.REFUTED, inferences)
            if prover._is_tautology(resolvent) or resolvent in seen:
                continue
            seen.add(resolvent)
            heapq.heappush(heap, (len(resolvent), tuple(sorted(resolvent)), resolvent))
    return RefutationResult(RefutationVerdict.UNKNOWN, inferences, saturated=True)


def test_params_defaults_and_validation():
    # The proof budget is a natural number wherever it enters: a negative
    # one would make _verdict_at read a cached refutation as an acceptance.
    st = single_machine_stage(12, proof_budget=0)
    assert (st.machines, st.string_bits, st.steps, st.axioms, st.proof_budget) == (1, 12, 12, 0, 0)
    with pytest.raises(ValueError, match="proof_budget must be a natural number"):
        single_machine_stage(12, proof_budget=-1)
    claims = ClaimSet.of([Atom(0), Not(Atom(0))])
    cache = ConCache()
    assert not consistent_enough(claims, 64, cache)
    for c in (None, cache):
        with pytest.raises(ValueError, match="proof_budget must be a natural number"):
            consistent_enough(claims, -1, c)
    with pytest.raises(TypeError):
        StageParams(n=1, machines=1, string_bits=12, steps=12, axioms=0, proof_budget=4, probe_depth=1)


def test_gate_examples():
    budget = 64
    assert consistent_enough(EMPTY_CLAIMS, budget)
    assert not consistent_enough(ClaimSet.of([BOTTOM]), budget)
    assert not consistent_enough(ClaimSet.of([Or(Atom(0), Atom(1)), Not(Atom(0)), Not(Atom(1))]), budget)
    assert consistent_enough(ClaimSet.of([Atom(0), Not(Atom(1))]), budget)
    # no size cap: a large satisfiable set is accepted, not refused
    assert consistent_enough(ClaimSet.of([Atom(i) for i in range(40)]), budget)


def test_claim_set_is_keyed_by_rendering():
    a = ClaimSet.of([Atom(0), Atom(0), Not(Atom(1))])
    b = ClaimSet.of([Not(Atom(1)), Atom(0)])
    assert a == b
    assert hash(a) == hash(b)
    assert len(a) == 2
    assert a.key == ("!a1", "a0")
    assert [render_sentence(s) for s in a] == ["!a1", "a0"]
    assert Atom(0) in a
    assert Atom(2) not in a
    assert bool(a)
    assert not EMPTY_CLAIMS


def test_union_dedups():
    a = ClaimSet.of([Atom(0)])
    grown = a.union([Atom(0), Atom(1)])
    assert grown.key == ("a0", "a1")
    assert a.key == ("a0",)
    # the summary grown by the merge is the one built over the whole set
    assert grown.summary == ClaimSet.of(grown.sentences).summary
    assert a.union([Atom(0)]) is a


def test_memoization_is_transparent():
    budget = 128
    rng = random.Random(909)
    cache = ConCache()
    for _ in range(40):
        claims = ClaimSet.of([rand_sentence(rng, 2) for _ in range(rng.randrange(1, 4))])
        assert consistent_enough(claims, budget, cache) == consistent_enough(claims, budget, None)


def test_cache_stats():
    budget = 64
    cache = ConCache()
    claims = ClaimSet.of([Atom(0), Not(Atom(1))])
    consistent_enough(claims, budget, cache)
    first = cache.stats()
    consistent_enough(claims, budget, cache)
    second = cache.stats()
    assert first["entries"] == second["entries"]
    assert second["hits"] > first["hits"]
    assert set(first) == {"entries", "hits", "misses"}


def test_shared_cache_answers_at_every_budget():
    # One cache across budgets in both directions: each verdict must be the
    # plain refutation verdict at that budget. The first set is accepted at
    # budget 0 and refuted at 4096, so a verdict stored without its budget
    # would be returned wrongly at the larger one.
    a0, a1, a2 = Atom(0), Atom(1), Atom(2)
    sets = [ClaimSet.of([Or(a0, a1), Implies(a0, a2), Implies(a1, a2), Not(a2)])]
    rng = random.Random(6061)
    sets += [
        ClaimSet.of([rand_sentence(rng, 3) for _ in range(rng.randrange(1, 5))])
        for _ in range(150)
    ]
    budgets = (0, 1, 2, 4, 8, 64, 4096)
    cache = ConCache()
    for order in (budgets, budgets[::-1], budgets):
        for claims in sets:
            for b in order:
                plain = not refute_bounded(claims.sentences, b).refuted
                assert consistent_enough(claims, b, cache) == plain, (claims.key, b)
    assert consistent_enough(sets[0], 0, cache)
    assert not consistent_enough(sets[0], 4096, cache)


def test_rejections_are_budget_monotone():
    rng = random.Random(2024)
    for _ in range(150):
        claims = ClaimSet.of([rand_sentence(rng, 3) for _ in range(rng.randrange(1, 4))])
        low = consistent_enough(claims, 8)
        high = consistent_enough(claims, 4096)
        if not low:
            assert not high


def test_antitone_examples():
    budget = 64
    assert antitone_check(ClaimSet.of([Atom(0)]), Not(Atom(0)), budget)
    assert antitone_check(ClaimSet.of([BOTTOM]), Atom(1), budget)


def test_deep_chain_claims_do_not_overflow():
    # Indexed machine programs accept member indexes up to the stage step
    # budget, so chain-shaped claims nest hundreds of levels. Keying,
    # clause extraction, and the gate itself must all survive that depth.
    budget = 64
    for fid in ("monotone_chain", "mutex_family"):
        deep = sequence_by_id(fid).emit(900)
        assert len(atoms_of(deep)) == 901
        assert consistent_enough(ClaimSet.of([deep]), budget)


def test_chains_deeper_than_the_recursion_limit_pass_the_gate():
    # A mutex_family member at n = 9000 nests about 9000 levels, past the
    # interpreter's own recursion limit, which importing sentprob leaves
    # alone: hashing it for the memo dicts and every walk over it must not
    # recurse.
    deep = sequence_by_id("mutex_family").emit(9000)
    assert consistent_enough(ClaimSet.of([deep]), 64)
    assert not refute_bounded([deep], 64).refuted
    atoms = atoms_of(deep)
    assert atoms == frozenset(range(9001)) and type(atoms) is frozenset
    # Each And level doubles the bit length of the enumeration index, so the
    # member's index cannot be materialized; the index round trip runs on a
    # 9000-deep negation chain, whose index grows by log2(5) bits a level.
    negations = Atom(7)
    for _ in range(9000):
        negations = Not(negations)
    k = sentence_index(negations)
    assert 9000 * 2 < k.bit_length() < 9000 * 3
    assert sentence_at(k) is negations
    text = render_sentence(negations)
    assert text == "!" * 9000 + "a7"
    assert parse_sentence(text) is negations
    # an even number of negations: true exactly where a7 is
    assert truth_table(negations, (7,)) == 0b10
    assert truth_table(Not(negations), (3, 7)) == 0b0011


def test_antitone_over_random_sets():
    budget = 256
    rng = random.Random(515)
    cache = ConCache()
    for _ in range(200):
        claims = ClaimSet.of([rand_sentence(rng, 2) for _ in range(rng.randrange(0, 3))])
        extra = rand_sentence(rng, 2)
        assert antitone_check(claims, extra, budget, cache)


def test_union_merges_agree_with_plain_refutation_where_budget_binds():
    # Merge chains built with union share one cache, so most misses grow the
    # summary from the parent's and read the closure carried from it. Every
    # verdict, and every result stored on a miss, must still be the plain
    # bounded-refutation one, at budgets that bind.
    rng = random.Random(4401)
    cache = ConCache()
    for _ in range(150):
        claims = EMPTY_CLAIMS
        for _ in range(rng.randrange(1, 10)):
            merged = claims.union(
                [rand_sentence(rng, rng.randrange(1, 4), 4) for _ in range(rng.randrange(1, 3))]
            )
            b = rng.choice(BINDING_BUDGETS)
            misses = cache.misses
            verdict = consistent_enough(merged, b, cache)
            plain = refute_bounded(merged.sentences, b)
            assert verdict == (not plain.refuted), (merged.key, b)
            if cache.misses > misses:
                assert_stored_matches(cache.data[merged.key], plain, b, (merged.key, b))
            if verdict:
                claims = merged
    paths = cache.paths
    assert paths["summary"] > 100 and paths["closure"] > 250 and paths["plain"] > 150, paths


def test_accumulation_matches_plain_gate_where_budget_binds():
    # accumulate_claims (summary, closure, shared cache) against a
    # reference loop that asks refute_bounded directly, on seeded stage-2 and
    # stage-3 samples at proof budgets small enough to bind.
    cache = ConCache()
    binding = 0
    for n in (2, 3):
        for budget in (1, 2, 4, 8):
            stage = default_schedule(n)[-1]._replace(proof_budget=budget)
            for sample_seed in (7000 + n, 8000 + budget):
                strings = sample_strings(stage, sample_seed)
                reference = stage.axiom_set
                for bits in strings:
                    emitted = run_prefix(bits, stage.steps).emitted
                    if not emitted or all(s in reference for s in emitted):
                        continue
                    merged = reference.union(emitted)
                    if not refute_bounded(merged.sentences, budget).refuted:
                        reference = merged
                        binding += refute_bounded(merged.sentences, 4096).refuted
                assert accumulate_claims(strings, stage, cache) == reference, (n, budget, sample_seed)
    assert binding > 50


def test_unit_clash_exit_matches_full_loop():
    # Sets with two clashing unit clauses: the loop's first inference refutes
    # them, which is the result the gate takes from a set's clause summary.
    rng = random.Random(3131)
    clashes = 0
    for _ in range(400):
        k = rng.randrange(4)
        lit = Atom(k)
        neg = Not(Not(Not(lit))) if rng.random() < 0.3 else Not(lit)
        sentences = [rand_sentence(rng, 2, 4) for _ in range(rng.randrange(0, 4))] + [lit, neg]
        ordered = sorted(set(sentences), key=render_sentence)
        refuted_at_setup, entries = initial_entries(ordered)
        clash = not refuted_at_setup and units_clash(entries)
        clashes += clash
        for b in range(4):
            where = ([render_sentence(s) for s in sentences], b)
            assert refute_bounded(sentences, b) == full_loop(sentences, b), where
            if clash:
                clash_summary = prover.ClauseSummary(frozenset(), True)
                assert refute_bounded(sentences, b) == prover.settled_by_summary(clash_summary, b), where
    assert clashes > 200


def test_resolution_loop_matches_full_loop():
    rng = random.Random(3132)
    for _ in range(300):
        sentences = [rand_sentence(rng, 3, 4) for _ in range(rng.randrange(1, 5))]
        for b in (0, 1, 2, 3, 8, 64):
            assert refute_bounded(sentences, b) == full_loop(sentences, b)


def test_gate_is_not_antitone_where_budget_binds():
    # At budget 2 the added sentence reorders the resolution queue and the
    # refutation no longer fits: the gate follows plain refutation, which
    # accepts the larger set. At a budget that does not bind both are
    # rejected.
    claims = ClaimSet.of(
        parse_sentence(t) for t in ("!(a0 | a1)", "((a0 | a1) | (a2 -> a1))", "a1")
    )
    grown = claims.union([parse_sentence("(a1 | (a1 & a1))")])
    cache = ConCache()
    for c in (claims, grown):
        assert consistent_enough(c, 2, cache) == (not refute_bounded(c.sentences, 2).refuted)
    assert not consistent_enough(claims, 2, cache)
    assert consistent_enough(grown, 2, cache)
    assert not antitone_check(claims, parse_sentence("(a1 | (a1 & a1))"), 2)
    assert antitone_check(claims, parse_sentence("(a1 | (a1 & a1))"), 64)


SUMMARY_BUDGETS = (0, 1, 2, 4096)
HUGE = 2**32 - 1  # atoms from here on have literals above every definition variable


def is_definition(lit):
    """Whether lit is on a definition variable rather than an atom."""
    return prover._TEMPLATE_BASE < abs(lit) < DEFINITION_CEILING


def decided_at_setup(sentences):
    """Whether plain refute_bounded decides the set before its first
    resolution step: falsum among the roots, or two clashing unit clauses."""
    refuted, entries = initial_entries(set(sentences))
    return refuted or units_clash(entries)


@pytest.fixture
def resolution_runs(monkeypatch):
    """The sentence tuples the gate hands to refute_bounded, in call order."""
    runs = []

    def counted(sentences, budget, *rest):
        runs.append(tuple(sentences))
        return refute_bounded(sentences, budget, *rest)

    monkeypatch.setattr(consistency, "refute_bounded", counted)
    return runs


def assert_stored_matches(stored, plain, budget, where):
    """A stored attempt against the plain loop's result at the same budget:
    equal, except that a refutation read from a closure (saturated set) only
    says the loop refutes within its U."""
    if stored.refuted and stored.saturated:
        assert plain.refuted and plain.steps_used <= stored.steps_used <= budget, where
    else:
        assert stored == plain, where


def gate_matches_plain(claims, budget, cache, runs):
    """Gate claims on a cache miss and check the verdict and the cached
    result against plain refute_bounded, the set's summary against the
    clause form, and the cached result against the one stored for the same
    set reached with no parent. Returns the verdict."""
    misses, before = cache.misses, len(runs)
    verdict = consistent_enough(claims, budget, cache)
    assert cache.misses == misses + 1
    plain = refute_bounded(claims.sentences, budget)
    where = ([render_sentence(s) for s in claims.sentences], budget)
    assert verdict == (not plain.refuted), where
    stored = cache.data[claims.key]
    assert_stored_matches(stored, plain, budget, where)
    # the carried summary agrees with the clause form plain refutation
    # builds, and is None exactly when a sentence folds to falsum
    summary = claims.summary
    falsum, entries = initial_entries(claims.sentences)
    assert (summary is None) == falsum, where
    if summary is not None:
        units = {lits[0] for size, lits, *_ in entries if size == 1 and not is_definition(lits[0])}
        assert (summary.units, summary.clash) == (units, units_clash(entries)), where
    if decided_at_setup(claims.sentences):
        # decided from the summary: no resolution run
        assert len(runs) == before, where
    else:
        assert runs[before:] in ([], [claims.sentences]), where
    # path-free: the same set reached with no parent stores the same result
    fresh = ConCache()
    consistent_enough(ClaimSet.of(claims.sentences), budget, fresh)
    assert fresh.data[claims.key] == stored, where
    return verdict


def parse_all(texts):
    return [parse_sentence(t) for t in texts]


# (parent kind, parent sentences, added sentences, what plain refutation's
# setup finds in the merge: "falsum", "clash" or None for neither)
SUMMARY_CASES = [
    # sentences that fold to falsum or to a literal
    ("gated", [], ["(a0 & _|_)"], "falsum"),
    ("gated", ["a1"], ["(a0 | _|_)", "!a0"], "clash"),
    ("gated", ["!!a0"], ["!a0"], "clash"),
    ("gated", ["(a0 | _|_)"], ["!!!a0"], "clash"),
    ("gated", ["(_|_ -> _|_)", "a0"], ["!(a0 | _|_)"], "clash"),
    ("gated", ["(_|_ -> _|_)"], ["a0", "!!a1"], None),
    ("gated", ["!!a0", "(a0 | _|_)"], ["(a1 & !a0)"], None),
    # a clash inside the added batch, and between parent and batch
    ("gated", ["(a2 | a3)"], ["a0", "!a0"], "clash"),
    ("gated", ["a0", "(a1 -> a2)"], ["!a0"], "clash"),
    ("gated", ["a0", "!a1"], ["(a0 -> a1)"], None),
    # a clash inherited from a parent accepted at budget 0
    ("gated", ["a0", "!a0"], ["a1"], "clash"),
    ("gated", ["a0", "!a0"], ["(a1 -> a2)", "!!a3"], "clash"),
    # falsum and a clash in the same set: falsum wins
    ("gated", ["a0"], ["!a0", "_|_"], "falsum"),
    ("gated", ["a0", "!a0"], ["(a1 & _|_)"], "falsum"),
    # parents the gate never saw: a stage's axiom set and ClaimSet.of
    ("axioms", ["a0", "(a0 -> a1)"], ["!a0"], "clash"),
    ("axioms", ["a0", "(a0 -> a1)"], ["!a1"], None),
    ("axioms", ["a0", "(a0 -> a1)"], ["(a2 & _|_)"], "falsum"),
    ("of", ["a0", "!a0"], ["a1"], "clash"),
    ("of", ["a0"], ["!a0", "(a0 | a1)"], "clash"),
    ("of", ["a0"], ["(a1 | a2)"], None),
    # atoms at and above 2**32 - 1, whose literals are shifted
    ("gated", [f"a{HUGE}"], [f"!a{HUGE}"], "clash"),
    ("gated", [f"a{HUGE + 5}", "a0"], [f"!!a{HUGE + 5}", f"!a{HUGE + 5}"], "clash"),
    ("of", [f"a{HUGE + 1}"], ["(a0 & _|_)"], "falsum"),
    ("gated", [f"(a{HUGE} -> a0)", f"a{HUGE}"], ["!a0"], None),
    ("gated", [f"a{HUGE}"], [f"(a{HUGE} | a0)", "!a1"], None),
]


def parent_set(kind, texts):
    if kind == "axioms":
        theory = theory_from_axioms("t", parse_all(texts))
        return single_machine_stage(8, axiom_count=len(texts), theory=theory).axiom_set
    return ClaimSet.of(parse_all(texts))


@pytest.mark.parametrize("kind, parent_texts, added_texts, settled", SUMMARY_CASES)
def test_summary_decisions_match_plain_refutation(resolution_runs, kind, parent_texts, added_texts, settled):
    for budget in SUMMARY_BUDGETS:
        cache = ConCache()
        parent = parent_set(kind, parent_texts)
        if kind == "gated":
            gate_matches_plain(parent, budget, cache, resolution_runs)
        merged = parent.union(parse_all(added_texts))
        assert merged.summary == ClaimSet.of(merged.sentences).summary
        before = len(resolution_runs)
        gate_matches_plain(merged, budget, cache, resolution_runs)
        plain = refute_bounded(merged.sentences, budget)
        if settled == "falsum":
            assert plain == RefutationResult(RefutationVerdict.REFUTED, 0)
        elif settled == "clash":
            assert plain.steps_used == min(budget, 1) and not plain.saturated
        else:
            assert not decided_at_setup(merged.sentences)
        if settled is not None:
            assert len(resolution_runs) == before


def test_summary_cases_cover_the_positional_path():
    merges = [ClaimSet.of(parse_all(p + a)) for _, p, a, _ in SUMMARY_CASES]
    assert sum(any(a >= HUGE for s in m.sentences for a in atoms_of(s)) for m in merges) == 5


def test_inherited_clash_is_kept_by_a_budget_zero_parent(resolution_runs):
    cache = ConCache()
    parent = ClaimSet.of(parse_all(["a0", "!a0"]))
    assert gate_matches_plain(parent, 0, cache, resolution_runs)
    assert parent.summary.clash
    child = parent.union(parse_all(["(a1 | a2)"]))
    assert gate_matches_plain(child, 0, cache, resolution_runs)
    assert child.summary.clash
    grandchild = child.union(parse_all(["a3"]))
    assert not gate_matches_plain(grandchild, 1, cache, resolution_runs)
    assert cache.data[grandchild.key] == RefutationResult(RefutationVerdict.REFUTED, 1)
    assert resolution_runs == []


def literal_heavy_sentence(rng):
    """Mostly sentences whose roots are literals, some folding to falsum or
    hiding a literal under falsum, and some with atoms from 2**32 - 1 on."""
    atom = Atom(rng.randrange(4) if rng.random() < 0.9 else HUGE + rng.randrange(2))
    lit = atom if rng.random() < 0.5 else Not(atom)
    roll = rng.random()
    if roll < 0.3:
        return lit
    if roll < 0.4:
        return Not(Not(lit))
    if roll < 0.5:
        return Or(lit, BOTTOM)
    if roll < 0.55:
        return And(lit, Implies(BOTTOM, BOTTOM))
    return rand_sentence(rng, rng.randrange(1, 4), 4)


def test_union_chains_match_plain_refutation_at_setup_budgets(resolution_runs):
    rng = random.Random(5505)
    decided = reached = past_falsum = 0
    for budget in SUMMARY_BUDGETS:
        cache = ConCache()
        for _ in range(120):
            claims = EMPTY_CLAIMS if rng.random() < 0.7 else ClaimSet.of([literal_heavy_sentence(rng)])
            for _ in range(rng.randrange(1, 8)):
                merged = claims.union(literal_heavy_sentence(rng) for _ in range(rng.randrange(1, 4)))
                # the carried summary is path-free, cache hits included
                assert merged.summary == summarize(merged.sentences)
                if merged.summary is None:
                    # a set holding falsum keeps a None summary in every superset
                    beyond = merged.union([Atom(5), Not(Atom(6))]).union([Or(Atom(5), Atom(7))])
                    assert beyond.summary is None and len(beyond) == len(merged) + 3
                    past_falsum += 1
                if merged is claims or merged.key in cache.data:
                    continue
                runs_before = len(resolution_runs)
                if gate_matches_plain(merged, budget, cache, resolution_runs):
                    claims = merged
                if decided_at_setup(merged.sentences):
                    decided += 1
                reached += len(resolution_runs) > runs_before
    assert decided > 300 and reached > 50 and past_falsum > 0, (decided, reached, past_falsum)


def test_cache_hits_and_summary_decided_merges_build_no_clauses():
    # The summary is read from _fold alone and carried on the set: a union
    # reads _root for the sentences it adds only, and gating a merge that
    # the summary refutes, or answering from the cache, must not clausify.
    cache = ConCache()
    budget = 64
    prover._LOCALS.clear()
    prover._root.cache_clear()
    claims = EMPTY_CLAIMS.union(parse_all(["(a0 | a1)", "!a2", "(a2 -> a3)"]))
    clash = claims.union(parse_all(["(a1 & a0)", "(a2 | _|_)"]))
    falsum = claims.union(parse_all(["(a3 & _|_)"]))
    folded = prover._root.cache_info().currsize
    assert folded == 6
    assert not consistent_enough(clash, budget, cache)
    assert not consistent_enough(falsum, budget, cache)
    assert cache.paths == {"summary": 2, "closure": 0, "plain": 0}
    assert not prover._LOCALS
    assert prover._root.cache_info().currsize == folded
    # a hit does no summary work, and a union only reads its added sentence
    assert not consistent_enough(clash, budget, cache)
    assert prover._root.cache_info().currsize == folded
    clash.union(parse_all(["(a6 -> a7)"]))
    assert prover._root.cache_info().currsize == folded + 1
    assert not prover._LOCALS
    # a set that reaches the closure does clausify: the probe works
    assert consistent_enough(claims, budget, cache)
    assert prover._LOCALS and cache.paths["closure"] == 1
    # and a hit on it clausifies nothing more
    prover._LOCALS.clear()
    assert consistent_enough(claims, budget, cache)
    assert not prover._LOCALS and cache.hits == 2


CARRY_BUDGETS = (0, 1, 2, 16, 4096)
# A cap no test set's processes reach: closures built under it are complete.
UNCAPPED = 10**9


def heap_closure(clauses, pivots=lambda v: True):
    """The closure of clauses under the loop's ordered resolution, taken in
    heap order with no budget and past the empty clause, resolving only on
    the variables pivots admits: (pairs resolved, the closure's clauses).
    The oracle for local summaries and carried closures."""
    seen = {c for c in clauses if not prover._is_tautology(c)}
    heap = [(len(c), tuple(sorted(c)), c) for c in seen]
    heapq.heapify(heap)
    by_max, pairs = {}, 0
    while heap:
        _, lits, given = heapq.heappop(heap)
        if not lits:
            continue
        m = max(lits, key=lambda l: (abs(l), l < 0))
        if not pivots(abs(m)):
            continue
        by_max.setdefault(m, []).append(given)
        for other in by_max.get(-m, ()):
            pairs += 1
            resolvent = (given - {m}) | (other - {-m})
            if prover._is_tautology(resolvent) or resolvent in seen:
                continue
            seen.add(resolvent)
            heapq.heappush(heap, (len(resolvent), tuple(sorted(resolvent)), resolvent))
    return pairs, seen


def clauses_of(sentences):
    """The distinct initial clauses of a set with no sentence that folds to
    falsum."""
    refuted, entries = initial_entries(set(sentences))
    assert not refuted
    return [e[2] for e in entries]


def atom_only(clauses):
    """The clauses, the empty one included, that hold no definition variable."""
    return {c for c in clauses if not any(is_definition(l) for l in c)}


def assert_local_summary_is_the_heap_closure(s):
    """A sentence's local summary against the heap-order closure of its own
    clauses that resolves on its definition variables only: the same count
    L and the same atom-only clauses, the empty clause among them when it
    is derived."""
    pairs, atoms = prover.local_summary(s, UNCAPPED)
    heap_pairs, closure = heap_closure(clauses_of([s]), is_definition)
    assert (pairs, atoms) == (heap_pairs, atom_only(closure)), render_sentence(s)


def assert_closure_is_the_heap_closure(claims):
    """A claim set's built node against the heap-order closure of all its
    clauses: its summed L and its count P make the same count U, and its
    closure holds the same atom-only clauses, the empty clause included.
    Returns the node."""
    built = prover._built(claims.closure, UNCAPPED)
    pairs, closure = heap_closure(clauses_of(claims.sentences))
    carried = {rest | {m} if m else rest for m, rests in built.by_max.items() for rest in rests}
    where = [render_sentence(s) for s in claims.sentences]
    assert built.local + built.pairs == pairs and carried == atom_only(closure), where
    return built


def closure_matches_full_loop(claims, budget):
    """The closure's result on the claims, as the gate reads it, against
    full_loop: equal, or a refutation within U for one with the empty
    clause. Returns the result, None when the closure does not decide."""
    result = prover.closure_result(claims.closure, budget)
    plain = full_loop(claims.sentences, budget)
    if result is not None:
        assert_stored_matches(result, plain, budget, ([render_sentence(s) for s in claims.sentences], budget))
    return result


def has_huge_atom(claims):
    return any(a >= HUGE for s in claims.sentences for a in atoms_of(s))


def test_carried_closures_match_full_loop_along_union_chains():
    # Each chain grows from random parents, so merges hang off unbuilt sets
    # (several levels up to a built one), siblings share a parent's closure,
    # and some sets are decided only after their children.
    rng = random.Random(1201)
    sets, decided = [], 0
    for budget in CARRY_BUDGETS:
        for _ in range(60):
            family = [ClaimSet.of([rand_sentence(rng, 3, 4) for _ in range(rng.randrange(0, 3))])]
            for _ in range(rng.randrange(1, 9)):
                parent = rng.choice(family)
                child = parent.union(
                    rand_sentence(rng, rng.randrange(1, 4), 4) for _ in range(rng.randrange(1, 3))
                )
                family.append(child)
                if rng.random() < 0.6:
                    decided += closure_matches_full_loop(child, budget) is not None
            for claims in rng.sample(family, len(family) // 3):
                decided += closure_matches_full_loop(claims, budget) is not None
            sets += family
    carried = [c for c in sets if c.closure.parent is None and not decided_at_setup(c.sentences)]
    for claims in carried:
        assert_closure_is_the_heap_closure(claims)
    assert len(carried) > 150 and decided > 300, (len(carried), decided)
    assert sum(len(c.closure.by_max) > 4 for c in carried) > 50


def test_huge_atom_sets_take_the_plain_loop():
    # Atoms from 2**32 - 1 on have their literals shifted above every
    # definition range, which breaks the split into per-sentence processes:
    # a set holding one is never read from a closure, and the gate sends it
    # to the plain loop whenever the summary leaves it.
    rng = random.Random(1202)
    huge = plain = 0
    for budget in CARRY_BUDGETS:
        cache = ConCache()
        for _ in range(40):
            claims = ClaimSet.of([rand_sentence(rng, 2, 4)])
            for _ in range(rng.randrange(1, 8)):
                claims = claims.union(literal_heavy_sentence(rng) for _ in range(rng.randrange(1, 3)))
                result = closure_matches_full_loop(claims, budget)
                if has_huge_atom(claims):
                    huge += 1
                    assert result is None and claims.closure.parent is not None
                    before = cache.paths["plain"]
                    consistent_enough(claims, budget, cache)
                    plain += cache.paths["plain"] > before
    assert huge > 100 and plain > 10, (huge, plain)


def test_a_real_digest_collision_keeps_carried_closures():
    # The two sentences shared one base under 40-bit digests, which sent the
    # set holding both, and every set grown from it, onto another numbering.
    # Their 128-bit bases differ, so those sets carry closures like any other.
    first, second = COLLIDING
    assert reference_base(first) == reference_base(second)
    assert prover._sentence_base(first) != prover._sentence_base(second)
    for budget in CARRY_BUDGETS:
        parent = ClaimSet.of(parse_all([first, "(a2 -> a3)", "!a3"]))
        child = parent.union(parse_all([second]))
        grandchild = child.union(parse_all(["!(a0 & a3)", "(a2266169 -> a1361226)"]))
        great = grandchild.union(parse_all(["!a0", "!a1361226"]))
        both = ClaimSet.of(parse_all(COLLIDING + ("!a0", "!a2266169")))
        for claims in (parent, child, grandchild, great, both):
            closure_matches_full_loop(claims, budget)
    for claims in (parent, child, grandchild, great, both):
        assert_closure_is_the_heap_closure(claims)
        assert consistent_enough(claims, 4096) == semantic_consistent(claims.sentences)
    assert not semantic_consistent(great.sentences) and not semantic_consistent(both.sentences)


def test_clauses_shared_between_sentences_keep_one_entry():
    # a0, !!a0, (a0 | _|_) and (_|_ | a0) all assert the root unit a0, which
    # the atom-level closure holds once: a second copy would count its
    # pairs twice.
    parent = ClaimSet.of(parse_all(["a0", "(a1 | a2)"]))
    child = parent.union(parse_all(["!!a0", "(a0 | _|_)", "(!a1 & (a2 -> a0))"]))
    grandchild = child.union(parse_all(["(_|_ | a0)", "!a2"]))
    great = grandchild.union(parse_all(["(a1 -> !!a0)", "!a1"]))
    for budget in CARRY_BUDGETS:
        for claims in (child, grandchild, great, parent):
            closure_matches_full_loop(claims, budget)
    for claims in (parent, child, grandchild, great):
        built = assert_closure_is_the_heap_closure(claims)
        assert frozenset() in built.by_max[1]


def check_every_miss(monkeypatch, cfg, tmp_path):
    """Run the suite with every gate miss's stored decision checked against
    full_loop. Returns (misses checked, the stored results of the misses
    the closure or the plain loop decided, the cache)."""
    checked, loop_results, caches = [], [], []

    def gate(claims, budget, cache):
        misses = cache.misses
        decided = cache.paths["closure"] + cache.paths["plain"]
        verdict = consistent_enough(claims, budget, cache)
        if cache.misses > misses:
            stored = cache.data[claims.key]
            plain = full_loop(claims.sentences, budget)
            where = ([render_sentence(s) for s in claims.sentences], budget)
            assert verdict == (not plain.refuted), where
            assert_stored_matches(stored, plain, budget, where)
            checked.append(where)
            if cache.paths["closure"] + cache.paths["plain"] > decided:
                loop_results.append(stored)
        if cache not in caches:
            caches.append(cache)
        return verdict

    monkeypatch.setattr(estimator, "consistent_enough", gate)
    run_suite(cfg, str(tmp_path))
    (cache,) = caches
    assert len(checked) == cache.misses == sum(cache.paths.values())
    return checked, loop_results, cache


def test_every_gate_miss_of_a_standard_run_matches_full_loop(monkeypatch, tmp_path):
    standard = importlib.resources.files("sentprob") / "configs" / "standard.ini"
    cfg = load_config(str(standard))._replace(samples=3)
    checked, loop_results, cache = check_every_miss(monkeypatch, cfg, tmp_path)
    # the closure decides every miss the summary leaves
    assert len(loop_results) == 226 and cache.paths["plain"] == 0, cache.paths
    assert len(checked) == cache.misses > 300


def test_every_gate_miss_where_the_budget_binds_matches_full_loop(monkeypatch, tmp_path):
    # The standard suite with every proof budget at its smallest: stage n
    # gets a budget of its claim-set size, so many refutations are cut off.
    standard = importlib.resources.files("sentprob") / "configs" / "standard.ini"
    cfg = load_config(str(standard))
    cfg = cfg._replace(samples=3, schedule=tuple(default_schedule(proof_floor=1, proof_factor=1)))
    checked, loop_results, cache = check_every_miss(monkeypatch, cfg, tmp_path)
    cut_off = sum(not r.refuted and not r.saturated for r in loop_results)
    assert len(loop_results) > 100 and cut_off > 0, (len(loop_results), cut_off)
    assert cache.paths["closure"] > 0 and cache.paths["plain"] > 0, cache.paths


def test_a_standard_run_makes_no_plain_loop_decision(monkeypatch, tmp_path):
    # At the pinned seed, 10 samples: the summary and closures decide every
    # gate miss, and the pinned cache line is unchanged by counting them.
    caches = []

    class Counted(ConCache):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(harness, "ConCache", Counted)
    standard = importlib.resources.files("sentprob") / "configs" / "standard.ini"
    run_suite(load_config(str(standard))._replace(samples=10), str(tmp_path))
    (cache,) = caches
    assert cache.paths["plain"] == 0 and cache.paths["closure"] > 0, cache.paths
    assert sum(cache.paths.values()) == cache.misses
    assert set(cache.stats()) == {"entries", "hits", "misses"}


PROPERTY_BUDGETS = (0,) + tuple(2**k for k in range(13))


def test_gate_follows_the_plain_loop_at_every_budget_on_one_cache():
    # Random sets of 2-6 sentences over a0-a4, gated at budgets 0, 1, 2,
    # ..., 4096 on one shared cache: every verdict is the plain loop's, every
    # stored result is the plain loop's (or a refutation within U), and every
    # local summary is the heap closure of its sentence. Half the sets go
    # rising and then falling; the other half falling first, where a
    # refutation within U is stored at 4096 and asked about below U.
    rng = random.Random(7707)
    cache = ConCache()
    sets = [
        ClaimSet.of([rand_sentence(rng, rng.randrange(1, 5), 5) for _ in range(rng.randrange(2, 7))])
        for _ in range(300)
    ]
    rising, falling = PROPERTY_BUDGETS, PROPERTY_BUDGETS[::-1]
    for i, claims in enumerate(sets):
        for b in rising + falling if i % 2 else falling + rising:
            misses = cache.misses
            plain = refute_bounded(claims.sentences, b)
            where = ([render_sentence(s) for s in claims.sentences], b)
            assert consistent_enough(claims, b, cache) == (not plain.refuted), where
            stored = cache.data[claims.key]
            if cache.misses > misses:
                assert_stored_matches(stored, plain, b, where)
        for s in claims.sentences:
            if prover._root(s) is not prover._FALSE:
                assert_local_summary_is_the_heap_closure(s)
    assert cache.paths["closure"] > 10 and cache.paths["plain"] > 50, cache.paths
    # The budget-2 pair of the roadmap: rejected, then accepted.
    claims = ClaimSet.of(parse_all(["!(a0 | a1)", "((a0 | a1) | (a2 -> a1))", "a1"]))
    grown = claims.union(parse_all(["(a1 | (a1 & a1))"]))
    assert not consistent_enough(claims, 2, cache) and consistent_enough(grown, 2, cache)


def test_closures_give_up_on_shifted_atoms_and_wide_sentences():
    cache = ConCache()
    # A set holding atom 2**32 - 1 takes the plain loop.
    huge = ClaimSet.of(parse_all([f"(a{HUGE} | a0)", f"(a{HUGE} -> a1)", "!a0", "!a1"]))
    assert prover.local_summary(parse_sentence(f"(a{HUGE} | a0)"), UNCAPPED) is None
    assert not consistent_enough(huge, 4096, cache)
    assert cache.paths["plain"] == 1
    # So does a set with a sentence whose own process makes more inferences
    # than the budget: the process stops there.
    wide = parse_sentence("((a0 | a1) & ((a2 | a3) & (a0 -> (a1 & a2))))")
    own = prover.local_summary(wide, UNCAPPED)[0]
    assert own > 4
    prover._LOCALS.clear()
    contradiction = ClaimSet.of([wide, Not(wide)])
    assert prover.local_summary(wide, own - 1) is None
    assert prover.closure_result(contradiction.closure, own - 1) is None
    assert consistent_enough(contradiction, own - 1, cache) == (not refute_bounded([wide, Not(wide)], own - 1).refuted)
    assert cache.paths["plain"] == 2 and cache.paths["closure"] == 0
    # At a budget the whole closure fits, it decides: a refutation within U.
    assert not consistent_enough(contradiction, 4096, cache)
    stored = cache.data[contradiction.key]
    assert cache.paths["closure"] == 1 and stored.refuted and stored.saturated
