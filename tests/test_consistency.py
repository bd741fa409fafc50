import random

import pytest

from sentprob.consistency import (
    EMPTY_CLAIMS,
    ClaimSet,
    ConCache,
    ConParams,
    antitone_check,
    consistent_enough,
)
from sentprob.logic import BOTTOM, Atom, Implies, Not, Or, atoms_of, render_sentence
from sentprob.prover import refute_bounded
from sentprob.sequences import generate, sequence_by_id
from test_prover import rand_sentence


def test_params_defaults_and_validation():
    assert ConParams(proof_budget=64).proof_budget == 64
    assert ConParams(0).proof_budget == 0
    with pytest.raises(ValueError):
        ConParams(proof_budget=-1)
    with pytest.raises(TypeError):
        ConParams(proof_budget=4, probe_depth=1)


def test_gate_examples():
    p = ConParams(proof_budget=64)
    assert consistent_enough(EMPTY_CLAIMS, p)
    assert not consistent_enough(ClaimSet.of([BOTTOM]), p)
    assert not consistent_enough(ClaimSet.of([Or(Atom(0), Atom(1)), Not(Atom(0)), Not(Atom(1))]), p)
    assert consistent_enough(ClaimSet.of([Atom(0), Not(Atom(1))]), p)
    # no size cap: a large satisfiable set is accepted, not refused
    assert consistent_enough(ClaimSet.of([Atom(i) for i in range(40)]), p)


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


def test_memoization_is_transparent():
    p = ConParams(proof_budget=128)
    rng = random.Random(909)
    cache = ConCache()
    for _ in range(40):
        claims = ClaimSet.of([rand_sentence(rng, 2) for _ in range(rng.randrange(1, 4))])
        assert consistent_enough(claims, p, cache) == consistent_enough(claims, p, None)


def test_cache_stats():
    p = ConParams(proof_budget=64)
    cache = ConCache()
    claims = ClaimSet.of([Atom(0), Not(Atom(1))])
    consistent_enough(claims, p, cache)
    first = cache.stats()
    consistent_enough(claims, p, cache)
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
                assert consistent_enough(claims, ConParams(b), cache) == plain, (claims.key, b)
    assert consistent_enough(sets[0], ConParams(0), cache)
    assert not consistent_enough(sets[0], ConParams(4096), cache)


def test_rejections_are_budget_monotone():
    rng = random.Random(2024)
    for _ in range(150):
        claims = ClaimSet.of([rand_sentence(rng, 3) for _ in range(rng.randrange(1, 4))])
        low = consistent_enough(claims, ConParams(proof_budget=8))
        high = consistent_enough(claims, ConParams(proof_budget=4096))
        if not low:
            assert not high


def test_antitone_examples():
    p = ConParams(proof_budget=64)
    assert antitone_check(ClaimSet.of([Atom(0)]), Not(Atom(0)), p)
    assert antitone_check(ClaimSet.of([BOTTOM]), Atom(1), p)


def test_deep_chain_claims_do_not_overflow():
    # Indexed machine programs accept member indexes up to the stage step
    # budget, so chain-shaped claims nest hundreds of levels. Keying,
    # clause extraction, and the gate itself must all survive that depth.
    p = ConParams(proof_budget=64)
    for fid in ("monotone_chain", "mutex_family"):
        deep = generate(sequence_by_id(fid), 900)
        assert len(atoms_of(deep)) == 901
        assert consistent_enough(ClaimSet.of([deep]), p)


def test_antitone_over_random_sets():
    p = ConParams(proof_budget=256)
    rng = random.Random(515)
    cache = ConCache()
    for _ in range(200):
        claims = ClaimSet.of([rand_sentence(rng, 2) for _ in range(rng.randrange(0, 3))])
        extra = rand_sentence(rng, 2)
        assert antitone_check(claims, extra, p, cache)
