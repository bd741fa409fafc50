import hashlib
import random
import sys

import pytest

from sentprob import logic, prover
from sentprob.consistency import ClaimSet
from sentprob.logic import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Implies,
    Not,
    Or,
    atoms_of,
    render_sentence,
    sentence_at,
    sentence_index,
)
from sentprob.prover import (
    MAX_TABLE_ATOMS,
    AtomLimitError,
    RefutationVerdict,
    entails,
    refute_bounded,
    semantic_consistent,
    truth_table,
)


def rand_sentence(rng, depth, atoms=3):
    if depth == 0 or rng.random() < 0.25:
        k = rng.randrange(atoms + 1)
        return BOTTOM if k == atoms else Atom(k)
    op = rng.randrange(4)
    if op == 0:
        return Not(rand_sentence(rng, depth - 1, atoms))
    left = rand_sentence(rng, depth - 1, atoms)
    right = rand_sentence(rng, depth - 1, atoms)
    return (And, Or, Implies)[op - 1](left, right)


def initial_entries(sentences):
    """(refuted at setup, the distinct clause entries in walk order) of a
    set, built from scratch out of each sentence's cached clause form: the
    oracle that closures and the summary are checked against."""
    entries = sorted({e[2]: e for s in sentences for e in prover._prepared(s)}.values())
    if entries and not entries[0][0]:
        return True, []
    return False, entries


def reference_base(r):
    """The definition-variable base the sentence rendered as r had when bases
    were read from 40 digest bits on slots of 2**22 variables: the order
    today's 128-bit bases must keep."""
    digest = hashlib.sha256(r.encode()).digest()
    return 2**32 + int.from_bytes(digest[:5], "big") * 2**22


# Every definition variable is below this; shifted atom literals are not.
DEFINITION_CEILING = prover._TEMPLATE_BASE + 2**128 * prover._TEMPLATE_STRIDE

# Two renderings whose SHA-256 digests share their first 40 bits, 0xca6e055686:
# one base under the reference numbering.
COLLIDING = ("(a0 | a1361226)", "(a0 | a2266169)")


def test_direct_contradiction_refutes_quickly():
    r = refute_bounded([Atom(0), Not(Atom(0))], 4)
    assert r.verdict is RefutationVerdict.REFUTED
    assert r.refuted
    assert r.steps_used <= 4


def test_single_atom_saturates():
    r = refute_bounded([Atom(0)], 10_000)
    assert r.verdict is RefutationVerdict.UNKNOWN
    assert r.saturated
    assert not r.refuted


def test_modus_ponens_refutation():
    r = refute_bounded([Implies(Atom(0), Atom(1)), Atom(0), Not(Atom(1))], 16)
    assert r.refuted
    assert r.steps_used == 5


def test_bottom_refutes_at_setup():
    r = refute_bounded([BOTTOM], 0)
    assert r.refuted
    assert r.steps_used == 0


def test_zero_budget_is_unknown_without_setup_contradiction():
    r = refute_bounded([Atom(0), Not(Atom(0))], 0)
    assert r.verdict is RefutationVerdict.UNKNOWN
    assert not r.saturated


def test_duplicate_sentences_collapse():
    a = refute_bounded([Atom(0), Atom(0), Not(Atom(0))], 8)
    b = refute_bounded([Atom(0), Not(Atom(0))], 8)
    assert a == b


def test_clausify_basics():
    assert initial_entries([BOTTOM]) == (True, [])
    # an entry is (size, sorted literals, clause, maximal literal, rest)
    assert initial_entries([Atom(0)]) == (False, [(1, (1,), frozenset({1}), 1, frozenset())])
    assert initial_entries([Not(Atom(2))]) == (False, [(1, (-3,), frozenset({-3}), -3, frozenset())])
    assert initial_entries([TOP]) == (False, [])


def test_clausify_fresh_atoms_clear_source_range():
    # Definition variables sit above 2**32 and below 2**32 + 2**192; the
    # literals of atoms from 2**32 - 1 on are shifted above all of them.
    for big in (3, 2**32 - 1, 2**40):
        big_lit = prover._atom_literal(Atom(big))
        assert big_lit == (big + 1 if big == 3 else big + 1 + prover._ATOM_SHIFT)
        sentences = [Or(Atom(0), Atom(1)), Implies(Atom(big), Atom(0))]
        refuted, entries = initial_entries(sentences)
        assert not refuted
        variables = {abs(lit) for entry in entries for lit in entry[2]}
        fresh = variables - {1, 2, big_lit}
        assert len(fresh) == 2 and big_lit in variables
        assert 2**32 < min(fresh) and max(fresh) < DEFINITION_CEILING
        assert big_lit < 2**32 or big_lit >= DEFINITION_CEILING


def test_digest_bases_keep_the_reference_order():
    # Only the order and equality of variables reach a result, and the
    # 128-bit base extends the reference's 40 bits: wherever two reference
    # bases differ the new ones sort the same way, so every set the
    # reference numbered keeps its walks, maximal literals and step counts.
    rng = random.Random(1301)
    renderings = set(COLLIDING)
    while len(renderings) < 2500:
        s = rand_sentence(rng, rng.randrange(1, 6), rng.choice((3, 8, 1000)))
        renderings.add(render_sentence(s))
        renderings.add(f"(a{rng.randrange(2**20)} | a{rng.randrange(2**32)})")
    by_new = sorted(renderings, key=prover._sentence_base)
    bases = [prover._sentence_base(r) for r in by_new]
    reference = [reference_base(r) for r in by_new]
    assert reference == sorted(reference)
    assert len(set(reference)) < len(reference)  # the colliding pair
    # disjoint ranges of 2**64 variables, all above the small atoms
    assert bases[0] >= 2**32
    assert all(b - a >= prover._TEMPLATE_STRIDE for a, b in zip(bases, bases[1:]))
    # atoms below 2**32 - 1 keep their literals, in clauses and summaries
    for i in [0, 1, 2**32 - 2] + [rng.randrange(2**32 - 1) for _ in range(200)]:
        assert prover._atom_literal(Atom(i)) == i + 1
        assert prover._root(Not(Atom(i))) == -(i + 1)
        root, clauses = prover._build_template(Or(Atom(i), Not(Atom(0))), 2**32)
        assert set(clauses[0]) == {-root, i + 1, -1}


def test_truth_table_semantics():
    assert truth_table(TOP, [0]) == 0b11
    assert truth_table(BOTTOM, [0]) == 0
    a0 = truth_table(Atom(0), [0, 1])
    na0 = truth_table(Not(Atom(0)), [0, 1])
    assert a0 & na0 == 0
    assert a0 | na0 == 0b1111
    assert truth_table(And(Atom(0), Atom(1)), [0, 1]) == a0 & truth_table(Atom(1), [0, 1])


def test_truth_table_atom_limit():
    wide = Atom(0)
    for i in range(1, MAX_TABLE_ATOMS + 1):
        wide = Or(wide, Atom(i))
    with pytest.raises(AtomLimitError):
        semantic_consistent([wide])


def test_semantic_consistent_examples():
    assert semantic_consistent([])
    assert semantic_consistent([Atom(0)])
    assert not semantic_consistent([Atom(0), Not(Atom(0))])
    assert not semantic_consistent([Or(Atom(0), Atom(1)), Not(Atom(0)), Not(Atom(1))])


def test_entails():
    assert entails([Atom(0), Implies(Atom(0), Atom(1))], Atom(1))
    assert not entails([Atom(0)], Atom(1))
    assert entails([], TOP)
    assert entails([BOTTOM], Atom(5))


def test_is_theorem_bounded():
    # phi is a bounded theorem of its premises when the premises plus !phi
    # are refuted within the budget.
    def theorem(phi, premises):
        return refute_bounded([*premises, Not(phi)], 64).refuted

    assert theorem(TOP, [])
    assert not theorem(Atom(0), [])
    mp = [Atom(0), Implies(Atom(0), Atom(1))]
    assert theorem(Atom(1), mp)
    assert not theorem(Atom(1), mp[:1])


def test_agrees_with_semantic_oracle_on_random_sets():
    rng = random.Random(31337)
    for _ in range(600):
        sents = [rand_sentence(rng, 3) for _ in range(rng.randrange(1, 4))]
        sat = semantic_consistent(sents)
        r = refute_bounded(sents, 10_000)
        if sat:
            assert not r.refuted
        else:
            assert r.refuted


def test_saturation_implies_satisfiable():
    rng = random.Random(4242)
    for _ in range(400):
        sents = [rand_sentence(rng, 2) for _ in range(rng.randrange(1, 4))]
        r = refute_bounded(sents, 10_000)
        if r.saturated:
            assert semantic_consistent(sents)


def test_budget_monotone():
    rng = random.Random(777)
    for _ in range(120):
        sents = [rand_sentence(rng, 3) for _ in range(rng.randrange(1, 4))]
        low = refute_bounded(sents, 8)
        high = refute_bounded(sents, 2_000)
        if low.refuted:
            assert high.refuted
            assert high.steps_used == low.steps_used
        assert low.steps_used <= 8


def test_deterministic_across_input_order():
    sents = [Implies(Atom(0), Atom(1)), Not(Atom(1)), Atom(0)]
    a = refute_bounded(sents, 64)
    b = refute_bounded(list(reversed(sents)), 64)
    assert a == b


def test_rebuilt_sentences_are_one_object_with_one_clause_memo_entry():
    # Nodes are interned: two separate builds of a sentence are one object,
    # so they share one clause form, found without comparing two trees.
    def build():
        return And(Or(Atom(0), Atom(1)), Implies(Not(Atom(2)), Atom(1)))

    a = build()
    assert build() is a
    prover._prepared.cache_clear()
    clash = Not(Or(Atom(0), Atom(1)))
    first = refute_bounded([clash, a], 64)
    assert refute_bounded([clash, build()], 64) == first
    assert first.refuted
    info = prover._prepared.cache_info()
    assert (info.currsize, info.misses) == (2, 2)
    # The memo is bounded.
    assert info.maxsize == 1 << 14
    for i in range(3, 3 + info.maxsize + 10):
        prover._prepared(Atom(i))
    assert prover._prepared.cache_info().currsize == info.maxsize


def fold_recursive(s):
    """The recursive constant propagation that prover._fold replaced: the
    reference it must agree with."""
    T, F = prover._TRUE, prover._FALSE
    if isinstance(s, Bottom):
        return F
    if isinstance(s, Atom):
        return s
    if isinstance(s, Not):
        inner = fold_recursive(s.inner)
        return F if inner is T else T if inner is F else Not(inner)
    left, right = fold_recursive(s.left), fold_recursive(s.right)
    if isinstance(s, And):
        if left is F or right is F:
            return F
        return right if left is T else left if right is T else And(left, right)
    if isinstance(s, Or):
        if left is T or right is T:
            return T
        return right if left is F else left if right is F else Or(left, right)
    if left is F or right is T:
        return T
    return right if left is T else Not(left) if right is F else Implies(left, right)


def template_recursive(s, fresh_base):
    """(root, clauses) by the recursive Tseitin labelling that
    _TseitinBuilder.label replaced: definition variables in post-order, left
    part before right."""
    folded = fold_recursive(s)
    if folded is prover._TRUE or folded is prover._FALSE:
        return folded, ()
    clauses = []

    def label(node):
        if isinstance(node, Atom):
            return node.index + 1
        if isinstance(node, Not):
            return -label(node.inner)
        a, b = label(node.left), label(node.right)
        v = fresh_base + len(clauses) // 3 + 1
        if isinstance(node, And):
            clauses.extend([frozenset((-v, a)), frozenset((-v, b)), frozenset((v, -a, -b))])
        elif isinstance(node, Or):
            clauses.extend([frozenset((-v, a, b)), frozenset((v, -a)), frozenset((v, -b))])
        else:
            clauses.extend([frozenset((-v, -a, b)), frozenset((v, a)), frozenset((v, -b))])
        return v

    root = label(folded)
    return root, tuple(clauses)


def atoms_recursive(s):
    """The recursive atoms_of that logic.fold replaced."""
    if isinstance(s, Bottom):
        return frozenset()
    if isinstance(s, Atom):
        return frozenset((s.index,))
    if isinstance(s, Not):
        return atoms_recursive(s.inner)
    return atoms_recursive(s.left) | atoms_recursive(s.right)


_TAGS = {And: logic._TAG_AND, Or: logic._TAG_OR, Implies: logic._TAG_IMPLIES}


def index_recursive(s):
    """The recursive sentence_index that logic.fold replaced."""
    if isinstance(s, Bottom):
        return 0
    if isinstance(s, Atom):
        return 1 + 5 * s.index + logic._TAG_ATOM
    if isinstance(s, Not):
        return 1 + 5 * index_recursive(s.inner) + logic._TAG_NOT
    pair = logic._pair(index_recursive(s.left), index_recursive(s.right))
    return 1 + 5 * pair + _TAGS[type(s)]


def sentence_at_recursive(k):
    """The recursive decoder that the stack-based sentence_at replaced."""
    if k == 0:
        return BOTTOM
    payload, tag = divmod(k - 1, 5)
    if tag == logic._TAG_ATOM:
        return Atom(payload)
    if tag == logic._TAG_NOT:
        return Not(sentence_at_recursive(payload))
    a, b = logic._unpair(payload)
    ctor = {t: c for c, t in _TAGS.items()}[tag]
    return ctor(sentence_at_recursive(a), sentence_at_recursive(b))


def mask_recursive(s, patterns, full):
    """The recursive truth-table evaluation that prover._eval_mask replaced."""
    if isinstance(s, Bottom):
        return 0
    if isinstance(s, Atom):
        return patterns[s.index]
    if isinstance(s, Not):
        return full & ~mask_recursive(s.inner, patterns, full)
    left = mask_recursive(s.left, patterns, full)
    right = mask_recursive(s.right, patterns, full)
    if isinstance(s, And):
        return left & right
    if isinstance(s, Or):
        return left | right
    return (full & ~left) | right


def test_iterative_fold_and_labelling_match_the_recursive_ones():
    rng = random.Random(1203)
    order = (4, 0, 2, 1, 3, 5)
    patterns, full = prover._atom_patterns(order), (1 << (1 << len(order))) - 1
    for _ in range(2000):
        s = rand_sentence(rng, rng.randrange(0, 7), 5)
        where = render_sentence(s)
        assert prover._fold(s) == fold_recursive(s), where
        assert prover._build_template(s, 1 << 32) == template_recursive(s, 1 << 32), where
        assert atoms_of(s) == atoms_recursive(s) and type(atoms_of(s)) is frozenset, where
        k = sentence_index(s)
        assert k == index_recursive(s), where
        assert sentence_at(k) is sentence_at_recursive(k) is s, where
        assert truth_table(s, order) == mask_recursive(s, patterns, full), where
        j = rng.getrandbits(64)
        assert sentence_at(j) is sentence_at_recursive(j), j


def test_chains_deeper_than_the_recursion_limit_clausify():
    # Built bottom up, so only the functions under test walk the whole chain.
    depth = sys.getrecursionlimit() + 500
    chain = Atom(0)
    for i in range(1, depth):
        chain = Or(Not(chain), Atom(i % 7)) if i % 2 else Implies(chain, Not(Atom(i % 5)))
    # A second build is the same object, so comparing, hashing and merging it
    # never walks the chain.
    second = Atom(0)
    for i in range(1, depth):
        second = Or(Not(second), Atom(i % 7)) if i % 2 else Implies(second, Not(Atom(i % 5)))
    assert second is chain and second == chain
    assert {chain: True}[second]
    claims = ClaimSet.of([chain])
    assert claims.union([second]) is claims
    root, clauses = prover._build_template(chain, 1 << 32)
    assert len(clauses) == 3 * (depth - 1)
    # the top node is labelled last
    assert root == (1 << 32) + depth - 1
    # falsum under every level folds away, level by level, to the innermost atom
    core = padded = Atom(3)
    for _ in range(depth):
        padded = Or(BOTTOM, And(padded, TOP))
    assert prover._fold(padded) is core
    assert prover._build_template(padded, 1 << 32) == (4, ())
