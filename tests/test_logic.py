import copy
import gc
import pickle
import weakref

import pytest

from sentprob.logic import (
    BOTTOM,
    EMPTY_THEORY,
    TOP,
    And,
    Atom,
    Bottom,
    Implies,
    Not,
    Or,
    ParseError,
    Theory,
    _TAG_ATOM,
    _TAG_NOT,
    _unpair,
    atoms_of,
    parse_sentence,
    render_sentence,
    sentence_at,
    sentence_index,
)


def theory_from_axioms(name, axioms):
    """A finite axiom list padded with the trivial tautology."""
    frozen = tuple(axioms)
    return Theory(name, lambda i: frozen[i] if i < len(frozen) else TOP)


def decode_cost(k: int) -> int:
    """Number of elementary decode steps for sentence_at(k); used to check
    that decoding stays polynomial in the bit length of k."""
    steps = 1
    if k == 0:
        return steps
    stack = [k]
    while stack:
        j = stack.pop()
        if j == 0:
            continue
        m = j - 1
        tag = m % 5
        payload = m // 5
        steps += 1
        if tag == _TAG_NOT:
            stack.append(payload)
        elif tag != _TAG_ATOM:
            a, b = _unpair(payload)
            stack.append(a)
            stack.append(b)
    return steps


def test_enumeration_prefix():
    got = [render_sentence(sentence_at(i)) for i in range(13)]
    assert got == [
        "_|_",
        "a0",
        "!_|_",
        "(_|_ & _|_)",
        "(_|_ | _|_)",
        "(_|_ -> _|_)",
        "a1",
        "!a0",
        "(a0 & _|_)",
        "(a0 | _|_)",
        "(a0 -> _|_)",
        "a2",
        "!!_|_",
    ]


def test_enumeration_is_a_bijection():
    seen = set()
    for i in range(2000):
        s = sentence_at(i)
        assert sentence_index(s) == i
        r = render_sentence(s)
        assert r not in seen
        seen.add(r)


def test_sentence_index_known_values():
    assert sentence_index(BOTTOM) == 0
    assert sentence_index(Atom(0)) == 1
    assert sentence_index(TOP) == 5
    assert sentence_index(Atom(1)) == 6
    assert sentence_index(Not(Atom(0))) == 7
    assert sentence_index(Not(Atom(1))) == 32


def test_sentence_at_rejects_negative_index():
    with pytest.raises(ValueError):
        sentence_at(-1)


def test_parse_render_round_trip():
    for text in (
        "_|_",
        "a0",
        "!!a0",
        "(a0 & !a3)",
        "((a0 & !a3) | (a7 -> _|_))",
        "(a1024 -> (a1 | _|_))",
    ):
        assert render_sentence(parse_sentence(text)) == text


def test_round_trip_through_enumeration():
    for i in range(300):
        s = sentence_at(i)
        assert parse_sentence(render_sentence(s)) == s


def test_parse_errors():
    for bad in ("", "a0 &", "(a0 & a1", "a-1", "foo", "(a0 &)"):
        with pytest.raises(ParseError):
            parse_sentence(bad)


def test_atoms_of():
    assert atoms_of(BOTTOM) == frozenset()
    assert atoms_of(parse_sentence("((a0 & !a3) | (a7 -> _|_))")) == frozenset({0, 3, 7})


def test_decode_cost_polynomial_in_index_bits():
    assert decode_cost(0) == 1
    assert decode_cost(5) == 2
    for k in (10, 10**3, 10**6, 10**12):
        assert decode_cost(k) <= 4 * max(k.bit_length(), 1) ** 2


def test_connective_constructors_are_structural():
    assert Implies(Atom(0), Atom(1)) == Implies(Atom(0), Atom(1))
    assert Or(Atom(0), Atom(1)) != Or(Atom(1), Atom(0))
    assert Not(Not(Atom(0))) != Atom(0)


def test_nodes_are_interned_immutable_and_held_weakly():
    s = And(Atom(3), Not(Or(Atom(1), BOTTOM)))
    assert Atom(3) is Atom(3) and Bottom() is BOTTOM
    assert And(Atom(3), Not(Or(Atom(1), BOTTOM))) is s
    assert parse_sentence("(a3 & !(a1 | _|_))") is s
    assert copy.copy(s) is s and copy.deepcopy(s) is s
    assert pickle.loads(pickle.dumps(s)) is s
    assert repr(s) == "And(left=Atom(index=3), right=Not(inner=Or(left=Atom(index=1), right=Bottom())))"
    with pytest.raises(AttributeError):
        s.left = Atom(4)
    with pytest.raises(AttributeError):
        del Atom(3).index
    with pytest.raises(TypeError):
        Atom()
    # The intern tables hold nodes weakly: a node nothing holds is freed.
    before = len(Implies._interned)
    fresh = Implies(Atom(123456789), Atom(987654321))
    assert len(Implies._interned) == before + 1
    del fresh
    gc.collect()
    assert len(Implies._interned) == before


def test_intern_tables_drop_dead_nodes_and_keep_rebuilt_ones():
    parts = (Atom(123456780), Atom(123456781))
    node = Implies(*parts)
    entry = Implies._interned[parts]
    callback = entry.__callback__
    assert entry() is node and entry.key == parts
    # A node nothing holds is freed, and its entry leaves the table.
    old = weakref.ref(node)
    del node
    gc.collect()
    assert old() is None and parts not in Implies._interned
    # Rebuilt, it is a new object (the old one is gone) under a new entry,
    # and building it again returns that object.
    rebuilt = Implies(*parts)
    assert Implies._interned[parts] is not entry and Implies(*parts) is rebuilt
    # A late callback of the dead ref never deletes the newer entry.
    callback(entry)
    assert Implies._interned[parts]() is rebuilt and Implies(*parts) is rebuilt
    # One-part nodes are keyed by the part itself.
    negation = Not(Atom(123456782))
    assert Not._interned[negation.inner]() is negation
    assert Atom._interned[123456782]() is negation.inner


def test_theories():
    assert render_sentence(EMPTY_THEORY.axiom_at(0)) == "(_|_ -> _|_)"
    assert render_sentence(EMPTY_THEORY.axiom_at(10**6)) == "(_|_ -> _|_)"
    t = theory_from_axioms("pair", [Atom(0), Not(Atom(3))])
    assert t.name == "pair"
    assert render_sentence(t.axiom_at(0)) == "a0"
    assert render_sentence(t.axiom_at(1)) == "!a3"
    assert t.axiom_at(2) == TOP
