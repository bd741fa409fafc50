"""Builtin sentence sequences.

Every family is total in n and cheap to evaluate. The catalog order is
load-bearing: the program decoder assigns generator slots by position in
builtin_catalog(), so reordering entries changes every encoded program.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Callable, NamedTuple

from .logic import (
    And,
    Atom,
    BOTTOM,
    Not,
    Or,
    Sentence,
    sentence_at,
)


class SequenceDef(NamedTuple):
    id: str
    kind: str  # "builtin" or "machine"
    description: str
    emit: Callable[[int], Sentence]

    # Equality and hash ignore emit: two builds of one family are equal
    # though their emit functions are distinct objects. tuple's own __ne__
    # would compare emit, so __ne__ is defined too.
    def __eq__(self, other: object) -> bool:
        return other.__class__ is SequenceDef and self[:3] == other[:3]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:3])


def _tautology(n: int) -> Sentence:
    return Or(Atom(n), Not(Atom(n)))


def _neg_atom(n: int) -> Sentence:
    return Not(Atom(n))


def _atom(n: int) -> Sentence:
    return Atom(n)


# Split families case on a shadow atom paired with the diagonal one. The
# shadow lives far above any diagonal position a run can reach, so distinct
# members of one split family never mention each other's atoms and a streamed
# run of them stays jointly satisfiable. That needs every step budget below
# _SHADOW (estimator.GROWTH_CAP caps them): a t-step indexed run emits member
# m for any m <= t, so atom_chain could emit a shadow atom directly.
_SHADOW = 1024
_DEEP_SHADOW = 2048


def _split_rest(n: int) -> Sentence:
    return And(Not(Atom(n)), Not(Atom(_SHADOW + n)))


def _double_neg(n: int) -> Sentence:
    return Not(Not(Atom(n)))


def _deep_split_rest(n: int) -> Sentence:
    return And(Not(Atom(n)), And(Not(Atom(_SHADOW + n)), Not(Atom(_DEEP_SHADOW + n))))


def _split_next(n: int) -> Sentence:
    return And(Not(Atom(n)), Atom(_SHADOW + n))


def _deep_split_next(n: int) -> Sentence:
    return And(Not(Atom(n)), And(Not(Atom(_SHADOW + n)), Atom(_DEEP_SHADOW + n)))


def _deep_split_merge(n: int) -> Sentence:
    return Or(_deep_split_next(n), _deep_split_rest(n))


def _monotone(n: int) -> Sentence:
    return reduce(lambda acc, i: Or(acc, Atom(i)), range(1, n + 1), Atom(0))


def _mutex(n: int) -> Sentence:
    if n == 0:
        return Atom(0)
    blockers: Sentence = Not(Atom(n - 1))
    for i in range(n - 2, -1, -1):
        blockers = And(Not(Atom(i)), blockers)
    return And(Atom(n), blockers)


def _enumeration(n: int) -> Sentence:
    return sentence_at(n)


def _neg_tautology(n: int) -> Sentence:
    return Not(_tautology(n))


def _exactly_one(phi: Sentence, psi: Sentence, chi: Sentence) -> Sentence:
    only_phi = And(phi, And(Not(psi), Not(chi)))
    only_psi = And(Not(phi), And(psi, Not(chi)))
    only_chi = And(Not(phi), And(Not(psi), chi))
    return Or(Or(only_phi, only_psi), only_chi)


def _partition_tautology(n: int) -> Sentence:
    return _exactly_one(_atom(n), _split_next(n), _split_rest(n))


# Slot position sets the stream rate: slot s costs |gamma(s+1)| header bits,
# so low slots fire often. Families whose trends need mass sit low; the
# equivalent pair (atom, double negation) shares one tier so neither is
# favored; falsum and the contradiction family never pass the gate at any
# rate, so they sit high.
_FAMILIES: tuple[tuple[str, str, Callable[[int], Sentence]], ...] = (
    ("neg_atom_chain", "not a_n", _neg_atom),
    ("tautology_chain", "a_n or not a_n", _tautology),
    ("split_rest", "not a_n and not the shadow atom", _split_rest),
    ("atom_chain", "a_n", _atom),
    ("double_neg_chain", "not not a_n", _double_neg),
    ("split_next", "not a_n and the shadow atom", _split_next),
    ("deep_split_merge", "either deep-shadow cut of the rest cell", _deep_split_merge),
    ("monotone_chain", "a_0 or ... or a_n (each member implies the next)", _monotone),
    ("mutex_family", "a_n is the first true atom (pairwise exclusive)", _mutex),
    ("constant_bottom", "falsum at every position", lambda n: BOTTOM),
    ("neg_tautology_chain", "negated tautology (contradiction) at every position", _neg_tautology),
    ("enumeration", "the n-th sentence of the canonical enumeration", _enumeration),
    ("partition_tautology", "exactly-one-of-three composite over the canonical split", _partition_tautology),
)


@lru_cache(maxsize=1)
def builtin_catalog() -> tuple[SequenceDef, ...]:
    """All builtin families, in generator-slot order."""
    return tuple(SequenceDef(fid, "builtin", desc, emit) for fid, desc, emit in _FAMILIES)


@lru_cache(maxsize=1)
def catalog_by_id() -> dict[str, SequenceDef]:
    return {seq.id: seq for seq in builtin_catalog()}


def sequence_by_id(fid: str) -> SequenceDef:
    try:
        return catalog_by_id()[fid]
    except KeyError:
        raise KeyError(f"unknown sequence family: {fid!r}") from None
