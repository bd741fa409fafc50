"""Refutation search with an inference budget, plus exact semantic checks.

Clauses are frozensets of nonzero ints: literal +v asserts variable v, -v
denies it. A sentence's clause form depends on that sentence alone, so it
is cached by sentence and reused across calls. There is one numbering:
- atom i is variable i + 1 while that is below 2**32, and i + 1 + 2**192
  from there on;
- the definition variables that clausification introduces for the sentence
  rendered r are base + 1, base + 2, ..., where base is 2**32 plus the
  first 16 bytes of SHA-256(r), read as an integer, times 2**64.
Two distinct renderings get disjoint ranges of 2**64 variables unless
SHA-256 collides on its first 128 bits, which nobody can construct; no
sentence whose clausification can finish needs 2**64 variables; and every
range lies above the small atoms and below the shifted ones. So no two
sentences share a definition variable, and none is taken for an atom.

refute_bounded runs one given-clause resolution loop. It pops clauses from
one heap in walk order: by size, then by sorted literals. After
deduplication no two clauses share that key, so the order is total. A
popped clause resolves on its maximal literal, the one on the largest
variable, with every earlier clause whose maximal literal is the
complement. Each resolvent produced counts one inference against the
budget; the exploration order does not depend on the budget, so a
refutation found at budget b is found at any larger budget. Resolution is
refutation-complete for propositional logic, so when the heap drains
without deriving the empty clause the set is satisfiable (reported as
Unknown with `saturated` set). Only the order and equality of literals
reach a result, never their values.

The loop's count can be read without running it. This is this module's
own argument, not a result of the source paper. In a set with no shifted
atom, a clause holding a definition variable of sentence r has its maximal
literal on one of r's variables, and so has every clause it resolves with.
So the loop splits into one process per sentence, resolving only on that
sentence's variables, and one atom-level process over the atom-only
clauses. A clause resolves once with each earlier clause whose maximal
literal is the complement of its own, so the loop makes at most
U = sum(L) + P inferences, L and P counting those pairs in one sentence's
process and in the atom-level one, and exactly U when it saturates.
`local_summary` runs a sentence's process once, by directional resolution
(Dechter and Rish, KR 1994); a `Closure` carries the atom-level closure
down a claim set's merge chain; and `closure_result` reads the loop's
result from them. No process runs past the budget, and a set with a
shifted atom is left to the loop.

Two kinds of set have a result fixed by their initial clauses: those with a
sentence that folds to falsum (refuted at setup, after 0 inferences) and
those with two clashing unit clauses (units pop first, so the loop's first
inference derives the empty clause). The only unit clauses are sentence
roots, and roots on definition variables never clash, so both facts can be
read from `_fold` alone: `summarize` keeps a set's atom-literal root units
and whether two of them clash, and grows a summary by the sentences a
merge adds; `settled_by_summary` turns it into refute_bounded's exact
result, with no clausification.

semantic_consistent, truth_table and entails are exact, via truth-table
bitmaps, and are limited to MAX_TABLE_ATOMS distinct atoms.

Every walk over a sentence here (`_fold`, the Tseitin labelling, the
truth-table masks) is a `logic.fold`, so nesting depth costs no frames.
"""

from __future__ import annotations

import hashlib
import heapq
from enum import Enum
from functools import lru_cache
from operator import neg
from typing import Iterable, NamedTuple, Optional, Sequence as Seq

from .logic import And, Atom, Implies, Not, Or, Sentence, atoms_of, fold, render_sentence

ProofBudget = int

Clause = frozenset[int]

_TEMPLATE_BASE = 1 << 32
_TEMPLATE_STRIDE = 1 << 64
# Every definition variable is below _TEMPLATE_BASE + 2**128 * _TEMPLATE_STRIDE.
_ATOM_SHIFT = 1 << 192

_TRUE = "T"
_FALSE = "F"


def _atom_literal(a: Atom) -> int:
    """The positive literal of atom a_i: i + 1, moved above every definition
    range from 2**32 on."""
    lit = a.index + 1
    return lit if lit < _TEMPLATE_BASE else lit + _ATOM_SHIFT


def _fold(s: Sentence) -> object:
    """s with falsum propagated upward: a Sentence, or _TRUE or _FALSE."""
    return fold(s, lambda a: a, _FALSE, _fold_not, _fold_binary)


def _fold_not(v):
    """The fold of a negation whose part folds to v."""
    return _FALSE if v is _TRUE else _TRUE if v is _FALSE else Not(v)


def _fold_binary(t: type, left, right):
    """The fold of a binary node of type t whose parts fold to left and right."""
    if t is And:
        if left is _FALSE or right is _FALSE:
            return _FALSE
        if left is _TRUE:
            return right
        if right is _TRUE:
            return left
        return And(left, right)
    if t is Or:
        if left is _TRUE or right is _TRUE:
            return _TRUE
        if left is _FALSE:
            return right
        if right is _FALSE:
            return left
        return Or(left, right)
    # Implies
    if left is _FALSE or right is _TRUE:
        return _TRUE
    if left is _TRUE:
        return right
    if right is _FALSE:
        return Not(left)
    return Implies(left, right)


@lru_cache(maxsize=1 << 14)
def _root(s: Sentence) -> object:
    """What the clause form of s asserts at its root, with no clauses built,
    read from `_fold` alone: _FALSE when s folds to falsum, the atom literal
    +-_atom_literal(a) when it folds to atom a under zero or more negations,
    and None otherwise (a tautology, or a root on a definition variable,
    which never clashes with another root)."""
    folded = _fold(s)
    if folded is _FALSE:
        return _FALSE
    sign = 1
    while type(folded) is Not:
        folded = folded.inner
        sign = -sign
    if type(folded) is Atom:
        return sign * _atom_literal(folded)
    return None


class _TseitinBuilder:
    def __init__(self, fresh_base: int) -> None:
        self.fresh_base = fresh_base
        self.clauses: list[Clause] = []

    def label(self, s: Sentence) -> int:
        """The literal naming folded sentence s, adding a definition variable
        and its three clauses per binary node. Nodes are numbered in post-
        order, left part before right."""
        return fold(s, _atom_literal, None, neg, self._define)

    def _define(self, t: type, a: int, b: int) -> int:
        # Every definition adds three clauses, so this is the next variable.
        v = self.fresh_base + len(self.clauses) // 3 + 1
        if t is And:
            self.clauses += (frozenset((-v, a)), frozenset((-v, b)), frozenset((v, -a, -b)))
        elif t is Or:
            self.clauses += (frozenset((-v, a, b)), frozenset((v, -a)), frozenset((v, -b)))
        else:  # Implies
            self.clauses += (frozenset((-v, -a, b)), frozenset((v, a)), frozenset((v, -b)))
        return v


def _build_template(s: Sentence, fresh_base: int) -> tuple[object, tuple[Clause, ...]]:
    """(root, definition clauses) of s with definition variables numbered
    from fresh_base + 1; the root is _TRUE or _FALSE when s folds to one."""
    folded = _fold(s)
    if folded is _TRUE or folded is _FALSE:
        return folded, ()
    builder = _TseitinBuilder(fresh_base)
    root = builder.label(folded)
    return root, tuple(builder.clauses)


def _is_tautology(c: Clause) -> bool:
    return any(-l in c for l in c)


# A clause's walk entry: its walk key (size, sorted literals), the clause, its
# maximal literal and the rest of the clause. After deduplication no two
# entries share a key, so entries compare by key alone.
Entry = tuple[int, tuple[int, ...], Clause, int, Clause]


def _entry(c: Clause) -> Entry:
    """The walk entry of clause c. Its maximal literal is the one on the
    largest variable, the negative one on a tie; ``lits`` is sorted, so it
    sits at one end. The empty clause gets 0, which is no literal."""
    lits = tuple(sorted(c))
    if not lits:
        return (0, lits, c, 0, c)
    m = lits[0] if -lits[0] >= lits[-1] else lits[-1]
    return (len(lits), lits, c, m, c - {m})


def _sentence_base(r: str) -> int:
    """The definition-variable base of the sentence rendered as r."""
    digest = hashlib.sha256(r.encode()).digest()
    return _TEMPLATE_BASE + int.from_bytes(digest[:16], "big") * _TEMPLATE_STRIDE


def _clause_form(s: Sentence) -> tuple[Clause, ...]:
    """The clauses of s: its definition clauses and root unit, tautologies
    and repeats dropped; none when s folds to a tautology, and the empty
    clause when it folds to falsum."""
    root, clauses = _build_template(s, _sentence_base(render_sentence(s)))
    if root is _TRUE or root is _FALSE:
        return () if root is _TRUE else (frozenset(),)
    return tuple(dict.fromkeys(c for c in clauses + (frozenset((root,)),) if not _is_tautology(c)))  # type: ignore[arg-type]


@lru_cache(maxsize=1 << 14)
def _prepared(s: Sentence) -> tuple[Entry, ...]:
    """The entries of the clause form of s. Keyed by the sentence itself:
    nodes are interned, so a sentence built again is the same key and a
    lookup never compares two trees."""
    return tuple(_entry(c) for c in _clause_form(s))


class RefutationVerdict(Enum):
    REFUTED = "refuted"
    UNKNOWN = "unknown"


class RefutationResult(NamedTuple):
    verdict: RefutationVerdict
    steps_used: int
    # On Unknown: the resolution closure was exhausted without an empty
    # clause, so the set is satisfiable. On Refuted (from closure_result):
    # the loop refutes within steps_used inferences, at a step not known.
    saturated: bool = False

    @property
    def refuted(self) -> bool:
        return self.verdict is RefutationVerdict.REFUTED


class ClauseSummary(NamedTuple):
    """What `refute_bounded`'s setup finds in a set with no sentence that
    folds to falsum, read from `_root` alone: the atom-literal root units
    and whether two of them clash. The only unit clauses of a set are its
    sentences' roots, and roots on definition variables never clash, so
    `clash` is exactly the setup's unit-clash test."""

    units: frozenset[int]
    clash: bool


EMPTY_SUMMARY = ClauseSummary(frozenset(), False)

REFUTED_AT_SETUP = RefutationResult(RefutationVerdict.REFUTED, 0)


def summarize(
    sentences: Iterable[Sentence], base: ClauseSummary = EMPTY_SUMMARY
) -> Optional[ClauseSummary]:
    """The summary of the set `base` describes grown by `sentences`, or None
    when one of them folds to falsum. Builds no clauses; `base` itself comes
    back when the sentences add no unit."""
    new: list[int] = []
    for s in sentences:
        lit = _root(s)
        if lit is _FALSE:
            return None
        if lit is not None:
            new.append(lit)  # type: ignore[arg-type]
    units = base.units.union(new) if new else base.units
    if len(units) == len(base.units):
        return base
    clash = base.clash or any(-l in units for l in new)
    return ClauseSummary(units, clash)


def settled_by_summary(
    summary: Optional[ClauseSummary], budget: ProofBudget
) -> Optional[RefutationResult]:
    """`refute_bounded`'s result on a set it decides before its first
    resolution step, from the set's summary (None: a sentence folds to
    falsum), or None when the set reaches the resolution loop."""
    if summary is None:
        return REFUTED_AT_SETUP
    if not summary.clash:
        return None
    # Units pop first and resolve only with each other, so when two of them
    # clash the loop's first inference derives the empty clause.
    if budget == 0:
        return RefutationResult(RefutationVerdict.UNKNOWN, 0)
    return RefutationResult(RefutationVerdict.REFUTED, 1)


def refute_bounded(sentences: Iterable[Sentence], budget: ProofBudget) -> RefutationResult:
    """Try to derive the empty clause within `budget` attempted resolutions.
    Ordered resolution: each clause resolves only on its maximal literal
    (by variable), which keeps the search directed enough to saturate
    small sets within tiny budgets while staying refutation-complete."""
    # Clauses shared by sentences (root units) are one entry.
    heap = list({e[2]: e for s in dict.fromkeys(sentences) for e in _prepared(s)}.values())
    seen = {e[2] for e in heap}
    heapq.heapify(heap)
    if heap and not heap[0][0]:
        # the empty clause of a sentence that folds to falsum
        return REFUTED_AT_SETUP
    heappop, heappush = heapq.heappop, heapq.heappush
    by_max: dict[int, list[Clause]] = {}
    inferences = 0
    while heap:
        _, _, _, m, rest = heappop(heap)
        mine = by_max.get(m)
        if mine is None:
            by_max[m] = [rest]
        else:
            mine.append(rest)
        for other in by_max.get(-m, ()):
            if inferences >= budget:
                return RefutationResult(RefutationVerdict.UNKNOWN, inferences)
            inferences += 1
            resolvent = rest | other
            if not resolvent:
                return RefutationResult(RefutationVerdict.REFUTED, inferences)
            if resolvent in seen:
                continue
            # Neither part holds a clashing pair, so only a pair across the
            # two parts makes the resolvent a tautology.
            for lit in rest:
                if -lit in other:
                    break
            else:
                seen.add(resolvent)
                heappush(heap, _entry(resolvent))
    return RefutationResult(RefutationVerdict.UNKNOWN, inferences, saturated=True)


def _saturate(clauses: Iterable[Clause], cap: int) -> Optional[tuple[int, frozenset[Clause]]]:
    """(L, the atom-only clauses left) of a sentence's process, or None once
    it passes cap inferences or meets a shifted atom. Each definition
    variable's bucket, the rests of the clauses whose maximal literal is on
    it split by sign, is resolved out largest first and then freed; its
    resolvents hold only smaller variables, so it is complete when taken."""
    buckets: dict[int, tuple[set[Clause], set[Clause]]] = {}
    below: set[Clause] = set()
    pairs = 0
    while True:
        for c in clauses:
            m = max(c, key=abs, default=0)
            v = abs(m)
            if v < _TEMPLATE_BASE:
                below.add(c)
            elif v >= _ATOM_SHIFT:
                return None
            else:
                signs = buckets.get(v) or buckets.setdefault(v, (set(), set()))
                signs[m < 0].add(c - {m})
        if not buckets:
            return pairs, frozenset(below)
        pos, neg = buckets.pop(max(buckets))
        pairs += len(pos) * len(neg)
        if pairs > cap:
            return None
        clauses = [a | b for a in pos for b in neg if not any(-l in b for l in a)]


# Sentence -> its local summary, or a cap its process was found to exceed or
# to meet a shifted atom under. Bounded like `_prepared`.
_LOCALS: dict[Sentence, object] = {}


def local_summary(s: Sentence, cap: int) -> Optional[tuple[int, frozenset[Clause]]]:
    """The local summary of s: L and the atom-only clauses its process
    derives, the empty clause among them when it is derived; None when s
    holds a shifted atom or its process makes more than cap inferences."""
    known = _LOCALS.get(s, -1)
    if known.__class__ is int and known < cap:  # type: ignore[operator]
        if len(_LOCALS) >= 1 << 14:
            _LOCALS.clear()
        summary = _saturate(_clause_form(s), cap)
        known = _LOCALS[s] = cap if summary is None else summary
    return None if known.__class__ is int else known  # type: ignore[return-value]


class Closure:
    """A claim set's atom-level closure, carried down its merge chain. A
    node stands for the set its ``parent`` stands for plus ``sentences``;
    ``EMPTY_CLOSURE`` stands for the empty set. A node is built when a
    decision needs it (``_built``): ``by_max`` then maps each maximal
    literal of the closure's clauses to their rests (0 to the empty
    clause's), ``pairs`` is P and ``local`` the sum of the sentences' L,
    and the parent link is dropped, so its parent is None exactly then."""

    __slots__ = ("parent", "sentences", "by_max", "pairs", "local")

    def __init__(self, parent: Optional["Closure"], sentences: Seq[Sentence]) -> None:
        self.parent = parent
        self.sentences = sentences


EMPTY_CLOSURE = Closure(None, ())
EMPTY_CLOSURE.by_max, EMPTY_CLOSURE.pairs, EMPTY_CLOSURE.local = {}, 0, 0


def _built(node: Closure, cap: int) -> Optional[Closure]:
    """node, built from its nearest built ancestor, whose closure is grown
    by the atom-only clauses of the sentences in between (those nodes stay
    unbuilt); None, with node unbuilt, when local_summary gives None for one
    of them or P passes cap. The ancestor's rest sets are never changed."""
    path = []
    while node.parent is not None:
        path.append(node)
        node = node.parent
    if not path:
        return node
    new, local = [], node.local
    for n in reversed(path):
        for s in n.sentences:
            summary = local_summary(s, cap)
            if summary is None:
                return None
            local += summary[0]
            new += summary[1]
    by_max, pairs = dict(node.by_max), node.pairs
    while new:
        c = new.pop()
        m = max(c, key=abs, default=0)
        rest = c - {m}
        mine = by_max.get(m, frozenset())
        if rest not in mine:
            by_max[m] = mine | {rest}
            others = by_max.get(-m, ()) if m else ()
            pairs += len(others)
            if pairs > cap:
                return None
            new += [rest | o for o in others if not any(-l in o for l in rest)]
    node = path[0]
    node.by_max, node.pairs, node.local, node.parent = by_max, pairs, local, None
    return node


def closure_result(node: Closure, budget: ProofBudget) -> Optional[RefutationResult]:
    """`refute_bounded`'s result on the set node stands for, read from its
    closure, or None when it cannot be: a process would pass the budget, or
    the empty clause is derived and U passes the budget. A refutation comes
    back with `saturated` set and U as its steps: the loop refutes within U
    inferences, at a step this does not tell. Builds node and its parent
    node, for the merges that grow from either; when the parent's cannot
    be built, neither can node's."""
    built = (node.parent is None or _built(node.parent, budget)) and _built(node, budget)
    if not built:
        return None
    total = built.local + built.pairs
    if 0 not in built.by_max:
        return RefutationResult(RefutationVerdict.UNKNOWN, min(total, budget), total <= budget)
    return RefutationResult(RefutationVerdict.REFUTED, total, True) if total <= budget else None


MAX_TABLE_ATOMS = 24


class AtomLimitError(ValueError):
    pass


def _atom_patterns(order: Seq[int]) -> dict[int, int]:
    rows = 1 << len(order)
    patterns: dict[int, int] = {}
    for j, atom in enumerate(order):
        width = 1 << j
        unit = ((1 << width) - 1) << width
        span = width * 2
        m = unit
        while span < rows:
            m |= m << span
            span *= 2
        patterns[atom] = m
    return patterns


def _eval_mask(s: Sentence, patterns: dict[int, int], full: int) -> int:
    def binary(t: type, left: int, right: int) -> int:
        if t is And:
            return left & right
        if t is Or:
            return left | right
        return (full & ~left) | right

    return fold(s, lambda a: patterns[a.index], 0, lambda m: full & ~m, binary)


def _table_order(sentences: Iterable[Sentence]) -> list[int]:
    atoms: set[int] = set()
    for s in sentences:
        atoms |= atoms_of(s)
    if len(atoms) > MAX_TABLE_ATOMS:
        raise AtomLimitError(f"{len(atoms)} atoms exceeds table limit {MAX_TABLE_ATOMS}")
    return sorted(atoms)


def truth_table(s: Sentence, order: Seq[int]) -> int:
    """Bitmap over 2**len(order) valuations; bit r is the value of s when
    atom order[j] is true iff bit j of r is set. Atoms of s must be in order."""
    full = (1 << (1 << len(order))) - 1
    return _eval_mask(s, _atom_patterns(tuple(order)), full)


def semantic_consistent(sentences: Iterable[Sentence]) -> bool:
    sentences = list(sentences)
    order = _table_order(sentences)
    patterns = _atom_patterns(order)
    full = (1 << (1 << len(order))) - 1
    mask = full
    for s in sentences:
        mask &= _eval_mask(s, patterns, full)
        if not mask:
            return False
    return True


def entails(premises: Iterable[Sentence], conclusion: Sentence) -> bool:
    premises = list(premises)
    order = _table_order(premises + [conclusion])
    patterns = _atom_patterns(order)
    full = (1 << (1 << len(order))) - 1
    mask = full
    for s in premises:
        mask &= _eval_mask(s, patterns, full)
    return not (mask & ~_eval_mask(conclusion, patterns, full))
