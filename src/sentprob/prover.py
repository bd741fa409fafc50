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

refute_bounded runs one given-clause resolution loop. It takes clauses in
walk order: by size, then by sorted literals. After deduplication no two
clauses share that key, so the order is total. The set's clauses come in a
sorted walk or wait in a heap with the resolvents derived, and each step
takes the smaller of the two heads, which is the order a single queue of
everything would pop. Each resolvent produced counts one inference against
the budget; the exploration order does not depend on the budget, so a
refutation found at budget b is found at any larger budget. Resolution is
refutation-complete for propositional logic, so when the walk and the heap
drain without deriving the empty clause the set is satisfiable (reported
as Unknown with `saturated` set). Only the order and equality of literals
reach a result, never their values.

A claim set differs from the set it grew from only by the few sentences a
merge added, so its walk is carried down the merge chain in a ClauseOrder:
a node holds its parent's node and the added sentences, and is built, from
the nearest built ancestor's walk with the added clauses inserted, only
when a refutation of a set grown from it needs it. Refuting a set walks its
parent's walk and puts the clauses its own sentences add on the heap. A
caller with no order gets one grown from the empty set, so all its clauses
go on the heap.

Two kinds of set have a result fixed by their initial clauses: those with a
sentence that folds to falsum (refuted at setup, after 0 inferences) and
those with two clashing unit clauses (units pop first, so the loop's first
inference derives the empty clause). The only unit clauses are sentence
roots, and roots on definition variables never clash, so both facts can be
read from `_fold` alone: `summarize` keeps a set's atom-literal root units
and whether two of them clash, and grows a summary by the sentences a
merge adds; `settled_by_summary` turns it into refute_bounded's exact
result. A caller that keeps summaries (the consistency gate does) decides
these sets with no clausification, and hands only the rest to
refute_bounded, together with the set's ClauseOrder.

semantic_consistent, truth_table and entails are exact, via truth-table
bitmaps, and are limited to MAX_TABLE_ATOMS distinct atoms.

Every walk over a sentence here (`_fold`, the Tseitin labelling, the
truth-table masks) is a `logic.fold`, so nesting depth costs no frames.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import insort
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


def _sentence_entries(root: object, clauses: tuple[Clause, ...]) -> tuple[Entry, ...]:
    """The entries of one sentence's clause form: its definition clauses and
    root unit, tautologies and repeats dropped; none for a sentence that
    folds to a tautology, and the empty clause for one that folds to
    falsum."""
    if root is _TRUE:
        return ()
    if root is _FALSE:
        return (_entry(frozenset()),)
    kept = dict.fromkeys(c for c in clauses + (frozenset((root,)),) if not _is_tautology(c))  # type: ignore[arg-type]
    return tuple(_entry(c) for c in kept)


def _sentence_base(r: str) -> int:
    """The definition-variable base of the sentence rendered as r."""
    digest = hashlib.sha256(r.encode()).digest()
    return _TEMPLATE_BASE + int.from_bytes(digest[:16], "big") * _TEMPLATE_STRIDE


@lru_cache(maxsize=1 << 14)
def _prepared(s: Sentence) -> tuple[Entry, ...]:
    """The entries of the clause form of s. Keyed by the sentence itself:
    nodes are interned, so a sentence built again is the same key and a
    lookup never compares two trees."""
    return _sentence_entries(*_build_template(s, _sentence_base(render_sentence(s))))


def _claim(sentences: Iterable[Sentence], seen: set[Clause], out: list[Entry]) -> None:
    """Append to out the cached entries of sentences that are not in seen,
    and note their clauses in seen."""
    for s in sentences:
        for e in _prepared(s):
            c = e[2]
            if c not in seen:
                seen.add(c)
                out.append(e)


class ClauseOrder:
    """A claim set's clause entries in walk order, carried down its merge
    chain. A node stands for the set its ``parent`` stands for plus
    ``sentences``; ``EMPTY_ORDER`` stands for the empty set.

    A node is built when a refutation needs it (see ``_built``): ``walk``
    then holds the set's distinct entries in walk order and ``clauses``
    their clauses, and the parent link is dropped, so a node's parent is
    None exactly when it is built."""

    __slots__ = ("parent", "sentences", "walk", "clauses")

    def __init__(self, parent: Optional["ClauseOrder"], sentences: Seq[Sentence]) -> None:
        self.parent = parent
        self.sentences = sentences


EMPTY_ORDER = ClauseOrder(None, ())
EMPTY_ORDER.walk = []
EMPTY_ORDER.clauses = frozenset()


def _built(node: ClauseOrder) -> ClauseOrder:
    """node, built. The walk of its nearest built ancestor is copied and the
    entries the nodes in between add are inserted; those nodes stay
    unbuilt."""
    path = []
    while node.parent is not None:
        path.append(node)
        node = node.parent
    if not path:
        return node
    seen, new = set(node.clauses), []
    for n in reversed(path):
        _claim(n.sentences, seen, new)
    walk = list(node.walk)
    for e in new:
        insort(walk, e)
    target = path[0]
    target.walk, target.clauses, target.parent = walk, seen, None
    return target


class RefutationVerdict(Enum):
    REFUTED = "refuted"
    UNKNOWN = "unknown"


class RefutationResult(NamedTuple):
    verdict: RefutationVerdict
    steps_used: int
    # saturated is meaningful on Unknown only: the resolution closure was
    # exhausted without an empty clause, so the set is satisfiable.
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


def _clash_result(budget: ProofBudget) -> RefutationResult:
    # Units pop first and resolve only with each other, so when two of them
    # clash the loop's first inference derives the empty clause.
    if budget == 0:
        return RefutationResult(RefutationVerdict.UNKNOWN, 0)
    return RefutationResult(RefutationVerdict.REFUTED, 1)


def settled_by_summary(
    summary: Optional[ClauseSummary], budget: ProofBudget
) -> Optional[RefutationResult]:
    """`refute_bounded`'s result on a set it decides before its first
    resolution step, from the set's summary (None: a sentence folds to
    falsum), or None when the set reaches the resolution loop."""
    if summary is None:
        return REFUTED_AT_SETUP
    if summary.clash:
        return _clash_result(budget)
    return None


def _carried(order: ClauseOrder) -> tuple[list[Entry], list[Entry], set[Clause]]:
    """(walk, heap, seen) from a set's carried order: its parent's walk, and
    on the heap the entries its own sentences add; the walk alone when the
    order is built already."""
    if order.parent is None:
        return order.walk, [], set(order.clauses)
    base = _built(order.parent)
    seen, heap = set(base.clauses), []
    _claim(order.sentences, seen, heap)
    heapq.heapify(heap)
    return base.walk, heap, seen


def refute_bounded(
    sentences: Iterable[Sentence],
    budget: ProofBudget,
    order: Optional[ClauseOrder] = None,
) -> RefutationResult:
    """Try to derive the empty clause within `budget` attempted resolutions.
    Ordered resolution: each clause resolves only on its maximal literal
    (by variable), which keeps the search directed enough to saturate
    small sets within tiny budgets while staying refutation-complete.

    A caller that holds the set's `ClauseOrder` (a ClaimSet's ``order``)
    passes it as `order`; `sentences` are then not read, and the loop walks
    the order the set's parent carries instead of sorting every clause.
    Without one, the distinct sentences get an order grown from the empty
    set's."""
    if order is None:
        order = ClauseOrder(EMPTY_ORDER, tuple(dict.fromkeys(sentences)))
    walk, heap, seen = _carried(order)
    if (walk and not walk[0][0]) or (heap and not heap[0][0]):
        # the empty clause of a sentence that folds to falsum
        return REFUTED_AT_SETUP
    heappop, heappush = heapq.heappop, heapq.heappush
    by_max: dict[int, list[Clause]] = {}
    inferences = 0
    i, n = 0, len(walk)
    while i < n or heap:
        # Pop the smaller of the walk's next entry and the heap's top.
        if heap and (i == n or heap[0] < walk[i]):
            _, _, _, m, rest = heappop(heap)
        else:
            _, _, _, m, rest = walk[i]
            i += 1
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
