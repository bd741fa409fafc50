"""Refutation search with an inference budget, plus exact semantic checks.

Clauses are frozensets of nonzero ints: literal +(v+1) asserts variable v,
-(v+1) denies it. User atoms keep their own indices as variables; definition
variables introduced by clausification live above 2**32 (or above the
largest user atom, whichever is bigger) so the two ranges cannot collide.
Each sentence's definition variables start at a base derived from a digest
of its rendering, which lets clause sets be cached by rendering and reused
across calls; a digest collision or an oversized sentence falls back to
positional bases for the whole call, so the outcome stays deterministic.

refute_bounded runs one given-clause resolution loop. It takes clauses in
walk order: by size, then by sorted literals. After deduplication no two
clauses share that key, so the order is total. The set's own clauses come
in a sorted walk; the resolvents it derives wait in a heap, and each step
takes the smaller of the two heads, which is the order a single queue of
everything would pop. Each resolvent produced counts one inference against
the budget; the exploration order does not depend on the budget, so a
refutation found at budget b is found at any larger budget. Resolution is
refutation-complete for propositional logic, so when the walk and the heap
drain without deriving the empty clause the set is satisfiable (reported
as Unknown with `saturated` set).

A claim set differs from the set it grew from only by the few sentences a
merge added, so its walk is carried down the merge chain in a ClauseOrder:
a node holds its parent's node and the added sentences, and is built, from
the nearest built ancestor's walk with the added clauses inserted, only
when a refutation of a set grown from it needs it. Refuting a set walks its
parent's walk and puts the clauses its own sentences add on the heap. A set
that needs positional bases (an atom from 2**32 - 1 on, a digest
collision, an oversized sentence) carries no walk, and neither does any set
grown from it: its clauses are built and sorted once per call, as they are
for callers that pass no order.

Two kinds of set have a result fixed by their initial clauses: those with a
sentence that folds to falsum (refuted at setup, after 0 inferences) and
those with two clashing unit clauses (units pop first, so the loop's first
inference derives the empty clause). The only unit clauses are sentence
roots, and roots on definition variables never clash, so both facts can be
read from `_fold` alone: `summarize` keeps a set's atom-literal root units,
whether two of them clash, and its largest atom, and grows a summary by the
sentences a merge adds; `settled_by_summary` turns it into refute_bounded's
exact result.
A caller that keeps summaries (the consistency gate does) decides these sets
with no clausification, and hands only the rest to refute_bounded, together
with the largest atom and the set's ClauseOrder, so the setup skips its
re-sort, its atom walk and the sort of the clauses the parent already had.

semantic_consistent, truth_table and entails are exact, via truth-table
bitmaps, and are limited to MAX_TABLE_ATOMS distinct atoms.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import insort
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional, Sequence as Seq

from .logic import And, Atom, Bottom, Implies, Not, Or, Sentence, atoms_of, render_sentence

ProofBudget = int

Clause = frozenset[int]

_TEMPLATE_BASE = 1 << 32
_TEMPLATE_STRIDE = 1 << 22

_TRUE = "T"
_FALSE = "F"


def _fold(s: Sentence) -> tuple[object, int]:
    """(fold, top): s with falsum propagated upward (a Sentence, or _TRUE or
    _FALSE), and its largest atom index, or -1. Iterative, so nesting depth
    costs no Python frames: a compound node pushes its type as a marker
    under its parts, and the marker pops once their folds are on the value
    stack. Every atom is visited, including those a fold drops."""
    values: list = []
    stack: list = [s]
    top = -1
    while stack:
        item = stack.pop()
        t = type(item)
        if t is Atom:
            values.append(item)
            if item.index > top:
                top = item.index
        elif t is Bottom:
            values.append(_FALSE)
        elif t is Not:
            stack.append(Not)
            stack.append(item.inner)
        elif t is not type:
            stack.append(t)
            stack.append(item.right)
            stack.append(item.left)
        elif item is Not:
            inner = values.pop()
            values.append(_FALSE if inner is _TRUE else _TRUE if inner is _FALSE else Not(inner))
        else:
            right = values.pop()
            values.append(_fold_binary(item, values.pop(), right))
    return values[0], top


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
def _root_and_top(s: Sentence) -> tuple[object, int]:
    """(root, top) for one sentence, with no clauses built. root is what its
    clause form asserts at its root, read from `_fold` alone: _FALSE when s
    folds to falsum, the atom literal +-(i+1) when it folds to atom i under
    zero or more negations, and None otherwise (a tautology, or a root on a
    definition variable). top is its largest atom index, or -1.

    Only atom-literal roots are reported: they are the same literal on the
    digest and the positional path, while a definition variable's number
    depends on the path and can never clash with another root. The fold's
    walk finds top, memoising nothing per subterm, unlike `atoms_of`."""
    folded, top = _fold(s)
    if folded is _FALSE:
        return _FALSE, top
    sign = 1
    while type(folded) is Not:
        folded = folded.inner
        sign = -sign
    if type(folded) is Atom:
        return sign * (folded.index + 1), top
    return None, top


class _TseitinBuilder:
    def __init__(self, fresh_base: int) -> None:
        self.fresh_base = fresh_base
        self.n_fresh = 0
        self.clauses: list[Clause] = []

    def fresh_lit(self) -> int:
        lit = self.fresh_base + self.n_fresh + 1
        self.n_fresh += 1
        return lit

    def label(self, s: Sentence) -> int:
        """The literal naming folded sentence s, adding a definition variable
        and its three clauses per binary node. Nodes are numbered in post-
        order, left part before right. Iterative like `_fold`: a compound
        node pushes its type as a marker under its parts."""
        labels: list[int] = []
        stack: list = [s]
        while stack:
            item = stack.pop()
            t = type(item)
            if t is Atom:
                labels.append(item.index + 1)
            elif t is Not:
                stack.append(Not)
                stack.append(item.inner)
            elif t is not type:
                stack.append(t)
                stack.append(item.right)
                stack.append(item.left)
            elif item is Not:
                labels.append(-labels.pop())
            else:
                b = labels.pop()
                labels.append(self._define(item, labels.pop(), b))
        return labels[0]

    def _define(self, t: type, a: int, b: int) -> int:
        v = self.fresh_lit()
        if t is And:
            self.clauses.append(frozenset((-v, a)))
            self.clauses.append(frozenset((-v, b)))
            self.clauses.append(frozenset((v, -a, -b)))
        elif t is Or:
            self.clauses.append(frozenset((-v, a, b)))
            self.clauses.append(frozenset((v, -a)))
            self.clauses.append(frozenset((v, -b)))
        else:  # Implies
            self.clauses.append(frozenset((-v, -a, b)))
            self.clauses.append(frozenset((v, a)))
            self.clauses.append(frozenset((v, -b)))
        return v


def _build_template(s: Sentence, fresh_base: int) -> tuple[object, tuple[Clause, ...], int]:
    folded, _ = _fold(s)
    if folded is _TRUE or folded is _FALSE:
        return folded, (), 0
    builder = _TseitinBuilder(fresh_base)
    root = builder.label(folded)
    return root, tuple(builder.clauses), builder.n_fresh


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


@dataclass(frozen=True, slots=True)
class _Prepared:
    """Cached clause form of one sentence, shifted to its own base: the root
    constant (or _TRUE/_FALSE), the entries of its clauses, the
    fresh-variable span, and the base (0 when the root is a constant)."""

    root: object
    entries: tuple[Entry, ...]
    n_fresh: int
    base: int


def _sentence_base(r: str) -> int:
    """The definition-variable base of the sentence rendered as r."""
    digest = hashlib.sha256(r.encode()).digest()
    return _TEMPLATE_BASE + int.from_bytes(digest[:5], "big") * _TEMPLATE_STRIDE


# Clause forms by rendering, oldest dropped first past the limit. Keyed by
# the string, so equal sentences built as distinct objects share an entry
# and a lookup never compares two sentence trees.
_PREPARED_LIMIT = 1 << 14
_PREPARED: OrderedDict[str, _Prepared] = OrderedDict()


def _prepared(s: Sentence, r: str) -> _Prepared:
    """The clause form of s, whose rendering is r."""
    p = _PREPARED.get(r)
    if p is not None:
        return p
    base = _sentence_base(r)
    root, raw, n_fresh = _build_template(s, base)
    if root is _TRUE or root is _FALSE:
        base = 0
    p = _Prepared(root, _sentence_entries(root, raw), n_fresh, base)
    if len(_PREPARED) >= _PREPARED_LIMIT:
        _PREPARED.popitem(last=False)
    _PREPARED[r] = p
    return p


def _add_new(entries: Iterable[Entry], seen: set[Clause], out: list[Entry]) -> None:
    """Append to out each entry whose clause is not in seen, and note it."""
    for e in entries:
        c = e[2]
        if c not in seen:
            seen.add(c)
            out.append(e)


def _claim(
    sentences: Seq[Sentence],
    renderings: Seq[str],
    bases: set[int],
    seen: set[Clause],
    out: list[Entry],
) -> bool:
    """Append the cached entries of sentences to out, skipping clauses in
    seen, and add their bases to ``bases``, which sentences of other
    renderings claimed. False when two sentences share a base or one
    outgrows its stride: the set then needs positional bases."""
    for s, r in zip(sentences, renderings):
        p = _prepared(s, r)
        if p.base:
            if p.n_fresh >= _TEMPLATE_STRIDE or p.base in bases:
                return False
            bases.add(p.base)
        _add_new(p.entries, seen, out)
    return True


def _positional_entries(sentences: Seq[Sentence], max_atom: int) -> list[Entry]:
    """The distinct entries of sentences with definition variables numbered
    from above the largest atom, sentence after sentence."""
    base = max(max_atom + 1, _TEMPLATE_BASE)
    out: list[Entry] = []
    seen: set[Clause] = set()
    offset = 0
    for s in sentences:
        root, clauses, n_fresh = _build_template(s, base + offset)
        _add_new(_sentence_entries(root, clauses), seen, out)
        offset += n_fresh
    return out


def _max_atom(sentences: Iterable[Sentence]) -> int:
    top = -1
    for s in sentences:
        for a in atoms_of(s):
            if a > top:
                top = a
    return top


def _initial_entries(
    ordered: Seq[Sentence],
    max_atom: Optional[int] = None,
    renderings: Optional[Seq[str]] = None,
) -> tuple[bool, list[Entry]]:
    """(refuted at setup, the distinct clause entries in walk order) for
    distinct sentences in ascending rendering order: digest bases when
    every atom is below 2**32 - 1 and no two bases collide, else
    positional ones."""
    if max_atom is None:
        max_atom = _max_atom(ordered)
    entries: list[Entry] = []
    digest = max_atom < _TEMPLATE_BASE - 1
    if digest:
        if renderings is None:
            renderings = [render_sentence(s) for s in ordered]
        digest = _claim(ordered, renderings, set(), set(), entries)
    if not digest:
        entries = _positional_entries(ordered, max_atom)
    entries.sort()
    if entries and not entries[0][0]:
        return True, []
    return False, entries


class ClauseOrder:
    """A claim set's clause entries in walk order, carried down its merge
    chain. A node stands for the set its ``parent`` stands for plus
    ``sentences``, whose renderings are ``renderings``; ``EMPTY_ORDER``
    stands for the empty set.

    A node is built when a refutation needs it (see ``_built``): ``walk``
    then holds the set's distinct entries in walk order, ``clauses`` their
    clauses and ``bases`` the digest bases its sentences claim, and the
    parent link is dropped, so a node's parent is None exactly when it is
    built. A set that needs positional bases (two sentences share a base, or
    one outgrows its stride) builds with ``walk`` None, and so does every
    set grown from it."""

    __slots__ = ("parent", "sentences", "renderings", "walk", "clauses", "bases")

    def __init__(
        self, parent: Optional["ClauseOrder"], sentences: Seq[Sentence], renderings: Seq[str]
    ) -> None:
        self.parent = parent
        self.sentences = sentences
        self.renderings = renderings


EMPTY_ORDER = ClauseOrder(None, (), ())
EMPTY_ORDER.walk = []
EMPTY_ORDER.clauses = frozenset()
EMPTY_ORDER.bases = frozenset()


def _built(node: ClauseOrder) -> ClauseOrder:
    """node, built. The walk of its nearest built ancestor is copied and the
    entries the nodes in between add are inserted; those nodes stay unbuilt.
    Every set on the chain is a subset of the one being refuted, so none has
    an atom that needs positional bases."""
    path = []
    while node.parent is not None:
        path.append(node)
        node = node.parent
    if not path:
        return node
    target = path[0]
    target.walk = None
    if node.walk is not None:
        seen, bases, new = set(node.clauses), set(node.bases), []
        if all(_claim(n.sentences, n.renderings, bases, seen, new) for n in reversed(path)):
            walk = list(node.walk)
            for e in new:
                insort(walk, e)
            target.walk, target.clauses, target.bases = walk, seen, bases
    target.parent = None
    return target


class RefutationVerdict(Enum):
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class RefutationResult:
    verdict: RefutationVerdict
    steps_used: int
    # saturated is meaningful on Unknown only: the resolution closure was
    # exhausted without an empty clause, so the set is satisfiable.
    saturated: bool = False

    @property
    def refuted(self) -> bool:
        return self.verdict is RefutationVerdict.REFUTED


class ClauseSummary:
    """What `refute_bounded`'s setup finds in a set with no sentence that
    folds to falsum, read from `_root_and_top` alone: the atom-literal root
    units, whether two of them clash, and the largest atom index (-1 when
    there is none). The only unit clauses of a set are its sentences' roots,
    and roots on definition variables never clash, so `clash` is exactly
    the setup's unit-clash test. A plain slotted class, not a dataclass:
    building a dataclass costs about a millisecond at every import."""

    __slots__ = ("units", "clash", "max_atom")

    def __init__(self, units: frozenset[int], clash: bool, max_atom: int) -> None:
        self.units = units
        self.clash = clash
        self.max_atom = max_atom


EMPTY_SUMMARY = ClauseSummary(frozenset(), False, -1)

REFUTED_AT_SETUP = RefutationResult(RefutationVerdict.REFUTED, 0)


def summarize(
    sentences: Iterable[Sentence], base: ClauseSummary = EMPTY_SUMMARY
) -> Optional[ClauseSummary]:
    """The summary of the set `base` describes grown by `sentences`, or None
    when one of them folds to falsum. Builds no clauses; `base` itself comes
    back when the sentences add no unit and no larger atom."""
    new: list[int] = []
    top = base.max_atom
    for s in sentences:
        lit, s_top = _root_and_top(s)
        if lit is _FALSE:
            return None
        if lit is not None:
            new.append(lit)  # type: ignore[arg-type]
        if s_top > top:
            top = s_top
    units = base.units.union(new) if new else base.units
    if len(units) == len(base.units) and top == base.max_atom:
        return base
    clash = base.clash or any(-l in units for l in new)
    return ClauseSummary(units, clash, top)


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


def _carried(order: ClauseOrder) -> Optional[tuple[list[Entry], list[Entry], set[Clause]]]:
    """(walk, heap, seen) from a set's carried order: its parent's walk, and
    on the heap the entries its own sentences add; the walk alone when the
    order is built already. None when the set needs positional bases."""
    if order.parent is None:
        return None if order.walk is None else (order.walk, [], set(order.clauses))
    base = _built(order.parent)
    if base.walk is None:
        return None
    seen, heap = set(base.clauses), []
    if not _claim(order.sentences, order.renderings, set(base.bases), seen, heap):
        return None
    heapq.heapify(heap)
    return base.walk, heap, seen


def refute_bounded(
    sentences: Iterable[Sentence],
    budget: ProofBudget,
    max_atom: Optional[int] = None,
    renderings: Optional[Seq[str]] = None,
    order: Optional[ClauseOrder] = None,
) -> RefutationResult:
    """Try to derive the empty clause within `budget` attempted resolutions.
    Ordered resolution: each clause resolves only on its maximal literal
    (by atom index), which keeps the search directed enough to saturate
    small sets within tiny budgets while staying refutation-complete.

    A caller whose sentences are already distinct and in ascending rendering
    order (a ClaimSet's are) may pass their largest atom index as `max_atom`,
    and their renderings in the same order as `renderings` (a ClaimSet's
    key); the sentences are then taken as they are, with no re-sort, no walk
    over their atoms and no rendering. Such a caller may also pass the
    set's `ClauseOrder` as `order` (a ClaimSet's ``order``): the loop then
    walks the order its parent carries instead of sorting every clause."""
    if max_atom is None:
        ordered: Seq[Sentence] = sorted(set(sentences), key=render_sentence)
        max_atom = _max_atom(ordered)
    else:
        ordered = sentences  # type: ignore[assignment]
    start = None
    if order is not None and max_atom < _TEMPLATE_BASE - 1:
        start = _carried(order)
    if start is None:
        refuted, walk = _initial_entries(ordered, max_atom, renderings)
        if refuted:
            return REFUTED_AT_SETUP
        start = walk, [], {e[2] for e in walk}
    walk, heap, seen = start
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
    if isinstance(s, Bottom):
        return 0
    if isinstance(s, Atom):
        return patterns[s.index]
    if isinstance(s, Not):
        return full & ~_eval_mask(s.inner, patterns, full)
    left = _eval_mask(s.left, patterns, full)
    right = _eval_mask(s.right, patterns, full)
    if isinstance(s, And):
        return left & right
    if isinstance(s, Or):
        return left | right
    return (full & ~left) | right


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
