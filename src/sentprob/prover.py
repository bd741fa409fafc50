"""Refutation search with an inference budget, plus exact semantic checks.

Clauses are frozensets of nonzero ints: literal +(v+1) asserts variable v,
-(v+1) denies it. User atoms keep their own indices as variables; definition
variables introduced by clausification live above 2**32 (or above the
largest user atom, whichever is bigger) so the two ranges cannot collide.
Each sentence's definition variables start at a base derived from a digest
of its rendering, which lets clause sets be cached by rendering and reused
across calls; a digest collision or an oversized sentence falls back to
positional bases for the whole call, so the outcome stays deterministic.

refute_bounded runs a given-clause resolution loop over a deterministic
queue ordered by clause size with lexicographic tie-break. Each resolvent
produced counts one inference against the budget; the exploration order does
not depend on the budget, so a refutation found at budget b is found at any
larger budget. Resolution is refutation-complete for propositional logic, so
when the queue drains without deriving the empty clause the set is
satisfiable (reported as Unknown with `saturated` set).

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
with the largest atom so the setup skips its re-sort and atom walk.

semantic_consistent, truth_table and entails are exact, via truth-table
bitmaps, and are limited to MAX_TABLE_ATOMS distinct atoms.
"""

from __future__ import annotations

import hashlib
import heapq
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


def _fold(s: Sentence):
    """Constant-propagate falsum upward. Returns a Sentence or _TRUE/_FALSE."""
    if isinstance(s, Bottom):
        return _FALSE
    if isinstance(s, Atom):
        return s
    if isinstance(s, Not):
        inner = _fold(s.inner)
        if inner is _TRUE:
            return _FALSE
        if inner is _FALSE:
            return _TRUE
        return Not(inner)
    left = _fold(s.left)
    right = _fold(s.right)
    if isinstance(s, And):
        if left is _FALSE or right is _FALSE:
            return _FALSE
        if left is _TRUE:
            return right
        if right is _TRUE:
            return left
        return And(left, right)
    if isinstance(s, Or):
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
    depends on the path and can never clash with another root. The walk for
    top memoises nothing per subterm, unlike `atoms_of`."""
    top = -1
    stack = [s]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is Atom:
            if node.index > top:
                top = node.index
        elif t is Not:
            stack.append(node.inner)
        elif t is not Bottom:
            stack.append(node.left)
            stack.append(node.right)
    folded = _fold(s)
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
        if isinstance(s, Atom):
            return s.index + 1
        if isinstance(s, Not):
            return -self.label(s.inner)
        a = self.label(s.left)
        b = self.label(s.right)
        v = self.fresh_lit()
        if isinstance(s, And):
            self.clauses.append(frozenset((-v, a)))
            self.clauses.append(frozenset((-v, b)))
            self.clauses.append(frozenset((v, -a, -b)))
        elif isinstance(s, Or):
            self.clauses.append(frozenset((-v, a, b)))
            self.clauses.append(frozenset((v, -a)))
            self.clauses.append(frozenset((v, -b)))
        else:  # Implies
            self.clauses.append(frozenset((-v, -a, b)))
            self.clauses.append(frozenset((v, a)))
            self.clauses.append(frozenset((v, -b)))
        return v


def _build_template(s: Sentence, fresh_base: int) -> tuple[object, tuple[Clause, ...], int]:
    folded = _fold(s)
    if folded is _TRUE or folded is _FALSE:
        return folded, (), 0
    builder = _TseitinBuilder(fresh_base)
    root = builder.label(folded)
    return root, tuple(builder.clauses), builder.n_fresh


def _is_tautology(c: Clause) -> bool:
    return any(-l in c for l in c)


@dataclass(frozen=True, slots=True)
class _Prepared:
    """Cached clause form of one sentence, shifted to its own base: the root
    constant (or _TRUE/_FALSE), the clauses including the root unit with
    tautologies dropped, heap-ready entries, and the fresh-variable span."""

    root: object
    clauses: tuple[Clause, ...]
    entries: tuple[tuple[int, tuple[int, ...], Clause], ...]
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
        p = _Prepared(root, (), (), 0, 0)
    else:
        kept: list[Clause] = []
        seen: set[Clause] = set()
        for c in raw + (frozenset((root,)),):  # type: ignore[arg-type]
            if _is_tautology(c) or c in seen:
                continue
            seen.add(c)
            kept.append(c)
        entries = tuple((len(c), tuple(sorted(c)), c) for c in kept)
        p = _Prepared(root, tuple(kept), entries, n_fresh, base)
    if len(_PREPARED) >= _PREPARED_LIMIT:
        _PREPARED.popitem(last=False)
    _PREPARED[r] = p
    return p


def _collect_prepared(
    sentences: Seq[Sentence], renderings: Seq[str]
) -> Optional[list[_Prepared]]:
    """Per-sentence cached clause forms, given the sentences' renderings, or
    None when two sentences collide on a base or one outgrows its stride and
    positional bases are needed."""
    bases: dict[int, str] = {}
    preps: list[_Prepared] = []
    for s, r in zip(sentences, renderings):
        p = _prepared(s, r)
        if p.root is not _TRUE and p.root is not _FALSE:
            if p.n_fresh >= _TEMPLATE_STRIDE:
                return None
            claimed = bases.get(p.base)
            if claimed is not None and claimed != r:
                return None
            bases[p.base] = r
        preps.append(p)
    return preps


def _positional_clauses(sentences: Seq[Sentence], max_atom: int) -> list[Clause]:
    base = max(max_atom + 1, _TEMPLATE_BASE)
    out: list[Clause] = []
    offset = 0
    for s in sentences:
        root, clauses, n_fresh = _build_template(s, base + offset)
        if root is _FALSE:
            out.append(frozenset())
        elif root is not _TRUE:
            out.extend(clauses)
            out.append(frozenset((root,)))  # type: ignore[arg-type]
        offset += n_fresh
    return out


def _max_atom(sentences: Iterable[Sentence]) -> int:
    top = -1
    for s in sentences:
        for a in atoms_of(s):
            if a > top:
                top = a
    return top


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


def _initial_entries(
    ordered: Seq[Sentence],
    max_atom: Optional[int] = None,
    renderings: Optional[Seq[str]] = None,
) -> tuple[bool, list[tuple[int, tuple[int, ...], Clause]]]:
    """(refuted at setup, heap entries for the surviving clauses)."""
    if max_atom is None:
        max_atom = _max_atom(ordered)
    entries: list[tuple[int, tuple[int, ...], Clause]] = []
    preps = None
    if max_atom < _TEMPLATE_BASE - 1:
        if renderings is None:
            renderings = [render_sentence(s) for s in ordered]
        preps = _collect_prepared(ordered, renderings)
    if preps is not None:
        for p in preps:
            if p.root is _FALSE:
                return True, []
        for p in preps:
            entries.extend(p.entries)
        return False, entries
    for c in _positional_clauses(ordered, max_atom):
        if not c:
            return True, []
        if _is_tautology(c):
            continue
        entries.append((len(c), tuple(sorted(c)), c))
    return False, entries


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


def _max_literal(lits: tuple[int, ...]) -> int:
    """The literal on the largest variable, the negative one on a tie.
    ``lits`` is sorted, so it sits at one end."""
    return lits[0] if -lits[0] >= lits[-1] else lits[-1]


def refute_bounded(
    sentences: Iterable[Sentence],
    budget: ProofBudget,
    max_atom: Optional[int] = None,
    renderings: Optional[Seq[str]] = None,
) -> RefutationResult:
    """Try to derive the empty clause within `budget` attempted resolutions.
    Ordered resolution: each clause resolves only on its maximal literal
    (by atom index), which keeps the search directed enough to saturate
    small sets within tiny budgets while staying refutation-complete.

    A caller whose sentences are already distinct and in ascending rendering
    order (a ClaimSet's are) may pass their largest atom index as `max_atom`,
    and their renderings in the same order as `renderings` (a ClaimSet's
    key); the sentences are then taken as they are, with no re-sort, no walk
    over their atoms and no rendering."""
    if max_atom is None:
        ordered: Seq[Sentence] = sorted(set(sentences), key=render_sentence)
    else:
        ordered = sentences  # type: ignore[assignment]
    refuted, candidates = _initial_entries(ordered, max_atom, renderings)
    if refuted:
        return REFUTED_AT_SETUP
    seen: set[Clause] = set()
    heap: list[tuple[int, tuple[int, ...], Clause]] = []
    for entry in candidates:
        if entry[2] not in seen:
            seen.add(entry[2])
            heap.append(entry)
    heapq.heapify(heap)
    by_max: dict[int, list[Clause]] = {}
    inferences = 0
    while heap:
        _, lits, given = heapq.heappop(heap)
        m = _max_literal(lits)
        by_max.setdefault(m, []).append(given)
        for other in by_max.get(-m, ()):
            if inferences >= budget:
                return RefutationResult(RefutationVerdict.UNKNOWN, inferences)
            inferences += 1
            resolvent = (given - {m}) | (other - {-m})
            if not resolvent:
                return RefutationResult(RefutationVerdict.REFUTED, inferences)
            if _is_tautology(resolvent) or resolvent in seen:
                continue
            seen.add(resolvent)
            heapq.heappush(heap, (len(resolvent), tuple(sorted(resolvent)), resolvent))
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
