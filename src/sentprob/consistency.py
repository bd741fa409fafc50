"""Bounded consistency gate over claim sets.

``consistent_enough`` is the acceptance test a claim set must pass before it
absorbs new sentences: the set is accepted unless ``refute_bounded`` derives
the empty clause from it within the proof budget.

The gate is deliberately one-sided. False means a contradiction was exhibited
within budget; true means none was found, not that none exists. Raising the
budget can only move a verdict from true to false. Adding sentences to a set
usually does the same, but the bounded search does not guarantee it: new
clauses reorder the search, and at budgets of a few inferences that can push
a refutation past the budget. The gate is antitone only where the budget does
not bind.

Refutation attempts are memoized per claim-set key in a ``ConCache``, which
may be shared across calls and across budgets: a stored attempt answers a
later call only at the budgets whose verdict it settles, and anything else is
recomputed. A refutation within U inferences (stored with ``saturated``
set), read from the set's closure, settles the budgets from U on and no
smaller one.

A miss tries three ways to decide, in this order; ``ConCache.paths`` counts
them:
- the set's clause summary (``prover.summarize``), read from ``_fold``
  alone and carried on the set like its closure. A set with a sentence that
  folds to falsum, or with two clashing unit literals, gets
  ``refute_bounded``'s exact result;
- ``prover.closure_result``, which reads the loop's result from the set's
  ``prover.Closure``. Closures live on the sets of the live merge chain,
  not in the cache, and are built on first need from the nearest ancestor
  that has one;
- ``refute_bounded`` itself, for everything else.
Each stores ``refute_bounded``'s result on the set at the budget (or a
refutation within U), so an entry depends on the set and the budget alone,
never on which parent the set was reached from.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Optional

from .logic import Sentence, render_sentence
from .prover import (
    EMPTY_CLOSURE,
    Closure,
    RefutationResult,
    closure_result,
    refute_bounded,
    settled_by_summary,
    summarize,
)


class ClaimSet:
    """Immutable sentence set with a canonical order (ascending rendering),
    so equal sets always produce the same memo key. Renderings rather than
    enumeration indices: the index of a deeply nested sentence has more bits
    than could ever be materialized, while its rendering stays linear.

    ``members`` holds the sentences as a frozenset. Nodes are interned, so a
    sentence is in the set exactly when it is one of them, and ``in`` needs
    no rendering.

    A set carries its clause ``summary`` (``prover.summarize``; None when a
    sentence folds to falsum) and its ``closure``, a ``prover.Closure``
    node. ``of`` grows both from the empty set's by all of its sentences,
    and ``union`` grows both from the set's own by the sentences it adds."""

    __slots__ = ("sentences", "key", "members", "summary", "closure")

    def __init__(
        self, key: tuple[str, ...], sentences: tuple[Sentence, ...], members: frozenset[Sentence]
    ) -> None:
        self.key = key
        self.sentences = sentences
        self.members = members

    @classmethod
    def of(cls, items: Iterable[Sentence] = ()) -> "ClaimSet":
        named = {render_sentence(s): s for s in items}
        key = tuple(sorted(named))
        claims = cls(key, tuple(named[r] for r in key), frozenset(named.values()))
        claims.summary = summarize(claims.sentences)
        claims.closure = Closure(EMPTY_CLOSURE, claims.sentences)
        return claims

    def union(self, items: Iterable[Sentence]) -> "ClaimSet":
        """This set grown by items; the set itself when they add nothing.
        The added sentences are inserted into the sorted key and sentences,
        which need no re-sort."""
        members = self.members
        added = tuple(dict.fromkeys(s for s in items if s not in members))
        if not added:
            return self
        key, sentences = list(self.key), list(self.sentences)
        for s in added:
            r = render_sentence(s)
            i = bisect_left(key, r)
            key.insert(i, r)
            sentences.insert(i, s)
        grown = ClaimSet(tuple(key), tuple(sentences), members.union(added))
        grown.summary = None if self.summary is None else summarize(added, self.summary)
        grown.closure = Closure(self.closure, added)
        return grown

    def __contains__(self, s: Sentence) -> bool:
        return s in self.members

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def __len__(self) -> int:
        return len(self.sentences)

    def __bool__(self) -> bool:
        return bool(self.sentences)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClaimSet) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"ClaimSet(<{len(self.sentences)} sentences>)"


class ConCache:
    """Shared memo for gate verdicts, plus counters the harness can report.
    Keyed by claim-set key; each entry is the latest refutation attempt on
    that set, which decides the verdict at every budget it speaks for (see
    ``_verdict_at``). ``paths`` counts the misses each way decided."""

    __slots__ = ("data", "hits", "misses", "paths")

    def __init__(self) -> None:
        self.data: dict[tuple[str, ...], RefutationResult] = {}
        self.hits = 0
        self.misses = 0
        self.paths = dict.fromkeys(("summary", "closure", "plain"), 0)

    def stats(self) -> dict[str, int]:
        return {"entries": len(self.data), "hits": self.hits, "misses": self.misses}


def _verdict_at(result: RefutationResult, budget: int) -> Optional[bool]:
    """The gate verdict at ``budget`` implied by an attempt made at some
    budget, or None if the attempt does not settle it. The search order does
    not depend on the budget, so a refutation after s inferences is found
    exactly when budget >= s, a saturated search accepts at every budget, and
    a search cut off after b0 inferences accepts at every budget <= b0. A
    refutation within s inferences (``saturated`` set) settles only the
    budgets from s on."""
    if result.refuted:
        below = budget < result.steps_used
        return None if below and result.saturated else below
    if result.saturated or budget <= result.steps_used:
        return True
    return None


def consistent_enough(
    claims: ClaimSet, budget: int, cache: Optional[ConCache] = None
) -> bool:
    """False iff ``refute_bounded`` refutes the claims within ``budget``
    inferences. A miss is decided by the clause summary, the closure or the
    loop itself, in that order (see the module docstring).
    A negative budget is a ValueError: at one, ``_verdict_at`` would read a
    cached refutation as an acceptance."""
    if budget < 0:
        raise ValueError("proof_budget must be a natural number")
    if cache is None:
        cache = ConCache()
    key = claims.key
    known = cache.data.get(key)
    if known is not None:
        verdict = _verdict_at(known, budget)
        if verdict is not None:
            cache.hits += 1
            return verdict
    cache.misses += 1
    result, path = settled_by_summary(claims.summary, budget), "summary"
    if result is None:
        result, path = closure_result(claims.closure, budget), "closure"
    if result is None:
        result, path = refute_bounded(claims.sentences, budget), "plain"
    cache.paths[path] += 1
    cache.data[key] = result
    return not result.refuted
