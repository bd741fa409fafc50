"""Bounded consistency gate over claim sets.

``consistent_enough`` is the acceptance test a claim set must pass before it
absorbs new sentences: the set is accepted unless ``refute_bounded`` derives
the empty clause from it within the proof budget.

The gate is deliberately one-sided. False means a contradiction was exhibited
within budget; true means none was found, not that none exists. Raising the
budget can only move a verdict from true to false. Adding sentences to a set
should do the same (``antitone_check`` spot-checks that law), but the bounded
search does not guarantee it: new clauses reorder the search, and at budgets
of a few inferences that can push a refutation past the budget.

Refutation attempts are memoized per claim-set key in a ``ConCache``, which
may be shared across calls and across budgets: a stored attempt answers a
later call only at the budgets whose verdict it settles, and anything else is
recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .logic import Sentence, render_sentence
from .prover import RefutationResult, refute_bounded


@dataclass(frozen=True, slots=True)
class ConParams:
    proof_budget: int

    def __post_init__(self) -> None:
        if self.proof_budget < 0:
            raise ValueError("proof_budget must be a natural number")


class ClaimSet:
    """Immutable sentence set with a canonical order (ascending rendering),
    so equal sets always produce the same memo key. Renderings rather than
    enumeration indices: the index of a deeply nested sentence has more bits
    than could ever be materialized, while its rendering stays linear."""

    __slots__ = ("sentences", "key", "_named")

    def __init__(self, named: dict[str, Sentence]):
        self.key = tuple(sorted(named))
        self.sentences = tuple(named[r] for r in self.key)
        self._named = named

    @classmethod
    def of(cls, items: Iterable[Sentence] = ()) -> "ClaimSet":
        return cls({render_sentence(s): s for s in items})

    def union(self, items: Iterable[Sentence]) -> "ClaimSet":
        extra: dict[str, Sentence] = {}
        for s in items:
            r = render_sentence(s)
            if r not in self._named and r not in extra:
                extra[r] = s
        if not extra:
            return self
        merged = dict(self._named)
        merged.update(extra)
        return ClaimSet(merged)

    def __contains__(self, s: Sentence) -> bool:
        return render_sentence(s) in self._named

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


EMPTY_CLAIMS = ClaimSet.of(())


class ConCache:
    """Shared memo for gate verdicts, plus counters the harness can report.
    Keyed by claim-set key; each entry is the latest refutation attempt on
    that set, which decides the verdict at every budget it speaks for (see
    ``_verdict_at``)."""

    __slots__ = ("data", "hits", "misses")

    def __init__(self) -> None:
        self.data: dict[tuple[str, ...], RefutationResult] = {}
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {"entries": len(self.data), "hits": self.hits, "misses": self.misses}


def _verdict_at(result: RefutationResult, budget: int) -> Optional[bool]:
    """The gate verdict at ``budget`` implied by an attempt made at some
    budget, or None if the attempt does not settle it. The search order does
    not depend on the budget, so a refutation after s inferences is found
    exactly when budget >= s, a saturated search accepts at every budget, and
    a search cut off after b0 inferences accepts at every budget <= b0."""
    if result.refuted:
        return budget < result.steps_used
    if result.saturated or budget <= result.steps_used:
        return True
    return None


def consistent_enough(
    claims: ClaimSet, params: ConParams, cache: Optional[ConCache] = None
) -> bool:
    """False iff ``refute_bounded`` refutes the claims within
    ``params.proof_budget`` inferences."""
    if cache is None:
        cache = ConCache()
    budget = params.proof_budget
    known = cache.data.get(claims.key)
    if known is not None:
        verdict = _verdict_at(known, budget)
        if verdict is not None:
            cache.hits += 1
            return verdict
    cache.misses += 1
    result = refute_bounded(claims.sentences, budget)
    cache.data[claims.key] = result
    return not result.refuted


def antitone_check(
    claims: ClaimSet,
    extra: Sentence,
    params: ConParams,
    cache: Optional[ConCache] = None,
) -> bool:
    """Property-test helper: true unless adding ``extra`` turned a rejected
    set into an accepted one, which the gate must never do."""
    if cache is None:
        cache = ConCache()
    base = consistent_enough(claims, params, cache)
    grown = consistent_enough(claims.union((extra,)), params, cache)
    return not (base is False and grown is True)
