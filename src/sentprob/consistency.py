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

A miss tries four ways to decide, in this order; ``ConCache.paths`` counts
them:
- the clause summary (``prover.summarize``), read from ``_fold`` alone and
  grown from the parent's, or built over the whole set when the cache kept
  none for the parent (it keeps one per set accepted on a miss). A set with
  a sentence that folds to falsum, or with two clashing unit literals, gets
  ``refute_bounded``'s exact result;
- a certificate: a partial assignment of atoms that makes every sentence
  true, found by extending the parent's by a bounded search, or searching
  the whole set. Resolution is sound, so such a set is accepted at every
  budget. It needs no clauses, so it runs before the closure;
- ``prover.closure_result``, which reads the loop's result from the set's
  ``prover.Closure``. Closures live on the sets of the live merge chain,
  not in the cache, and are built on first need from the nearest ancestor
  that has one;
- ``refute_bounded`` itself, for everything else.
When the closure or the loop accepts a set whose parent's certificate did
not extend, one more search over the whole set restores a certificate.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Optional

from .logic import And, Atom, Bottom, Implies, Not, Sentence, render_sentence
from .prover import (
    EMPTY_CLOSURE,
    EMPTY_SUMMARY,
    ClauseSummary,
    Closure,
    RefutationResult,
    RefutationVerdict,
    closure_result,
    refute_bounded,
    settled_by_summary,
    summarize,
)

Certificate = dict[int, bool]

# Cache entry for a set with a certificate: like a saturated search, it
# settles acceptance at every budget.
SATISFIABLE = RefutationResult(RefutationVerdict.UNKNOWN, 0, saturated=True)

# Goal steps one certificate search may take. A search that gives up only
# sends the set on to the resolution loop, so this bounds cost, not verdicts.
SEARCH_STEPS = 512


class ClaimSet:
    """Immutable sentence set with a canonical order (ascending rendering),
    so equal sets always produce the same memo key. Renderings rather than
    enumeration indices: the index of a deeply nested sentence has more bits
    than could ever be materialized, while its rendering stays linear.

    ``members`` holds the sentences as a frozenset. Nodes are interned, so a
    sentence is in the set exactly when it is one of them, and ``in`` needs
    no rendering.

    A set made by ``union`` records the key of the set it grew from
    (``parent``) and the sentences the merge added (``added``); the gate
    uses them to extend the parent's certificate. Its ``closure``, a
    ``prover.Closure`` node, grows from the parent's by those sentences;
    ``of`` grows one from the empty set's by all of its sentences."""

    __slots__ = ("sentences", "key", "members", "parent", "added", "closure")

    def __init__(
        self, key: tuple[str, ...], sentences: tuple[Sentence, ...], members: frozenset[Sentence]
    ) -> None:
        self.key = key
        self.sentences = sentences
        self.members = members
        self.parent: Optional[tuple[str, ...]] = None
        self.added: tuple[Sentence, ...] = ()

    @classmethod
    def of(cls, items: Iterable[Sentence] = ()) -> "ClaimSet":
        named = {render_sentence(s): s for s in items}
        key = tuple(sorted(named))
        claims = cls(key, tuple(named[r] for r in key), frozenset(named.values()))
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
        grown.parent = self.key
        grown.added = added
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
    that set (or ``SATISFIABLE``), which decides the verdict at every budget
    it speaks for (see ``_verdict_at``). Under the same keys,
    ``certificates`` holds a certificate for each accepted set the search
    found one for, and ``summaries`` the clause summary of each set the gate
    accepted on a miss; the empty set's are ``{}`` and ``EMPTY_SUMMARY``.
    ``paths`` counts the misses each way decided."""

    __slots__ = ("data", "certificates", "summaries", "hits", "misses", "paths")

    def __init__(self) -> None:
        self.data: dict[tuple[str, ...], RefutationResult] = {}
        self.certificates: dict[tuple[str, ...], Certificate] = {(): {}}
        self.summaries: dict[tuple[str, ...], ClauseSummary] = {(): EMPTY_SUMMARY}
        self.hits = 0
        self.misses = 0
        self.paths = dict.fromkeys(("summary", "certificate", "closure", "plain"), 0)

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


# Status of a goal "node has value want" under a partial assignment, judged
# without search: already true, an unassigned literal, undecided compound,
# or false. Lower is the better branch to try first.
_HOLDS, _FREE, _OPEN, _FAILS = range(4)


def _goal_status(node: Sentence, want: bool, base: Certificate, extra: Certificate) -> int:
    if type(node) is Not:
        node = node.inner
        want = not want
    t = type(node)
    if t is Atom:
        value = extra.get(node.index)
        if value is None:
            value = base.get(node.index)
        if value is None:
            return _FREE
        return _HOLDS if value is want else _FAILS
    if t is Bottom:
        return _FAILS if want else _HOLDS
    return _OPEN


def extend_certificate(base: Certificate, sentences: Iterable[Sentence]) -> Optional[Certificate]:
    """A certificate that extends ``base`` and makes every sentence true, or
    None when the search finds none within ``SEARCH_STEPS`` goal steps.

    Tableau search with chronological backtracking. A goal is a (sentence,
    wanted value) pair; a conjunctive goal pushes both parts, a disjunctive
    one opens a choice point, trying first a part that already holds (which
    closes the goal) or else the part closest to a literal. Goals live on a
    linked stack of tuples, so a choice point saves the remaining goals in
    constant time and nesting depth costs no Python frames. The result is
    ``base`` itself when no atom had to be assigned."""
    extra: Certificate = {}
    trail: list[int] = []
    choices: list[tuple[int, Sentence, bool, object]] = []
    goals: object = None
    for s in reversed(tuple(sentences)):
        goals = (s, True, goals)
    for _ in range(SEARCH_STEPS):
        if goals is None:
            if not extra:
                return base
            model = dict(base)
            model.update(extra)
            return model
        node, want, goals = goals  # type: ignore[misc]
        t = type(node)
        ok = True
        if t is Atom:
            value = extra.get(node.index)
            if value is None:
                value = base.get(node.index)
            if value is None:
                extra[node.index] = want
                trail.append(node.index)
            else:
                ok = value is want
        elif t is Not:
            goals = (node.inner, not want, goals)
        elif t is Bottom:
            ok = not want
        else:
            # Implies is (!left | right); And is conjunctive when wanted
            # true, Or and Implies when wanted false.
            left, right = node.left, node.right
            left_want = want if t is not Implies else not want
            if want is (t is And):
                goals = (left, left_want, (right, want, goals))
            else:
                a, b = (left, left_want), (right, want)
                sa = _goal_status(left, left_want, base, extra)
                sb = _goal_status(right, want, base, extra)
                if sb < sa:
                    a, b, sa, sb = b, a, sb, sa
                if sa == _FAILS:
                    ok = False
                elif sa != _HOLDS:
                    if sb != _FAILS:
                        choices.append((len(trail), b[0], b[1], goals))
                    goals = (a[0], a[1], goals)
        if not ok:
            if not choices:
                return None
            mark, node, want, rest = choices.pop()
            while len(trail) > mark:
                del extra[trail.pop()]
            goals = (node, want, rest)
    return None


def consistent_enough(
    claims: ClaimSet, budget: int, cache: Optional[ConCache] = None
) -> bool:
    """False iff ``refute_bounded`` refutes the claims within ``budget``
    inferences. A miss is decided by the clause summary, a certificate, the
    closure or the loop itself, in that order (see the module docstring).
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
    summaries = cache.summaries
    parent = summaries.get(claims.parent)
    # Without the parent's summary, summarize the whole set.
    if parent is not None:
        summary = summarize(claims.added, parent)
    else:
        summary = summarize(claims.sentences)
    result = settled_by_summary(summary, budget)
    if result is None:
        result = _certify_or_refute(claims, budget, cache)
    else:
        cache.paths["summary"] += 1
    cache.data[key] = result
    if result.refuted:
        return False
    summaries[key] = summary  # type: ignore[assignment]
    return True


def _certify_or_refute(claims: ClaimSet, budget: int, cache: ConCache) -> RefutationResult:
    """``SATISFIABLE`` when a certificate for the claims is found, else the
    closure's result, else that of ``refute_bounded``; a certificate found
    for an accepted set is kept in the cache."""
    certificates = cache.certificates
    base = certificates.get(claims.parent)
    # Without the parent's certificate, search the whole set from scratch.
    added = claims.added if base is not None else claims.sentences
    model = extend_certificate(base or {}, added)
    if model is not None:
        certificates[claims.key] = model
        cache.paths["certificate"] += 1
        return SATISFIABLE
    result = closure_result(claims.closure, budget)
    cache.paths["plain" if result is None else "closure"] += 1
    if result is None:
        result = refute_bounded(claims.sentences, budget)
    if not result.refuted and len(added) < len(claims.sentences):
        model = extend_certificate({}, claims.sentences)
        if model is not None:
            certificates[claims.key] = model
    return result
