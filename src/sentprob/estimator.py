"""Probability that a sentence is claimed by a stage-bounded random process.

The core object is a claim set built by feeding uniform random bitstrings
through the prefix-decoded machine: each string is decoded and run under the
stage's step budget, and the sentences it emits are merged into the set iff
the merged set passes the bounded consistency gate. A stage couples every
budget (string count, string length, step budget, axiom prefix) to one growth
schedule so they scale together. The loop stops drawing once no later
merge can add a sentence the caller reads (``accumulate_claims``), which
leaves those sentences as merging every draw would.

On top of the accumulation loop sit two membership estimators, each counting
a whole battery of sentences in one pass: exact enumeration of every bit
vector (tiny stages only, `membership_counts_exact`), and seeded Monte Carlo
sampling, whose counts `monte_carlo_estimate` turns into rationals with 95%
Wilson intervals. Every estimator reads only what a machine emits, and that
depends only on a prefix of its string (`machine.emission`), so samplers
draw strings through a table of prefix classes (`_DrawTable`). A third,
independent process samples consistent extensions directly
(`extension_probabilities`): random machines propose claims which are
accepted under an exact satisfiability check restricted to a small atom
window, giving a limit oracle the membership trajectories can be compared
against.

Determinism contract: every random quantity derives from the caller's seed
via a fixed tree (seed -> stage -> sample -> string, and seed -> sample ->
round for extensions), so identical arguments give identical results
regardless of call order. Samplers derive many leaves of the tree at once
(``bits.child_draws``), and the draw table, the window masks and the stop
table are keyed by content, so the order of the draws changes no count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, islice, repeat
from math import sqrt
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .bits import Bits, child_draws, child_states, derive_seed, parent_state, random_bits
from .consistency import ClaimSet, ConCache, consistent_enough
from .logic import EMPTY_THEORY, Not, Sentence, Theory, atoms_of
from .machine import emission, register_emissions, run_prefix, wide_emission
from .prover import MAX_TABLE_ATOMS, settled_by_summary, summarize, truth_table
from .sequences import SequenceDef

GROWTH_CAP = 512
MAX_EXACT_BITS = 24
# Widest atom window the extension sampler takes, here and in configs.
MAX_ATOM_WINDOW = 4
# A draw table has one slot per value of a string's first TABLE_BITS bits:
# 4,096 slots, 32 KB of references.
TABLE_BITS = 12

_Z95 = 1.959963984540054


def default_growth(n: int) -> int:
    """Doubling schedule with a hard ceiling: 24, 48, 96, 192, 384, 512, ..."""
    return min(12 * (1 << n), GROWTH_CAP)


class _StageFields(NamedTuple):
    n: int
    machines: int
    string_bits: int
    steps: int
    axioms: int
    proof_budget: int
    theory: Theory = EMPTY_THEORY


class StageParams(_StageFields):
    """All budgets for stage n: machine count, bits per string, step budget,
    length of the theory's axiom prefix, and the gate's proof budget.
    default_schedule fills them from the growth schedule; single_machine_stage
    builds the one-machine stages of exact enumeration and hand traces."""

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        machines: int,
        string_bits: int,
        steps: int,
        axioms: int,
        proof_budget: int,
        theory: Theory = EMPTY_THEORY,
    ) -> "StageParams":
        if proof_budget < 0:
            raise ValueError("proof_budget must be a natural number")
        return super().__new__(cls, n, machines, string_bits, steps, axioms, proof_budget, theory)

    @classmethod
    def _make(cls, fields: Iterable) -> "StageParams":
        # _replace builds through _make, so a copy is checked too.
        return cls(*fields)

    @property
    def axiom_set(self) -> ClaimSet:
        """The claim set every sample of the stage starts from, holding the
        theory's first `axioms` axioms; built once per (theory, axioms)."""
        return _axiom_set(self.theory, self.axioms)


# A run has one entry per stage; the bound keeps memory flat for callers
# that build many stages.
@lru_cache(maxsize=64)
def _axiom_set(theory: Theory, axioms: int) -> ClaimSet:
    return ClaimSet.of(theory.axiom_at(i) for i in range(axioms))


def default_schedule(
    count: int = 5, cap: int = GROWTH_CAP, proof_floor: int = 256, proof_factor: int = 16
) -> list[StageParams]:
    """Trend stages 1..count. Stage n's machine count, string length, step
    budget and axiom prefix all equal min(default_growth(n), cap), and its
    proof budget is max(proof_floor, proof_factor * that size). The factor
    keeps refutations of locally contradictory merges findable once claim
    sets reach a few hundred clauses; smaller factors let contradictions slip
    through at late stages."""
    if cap > GROWTH_CAP:
        raise ValueError(f"cap {cap} exceeds the growth ceiling {GROWTH_CAP}")
    schedule = []
    for n in range(1, count + 1):
        size = min(default_growth(n), cap)
        budget = max(proof_floor, proof_factor * size)
        schedule.append(StageParams(n, size, size, size, size, budget))
    return schedule


def single_machine_stage(
    bits: int,
    step_budget: Optional[int] = None,
    axiom_count: int = 0,
    theory: Theory = EMPTY_THEORY,
    proof_budget: int = 96,
    n: int = 1,
) -> StageParams:
    """One machine slot of a fixed bit width, by default with a step budget
    of one step per bit; the usual shape for exact enumeration and hand
    traces."""
    steps = bits if step_budget is None else step_budget
    return StageParams(n, 1, bits, steps, axiom_count, proof_budget, theory)


class Estimate(NamedTuple):
    """A Monte Carlo probability with provenance: value is hits / samples
    over samples drawn from seed, with its 95% Wilson half-width; undecided
    counts samples where neither the sentence nor its negation was settled
    (extension estimates only)."""

    value: Fraction
    samples: int
    ci_halfwidth: float
    seed: int
    undecided: int = 0


def wilson_halfwidth(successes: int, samples: int) -> float:
    """Half-width of the 95% Wilson score interval."""
    if samples <= 0:
        return 0.0
    p = successes / samples
    z2 = _Z95 * _Z95
    return (_Z95 * sqrt((p * (1.0 - p) + z2 / (4.0 * samples)) / samples)) / (
        1.0 + z2 / samples
    )


def monte_carlo_estimate(count: int, samples: int, seed: int, undecided: int = 0) -> Estimate:
    """The Monte Carlo estimate of count hits in samples draws, with its 95%
    Wilson half-width."""
    if samples < 1:
        raise ValueError("need at least one sample")
    return Estimate(
        Fraction(count, samples), samples, wilson_halfwidth(count, samples), seed, undecided
    )


class _DrawTable:
    """What random strings of one width emit under one step budget, drawn
    by prefix class. Slot p holds the tuple that every string whose first
    k = min(width, TABLE_BITS) bits are p emits, once a draw has shown that
    its emission depends on at most those bits. A draw reads its slot from
    the string's leading word (``bits.child_draws``). A miss takes the
    emission of that word: at width <= 64 its top bits are the whole
    string and the seed is never read, and a wider string is built from
    the seed only when its first 64 bits do not settle it
    (``machine.wide_emission``). When the emission depends on its first
    e <= k bits, one slice assignment fills every slot that shares them,
    else the slot stays empty and each draw into it runs its own string.
    By the extent contract of ``machine.emission``, ``draw(word, seed)``
    equals ``run_prefix(random_bits(seed, width), steps).emitted`` when
    word is the seed's leading word."""

    __slots__ = ("slots", "shift", "width", "steps")

    def __init__(self, width: int, steps: int) -> None:
        k = min(width, TABLE_BITS)
        self.slots: list[Optional[tuple[Sentence, ...]]] = [None] * (1 << k)
        self.shift = 64 - k
        self.width = width
        self.steps = steps

    def draw(self, word: int, seed: Optional[int] = None) -> tuple[Sentence, ...]:
        slot = word >> self.shift
        emitted = self.slots[slot]
        if emitted is None:
            width = self.width
            if width <= 64:
                emitted, extent = emission(word >> (64 - width), width, self.steps)
            else:
                emitted, extent = wide_emission(word, self.steps, partial(random_bits, seed, width))
            free = 64 - self.shift - extent  # table bits past the extent
            if free >= 0:
                first = slot >> free << free
                self.slots[first : first + (1 << free)] = [emitted] * (1 << free)
        return emitted


def accumulate_claims(
    draws: Iterable[Union[Bits, tuple[Sentence, ...]]],
    stage: StageParams,
    cache: Optional[ConCache] = None,
    wanted: Optional[frozenset[Sentence]] = None,
) -> ClaimSet:
    """Merge what each draw emits into the stage's axiom set in order, each
    merge kept iff the merged claim set passes the consistency gate, that
    is, iff no refutation of it is found within the stage's proof budget. A
    draw is either a bit string, run under the stage's step budget, or the
    tuple a drawn string emitted; draws are pulled only as far as needed.

    Pending holds the sentences of wanted the set can still gain
    (``_can_gain``); it only shrinks as the set grows. The loop pulls draws
    until one holds a pending sentence, merges up to it while it still does,
    and returns once pending is empty, checking a collection's unread
    strings for width only. A skipped merge adds no wanted sentence or is
    refuted, and a set never loses one, so the result holds the wanted
    sentences that merging every draw gives. wanted=None wants every
    sentence the draws emit, read first."""
    if cache is None:
        cache = ConCache()
    budget = stage.proof_budget
    if wanted is None:
        draws = [_emission(draw, stage) for draw in draws]
        wanted = frozenset().union(*draws)
    claims, pending = stage.axiom_set, set(wanted)
    def gains(sentences: Iterable[Sentence]) -> bool:
        """Whether claims can gain one of sentences; pending drops the ones it cannot."""
        for s in pending.intersection(sentences):
            if _can_gain(s, claims, budget):
                return True
            pending.discard(s)
        return False
    unread = iter(draws)
    drawn, t = [], 0  # t: the first draw not merged; none from t on holds a gainable sentence
    for draw in unread if gains(pending) else ():
        drawn.append(emitted := _emission(draw, stage))
        if pending.isdisjoint(emitted) or not gains(emitted):
            continue
        while t < len(drawn):
            merged = _merge(claims, drawn[t], budget, cache)
            t += 1
            if merged is not claims:
                claims = merged
                if not gains(emitted):
                    gains(pending)  # empties pending when nothing can be gained
                    break
        if not pending:
            break
    for draw in unread if unread is not draws else ():  # a collection: cheap to check
        _emission(draw, stage, run=False)
    return claims


def _emission(draw: Union[Bits, tuple], stage: StageParams, run: bool = True) -> tuple:
    """What a draw emits; run=False only checks that no string is narrower than the stage's."""
    if not isinstance(draw, Bits):
        return draw
    if draw.length < stage.string_bits:
        raise ValueError(f"bitstring has {draw.length} bits; this stage needs {stage.string_bits}")
    return run_prefix(draw, stage.steps).emitted if run else ()


def _merge(
    claims: ClaimSet, emitted: tuple[Sentence, ...], budget: int, cache: ConCache
) -> ClaimSet:
    """One string's step of an accumulation: claims grown by the emitted
    sentences when the merged set passes the gate, else claims itself."""
    if not emitted:
        return claims
    merged = claims.union(emitted)
    if merged is not claims and consistent_enough(merged, budget, cache):
        return merged
    return claims


def _tally(
    claims: ClaimSet, battery: Sequence[Sentence], counts: list[int], weight: int = 1
) -> None:
    """Add weight to the count of each battery sentence that claims holds."""
    held = claims.members
    for j, s in enumerate(battery):
        if s in held:
            counts[j] += weight


def _can_gain(s: Sentence, claims: ClaimSet, budget: int) -> bool:
    """Whether a merge into claims, or into any set claims grows into, can
    still add s. None can when a sentence of claims folds to falsum (its
    summary is None). The clause summary refutes a set that holds s when s
    folds to falsum, at every budget, and when the root of s clashes with
    a unit of claims, at every budget from 1. Both hold for every superset
    of claims, as its units only grow, and the summary gives
    ``refute_bounded``'s exact result, which is the gate's verdict
    whatever its cache holds."""
    if s in claims.members or claims.summary is None:
        return False
    result = settled_by_summary(summarize((s,), claims.summary), budget)
    return result is None or not result.refuted


def membership_counts(
    battery: Sequence[Sentence],
    stage: StageParams,
    samples: int,
    seed: int,
    cache: Optional[ConCache] = None,
) -> list[int]:
    """One accumulation per sample, counting membership for the whole
    battery at once. Sample i's strings are random_bits(derive_seed(s, j),
    width) for j in range(machines), with s = derive_seed(seed, stage.n, i),
    drawn through one table shared by every sample; one child_draws call
    gives a sample's leading words, and its seeds only past 64 bits. They
    run as the accumulation pulls them, which stops once no later merge can
    change which battery sentences the sample ends with (``accumulate_claims``
    with the battery wanted), in blocks of 1, 2, 4, ...: a sample runs fewer
    than twice the strings it reads, in long stretches when it reads them
    all. A passed cache shares gate verdicts across samples and calls."""
    counts = [0] * len(battery)
    draws = _DrawTable(stage.string_bits, stage.steps)
    wanted = frozenset(battery)
    for i in range(samples):
        state = parent_state(derive_seed(seed, stage.n, i))
        lanes = [state ^ j for j in range(stage.machines)]
        drawn = map(draws.draw, *child_draws(lanes, draws.width > 64))
        blocks = (list(islice(drawn, 1 << k)) for k in range(stage.machines.bit_length()))
        claims = accumulate_claims(chain.from_iterable(blocks), stage, cache, wanted)
        _tally(claims, battery, counts)
    return counts


def membership_counts_exact(
    battery: Sequence[Sentence],
    stage: StageParams,
    bit_budget: int = MAX_EXACT_BITS,
    cache: Optional[ConCache] = None,
) -> tuple[list[int], int]:
    """Exhaustive pass over every bit vector of the stage. Returns counts and
    the vector total 2**(machines * string bits).

    Every machine of the stage reads a string of the same width under the
    same step budget, so all machines share one table of each emitted tuple
    and the number of strings that emit it (``_emission_table``). The walk
    then goes breadth first, one level per machine: each claim set of a
    level is merged with each distinct tuple through ``_merge``, as
    ``accumulate_claims`` would, and merged sets with equal keys are kept
    once with their vector counts summed. Gate verdicts depend only on the
    set and the budget, not on the path that reached the set, so the counts
    are those of accumulating every vector.

    The last level is never built. Each set of the level before it is
    merged only with the tuples that hold a battery sentence it can still
    gain (``_can_gain``), and adds its own count for every other tuple:
    such a merge either adds no battery sentence or is refuted, so the
    counts are the same. A passed cache shares gate verdicts across calls."""
    if bit_budget > MAX_EXACT_BITS:
        raise ValueError(f"bit budget is capped at {MAX_EXACT_BITS}")
    machines, width = stage.machines, stage.string_bits
    total_bits = machines * width
    if total_bits > bit_budget:
        raise ValueError(
            f"{total_bits} total bits exceed the budget of {bit_budget};"
            " use the Monte Carlo estimator"
        )
    counts = [0] * len(battery)
    if not machines:
        _tally(stage.axiom_set, battery, counts)
        return counts, 1
    if cache is None:
        cache = ConCache()
    budget = stage.proof_budget
    outputs = _emission_table(width, stage.steps)
    # A level maps each distinct claim-set key to the set and the number of
    # vectors that reach it, so it holds one entry per distinct set, a number
    # the 24-bit cap keeps small.
    level = {stage.axiom_set.key: [stage.axiom_set, 1]}
    for _ in range(machines - 1):
        grown: dict[tuple[str, ...], list] = {}
        for claims, weight in level.values():
            for emitted, block in outputs.items():
                merged = _merge(claims, emitted, budget, cache)
                grown.setdefault(merged.key, [merged, 0])[1] += weight * block
        level = grown
    for claims, weight in level.values():
        gain = {s for s in battery if _can_gain(s, claims, budget)}
        quiet = 0  # strings whose tuple cannot change a count
        for emitted, block in outputs.items():
            if gain.isdisjoint(emitted):
                quiet += block
            else:
                merged = _merge(claims, emitted, budget, cache)
                _tally(merged, battery, counts, weight * block)
        _tally(claims, battery, counts, weight * quiet)
    return counts, 1 << total_bits


def _emission_table(width: int, steps: int) -> dict[tuple[Sentence, ...], int]:
    """Each distinct tuple the width-bit strings emit under the step budget,
    with the number of strings that emit it, keyed in the order of the
    first string that emits each. Strings that start with 0 are under a
    register header: ``register_emissions`` gives the blocks of those whose
    program has an OUT, and every other one emits ``()`` (no OUT, or the
    string ends inside the encoding), so they are counted by subtraction
    from the 2**(width - 1) such strings. The generator half, which starts
    with 1, takes one ``emission`` call per block. The value-0 string ends
    inside its header, so ``()`` is always the first key."""
    outputs: dict[tuple[Sentence, ...], int] = {(): 0}
    size = 1 << width
    half = size >> 1
    silent = half  # register strings outside the blocks of OUT programs
    for emitted, block in register_emissions(width, steps):
        outputs[emitted] = outputs.get(emitted, 0) + block
        silent -= block
    outputs[()] += silent
    value = half
    while value < size:
        emitted, extent = emission(value, width, steps)
        end = (value | ((1 << (width - extent)) - 1)) + 1
        outputs[emitted] = outputs.get(emitted, 0) + end - value
        value = end
    return outputs


def sequence_trajectories(
    seqs: Sequence[SequenceDef],
    schedule: Sequence[StageParams],
    samples: int,
    seed: int,
    cache: Optional[ConCache] = None,
) -> dict[str, list[Estimate]]:
    """Diagonal trajectories for several families at once: at each stage n,
    member n of every family is evaluated against one shared sample set."""
    if cache is None:
        cache = ConCache()
    result: dict[str, list[Estimate]] = {seq.id: [] for seq in seqs}
    for stage in schedule:
        members = [seq.emit(stage.n) for seq in seqs]
        battery = list(dict.fromkeys(members))
        counts = membership_counts(battery, stage, samples, seed, cache)
        by_sentence = dict(zip(battery, counts))
        for seq, member in zip(seqs, members):
            result[seq.id].append(monte_carlo_estimate(by_sentence[member], samples, seed))
    return result


# --- truncated extension sampling -----------------------------------------


def _window_mask(s: Sentence, order: tuple[int, ...], memo: dict) -> Optional[int]:
    """Truth-table mask of s over the window atoms `order`, or None when s
    mentions an atom outside the window. Memoised per sentence, so each
    sentence's atoms are checked once per call of the sampler."""
    try:
        return memo[s]
    except KeyError:
        pass
    window = len(order)
    m = truth_table(s, order) if all(a < window for a in atoms_of(s)) else None
    memo[s] = m
    return m


class _Stops(dict):
    """Maps a window model set to whether a sample may stop there: the set
    holds at most one valuation, or it decides every battery sentence j,
    lying inside pos[j] or inside neg[j]. Filled on demand, one entry per
    set a sample reaches, never for all 2**16 sets of window 4."""

    __slots__ = ("pos", "neg")

    def __init__(self, pos: Sequence[int], neg: Sequence[int]) -> None:
        super().__init__()
        self.pos = pos
        self.neg = neg

    def __missing__(self, models: int) -> bool:
        stop = not models & (models - 1) or all(
            not models & ~p or not models & ~n for p, n in zip(self.pos, self.neg)
        )
        self[models] = stop
        return stop


def _extension_models(
    seed: int,
    samples: int,
    rounds: int,
    base_models: int,
    draws: _DrawTable,
    order: tuple[int, ...],
    memo: dict,
    stops: _Stops,
) -> list[int]:
    """The window models each sample is left with, round r of sample i
    drawn from derive_seed(derive_seed(seed, i), r). Rounds run one at a
    time over the samples still active, one child_draws call each, and a
    sample leaves once stops[models] holds, where no later round can change
    what the battery counts read (see extension_probabilities). A draw
    whose table slot is filled is read from the slot, and ``draws.draw``
    is called only on a miss."""
    models = [base_models] * samples
    states = child_states(seed, samples)
    active = () if stops[base_models] else range(samples)
    slots, shift = draws.slots, draws.shift
    for r in range(rounds):
        if not active:
            break
        lanes = [states[i] ^ r for i in active]
        words, *seeds = child_draws(lanes, draws.width > 64)
        kept = []
        for i, word, seed in zip(active, words, seeds[0] if seeds else repeat(None)):
            emitted = slots[word >> shift]
            if emitted is None:
                emitted = draws.draw(word, seed)
            if emitted:
                current = mask = models[i]
                for s in emitted:
                    m = _window_mask(s, order, memo)
                    if m is None:
                        continue
                    mask &= m
                    if not mask:
                        break
                if mask and mask != current:
                    models[i] = mask
                    if stops[mask]:
                        continue
            kept.append(i)
        active = kept
    return models


def atoms_outside_window(phi: Sentence, atom_window: int) -> list[int]:
    """The atoms of phi outside the window, ascending. Raises ValueError when
    they and the window together exceed the truth-table limit, the widest
    battery sentence extension_probabilities can decide."""
    extras = sorted(a for a in atoms_of(phi) if a >= atom_window)
    if len(extras) + atom_window > MAX_TABLE_ATOMS:
        raise ValueError("sentence atoms exceed the table limit for this window")
    return extras


def _universal_mask(phi: Sentence, atom_window: int, memo: dict) -> int:
    """Window-table mask of the valuations where phi holds for every
    assignment of its atoms outside the window."""
    key = ("univ", phi)
    m = memo.get(key)
    if m is not None:
        return m
    extras = atoms_outside_window(phi, atom_window)
    rows = 1 << atom_window
    window_full = (1 << rows) - 1
    if not extras:
        result = truth_table(phi, tuple(range(atom_window)))
    else:
        table = truth_table(phi, tuple(range(atom_window)) + tuple(extras))
        result = window_full
        for block in range(1 << len(extras)):
            result &= (table >> (block * rows)) & window_full
            if not result:
                break
    memo[key] = result
    return result


def extension_probabilities(
    battery: Sequence[Sentence],
    seed: int,
    rounds: int,
    samples: int,
    theory: Theory = EMPTY_THEORY,
    machine_budget: int = 64,
    atom_window: int = 3,
) -> list[Estimate]:
    """For each battery sentence, the fraction of sampled extensions that
    entail it. A sample starts from the first `rounds` axioms, which must fit
    the atom window; each round runs a fresh random machine and takes its
    claims iff they are jointly satisfiable with everything taken so far
    (exact check over the window). Claims mentioning atoms outside the
    window are projected out. Samples entailing neither the sentence nor its
    negation are counted as undecided on that sentence.

    A sample stops taking rounds once its window model set holds one
    valuation or none, or decides every battery sentence. The set only
    shrinks and, once nonempty, stays nonempty. So from one valuation every
    round keeps it or is refused; and a set inside pos or neg of a sentence
    stays inside it, never inside both, as they are disjoint. Either way
    the estimates equal those of running all `rounds`. Active samples take
    each round together, and a stopped sample's are never derived or run."""
    if not 1 <= atom_window <= MAX_ATOM_WINDOW:
        raise ValueError(f"atom window must be in 1..{MAX_ATOM_WINDOW}")
    order = tuple(range(atom_window))
    full = (1 << (1 << atom_window)) - 1
    memo: dict = {}
    base = full
    for i in range(rounds):
        mask = _window_mask(theory.axiom_at(i), order, memo)
        if mask is None:
            raise ValueError(f"axiom {i} mentions atoms outside the window")
        base &= mask
    pos = [_universal_mask(phi, atom_window, memo) for phi in battery]
    neg = [_universal_mask(Not(phi), atom_window, memo) for phi in battery]
    counts = [0] * len(battery)
    undecided = [0] * len(battery)
    draws = _DrawTable(machine_budget, machine_budget)
    stops = _Stops(pos, neg)
    for models in _extension_models(seed, samples, rounds, base, draws, order, memo, stops):
        for j in range(len(battery)):
            if not models & ~pos[j]:
                counts[j] += 1
            elif models & ~neg[j]:
                undecided[j] += 1
    return [
        monte_carlo_estimate(counts[j], samples, seed, undecided[j])
        for j in range(len(battery))
    ]
