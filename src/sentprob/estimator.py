"""Probability that a sentence is claimed by a stage-bounded random process.

The core object is a claim set built by feeding uniform random bitstrings
through the prefix-decoded machine: each string is decoded and run under the
stage's step budget, and the sentences it emits are merged into the set iff
the merged set passes the bounded consistency gate. A stage couples every
budget (string count, string length, step budget, axiom prefix) to one growth
schedule so they scale together.

On top of the accumulation loop sit two estimators for the probability that
a sentence ends up in the claim set: exact enumeration of every bit vector
(tiny stages only) and seeded Monte Carlo with Wilson intervals. Both emit
rationals. A third, independent process samples a consistent extension
directly: random machines propose claims which are accepted under an exact
satisfiability check restricted to a small atom window, giving a limit oracle
the membership trajectories can be compared against.

Determinism contract: every random quantity derives from the caller's seed
via a fixed tree (seed -> stage -> sample -> string, and seed -> sample ->
round for extensions), so identical arguments give identical results
regardless of call order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import sqrt
from typing import Callable, Iterable, Optional, Sequence

from .bits import Bits, derive_seed, random_bits
from .consistency import ClaimSet, ConCache, ConParams, consistent_enough
from .logic import EMPTY_THEORY, Not, Sentence, Theory, atoms_of
from .machine import run_prefix
from .prover import MAX_TABLE_ATOMS, truth_table
from .sequences import SequenceDef

GROWTH_CAP = 512
MAX_EXACT_BITS = 24

_Z95 = 1.959963984540054


def default_growth(n: int) -> int:
    """Doubling schedule with a hard ceiling: 24, 48, 96, 192, 384, 512, ..."""
    return min(12 * (1 << n), GROWTH_CAP)


@dataclass(frozen=True)
class StageParams:
    """All budgets for one stage. By default machine count, string length,
    step budget and axiom prefix all equal min(growth(n), cap); the optional
    overrides decouple them for hand-traced and exact-enumeration stages."""

    n: int
    growth: Callable[[int], int]
    con: ConParams
    cap: int = GROWTH_CAP
    theory: Theory = EMPTY_THEORY
    machine_count: Optional[int] = None
    bits_per_string: Optional[int] = None
    step_budget: Optional[int] = None
    axiom_count: Optional[int] = None

    @property
    def size(self) -> int:
        return min(self.growth(self.n), self.cap)

    @property
    def machines(self) -> int:
        return self.size if self.machine_count is None else self.machine_count

    @property
    def string_bits(self) -> int:
        return self.size if self.bits_per_string is None else self.bits_per_string

    @property
    def steps(self) -> int:
        return self.size if self.step_budget is None else self.step_budget

    @property
    def axioms(self) -> int:
        return self.size if self.axiom_count is None else self.axiom_count


def standard_con(n: int, growth: Callable[[int], int] = default_growth) -> ConParams:
    """Gate parameters for trend stages: a proof budget coupled to growth
    with a floor. The factor keeps refutations of locally contradictory
    merges findable once claim sets reach a few hundred clauses; smaller
    factors let contradictions slip through at late stages."""
    return ConParams(proof_budget=max(256, 16 * min(growth(n), GROWTH_CAP)))


def standard_stage(n: int) -> StageParams:
    return StageParams(n=n, growth=default_growth, con=standard_con(n))


def default_schedule(stages: int = 5) -> list[StageParams]:
    return [standard_stage(n) for n in range(1, stages + 1)]


def single_machine_stage(
    bits: int,
    step_budget: Optional[int] = None,
    axiom_count: int = 0,
    theory: Theory = EMPTY_THEORY,
    proof_budget: int = 96,
    n: int = 1,
) -> StageParams:
    """One machine slot of a fixed bit width; the usual shape for exact
    enumeration and hand traces."""
    return StageParams(
        n=n,
        growth=lambda _n, _b=bits: _b,
        con=ConParams(proof_budget=proof_budget),
        theory=theory,
        machine_count=1,
        bits_per_string=bits,
        step_budget=bits if step_budget is None else step_budget,
        axiom_count=axiom_count,
    )


class EstimateMode(Enum):
    EXACT = "exact"
    MONTE_CARLO = "mc"


@dataclass(frozen=True)
class Estimate:
    """A rational probability with provenance. Exact estimates are dyadic
    (denominator divides 2**total enumerated bits) with zero interval width;
    undecided counts samples where neither the sentence nor its negation was
    settled (extension estimates only)."""

    value: Fraction
    mode: EstimateMode
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
    return Estimate(
        Fraction(count, samples),
        EstimateMode.MONTE_CARLO,
        samples,
        wilson_halfwidth(count, samples),
        seed,
        undecided,
    )


def stage_axioms(stage: StageParams) -> ClaimSet:
    return ClaimSet.of(stage.theory.axiom_at(i) for i in range(stage.axioms))


def accumulate_claims(
    bitstrings: Iterable[Bits], stage: StageParams, cache: Optional[ConCache] = None
) -> ClaimSet:
    """Run every bitstring through the machine in order, merging each emitted
    sentence set iff the merged claim set passes the consistency gate, that
    is, iff no refutation of it is found within the stage's proof budget."""
    if cache is None:
        cache = ConCache()
    needed = stage.string_bits
    claims = stage_axioms(stage)
    for bits in bitstrings:
        if bits.length < needed:
            raise ValueError(
                f"bitstring has {bits.length} bits; this stage needs {needed}"
            )
        trace = run_prefix(bits, stage.steps)
        if not trace.emitted:
            continue
        emitted = trace.emitted
        if all(s in claims for s in emitted):
            continue
        merged = claims.union(emitted)
        if consistent_enough(merged, stage.con, cache):
            claims = merged
    return claims


def sample_strings(stage: StageParams, sample_seed: int) -> list[Bits]:
    return [
        random_bits(derive_seed(sample_seed, j), stage.string_bits)
        for j in range(stage.machines)
    ]


def membership_counts(
    battery: Sequence[Sentence],
    stage: StageParams,
    samples: int,
    seed: int,
    cache: Optional[ConCache] = None,
) -> list[int]:
    """One accumulation pass per sample, counting membership for the whole
    battery at once."""
    if cache is None:
        cache = ConCache()
    counts = [0] * len(battery)
    for i in range(samples):
        sample_seed = derive_seed(seed, stage.n, i)
        claims = accumulate_claims(sample_strings(stage, sample_seed), stage, cache)
        for j, s in enumerate(battery):
            if s in claims:
                counts[j] += 1
    return counts


def membership_probability(
    phi: Sentence,
    stage: StageParams,
    samples: int,
    seed: int,
    cache: Optional[ConCache] = None,
) -> Estimate:
    if samples < 1:
        raise ValueError("need at least one sample")
    count = membership_counts([phi], stage, samples, seed, cache)[0]
    return monte_carlo_estimate(count, samples, seed)


def _vector_strings(value: int, machines: int, width: int) -> list[Bits]:
    total = machines * width
    mask = (1 << width) - 1
    return [
        Bits((value >> (total - (j + 1) * width)) & mask, width)
        for j in range(machines)
    ]


def membership_counts_exact(
    battery: Sequence[Sentence],
    stage: StageParams,
    bit_budget: int = MAX_EXACT_BITS,
    cache: Optional[ConCache] = None,
) -> tuple[list[int], int]:
    """Exhaustive pass over every bit vector of the stage. Returns counts and
    the vector total 2**(machines * string bits)."""
    if bit_budget > MAX_EXACT_BITS:
        raise ValueError(f"bit budget is capped at {MAX_EXACT_BITS}")
    total_bits = stage.machines * stage.string_bits
    if total_bits > bit_budget:
        raise ValueError(
            f"{total_bits} total bits exceed the budget of {bit_budget};"
            " use the Monte Carlo estimator"
        )
    if cache is None:
        cache = ConCache()
    counts = [0] * len(battery)
    for value in range(1 << total_bits):
        claims = accumulate_claims(
            _vector_strings(value, stage.machines, stage.string_bits), stage, cache
        )
        for j, s in enumerate(battery):
            if s in claims:
                counts[j] += 1
    return counts, 1 << total_bits


def membership_probability_exact(
    phi: Sentence,
    stage: StageParams,
    bit_budget: int = MAX_EXACT_BITS,
    cache: Optional[ConCache] = None,
) -> Estimate:
    counts, total = membership_counts_exact([phi], stage, bit_budget, cache)
    return Estimate(Fraction(counts[0], total), EstimateMode.EXACT, total, 0.0, 0)


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


def membership_trajectory(
    seq: SequenceDef,
    schedule: Sequence[StageParams],
    samples: int,
    seed: int,
    cache: Optional[ConCache] = None,
) -> list[Estimate]:
    return sequence_trajectories([seq], schedule, samples, seed, cache)[seq.id]


# --- truncated extension sampling -----------------------------------------


@dataclass(frozen=True)
class RoundRecord:
    bits: Bits
    accepted: bool
    projected_out: int = 0


@dataclass(frozen=True)
class ExtensionSample:
    accepted: ClaimSet
    rounds: int
    machine_log: tuple[RoundRecord, ...]

    @property
    def projected_out(self) -> int:
        return sum(r.projected_out for r in self.machine_log)


def _window_order(atom_window: int) -> tuple[int, ...]:
    if not 1 <= atom_window <= MAX_TABLE_ATOMS:
        raise ValueError(f"atom window must be in 1..{MAX_TABLE_ATOMS}")
    return tuple(range(atom_window))


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


def sample_extension(
    seed: int,
    rounds: int,
    theory: Theory = EMPTY_THEORY,
    machine_budget: int = 64,
    atom_window: int = 3,
) -> ExtensionSample:
    """Draw one truncated extension: starting from the first `rounds` axioms,
    each round runs a fresh random machine and merges its claims iff they are
    jointly satisfiable with everything accepted so far (exact check over the
    atom window). Claims mentioning atoms outside the window are projected
    out and logged, never merged. Axioms must fit the window."""
    order = _window_order(atom_window)
    full = (1 << (1 << atom_window)) - 1
    memo: dict = {}
    accepted: dict[Sentence, None] = {}
    models = full
    for i in range(rounds):
        axiom = theory.axiom_at(i)
        mask = _window_mask(axiom, order, memo)
        if mask is None:
            raise ValueError(f"axiom {i} mentions atoms outside the window")
        models &= mask
        accepted[axiom] = None
    log: list[RoundRecord] = []
    for i in range(rounds):
        bits = random_bits(derive_seed(seed, i), machine_budget)
        trace = run_prefix(bits, machine_budget)
        keep = []
        mask = models
        for s in trace.emitted:
            m = _window_mask(s, order, memo)
            if m is not None:
                keep.append(s)
                mask &= m
        dropped = len(trace.emitted) - len(keep)
        if mask:
            models = mask
            for s in keep:
                accepted[s] = None
            log.append(RoundRecord(bits, True, dropped))
        else:
            log.append(RoundRecord(bits, False, dropped))
    return ExtensionSample(ClaimSet.of(accepted), rounds, tuple(log))


def _extension_models(
    seed: int,
    rounds: int,
    base_models: int,
    machine_budget: int,
    order: tuple[int, ...],
    memo: dict,
) -> int:
    models = base_models
    for i in range(rounds):
        bits = random_bits(derive_seed(seed, i), machine_budget)
        trace = run_prefix(bits, machine_budget)
        if not trace.emitted:
            continue
        mask = models
        for s in trace.emitted:
            m = _window_mask(s, order, memo)
            if m is None:
                continue
            mask &= m
            if not mask:
                break
        if mask:
            models = mask
    return models


def _universal_mask(phi: Sentence, atom_window: int, memo: dict) -> int:
    """Window-table mask of the valuations where phi holds for every
    assignment of its atoms outside the window."""
    key = ("univ", phi)
    m = memo.get(key)
    if m is not None:
        return m
    extras = sorted(a for a in atoms_of(phi) if a >= atom_window)
    if len(extras) + atom_window > MAX_TABLE_ATOMS:
        raise ValueError("sentence atoms exceed the table limit for this window")
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
    entail it. Samples entailing neither the sentence nor its negation are
    counted as undecided on that sentence."""
    order = _window_order(atom_window)
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
    for i in range(samples):
        models = _extension_models(
            derive_seed(seed, i), rounds, base, machine_budget, order, memo
        )
        for j in range(len(battery)):
            if not models & ~pos[j]:
                counts[j] += 1
            elif models & ~neg[j]:
                undecided[j] += 1
    return [
        monte_carlo_estimate(counts[j], samples, seed, undecided[j])
        for j in range(len(battery))
    ]


def extension_probability(
    phi: Sentence,
    seed: int,
    rounds: int,
    samples: int,
    theory: Theory = EMPTY_THEORY,
    machine_budget: int = 64,
    atom_window: int = 3,
) -> Estimate:
    return extension_probabilities(
        [phi], seed, rounds, samples, theory, machine_budget, atom_window
    )[0]
