"""Probability trends for logical sentences under resource-bounded random
processes: a claim accumulator driven by prefix-decoded random machines, a
bounded consistency gate, exact and Monte Carlo membership estimators, a
truncated extension sampler for cross-validation, and a config-driven
experiment harness."""

__version__ = "0.1.0"

from .consistency import ClaimSet, ConCache, consistent_enough
from .estimator import (
    Estimate,
    StageParams,
    accumulate_claims,
    default_schedule,
    extension_probabilities,
    membership_counts,
    membership_counts_exact,
    sequence_trajectories,
)
from .logic import Sentence, parse_sentence, render_sentence, sentence_at, sentence_index
from .sequences import builtin_catalog, sequence_by_id

__all__ = [
    "ClaimSet",
    "ConCache",
    "Estimate",
    "Sentence",
    "StageParams",
    "accumulate_claims",
    "builtin_catalog",
    "consistent_enough",
    "default_schedule",
    "extension_probabilities",
    "membership_counts",
    "membership_counts_exact",
    "parse_sentence",
    "render_sentence",
    "sentence_at",
    "sentence_index",
    "sequence_by_id",
    "sequence_trajectories",
    "__version__",
]
