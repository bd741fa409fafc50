"""Acceptance checks: the agreement, trend, and determinism targets the
package commits to, each reported as a single PASS/FAIL line. The trend
checks share one standard-suite run and one crosscheck run per session."""

import importlib.resources
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sentprob.bits import Bits
from sentprob.consistency import ClaimSet, ConCache, consistent_enough
from sentprob.estimator import (
    membership_counts,
    membership_counts_exact,
    single_machine_stage,
    wilson_halfwidth,
)
from sentprob.harness import parse_config, run_crosscheck, run_suite
from sentprob.logic import BOTTOM, And, Atom, Implies, Not, Or, parse_sentence, sentence_at
from sentprob.prover import refute_bounded, semantic_consistent
from test_consistency import antitone_check
from test_estimator import BATTERY_TEXTS
from test_harness import ROOT, assert_matches_committed
from test_machine import assemble_emit_one
from test_prover import rand_sentence

PROOF_BUDGET = 10_000


def report(capsys, ok, name, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def standard_cfg():
    text = (importlib.resources.files("sentprob") / "configs" / "standard.ini").read_text()
    return parse_config(text)


@pytest.fixture(scope="session")
def suite_run(standard_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    t0 = time.time()
    result = run_suite(standard_cfg, out_dir=str(out))
    return result, time.time() - t0


@pytest.fixture(scope="session")
def crosscheck_run(standard_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("crosscheck")
    t0 = time.time()
    result = run_crosscheck(standard_cfg, out_dir=str(out))
    return result, time.time() - t0


def final(trajectories, sid):
    return trajectories[sid][-1].value


def tail(trajectories, sid, k):
    return [e.value for e in trajectories[sid][-k:]]


def test_prover_agrees_with_semantic_oracle(capsys):
    t0 = time.time()
    leaves = [BOTTOM, Atom(0), Atom(1), Atom(2)]
    depth1 = list(leaves)
    depth1 += [Not(s) for s in leaves]
    for op in (And, Or, Implies):
        depth1 += [op(a, b) for a in leaves for b in leaves]
    assert len(depth1) == 56
    checked = 0
    for size in range(4):
        for combo in itertools.combinations(depth1, size):
            sat = semantic_consistent(combo)
            verdict = refute_bounded(combo, PROOF_BUDGET)
            assert verdict.refuted != sat, combo
            checked += 1
    rng = random.Random(97)
    for _ in range(4000):
        sents = [rand_sentence(rng, 3) for _ in range(rng.randrange(1, 4))]
        sat = semantic_consistent(sents)
        verdict = refute_bounded(sents, PROOF_BUDGET)
        assert verdict.refuted != sat, sents
        checked += 1
    elapsed = time.time() - t0
    report(
        capsys,
        checked == 29_317 + 4000 and elapsed < 120,
        "prover-oracle equivalence",
        f"{checked} sentence sets, zero disagreements at budget {PROOF_BUDGET} ({elapsed:.1f}s)",
    )


def test_gate_soundness_and_antitonicity(capsys):
    t0 = time.time()
    budget = 512
    cache = ConCache()
    rng = random.Random(20260818)
    sound_violations = 0
    for _ in range(1000):
        claims = ClaimSet.of([rand_sentence(rng, 2) for _ in range(rng.randrange(0, 4))])
        if not consistent_enough(claims, budget, cache):
            if semantic_consistent(list(claims)):
                sound_violations += 1
    antitone_violations = 0
    for _ in range(1000):
        claims = ClaimSet.of([rand_sentence(rng, 2) for _ in range(rng.randrange(0, 3))])
        extra = rand_sentence(rng, 2)
        if not antitone_check(claims, extra, budget, cache):
            antitone_violations += 1
    elapsed = time.time() - t0
    report(
        capsys,
        sound_violations == 0 and antitone_violations == 0 and elapsed < 120,
        "gate soundness and antitonicity",
        f"1000+1000 randomized cases, {sound_violations} soundness and "
        f"{antitone_violations} antitone violations ({elapsed:.1f}s)",
    )


def test_exact_vs_monte_carlo(capsys):
    t0 = time.time()
    stage = single_machine_stage(16)
    battery = [parse_sentence(t) for t in BATTERY_TEXTS]
    counts, total = membership_counts_exact(battery, stage, bit_budget=16)
    mc_counts = membership_counts(battery, stage, 10_000, 20260817)
    slacks = []
    for c_exact, c_mc in zip(counts, mc_counts):
        exact = Fraction(c_exact, total)
        mc = Fraction(c_mc, 10_000)
        bound = 3 * wilson_halfwidth(c_mc, 10_000)
        slacks.append(bound - abs(float(mc - exact)))
    # The smallest margin left under a bound; negative when a gap exceeds it.
    worst = min(slacks)
    ok = worst >= 0
    elapsed = time.time() - t0
    report(
        capsys,
        ok and elapsed < 300,
        "exact vs monte carlo",
        f"10-sentence battery at a 16-bit stage, all gaps within 3 Wilson "
        f"halfwidths (worst slack {worst:.4f}, {elapsed:.1f}s)",
    )


def test_contradiction_trend(capsys, suite_run):
    result, elapsed = suite_run
    values = tail(result.trajectories, "constant_bottom", 3)
    ok = (
        all(x >= y for x, y in zip(values, values[1:]))
        and values[-1] <= Fraction(1, 10)
        and elapsed < 600
    )
    report(
        capsys,
        ok,
        "contradiction trend",
        f"last three stages {[float(v) for v in values]}, final <= 0.10 ({elapsed:.1f}s suite)",
    )


def test_theorem_trend(capsys, suite_run):
    result, elapsed = suite_run
    values = tail(result.trajectories, "tautology_chain", 3)
    ok = (
        all(x <= y for x, y in zip(values, values[1:]))
        and values[-1] >= Fraction(85, 100)
        and elapsed < 600
    )
    report(
        capsys,
        ok,
        "theorem trend",
        f"last three stages {[float(v) for v in values]}, final >= 0.85",
    )


def test_partition_sum_trend(capsys, suite_run):
    result, elapsed = suite_run
    total = sum(
        (final(result.trajectories, sid) for sid in ("atom_chain", "split_next", "split_rest")),
        Fraction(0),
    )
    ok = abs(total - 1) <= Fraction(15, 100) and elapsed < 600
    report(
        capsys,
        ok,
        "partition additivity",
        f"three-way membership sum {float(total):.4f} at the final stage, within 0.15 of 1",
    )


def test_equivalence_and_exclusivity_trends(capsys, suite_run):
    result, elapsed = suite_run
    gap = abs(
        final(result.trajectories, "atom_chain") - final(result.trajectories, "double_neg_chain")
    )
    mutex = final(result.trajectories, "mutex_family")
    ok = gap <= Fraction(15, 100) and mutex <= Fraction(15, 100) and elapsed < 600
    report(
        capsys,
        ok,
        "equivalence agreement and exclusive vanishing",
        f"equivalent-pair gap {float(gap):.4f}, exclusive-family final {float(mutex):.4f}, both <= 0.15",
    )


def test_complement_sum_trends(capsys, suite_run):
    result, elapsed = suite_run
    pairs = (
        ("atom_chain", "neg_atom_chain"),
        ("tautology_chain", "neg_tautology_chain"),
    )
    devs = []
    for pos, neg in pairs:
        total = final(result.trajectories, pos) + final(result.trajectories, neg)
        devs.append(abs(total - 1))
    ok = all(d <= Fraction(15, 100) for d in devs) and elapsed < 600
    report(
        capsys,
        ok,
        "complement additivity",
        f"deviations from 1: {[float(d) for d in devs]} for two families, within 0.15",
    )


def test_membership_vs_extension(capsys, crosscheck_run):
    result, elapsed = crosscheck_run
    worst = max(r.diff - r.bound for r in result.rows)
    ok = result.passed and elapsed < 600
    report(
        capsys,
        ok,
        "membership vs extension crosscheck",
        f"{len(result.rows)} sentences, all diffs within 0.10 plus CIs "
        f"(worst slack {-worst:.4f}, {elapsed:.1f}s)",
    )


def test_standard_artifacts_are_pinned(suite_run, crosscheck_run):
    # The suite and crosscheck runs above regenerate every committed file.
    written = suite_run[0].artifacts + crosscheck_run[0].artifacts
    assert_matches_committed(written, ROOT / "runs" / "standard")


def test_simplicity_floor(capsys):
    t0 = time.time()
    stage = single_machine_stage(16)
    indices = (1, 2, 5, 6, 7)
    battery = [sentence_at(k) for k in indices]
    counts, total = membership_counts_exact(battery, stage, bit_budget=16)
    ok = True
    floors = []
    for k, c in zip(indices, counts):
        width = assemble_emit_one(k).length
        floors.append((k, c, width))
        ok = ok and Fraction(c, total) >= Fraction(1, 2**width)
    elapsed = time.time() - t0
    detail = ", ".join(f"index {k}: {c}/65536 >= 2^-{w}" for k, c, w in floors)
    report(capsys, ok and elapsed < 300, "simplicity floor", detail)


def test_deterministic_artifacts(capsys, tmp_path):
    # The first run fills every module memo (stream and indexed traces,
    # sentences, renderings); the second runs with them warm and must still
    # write the committed demo artifacts byte for byte.
    text = (importlib.resources.files("sentprob") / "configs" / "demo.ini").read_text()
    cfg = parse_config(text)
    for tag in ("cold", "warm"):
        result = run_suite(cfg, out_dir=str(tmp_path / tag))
    committed = ROOT / "demo_run"
    written = {Path(p).name: Path(p).read_bytes() for p in result.artifacts}
    names = sorted(p.name for p in committed.iterdir())
    ok = (
        sorted(written) == names
        and all(written[n] == (committed / n).read_bytes() for n in names)
        and any(n.endswith(".svg") for n in names)
    )
    report(
        capsys,
        ok,
        "deterministic artifacts",
        f"run with warm memos, {len(names)} artifacts byte-identical to demo_run/",
    )
