from dataclasses import dataclass
from typing import Optional

import pytest

from sentprob import estimator, sequences
from sentprob.logic import And, Atom, BOTTOM, Not, Or, Sentence, atoms_of, render_sentence
from sentprob.prover import (
    entails,
    refute_bounded,
    semantic_consistent,
    truth_table,
)
from sentprob.sequences import (
    SequenceDef,
    builtin_catalog,
    catalog_by_id,
    sequence_by_id,
)
from sentprob.machine import run_prefix
from test_bits import gamma_encode
from test_machine import encode_generator, machine_backed


def constant_of(phi: Sentence, fid: Optional[str] = None) -> SequenceDef:
    """The constant sequence that emits phi at every position. The pipeline
    only reads the builtin families, so it lives with the tests."""
    name = fid if fid is not None else f"constant({phi!r})"
    return SequenceDef(name, "builtin", "a fixed sentence at every position", lambda n: phi)


# Partition helpers: only these tests use them.


def generate(seq: SequenceDef, n: int) -> Sentence:
    if n < 0:
        raise ValueError("sequence position must be a natural number")
    return seq.emit(n)


@dataclass(frozen=True)
class PartitionTriple:
    phi: SequenceDef
    psi: SequenceDef
    chi: SequenceDef


def canonical_partition() -> PartitionTriple:
    by_id = catalog_by_id()
    return PartitionTriple(by_id["atom_chain"], by_id["split_next"], by_id["split_rest"])


def refined_partition() -> tuple[SequenceDef, SequenceDef, SequenceDef, SequenceDef]:
    """Four-way partition: the rest cell of the canonical split, cut by the
    deep shadow atom. Sum trends are checked on the merged triple (atom_chain,
    split_next, deep_split_merge), which rejoins the last two cells; the cut
    cells themselves stay out of the catalog."""
    by_id = catalog_by_id()
    cut_in = SequenceDef(
        "deep_split_next",
        "builtin",
        "not a_n, not the shadow atom, the deep shadow atom",
        sequences._deep_split_next,
    )
    cut_out = SequenceDef(
        "deep_split_rest", "builtin", "not a_n and neither shadow atom", sequences._deep_split_rest
    )
    return by_id["atom_chain"], by_id["split_next"], cut_in, cut_out


def merged_partition() -> PartitionTriple:
    """The refined partition with its last two cells disjoined into one
    sequence; a valid triple in its own right."""
    by_id = catalog_by_id()
    return PartitionTriple(by_id["atom_chain"], by_id["split_next"], by_id["deep_split_merge"])


def equiv_pair() -> tuple[SequenceDef, SequenceDef]:
    """Two families whose members are pairwise semantically equivalent."""
    by_id = catalog_by_id()
    return by_id["atom_chain"], by_id["double_neg_chain"]


MAX_PARTITION_ATOMS = 20


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    checked: int
    first_failure: Optional[int] = None


def validate_partition(triple: PartitionTriple, n_max: int) -> PartitionReport:
    """Check that exactly one member is true under every assignment, for each
    position up to n_max inclusive."""
    for n in range(n_max + 1):
        members = [generate(triple.phi, n), generate(triple.psi, n), generate(triple.chi, n)]
        atoms: set[int] = set()
        for s in members:
            atoms |= atoms_of(s)
        if len(atoms) > MAX_PARTITION_ATOMS:
            raise ValueError(f"{len(atoms)} atoms at position {n} exceeds cap {MAX_PARTITION_ATOMS}")
        order = sorted(atoms)
        full = (1 << (1 << len(order))) - 1
        m1, m2, m3 = (truth_table(s, order) for s in members)
        exactly_one = (m1 & ~m2 & ~m3) | (~m1 & m2 & ~m3) | (~m1 & ~m2 & m3)
        if (exactly_one & full) != full:
            return PartitionReport(False, n + 1, first_failure=n)
    return PartitionReport(True, n_max + 1)


# Slot order drives program encoding; reordering breaks every stream golden.
CATALOG_IDS = [
    "neg_atom_chain",
    "tautology_chain",
    "split_rest",
    "atom_chain",
    "double_neg_chain",
    "split_next",
    "deep_split_merge",
    "monotone_chain",
    "mutex_family",
    "constant_bottom",
    "neg_tautology_chain",
    "enumeration",
    "partition_tautology",
]


def g(fid, n):
    return generate(sequence_by_id(fid), n)


def test_catalog_order_golden():
    assert [d.id for d in builtin_catalog()] == CATALOG_IDS
    assert len(builtin_catalog()) >= 7
    assert set(catalog_by_id()) == set(CATALOG_IDS)


def test_member_shapes():
    assert render_sentence(g("tautology_chain", 2)) == "(a2 | !a2)"
    assert render_sentence(g("constant_bottom", 7)) == "_|_"
    assert g("mutex_family", 0) == Atom(0)
    assert g("mutex_family", 3) == And(
        Atom(3), And(Not(Atom(0)), And(Not(Atom(1)), Not(Atom(2))))
    )
    assert render_sentence(g("monotone_chain", 2)) == "((a0 | a1) | a2)"
    assert render_sentence(g("enumeration", 5)) == "(_|_ -> _|_)"
    assert g("double_neg_chain", 4) == Not(Not(Atom(4)))


def test_generate_rejects_negative_position():
    with pytest.raises(ValueError):
        generate(sequence_by_id("atom_chain"), -1)


def test_unknown_family():
    with pytest.raises(KeyError):
        sequence_by_id("nope")


def test_constant_sequence():
    c = constant_of(Atom(9))
    assert c.emit(0) == c.emit(100) == Atom(9)
    named = constant_of(BOTTOM, fid="falsum")
    assert named.id == "falsum"


def test_step_budgets_stay_below_the_shadow_atoms():
    # A t-step indexed atom_chain run emits atom m for any m <= t (gamma(m + 1)
    # takes only 21 bits near m = 1024), so from _SHADOW + n steps on a run can
    # emit the shadow atom of split member n directly, and the split families
    # stop meaning what they say. GROWTH_CAP caps every default_schedule step
    # budget; raising it to the shadows fails here instead of silently.
    program = encode_generator("atom_chain", indexed=True)
    for m in (estimator.GROWTH_CAP, sequences._SHADOW):
        assert run_prefix(program.concat(gamma_encode(m + 1)), m).emitted == (Atom(m),)
    assert max(s.steps for s in estimator.default_schedule(count=8)) == estimator.GROWTH_CAP
    assert estimator.GROWTH_CAP < sequences._SHADOW


def test_monotone_chain_weakens():
    for n in range(12):
        assert entails([g("monotone_chain", n)], g("monotone_chain", n + 1))
        assert not entails([g("monotone_chain", n + 1)], g("monotone_chain", n))


def test_mutex_members_pairwise_exclusive():
    for i in range(6):
        for j in range(i + 1, 6):
            assert not semantic_consistent([g("mutex_family", i), g("mutex_family", j)])


def test_equiv_pair_members_equivalent():
    a, b = equiv_pair()
    for n in range(12):
        assert entails([a.emit(n)], b.emit(n))
        assert entails([b.emit(n)], a.emit(n))


def test_partition_tautology_members_are_theorems():
    for n in range(8):
        assert entails([], g("partition_tautology", n))
    triple = PartitionTriple(
        sequence_by_id("partition_tautology"),
        constant_of(BOTTOM),
        constant_of(BOTTOM),
    )
    assert validate_partition(triple, 8).ok


def test_canonical_partition_valid():
    report = validate_partition(canonical_partition(), 12)
    assert report.ok
    assert report.checked == 13


def test_merged_partition_valid():
    assert validate_partition(merged_partition(), 12).ok


def test_adjacent_atom_partition_valid():
    # A partition needs no reserved shadow atom; the next atom over works too.
    phi = SequenceDef("adj_in", "adhoc", "a_n", lambda n: Atom(n))
    psi = SequenceDef(
        "adj_next", "adhoc", "not a_n, then a_{n+1}", lambda n: And(Not(Atom(n)), Atom(n + 1))
    )
    chi = SequenceDef(
        "adj_rest",
        "adhoc",
        "neither a_n nor a_{n+1}",
        lambda n: And(Not(Atom(n)), Not(Atom(n + 1))),
    )
    assert validate_partition(PartitionTriple(phi, psi, chi), 12).ok


def test_degenerate_triple_detected():
    bad = PartitionTriple(
        sequence_by_id("atom_chain"),
        sequence_by_id("atom_chain"),
        sequence_by_id("neg_atom_chain"),
    )
    report = validate_partition(bad, 5)
    assert not report.ok
    assert report.first_failure == 0
    assert report.checked == 1


def test_partition_atom_cap():
    wide = SequenceDef(
        "wide",
        "adhoc",
        "too many atoms for the validator's tables",
        lambda n: generate(sequence_by_id("monotone_chain"), MAX_PARTITION_ATOMS + 1),
    )
    with pytest.raises(ValueError):
        validate_partition(PartitionTriple(wide, wide, wide), 0)


def test_refined_partition_cells_exactly_one():
    cells = refined_partition()
    assert [c.id for c in cells] == ["atom_chain", "split_next", "deep_split_next", "deep_split_rest"]
    for n in range(8):
        members = [c.emit(n) for c in cells]
        order = sorted(set().union(*(atoms_of(s) for s in members)))
        full = (1 << (1 << len(order))) - 1
        tables = [truth_table(s, order) for s in members]
        union = 0
        for i, t in enumerate(tables):
            union |= t
            for u in tables[i + 1 :]:
                assert t & u == 0
        assert union == full


def test_merged_cell_is_union_of_cuts():
    _, _, cut_in, cut_out = refined_partition()
    merged = merged_partition().chi
    for n in range(8):
        assert merged.emit(n) == Or(cut_in.emit(n), cut_out.emit(n))


def test_machine_twins_agree():
    for d in builtin_catalog():
        twin = machine_backed(d.id)
        for n in range(0, 65, 4):
            assert twin.emit(n) == d.emit(n), (d.id, n)


def test_coherent_families_saturate_as_batches():
    coherent = [
        "neg_atom_chain",
        "tautology_chain",
        "split_rest",
        "atom_chain",
        "double_neg_chain",
        "split_next",
        "deep_split_merge",
        "monotone_chain",
        "partition_tautology",
    ]
    for fid in coherent:
        batch = [g(fid, n) for n in range(9)]
        if len(set().union(*(atoms_of(s) for s in batch))) <= 24:
            assert semantic_consistent(batch), fid
        r = refute_bounded(batch, 10_000)
        assert r.saturated, fid


def test_conflicting_families_refute_as_batches():
    for fid in ("constant_bottom", "neg_tautology_chain", "enumeration", "mutex_family"):
        batch = [g(fid, n) for n in range(9)]
        assert not semantic_consistent(batch), fid
        assert refute_bounded(batch, 10_000).refuted, fid
