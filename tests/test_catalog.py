import hashlib
import sys

import pytest

from kdom import is_connected
from kdom.catalog import (
    THEOREM_OFFSETS,
    DiscrepancyNote,
    canonical_names,
    checked_catalog,
    theorem_catalog,
)
from kdom.isomorphism import canonical_graph6
from kdom.verifier import check_theorem, level_records


def entries_by(entries, theorem):
    return [e for e in entries if e.theorem == theorem]


def find(entries, theorem, name):
    return next(e for e in entries if e.theorem == theorem and e.name == name)


def failing_names(notes, theorem):
    return {nt.entry for nt in notes if nt.theorem == theorem and nt.kind == "fails-target"}


def test_every_entry_is_connected():
    entries, _ = checked_catalog()
    assert all(is_connected(e.graph) for e in entries)


def test_theorems_31_to_33_all_pass():
    entries, notes = checked_catalog()
    by_hand = {
        ("3.1", "K3"): (3, 3, 2),
        ("3.2", "K4"): (4, 3, 3),
        ("3.2", "C4"): (4, 4, 2),
        ("3.2", "K{1,2}"): (3, 3, 1),
        ("3.3", "K5"): (5, 3, 4),
        ("3.3", "C5"): (5, 5, 2),
        ("3.3", "P4"): (4, 4, 1),
    }
    for (theorem, name), (n, g3, kp) in by_hand.items():
        e = find(entries, theorem, name)
        assert (e.graph.n, e.gamma3, e.kappa) == (n, g3, kp)
    for theorem in ("3.1", "3.2", "3.3"):
        assert failing_names(notes, theorem) == set()


def test_p4_under_34_fails_target():
    entries, notes = checked_catalog()
    e = find(entries, "3.4", "P4")
    assert e.gamma3 + e.kappa == 5  # = 2n-3, not 2n-4
    assert failing_names(notes, "3.4") == {"P4"}


def test_35_failures_are_c6_and_lossy_figures():
    entries, notes = checked_catalog()
    assert failing_names(notes, "3.5") == {"C6", "T2", "T3", "T4"}
    c6 = find(entries, "3.5", "C6")
    assert c6.gamma3 + c6.kappa == 8  # = 2n-4
    c7 = find(entries, "3.5", "C7")
    assert c7.source == "proof"
    assert c7.gamma3 + c7.kappa == 9  # = 2n-5


def test_proof_only_entries_are_flagged():
    entries, notes = checked_catalog()
    proof_names = {e.name for e in entries if e.source == "proof"}
    assert proof_names == {"C7", "C3(P3,0,0)"}
    flagged = {nt.entry for nt in notes if nt.theorem == "3.5" and nt.kind == "missing-from-statement"}
    assert flagged == proof_names


def test_no_unnoted_duplicates_within_a_theorem():
    entries, notes = checked_catalog()
    noted = {(nt.theorem, nt.entry) for nt in notes}
    for theorem in THEOREM_OFFSETS:
        seen = {}
        for e in entries_by(entries, theorem):
            key = canonical_graph6(e.graph)
            if key in seen:
                assert (theorem, e.name) in noted or (theorem, seen[key]) in noted, (
                    f"silent duplicate {seen[key]} / {e.name} under {theorem}"
                )
            else:
                seen[key] = e.name


def test_figure_duplicates_match_expected_pairs():
    entries, _ = checked_catalog()
    assert canonical_graph6(find(entries, "3.5", "T9").graph) == canonical_graph6(
        find(entries, "3.5", "T10").graph
    )
    assert canonical_graph6(find(entries, "3.5", "T8").graph) == canonical_graph6(
        find(entries, "3.5", "T12").graph
    )


def test_notes_sorted_and_deterministic():
    _, notes1 = checked_catalog()
    _, notes2 = checked_catalog()
    assert notes1 == notes2
    keys = [(nt.theorem, nt.entry, nt.kind, nt.detail) for nt in notes1]
    assert keys == sorted(keys)
    with pytest.raises(ValueError, match="unknown note kind 'bogus'"):
        DiscrepancyNote("K3", "3.1", "bogus", "")


def test_canonical_names_lookup():
    entries, _ = checked_catalog()
    lookup = canonical_names()
    k3 = find(entries, "3.1", "K3")
    assert lookup[canonical_graph6(k3.graph)] == ["K3"]


def test_entries_agree_with_the_level_tables():
    # the catalog's labeling and the enumeration's are independent paths
    # to the same canonical form and invariants
    entries, _ = checked_catalog()
    assert len(entries) == 47
    for e in entries:
        assert e.canon == canonical_graph6(e.graph), e.name
        row = next(r for r in level_records(e.graph.n) if r.g6 == e.canon)
        assert (e.gamma3, e.kappa) == (row.gamma3, row.kappa), e.name


def test_one_build_canonicalizes_each_entry_once(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return canonical_graph6(g)

    # patch every kdom module that holds the function, as a caller imports it by name
    for key, module in list(sys.modules.items()):
        if key.startswith("kdom") and getattr(module, "canonical_graph6", None) is canonical_graph6:
            monkeypatch.setattr(module, "canonical_graph6", counted)
    theorem_catalog.cache_clear()
    check_theorem("3.1", 6)
    assert len(calls) == 1  # one theorem's report builds only that theorem's entries
    checked_catalog()
    check_theorem("3.5", 6)
    canonical_names()
    assert len(calls) == 47


# SHA-256 of repr(checked_catalog()): every entry's name, theorem, source,
# labeled edges, canonical graph6 and invariants, and every note, so a
# change to how the entries are declared or built must reproduce them.
CATALOG_REPR_SHA256 = "18ffd65235a3ec4ad23f4fbd70cc3535a3d1c84a8e29f0492348fce369ac2ba0"


def test_catalog_repr_digest():
    assert hashlib.sha256(repr(checked_catalog()).encode()).hexdigest() == CATALOG_REPR_SHA256
