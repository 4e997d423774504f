import json

import kdom.verifier
from kdom import (
    checked_catalog,
    complete,
    connected_graphs,
    gamma3,
    graph6_encode,
    max_degree,
    min_degree,
    remove_matching,
    vertex_connectivity,
)
from kdom.catalog import THEOREM_OFFSETS
from kdom.cli import main
from kdom.isomorphism import canonical_graph6
from kdom.verifier import (
    audit_small_theorems,
    characterize,
    check_theorem,
    horizon,
    level_records,
    top_records,
    verify_bound,
)


def flat(doc):
    return {r["g6"] for level in doc["levels"] for r in level["extremal"]}


def by_n(doc):
    return {level["n"]: level["extremal"] for level in doc["levels"]}


def test_verify_bound_small():
    rep = verify_bound(6)
    assert rep["violations"] == []
    assert rep["equality"] == [canonical_graph6(complete(3))]
    assert rep["graphs_checked"] == 2 + 6 + 21 + 112


def test_characterize_offset2_exact_at_6():
    got = flat(characterize(2, 6))
    names = {"K{1,2}": "BW", "C4": "C]", "K4": "C~"}
    assert got == set(names.values())


def test_characterize_offset3_includes_the_diamond():
    # the computation refutes Theorem 3.3's "only if": K4 minus an edge
    # also attains 2n-3 (gamma3 = 3, kappa = 2 at n = 4)
    got = by_n(characterize(3, 6))
    diamond = remove_matching(complete(4), [(0, 1)])
    assert canonical_graph6(diamond) in {r["g6"] for r in got[4]}
    assert len(got[4]) == 2  # P4 and the diamond
    assert len(got[5]) == 2  # K5 and C5
    assert got[3] == [] and got[6] == []


def test_characterize_rejects_bad_offsets(monkeypatch):
    import pytest

    def unreachable(n):
        raise AssertionError("a level was built for an offset below 1")

    # Theorem 3.1's bound gamma3+kappa <= 2n-1 leaves no graph below offset 1
    monkeypatch.setattr(kdom.verifier, "level_records", unreachable)
    for offset in (0, -1):
        with pytest.raises(ValueError, match="target_offset must be at least 1"):
            characterize(offset, 5)


def test_cut_characterize_equals_an_exhaustive_filter():
    # characterize solves only n <= offset + 2; every level must still agree
    # with the extremal set read off the full level table
    for n_max in range(3, 9):
        for offset in range(1, 9):
            doc = characterize(offset, n_max)
            assert [level["n"] for level in doc["levels"]] == list(range(3, n_max + 1))
            for level in doc["levels"]:
                n = level["n"]
                want = [r.to_jsonable() for r in level_records(n) if r.total == 2 * n - offset]
                assert level["extremal"] == want, (offset, n_max, n)


def test_offsets_6_and_7_are_diagonals_of_the_level_table(monkeypatch):
    # ROADMAP's level table: offset t at n is the column j = n - t, so t = 6
    # reads j = 0, 1, 2 and t = 7 reads j = -1, 0, 1 at n = 6, 7, 8
    solved = []

    def counting(n):
        solved.append(n)
        return level_records(n)

    monkeypatch.setattr(kdom.verifier, "level_records", counting)
    for offset, counts in ((6, [0, 0, 0, 75, 16, 3]), (7, [0, 0, 0, 22, 356, 19])):
        solved.clear()
        doc = characterize(offset, 8)
        assert [len(level["extremal"]) for level in doc["levels"]] == counts, offset
        assert solved == [n for n in range(3, 9) if n < horizon(offset)], offset


def test_horizon_lemma_bound_is_attained_and_never_exceeded():
    for n in range(3, 9):
        assert max(rec.total for rec in level_records(n)) == n + 2, n


def test_the_class_n_plus_2_is_the_top_of_each_level():
    # the proof in the verifier docstring, checked against the enumerated levels
    for n in range(3, 9):
        assert [r for r in level_records(n) if r.total == n + 2] == list(top_records(n)), n


def test_check_theorem_solves_only_the_levels_below_the_horizon(monkeypatch, capsys):
    solved = []

    def counting(n):
        solved.append(n)
        return level_records(n)

    monkeypatch.setattr(kdom.verifier, "level_records", counting)
    # level t + 2 is the proved class n + 2, built by top_records without the level
    for theorem, levels in (("3.1", []), ("3.4", [3, 4, 5])):
        solved.clear()
        assert main(["check-theorem", theorem, "--max-n", "8", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [level["n"] for level in doc["levels"]] == list(range(3, 9))
        assert solved == levels, theorem


def test_check_theorem_32_all_confirmed():
    rep = check_theorem("3.2", 7)
    assert rep["confirmed"] == ["C4", "K4", "K{1,2}"]
    assert rep["extra"] == [] and rep["missing"] == [] and rep["caveats"] == []
    assert rep["notes"] == []


def test_check_theorem_33_reports_the_diamond_as_missing():
    rep = check_theorem("3.3", 7)
    assert rep["confirmed"] == ["C5", "K5", "P4"]
    assert rep["extra"] == []
    assert len(rep["missing"]) == 1
    assert rep["missing"][0] == canonical_graph6(remove_matching(complete(4), [(0, 1)]))


def test_check_theorem_34_p4_is_extra():
    rep = check_theorem("3.4", 7)
    assert [e["name"] for e in rep["extra"]] == ["P4"]
    assert rep["extra"][0]["computed_sum"] == 5
    assert "P4" not in rep["confirmed"]  # the 3.4 entry; 3.3's P4 confirms separately
    assert set(rep["confirmed"]) == {
        "C3(P2,0,0)", "C5+e", "C6", "K1+P4", "K5-2e", "K5-e", "K6", "K6-PM", "K{1,3}", "P5",
    }
    assert rep["missing"] == []


def test_check_theorem_35_audit_states():
    rep = check_theorem("3.5", 7)
    extra_names = {e["name"] for e in rep["extra"]}
    assert extra_names == {"C6", "T2", "T3", "T4"}
    assert {"C7", "C3(P3,0,0)", "T1", "T5", "T6", "T7", "T8", "T9", "T10", "T11", "T12"} <= set(
        rep["confirmed"]
    )
    # no silent third state: every T entry is confirmed or carries a note
    noted = {nt["entry"] for nt in rep["notes"]}
    for name in (f"T{i}" for i in range(1, 13)):
        assert name in rep["confirmed"] or name in noted
    # missing = extremal graphs no entry matches: K4+pendant and diamond+pendant
    # at n=5, and complement(P6) (T4's label graph; its drawing lost an edge),
    # complement(P5 u K1), complement(P4 u 2K1) at n=6
    assert len(rep["missing"]) == 5


def test_check_theorem_horizon_caveat():
    rep = check_theorem("3.5", 6)
    # the catalog's K{t+2} entry is the one caveat naming the complete graph
    assert sum("K7 " in c for c in rep["caveats"]) == 1
    assert sum("K6 " in c for c in check_theorem("3.4", 5)["caveats"]) == 1
    names = {(e.theorem, e.name) for e in checked_catalog()[0]}
    assert all((th, f"K{horizon(t)}") in names for th, t in THEOREM_OFFSETS.items())
    assert all(e["name"] != "K7" for e in rep["extra"])


def test_reports_are_deterministic_json():
    a = json.dumps(check_theorem("3.4", 6), indent=2, sort_keys=True)
    b = json.dumps(check_theorem("3.4", 6), indent=2, sort_keys=True)
    assert a == b
    keys = set(json.loads(a))
    assert keys == {
        "theorem", "target_offset", "n_max", "levels", "confirmed", "extra", "missing",
        "notes", "caveats",
    }


def test_level_records_cached_and_consistent():
    recs = level_records(5)
    assert len(recs) == 21
    assert level_records(5) is recs
    for n in (5, 6):
        graphs = connected_graphs(n)
        assert len(level_records(n)) == len(graphs)
        for g, rec in zip(graphs, level_records(n)):
            assert rec.g6 == graph6_encode(g)  # connected_graphs(n) order
            assert (rec.gamma3, rec.kappa, rec.min_degree, rec.max_degree) == (
                gamma3(g).number,
                vertex_connectivity(g).kappa,
                min_degree(g),
                max_degree(g),
            ), rec.g6


def assert_clean(rep):
    """Every audited fact holds (the Example 2.4 note is expected)."""
    for key in (
        "delta_equivalence_failures",
        "observation_failures",
        "kappa_failures",
        "gamma_kappa_bound_failures",
    ):
        assert rep[key] == [], key
    assert all(s["failures"] == [] for s in rep["matching_sweeps"])


def test_audit_reads_the_level_table(monkeypatch):
    for n in range(3, 7):
        level_records(n)

    def unexpected(g):
        raise AssertionError("the audit must read this invariant from level_records")

    for name in ("kappa", "min_degree", "max_degree"):
        monkeypatch.setattr(kdom.verifier, name, unexpected)
    calls = []

    def counting_gamma3(g):
        calls.append(g)
        return gamma3(g)

    monkeypatch.setattr(kdom.verifier, "gamma3", counting_gamma3)
    assert_clean(audit_small_theorems(6))
    # K_n minus one matching of each size (n = 5..8) and the figure graphs G1, G2
    assert len(calls) == 3 + 4 + 4 + 5 + 2


def test_audit_small_theorems():
    rep = audit_small_theorems(6)
    assert_clean(rep)
    assert rep["graphs_checked"] == 2 + 6 + 21 + 112
    assert rep["example_g1_gamma3"] == 3
    assert rep["example_g2_gamma3"] == 4
    assert rep["example_g2_claim_holds"] is False
    assert [s["n"] for s in rep["matching_sweeps"]] == [5, 6, 7, 8]
    assert [s["matchings"] for s in rep["matching_sweeps"]] == [26, 76, 232, 764]
    assert all(s["failures"] == [] for s in rep["matching_sweeps"])
    assert len(rep["notes"]) == 1 and rep["notes"][0]["entry"] == "Example-2.4-S2"


def test_audit_reports_a_matching_failure_once_per_size(monkeypatch, capsys):
    for n in range(3, 7):
        level_records(n)

    def off_by_one_on_k6_minus_a_perfect_matching(g):
        result = gamma3(g)
        if g.n == 6 and g.edge_count() == 12:
            return result._replace(number=result.number + 1)
        return result

    monkeypatch.setattr(kdom.verifier, "gamma3", off_by_one_on_k6_minus_a_perfect_matching)
    sweeps = audit_small_theorems(6)["matching_sweeps"]
    assert sweeps[1] == {
        "n": 6,
        "matchings": 76,
        "failures": [{"matching": [[0, 1], [2, 3], [4, 5]], "gamma3": 5}],
    }
    assert [s["failures"] for s in sweeps if s["n"] != 6] == [[], [], []]
    assert main(["audit", "--max-n", "6"]) == 1  # any failure list exits 1
    assert "K6 minus matchings (76): 1 failures\n" in capsys.readouterr().out
