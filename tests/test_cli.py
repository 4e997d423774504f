import hashlib
import json
import random
from itertools import combinations

from kdom import Graph, complete, complete_bipartite, cycle, graph6_encode, remove_matching, wheel
from kdom.catalog import THEOREM_OFFSETS, theorem_catalog
from kdom.cli import main
from kdom.enumeration import connected_graphs
from kdom.isomorphism import canonical_graph6
from kdom.verifier import GraphRecord, audit_small_theorems, characterize, check_theorem, level_records, verify_bound


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_family(capsys):
    code, out, _ = run(capsys, "invariants", "--family", "K5")
    assert code == 0
    assert "gamma3: 3 witness: {0,1,2}" in out
    assert "kappa: 4 cut: {}" in out


def test_invariants_json_agrees_with_text(capsys):
    code, out, _ = run(capsys, "invariants", "--family", "K{2,3}", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["gamma3"] == {"number": 3, "witness": [2, 3, 4]}
    assert data["kappa"]["kappa"] == 2
    code, text, _ = run(capsys, "invariants", "--family", "K{2,3}")
    assert code == 0
    assert "gamma3: 3" in text and "kappa: 2" in text


def test_invariants_graph6_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "invariants", "--graph6", "C~")
    assert code == 0 and "gamma3: 3" in out
    path = tmp_path / "graphs.g6"
    path.write_text("C~\nBw\n")
    code, out, _ = run(capsys, "invariants", "--file", str(path), "--json")
    assert code == 0
    assert [row["n"] for row in json.loads(out)] == [4, 3]
    edge = tmp_path / "g.edges"
    edge.write_text("3\n0 1\n1 2\n")
    code, out, _ = run(capsys, "invariants", "--file", str(edge))
    assert code == 0 and "gamma3: 3" in out


def test_invariants_file_ignores_a_byte_order_mark(capsys, tmp_path):
    for name, text in (("g.edges", "4\n0 1\n1 2\n2 3\n"), ("graphs.g6", "C~\nBw\n")):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = run(capsys, "invariants", "--file", str(plain))
        assert expected[0] == 0
        assert run(capsys, "invariants", "--file", str(marked)) == expected


def test_invariants_long_cycle_and_path(capsys):
    # the counting bound keeps the largest cycle and path the guards admit to seconds
    for family, kappa in (("C62", 2), ("P62", 1)):
        code, out, _ = run(capsys, "invariants", "--family", family, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["gamma"]["number"] == 21
        assert data["double_domination"]["number"] == 42
        assert data["gamma3"]["number"] == 62
        assert data["kappa"]["kappa"] == kappa


def test_invariants_on_equal_components(capsys):
    # 15 disjoint copies of C4, 60 vertices: each component is searched on its own
    family = "union(C4," * 14 + "C4" + ")" * 14
    code, out, _ = run(capsys, "invariants", "--family", family, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 60
    assert [data[key]["number"] for key in ("gamma", "gamma3", "double_domination")] == [30, 60, 45]
    assert data["kappa"]["kappa"] == 0


# SHA-256 of the text output of `construct --family 'C4(P2,2P3,P4,P3)'`
# and of `enumerate --n 6`.
GOLDEN_CONSTRUCT_SHA256 = "fa75224b3d6ba3bff36553ac2e1eb87124983a596c341c439df14d318efefa1e"
GOLDEN_ENUMERATE_SHA256 = "d0b7bbaf90fd1e431c1ae94492b7f36644d7c3e78069161158a3179ab145d0b2"


def test_construct(capsys):
    code, out, _ = run(capsys, "construct", "--family", "minus_matching(K6,perfect)")
    assert code == 0
    assert out.strip() == "E]~o"
    code, out, _ = run(capsys, "construct", "--family", "C4(P2,2P3,P4,P3)", "--json")
    assert code == 0 and json.loads(out)["n"] == 14
    code, out, _ = run(capsys, "construct", "--family", "C4(P2,2P3,P4,P3)")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CONSTRUCT_SHA256


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6 and lines == sorted(lines)
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--json")
    assert code == 0 and json.loads(out) == {"n": 4, "count": 6, "graphs": lines}
    code, out, _ = run(capsys, "enumerate", "--n", "6")
    assert code == 0 and len(out.splitlines()) == 112
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ENUMERATE_SHA256


def test_enumerate_guards(capsys, monkeypatch):
    code, _, err = run(capsys, "enumerate", "--n", "9")
    assert code == 2 and "--allow-large" in err
    code, _, err = run(capsys, "enumerate", "--n", "10", "--allow-large")
    assert code == 2 and "hard ceiling 9" in err

    def unreachable(n):
        raise AssertionError(f"level {n} solved before the guard")

    sweeps = (("verify-bound",), ("audit",), ("check-theorem", "3.3"), ("characterize", "--offset", "3"))
    with monkeypatch.context() as patch:
        patch.setattr("kdom.verifier.level_records", unreachable)
        # a sweep that would enumerate level 9 is refused before any level is solved
        for command in (("verify-bound",), ("audit",), ("characterize", "--offset", "8")):
            code, _, err = run(capsys, *command, "--max-n", "9")
            # the sweeps have no --allow-large; the message must not suggest one
            assert code == 2 and "kdom enumerate --allow-large" in err, command
        # below K3 no level exists, so no sweep has anything to report
        for command in sweeps:
            for low in ("2", "1", "-3"):
                got = run(capsys, *command, "--max-n", low)
                assert got == (2, "", f"error: n={low} is below the smallest level 3\n"), command
    # theorem 3.3 and offset 3 enumerate levels 3 and 4 only: their level 5 is
    # the class n + 2, and the levels above it are empty, so 9 is admitted
    for command in sweeps[2:]:
        assert run(capsys, *command, "--max-n", "9")[0] == 0, command


def test_sweeps_at_max_n_9_enumerate_no_level_9(capsys, monkeypatch):
    # offset 7 and theorems 3.1..3.5 enumerate no level above 8: offset 7's
    # level 9 is the class n + 2, and each theorem's level 9 lies above its top
    def below_9(real):
        def call(n, *args, **kwargs):
            assert n <= 8, f"level {n} enumerated"
            return real(n, *args, **kwargs)

        return call

    monkeypatch.setattr("kdom.verifier.level_records", below_9(level_records))
    monkeypatch.setattr("kdom.verifier.connected_graphs", below_9(connected_graphs))
    code, out, _ = run(capsys, "characterize", "--offset", "7", "--max-n", "9", "--json")
    assert code == 0
    levels = json.loads(out)["levels"]
    assert [len(level["extremal"]) for level in levels] == [0, 0, 0, 22, 356, 19, 2]
    assert [r["g6"] for r in levels[-1]["extremal"]] == ["H?CidB?", "H~~~~~~"]  # C9 and K9
    for theorem in THEOREM_OFFSETS:
        for flags in ((), ("--strict-paper",)):
            code8, out8, _ = run(capsys, "check-theorem", theorem, "--max-n", "8", "--json", *flags)
            code9, out9, _ = run(capsys, "check-theorem", theorem, "--max-n", "9", "--json", *flags)
            doc8, doc9 = json.loads(out8), json.loads(out9)
            assert code9 == code8 and (code9 == 0 or flags), (theorem, flags)
            assert doc9.pop("levels") == doc8.pop("levels") + [{"n": 9, "extremal": []}], theorem
            assert doc9 == {**doc8, "n_max": 9}, theorem
    for command in (("verify-bound",), ("audit",), ("check-theorem", "3.5"), ("characterize", "--offset", "7")):
        code, _, err = run(capsys, *command, "--max-n", "10")
        assert code == 2 and "hard ceiling 9" in err, command


def test_verify_bound_text(capsys):
    code, out, _ = run(capsys, "verify-bound", "--max-n", "6")
    assert code == 0
    assert out == "0 violations, equality: K3\n"
    code, _, _ = run(capsys, "verify-bound", "--max-n", "6", "--strict-paper")
    assert code == 0


def test_verify_bound_exits_1_on_a_violation(monkeypatch, capsys):
    # a record of sum 2n at n = 4 breaks the bound 2n-1; no flag is needed to fail
    def violating(n):
        recs = level_records(n)
        return recs + (GraphRecord("C~", 5, 3, 3, 3),) if n == 4 else recs

    monkeypatch.setattr("kdom.verifier.level_records", violating)
    code, out, _ = run(capsys, "verify-bound", "--max-n", "5")
    assert (code, out) == (1, "1 violations, equality: K3\n")
    code, out, _ = run(capsys, "verify-bound", "--max-n", "5", "--json")
    assert code == 1 and json.loads(out)["violations"] == [{"g6": "C~", "gamma3": 5, "kappa": 3}]


def test_verify_bound_strict_paper_exits_1_on_an_unlisted_equality(monkeypatch, capsys):
    # a record of sum 2n-1 at n = 4 attains the bound without breaking it,
    # so only --strict-paper, diffing against Theorem 3.1's list, fails
    def attaining(n):
        recs = level_records(n)
        return recs + (GraphRecord("C~", 4, 3, 3, 3),) if n == 4 else recs

    monkeypatch.setattr("kdom.verifier.level_records", attaining)
    code, out, _ = run(capsys, "verify-bound", "--max-n", "5", "--json")
    assert code == 0 and json.loads(out)["violations"] == [] and "C~" in json.loads(out)["equality"]
    code, out, _ = run(capsys, "verify-bound", "--max-n", "5", "--strict-paper")
    assert code == 1 and out.startswith("0 violations, equality: ")


def test_verify_bound_json_leaves_the_catalog_unbuilt(capsys):
    # the catalog names serve only the text line; --strict-paper builds Theorem 3.1 alone
    theorem_catalog.cache_clear()
    code, out, _ = run(capsys, "verify-bound", "--max-n", "4", "--json")
    assert code == 0 and json.loads(out)["violations"] == []
    assert theorem_catalog.cache_info().currsize == 0
    code, _, _ = run(capsys, "verify-bound", "--max-n", "6", "--strict-paper", "--json")
    assert code == 0 and theorem_catalog.cache_info().currsize == 1


def test_check_theorem_exit_codes(capsys):
    code, _, _ = run(capsys, "check-theorem", "3.2", "--max-n", "6")
    assert code == 0
    code, _, _ = run(capsys, "check-theorem", "3.2", "--max-n", "6", "--strict-paper")
    assert code == 0
    code, out, _ = run(capsys, "check-theorem", "3.4", "--max-n", "6", "--strict-paper")
    assert code == 1
    assert "extra (1): P4 (computed sum 5)" in out
    code, out, _ = run(capsys, "check-theorem", "3.3", "--max-n", "6", "--strict-paper")
    assert code == 1
    diamond = canonical_graph6(remove_matching(complete(4), [(0, 1)]))
    assert f"missing (1): {diamond}\n" in out
    # n_max reaches the horizon n = offset + 2 for 3.3 but not for 3.5
    assert out.endswith("complete for all n: gamma3+kappa <= n+2, so extremal graphs have n <= 5\n")
    code, out, _ = run(capsys, "check-theorem", "3.5", "--max-n", "6")
    assert code == 0 and "complete for all n" not in out


def test_check_theorem_json_deterministic(capsys):
    code, first, _ = run(capsys, "check-theorem", "3.4", "--max-n", "6", "--json")
    assert code == 0
    code, second, _ = run(capsys, "check-theorem", "3.4", "--max-n", "6", "--json")
    assert code == 0
    assert first.encode() == second.encode()
    data = json.loads(first)
    assert data["theorem"] == "3.4" and data["target_offset"] == 4


def test_audit(capsys):
    code, out, _ = run(capsys, "audit", "--max-n", "5")
    assert code == 0
    assert "gamma3=n iff max_degree<=2: 0 failures" in out
    assert "K8 minus matchings (764): 0 failures" in out
    code, _, _ = run(capsys, "audit", "--max-n", "5", "--strict-paper")
    assert code == 1  # the Example 2.4 S2 note counts as a verbatim discrepancy


def test_audit_lists_each_failed_fact(capsys, monkeypatch):
    # each edit to level 4's records breaks exactly one of the audit's four facts
    edits = {
        "CF": {"max_degree": 2},  # star: gamma3 = 3 < n with max_degree <= 2
        "CN": {"gamma3": 2},  # paw: gamma3 below 3
        "C^": {"kappa": 3},  # diamond: kappa above min_degree 2
        "C]": {"kappa": 3, "min_degree": 3},  # C4: gamma 2 + kappa 3 > n
    }

    def edited(n):
        recs = level_records(n)
        return tuple(rec._replace(**edits.get(rec.g6, {})) for rec in recs) if n == 4 else recs

    monkeypatch.setattr("kdom.verifier.level_records", edited)
    code, out, _ = run(capsys, "audit", "--max-n", "4", "--json")
    doc = json.loads(out)
    assert code == 1
    assert doc["delta_equivalence_failures"] == [["CF", 3, 2]]  # [g6, gamma3, max_degree]
    assert doc["observation_failures"] == [["CN", 2]]  # [g6, gamma3]
    assert doc["kappa_failures"] == [["C^", 3, 2]]  # [g6, kappa, min_degree]
    assert doc["gamma_kappa_bound_failures"] == [["C]", 2, 3]]  # [g6, gamma, kappa]
    code, out, _ = run(capsys, "audit", "--max-n", "4")
    assert code == 1 and out.count(": 1 failures\n") == 4


def test_audit_strict_paper_exits_0_when_the_example_claim_holds(capsys, monkeypatch):
    monkeypatch.setattr("kdom.verifier.is_k_dominating", lambda g, s, k: True)
    code, out, _ = run(capsys, "audit", "--max-n", "3", "--strict-paper", "--json")
    assert code == 0
    assert json.loads(out)["notes"] == []


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, "invariants") == (2, "", "error: no input graph; pass --family, --graph6 or --file\n")
    # an empty source is still a source: its reader names the fault
    for flag, message in (
        ("--graph6", "empty graph6 string"),
        ("--family", "found end of input (at offset 0)"),
        ("--file", "No such file or directory: ''"),
    ):
        code, out, err = run(capsys, "invariants", flag, "")
        assert code == 2 and out == "" and message in err, flag
    assert run(capsys, "invariants", "--graph6", "!!!")[0] == 2
    assert run(capsys, "construct", "--family", "C2")[0] == 2
    assert run(capsys, "construct", "--family", "join(K1")[0] == 2
    assert run(capsys, "invariants", "--file", "/nonexistent/x.g6")[0] == 2
    assert main(["check-theorem", "9.9"]) == 2
    # vertex counts above the 62-vertex cap are refused before any row is built
    huge = tmp_path / "huge.edges"
    huge.write_text("99999999999\n0 1\n")
    code, _, err = run(capsys, "invariants", "--file", str(huge))
    assert code == 2 and "99999999999" in err
    bad = tmp_path / "bad.edges"
    bad.write_text("3\n0 x\n")
    code, _, err = run(capsys, "invariants", "--file", str(bad))
    assert code == 2 and "bad edge-list line '0 x'" in err
    for text, message in (("3\n0 5\n", "edge (0,5) outside 0..2"), ("3\n1 1\n", "loop at vertex 1")):
        bad.write_text(text)
        assert run(capsys, "invariants", "--file", str(bad)) == (2, "", f"error: {message}\n"), text
    bad.write_text("٣\n٠ ١\n١ ٢\n", encoding="utf-8")  # Arabic-Indic digits are not read as P3
    code, out, err = run(capsys, "invariants", "--file", str(bad))
    assert code == 2 and out == "" and "vertex count" in err
    # the reader is chosen by the first non-blank line; --format is gone
    code, _, err = run(capsys, "invariants", "--file", str(bad), "--format", "edgelist")
    assert code == 2 and "--format" in err
    bad.write_text("-3\n0 1\n")  # not a vertex count, so read (and refused) as graph6
    code, _, err = run(capsys, "invariants", "--file", str(bad))
    assert code == 2 and "graph6 size byte '-' out of range" in err
    # a file holding no graph is named in the error
    for name, text in (("empty.g6", ""), ("blank.g6", "\n  \r\n\t\n")):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "invariants", "--file", str(path))
        assert (code, out, err) == (2, "", f"error: no graph in {path}\n"), name
    code, _, err = run(capsys, "invariants", "--graph6", "?")  # n = 0
    assert code == 2 and "empty graph" in err
    for family in ("P99999999999", "K{40,30}", "join(K1,F31)"):
        code, _, err = run(capsys, "construct", "--family", family)
        assert code == 2 and "offset" in err, family
    for family, message in (
        ("K,", "expected a size after 'K' (at offset 1)"),
        ("C3(0P2,0,0)", "attachment multiplicity 0 must be >= 1"),
        ("C3(60P2,0,0)", "attachment exceeds vertex cap 62"),
    ):
        assert run(capsys, "construct", "--family", family) == (2, "", f"error: {message}\n"), family
    # deep nesting is refused at the first function past the limit, not by a RecursionError
    deep = "complement(" * 3000 + "K1" + ")" * 3000
    code, _, err = run(capsys, "construct", "--family", deep)
    assert code == 2 and "nested deeper" in err and "offset 1100" in err
    assert main([]) == 2


def test_unknown_theorem_or_offset_exits_2_before_any_level(monkeypatch, capsys):
    # the verifier, not the parser, knows the valid values, and it checks them first
    def unreachable(*args):
        raise AssertionError("a level was built for an unknown theorem or offset")

    monkeypatch.setattr("kdom.verifier.connected_graphs", unreachable)
    monkeypatch.setattr("kdom.verifier.level_records", unreachable)
    for max_n in ((), ("--max-n", "8")):
        code, out, err = run(capsys, "check-theorem", "3.9", *max_n)
        assert (code, out) == (2, "") and all(repr(theorem) in err for theorem in THEOREM_OFFSETS)
        code, out, err = run(capsys, "characterize", "--offset", "0", *max_n)
        assert (code, out, err) == (2, "", "error: target_offset must be at least 1, since gamma3+kappa <= 2n-1\n")


def test_help_exits_zero():
    assert main(["--help"]) == 0


PETERSEN = Graph.from_edges(
    10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)

# SHA-256 of the `invariants --json` output below; it pins every number,
# witness, cut and separated pair, so a solver change must reproduce them.
GOLDEN_INVARIANTS_SHA256 = "ea2cbb5ace06d00e618951f9d79df3f9fdd9ffedd86766645df97b1193c27079"
# ... and of the same command's text output.
GOLDEN_INVARIANTS_TEXT_SHA256 = "6afd5e2dd24e9d83c577d42d33802760eed9d7d2e5f666ed9b7b906b425534c2"


def golden_graphs():
    """40 seeded G(n, p) graphs with n 9..16, then symmetric graphs where
    many pairs and witnesses tie."""
    rng = random.Random(4404)
    out = []
    for i in range(40):
        n = 9 + i % 8
        p = (0.25, 0.4, 0.6, 0.85)[i % 4]
        out.append(Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return out + [complete_bipartite(5, 5), cycle(12), wheel(10), PETERSEN]


def test_invariants_golden_output(capsys, tmp_path):
    path = tmp_path / "golden.g6"
    path.write_text("".join(graph6_encode(g) + "\n" for g in golden_graphs()))
    code, out, _ = run(capsys, "invariants", "--file", str(path), "--json")
    assert code == 0
    assert len(json.loads(out)) == 44
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_INVARIANTS_SHA256
    code, out, _ = run(capsys, "invariants", "--file", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_INVARIANTS_TEXT_SHA256


# SHA-256 of each sweep's `--max-n 7 --json` output; they pin every record
# of levels 3..7 that the sweeps read, so a change to how the verifier
# gathers its invariants must reproduce them byte for byte.
GOLDEN_SWEEPS_SHA256 = {
    ("verify-bound",): "5da89f3523b9fe2241d89cd804ce5a6491c9c080cc8a7706ff953d7377e9052f",
    ("audit",): "476204b09232acbf9163991df1098e0cf792d4eda4b229348aba1e0e575c8d37",
    ("check-theorem", "3.1"): "03433fc25d87b6507c7148397ced1714e84044d32832ea646b01f4f609240bcb",
    ("check-theorem", "3.2"): "2b9a552148e4cc545571299a9901fe31b117bc8e4df55cfa973a5711291889c1",
    ("check-theorem", "3.3"): "73b54eb1e93fc7403e6a16c9258611cd16c0f15a028d0843dff058e9aac14a7e",
    ("check-theorem", "3.4"): "0b34fa06ff737febe38c81409e6571087bc4abd0d2d6c35e24f248a63578a65b",
    ("check-theorem", "3.5"): "a556540d3f7b212d8df9ed732853b416989516446ab85dd7b4f26186ade7f694",
}

# SHA-256 of the same sweeps' text output, which adds the catalog names and
# the notes each report prints.
GOLDEN_SWEEPS_TEXT_SHA256 = {
    ("verify-bound",): "86902380a7dcb84cccb81bd502c55f77017aa341f4296166f3cbfa6b5c584f73",
    ("audit",): "fb876d82fe0155f0b317f0a7322bcf6d373de398d7fdebbfd8a37f95e1c3d99c",
    ("check-theorem", "3.1"): "01f117121405bba4bfe52aaf3f9bb2a37d354bf6778f2ebdd131df170b052e6f",
    ("check-theorem", "3.2"): "1c43f819b256836f5692e5f17f77ed93c9f4f2fb27a9791b67eb8cc6d92891b5",
    ("check-theorem", "3.3"): "9e30263e30b7fbe40ad7dd818f505b0ed4a429f99b23718f299980595d7992ec",
    ("check-theorem", "3.4"): "1b9c5ecddcd5028f7e338ad2f0581404d407b0f47e3e092f93dbeb62e561405e",
    ("check-theorem", "3.5"): "3942abc0c252b1a2a9f69833f599842c28e9869638e2e94e3daeeea565e253ef",
}


def test_sweeps_golden_output(capsys):
    for command, digest in GOLDEN_SWEEPS_SHA256.items():
        code, out, _ = run(capsys, *command, "--max-n", "7", "--json")
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
    for command, digest in GOLDEN_SWEEPS_TEXT_SHA256.items():
        code, out, _ = run(capsys, *command, "--max-n", "7")
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


# SHA-256 of `characterize --offset k --max-n 7` text output; it pins the
# extremal sets together with the catalog names each graph is shown by.
GOLDEN_CHARACTERIZE_SHA256 = {
    1: "28237e03808cf9b925e1eabd85a303de1645b3401f083d6f2cc77e72e6962ecb",
    2: "880ae710bfaee677ffe8045fda6be03d0dace0bdbea83a914a6455bd394125da",
    3: "8cae042aa87608f70744a603b1f3814932b37405b07ed9f8244d99eaea18e9c4",
    4: "14760202506e10e6ce2c251a40a9f2aa6298c0dd95c6fef92c6baea1b4c4d7b8",
    5: "6059a90a382ac43c26eae1d5e43bb6c1cdd5f219c6e1dca9104f22755ed3df8b",
}


def test_characterize_golden_text(capsys):
    for offset, digest in GOLDEN_CHARACTERIZE_SHA256.items():
        code, out, _ = run(capsys, "characterize", "--offset", str(offset), "--max-n", "7")
        assert code == 0, offset
        assert hashlib.sha256(out.encode()).hexdigest() == digest, offset


def test_each_sweep_returns_the_document_it_prints(capsys):
    cases = (
        (verify_bound(5), ("verify-bound", "--max-n", "5")),
        (characterize(3, 6), ("characterize", "--offset", "3", "--max-n", "6")),
        (check_theorem("3.3", 6), ("check-theorem", "3.3", "--max-n", "6")),
        (audit_small_theorems(5), ("audit", "--max-n", "5")),
    )
    for doc, argv in cases:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out, argv
