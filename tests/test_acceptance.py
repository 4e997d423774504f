"""Acceptance suite: one test per criterion, one pass/fail line each.

Criterion 5 asserts the computed offset-3 extremal set: the published
{P4, K5, C5} plus the diamond (K4 minus one edge, gamma3 = 3, kappa = 2,
so gamma3+kappa = 5 = 2*4-3), whose sum the test certifies with the naive
oracles.  check-theorem 3.3 confirms the three published graphs and
reports the diamond's canonical form under `missing`.
"""

import time

from kdom import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    friendship,
    join,
    path,
    remove_matching,
)
from kdom.catalog import checked_catalog
from kdom.cli import main
from kdom.connectivity import vertex_connectivity
from kdom.domination import gamma3, gamma_k
from kdom.enumeration import connected_graphs
from kdom.graphs import attach_pendant_paths, graph6_encode
from kdom.isomorphism import canonical_graph6
from kdom.verifier import characterize, check_theorem, verify_bound

from oracles import (
    all_matchings,
    brute_force_connectivity,
    labeled_connected_canonical,
    naive_min_dominating,
)

G1 = Graph.from_edges(6, cycle(6).edges() + [(0, 3), (1, 4), (2, 5)])
G2 = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (2, 5), (3, 5), (4, 5), (1, 4)])


def report(num, desc):
    def decorate(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {num:2d}: FAIL  {desc}")
                raise
            print(f"criterion {num:2d}: PASS  {desc}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


def canon_set(doc):
    return {r["g6"] for level in doc["levels"] for r in level["extremal"]}


@report(1, "exact solver values on the named graphs (< 1 s)")
def test_criterion_01_named_graph_values():
    start = time.monotonic()
    for n in range(3, 9):
        assert gamma3(complete(n)).number == 3
    for n in range(3, 10):
        assert gamma3(path(n)).number == n
        assert gamma3(cycle(n)).number == n
    assert gamma3(G1).number == 3
    assert gamma3(G2).number == 4
    assert gamma3(remove_matching(complete(6), [(0, 1), (2, 3), (4, 5)])).number == 4
    assert gamma3(remove_matching(complete(8), [(0, 1), (2, 3), (4, 5), (6, 7)])).number == 4
    for n in range(5, 9):
        for matching in all_matchings(n):
            if n % 2 == 0 and len(matching) == n // 2:
                continue
            assert gamma3(remove_matching(complete(n), matching)).number == 3
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@report(2, "gamma3=n iff max_degree<=2, 3<=gamma3<=n, kappa<=min_degree over n=3..7 (< 30 s)")
def test_criterion_02_equivalence_audit():
    from kdom.graphs import max_degree, min_degree

    start = time.monotonic()
    checked = 0
    for n in range(3, 8):
        for g in connected_graphs(n):
            checked += 1
            g3 = gamma3(g).number
            assert (g3 == n) == (max_degree(g) <= 2), graph6_encode(g)
            assert 3 <= g3 <= n, graph6_encode(g)
            assert vertex_connectivity(g).kappa <= min_degree(g), graph6_encode(g)
    assert checked == 2 + 6 + 21 + 112 + 853
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@report(3, "gamma3+kappa <= 2n-1 for all connected graphs n <= 8; equality = {K3} (< 3 min)")
def test_criterion_03_bound():
    start = time.monotonic()
    rep = verify_bound(8)
    assert rep["violations"] == []
    assert rep["equality"] == [canonical_graph6(complete(3))]
    assert rep["graphs_checked"] == 2 + 6 + 21 + 112 + 853 + 11117
    elapsed = time.monotonic() - start
    assert elapsed < 180.0, f"took {elapsed:.2f}s"


@report(4, "offset-2 extremal set at n<=8 is exactly {K{1,2}, C4, K4}")
def test_criterion_04_theorem_32():
    got = canon_set(characterize(2, 8))
    want = {
        canonical_graph6(complete_bipartite(1, 2)),
        canonical_graph6(cycle(4)),
        canonical_graph6(complete(4)),
    }
    assert got == want


@report(5, "offset-3 extremal set at n<=8 is {P4, K5, C5} plus the diamond K4-e, which 3.3 misses")
def test_criterion_05_theorem_33():
    diamond = remove_matching(complete(4), [(0, 1)])
    g3, _ = naive_min_dominating(diamond, 3, "k-domination")
    assert g3 + brute_force_connectivity(diamond) == 2 * diamond.n - 3
    published = {
        canonical_graph6(path(4)),
        canonical_graph6(complete(5)),
        canonical_graph6(cycle(5)),
    }
    diamond_g6 = canonical_graph6(diamond)
    assert canon_set(characterize(3, 8)) == published | {diamond_g6}
    rep = check_theorem("3.3", 8)
    assert rep["confirmed"] == ["C5", "K5", "P4"]
    assert rep["extra"] == []
    assert rep["missing"] == [diamond_g6]


@report(6, "offset-4 set contains the ten named graphs; extra reports P4 at sum 2n-3")
def test_criterion_06_theorem_34_audit():
    got = canon_set(characterize(4, 8))
    named = {
        "K6": complete(6),
        "K6-PM": remove_matching(complete(6), [(0, 1), (2, 3), (4, 5)]),
        "C6": cycle(6),
        "K5-e": remove_matching(complete(5), [(0, 1)]),
        "K5-2e": remove_matching(complete(5), [(0, 1), (2, 3)]),
        "P5": path(5),
        "C3(P2,0,0)": attach_pendant_paths(cycle(3), [(0, 1, 2)]),
        "K{1,3}": complete_bipartite(1, 3),
        "K1+P4": join(complete(1), path(4)),
        "C5+e": Graph.from_edges(5, cycle(5).edges() + [(0, 2)]),
    }
    for name, g in named.items():
        assert canonical_graph6(g) in got, name
    rep = check_theorem("3.4", 8)
    extras = {e["name"]: e["computed_sum"] for e in rep["extra"]}
    assert extras.get("P4") == 2 * 4 - 3


@report(7, "offset-5 set contains the thirteen named graphs; extra has C6; T graphs all accounted")
def test_criterion_07_theorem_35_audit():
    got = canon_set(characterize(5, 8))
    named = {
        "K7": complete(7),
        "C7": cycle(7),
        "P6": path(6),
        "K{2,3}": complete_bipartite(2, 3),
        "K2+3K1": join(complete(2), Graph(3, (0, 0, 0))),
        "F2": friendship(2),
        "K{1,4}": complete_bipartite(1, 4),
        "C4(P2,0,0,0)": attach_pendant_paths(cycle(4), [(0, 1, 2)]),
        "P3(0,P3,0)": attach_pendant_paths(path(3), [(1, 1, 3)]),
        "C3(2P2,0,0)": attach_pendant_paths(cycle(3), [(0, 2, 2)]),
        "C3(P2,P2,0)": attach_pendant_paths(cycle(3), [(0, 1, 2), (1, 1, 2)]),
        "H1": None,  # via the catalog below
        "H2": None,
    }
    entries, _ = checked_catalog()
    for e in entries:
        if e.theorem == "3.5" and e.name in ("H1", "H2"):
            named[e.name] = e.graph
    for name, g in named.items():
        assert canonical_graph6(g) in got, name
    rep = check_theorem("3.5", 8)
    assert any(e["name"] == "C6" for e in rep["extra"])
    noted = {nt["entry"] for nt in rep["notes"]}
    for i in range(1, 13):
        name = f"T{i}"
        assert name in rep["confirmed"] or name in noted, f"{name} silently unaccounted"


@report(8, "solvers equal the naive oracles (gamma_k at n<=6, kappa at n<=7)")
def test_criterion_08_oracle_equivalence():
    for n in range(1, 7):
        for g in connected_graphs(n):
            for k in (1, 2, 3):
                for variant in ("k-domination", "k-tuple"):
                    res = gamma_k(g, k, variant)
                    expect = naive_min_dominating(g, k, variant)
                    if expect is None:
                        assert not res.feasible, (graph6_encode(g), k, variant)
                    else:
                        assert (res.number, res.witness) == expect, (graph6_encode(g), k, variant)
    for n in range(1, 8):
        for g in connected_graphs(n):
            assert vertex_connectivity(g).kappa == brute_force_connectivity(g), graph6_encode(g)


@report(9, "level counts are 1,1,2,6,21,112,853,11117; n<=6 cross-checked against labeled brute force")
def test_criterion_09_enumeration_fixtures():
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
    for n, count in expected.items():
        assert len(connected_graphs(n)) == count
    for n in range(1, 7):
        want = labeled_connected_canonical(n, canonical_graph6)
        got = {graph6_encode(g) for g in connected_graphs(n)}
        assert got == want


@report(10, "check-theorem 3.4 --max-n 8 --json is byte-identical across runs")
def test_criterion_10_determinism():
    import contextlib
    import io

    def run_once():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["check-theorem", "3.4", "--max-n", "8", "--json"])
        assert code == 0
        return buf.getvalue().encode()

    assert run_once() == run_once()
