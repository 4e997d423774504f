import hashlib
import random
from functools import reduce
from itertools import combinations

import pytest

from kdom import Graph, complete, complete_bipartite, cycle, disjoint_union, friendship, path, remove_matching, wheel
from kdom import domination
from kdom.domination import VARIANTS, DominationResult, gamma3, gamma_k, is_k_dominating, is_k_tuple_dominating
from kdom.enumeration import connected_graphs
from kdom.graphs import is_connected

from oracles import frontier_min_dominating, naive_min_dominating, random_graph

G1 = Graph.from_edges(6, cycle(6).edges() + [(0, 3), (1, 4), (2, 5)])
G2 = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (2, 5), (3, 5), (4, 5), (1, 4)])


# ---------------------------------------------------------------------------
# Checkers


def test_g1_claimed_witness():
    assert is_k_dominating(G1, {0, 2, 4}, 3)


def test_full_vertex_set_always_k_dominates():
    rng = random.Random(20)
    for _ in range(30):
        g = random_graph(rng.randint(1, 8), rng)
        assert is_k_dominating(g, range(g.n), rng.randint(1, 4))
        assert is_k_tuple_dominating(g, range(g.n), 1)


def test_c5_no_four_subset_3_dominates():
    c5 = cycle(5)
    for s in combinations(range(5), 4):
        assert not is_k_dominating(c5, s, 3)


def test_k_tuple_checker():
    for s in combinations(range(3), 2):
        assert is_k_tuple_dominating(complete(3), s, 2)
    assert not is_k_tuple_dominating(path(3), {0, 2}, 2)


def test_checker_input_validation():
    with pytest.raises(ValueError):
        is_k_dominating(path(3), {3}, 1)
    with pytest.raises(ValueError):
        is_k_dominating(path(3), {0}, 0)
    with pytest.raises(ValueError):
        is_k_tuple_dominating(path(3), {3}, 1)
    with pytest.raises(ValueError):
        is_k_tuple_dominating(path(3), {0}, 0)


# ---------------------------------------------------------------------------
# Exact solver against the published values


def test_gamma3_complete_graphs():
    for n in range(3, 9):
        assert gamma3(complete(n)).number == 3


def test_gamma3_paths_and_cycles_equal_n():
    for n in range(3, 9):
        assert gamma3(path(n)).number == n
        assert gamma3(cycle(n)).number == n


def test_gamma3_example_figures():
    assert gamma3(G1).number == 3
    assert gamma3(G2).number == 4
    # the claimed S2 = {v3,v4,v5,v6} is not actually 3-dominating
    assert not is_k_dominating(G2, {2, 3, 4, 5}, 3)
    assert gamma3(G2).witness == (1, 2, 3, 4)


def test_gamma3_matching_removals():
    assert gamma3(remove_matching(complete(6), [(0, 1), (2, 3), (4, 5)])).number == 4
    assert gamma3(remove_matching(complete(5), [(0, 1), (2, 3)])).number == 3
    assert gamma3(remove_matching(complete(8), [(0, 1), (2, 3), (4, 5), (6, 7)])).number == 4


def test_gamma3_assorted():
    assert gamma3(wheel(6)).number == 4
    res = gamma_k(complete_bipartite(2, 3), 3, "k-domination")
    assert res.number == 3 and res.witness == (2, 3, 4)
    paw = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert gamma3(paw).number == 3


def test_cycles_and_paths_closed_forms():
    # gamma(C_n) = gamma(P_n) = ceil(n/3), double domination of C_n is ceil(2n/3)
    for n in [*range(3, 31), 40, 46]:
        for g in (cycle(n), path(n)):
            res = gamma_k(g, 1, "k-domination")
            assert res.number == -(-n // 3), (g, n)
            assert is_k_dominating(g, res.witness, 1)
        res = gamma_k(cycle(n), 2, "k-tuple")
        assert res.number == -(-2 * n // 3), n
        assert is_k_tuple_dominating(cycle(n), res.witness, 2)
        # every vertex has degree < 3, so the forced rule takes all of C_n
        assert gamma_k(cycle(n), 3, "k-tuple") == DominationResult(n, tuple(range(n)), "k-tuple", 3)
    # double domination of P_n is 2*ceil(n/3), plus one when 3 divides n;
    # both ends are forced
    for n in [*range(2, 31), 40]:
        res = gamma_k(path(n), 2, "k-tuple")
        assert res.number == 2 * -(-n // 3) + (n % 3 == 0), n
        assert is_k_tuple_dominating(path(n), res.witness, 2)


def test_small_graphs_take_whole_vertex_set():
    assert gamma3(path(1)).number == 1
    assert gamma3(path(2)).number == 2


def test_infeasible_k_tuple():
    res = gamma_k(path(3), 3, "k-tuple")
    assert res == DominationResult(None, None, "k-tuple", 3, feasible=False)
    assert gamma_k(path(1), 2, "k-tuple").feasible is False


def test_variant_is_mandatory_and_validated():
    with pytest.raises(ValueError):
        gamma_k(path(3), 1, "domination")
    with pytest.raises(TypeError):
        gamma_k(path(3), 1)
    with pytest.raises(ValueError):
        gamma_k(Graph(0, ()), 1, "k-domination")
    # the variant is checked first, then k, then the graph
    with pytest.raises(ValueError, match="unknown variant 'domination'"):
        gamma_k(Graph(0, ()), 0, "domination")
    with pytest.raises(ValueError, match="k must be >= 1"):
        gamma_k(Graph(0, ()), 0, "k-tuple")


# ---------------------------------------------------------------------------
# Properties


def test_monotone_in_k():
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng.randint(1, 7), rng, p=rng.random())
        for variant in ("k-domination", "k-tuple"):
            prev = None
            for k in (1, 2, 3):
                res = gamma_k(g, k, variant)
                if not res.feasible:
                    prev = None
                    continue
                if prev is not None:
                    assert prev <= res.number
                prev = res.number


def test_witnesses_pass_their_checker():
    rng = random.Random(22)
    for _ in range(60):
        g = random_graph(rng.randint(1, 8), rng, p=rng.random())
        for k in (1, 2, 3):
            res = gamma_k(g, k, "k-domination")
            assert is_k_dominating(g, res.witness, k)
            assert len(res.witness) == res.number
            tup = gamma_k(g, k, "k-tuple")
            if tup.feasible:
                assert is_k_tuple_dominating(g, tup.witness, k)


PETERSEN = Graph.from_edges(
    10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)


def tied_graphs():
    """Graphs with many minimum sets, where only the lex-min one is the witness."""
    c4 = cycle(4)
    yield from (cycle(n) for n in range(3, 13))
    yield from (path(n) for n in range(2, 13))
    yield from (complete_bipartite(a, b) for a in range(1, 6) for b in range(1, 6))
    yield from (disjoint_union(c4, c4), disjoint_union(c4, disjoint_union(c4, c4)), PETERSEN)


def test_oracle_equivalence_random():
    rng = random.Random(23)
    graphs = [random_graph(rng.randint(1, 12), rng, p=rng.random()) for _ in range(50)]
    # sparse disconnected graphs, whose components gamma_k solves one at a time
    sparse = (random_graph(rng.randint(2, 12), rng, p=rng.uniform(0.1, 0.4)) for _ in range(50))
    graphs += [g for g in sparse if not is_connected(g)]
    cases = [(g, k) for g in graphs + list(tied_graphs()) for k in (1, 2, 3)]
    # a node with room for one more vertex takes the lowest vertex that serves
    # every deficient vertex (module docstring); stars, friendship graphs and
    # wheels reach each of its cases: a vertex one short served by its row,
    # one short by two or more served only by itself (k-domination) or by
    # nothing (k-tuple), and a one-vertex completion that only ties the
    # incumbent with a higher mask
    closed_form = [complete_bipartite(1, m) for m in range(1, 10)]
    closed_form += [friendship(m) for m in range(1, 6)] + [wheel(n) for n in range(4, 12)]
    cases += [(g, k) for g in closed_form for k in (1, 2, 3, 4)]
    for g, k in cases:
        for variant in VARIANTS:
            res = gamma_k(g, k, variant)
            expect = naive_min_dominating(g, k, variant)
            if expect is None:
                assert not res.feasible
            else:
                assert (res.number, res.witness) == expect, (g, k, variant)


def test_components_are_searched_apart(monkeypatch):
    # every search runs on the graph's own rows; a connected input is one
    # search over all of V, a disconnected one a search per component
    calls = []
    search = domination._search

    def recording(rows, k, exempt, forced, part):
        calls.append((rows, part))
        return search(rows, k, exempt, forced, part)

    monkeypatch.setattr(domination, "_search", recording)
    gamma_k(PETERSEN, 3, "k-domination")
    assert calls == [(list(PETERSEN.adj), (1 << 10) - 1)]
    calls.clear()
    g = Graph.from_edges(5, [(0, 2), (1, 3), (3, 4)])  # components {0, 2} and {1, 3, 4}
    res = gamma_k(g, 1, "k-domination")
    assert calls == [(list(g.adj), 0b00101), (list(g.adj), 0b11010)]
    assert (res.number, res.witness) == (2, (0, 3))


def test_frontier_oracle_on_families():
    # the frontier dynamic program agrees with the subset scan on small
    # graphs, then checks gamma_k's number and lex-min witness on families
    # past the scan's reach, in orders that keep the frontier narrow
    pairs = ((1, "k-domination"), (2, "k-domination"), (3, "k-domination"), (2, "k-tuple"), (3, "k-tuple"))
    for g in (g for n in range(1, 6) for g in connected_graphs(n)):
        for k, variant in pairs:
            assert frontier_min_dominating(g, k, variant) == naive_min_dominating(g, k, variant)
    c4 = cycle(4)
    cases = [(cycle(n), None) for n in (20, 31, 40)] + [(path(n), None) for n in (20, 31, 40)]
    cases += [(wheel(n), [n - 1, *range(n - 1)]) for n in (20, 31, 40)]  # hub first
    cases += [(friendship(m), None) for m in (6, 10, 14)]
    cases += [(reduce(disjoint_union, [c4] * m), None) for m in (2, 3, 5, 8, 15)]
    checks = [(g, order, k, variant) for g, order in cases for k, variant in pairs]
    checks += [(g, None, 3, "k-domination") for g in (cycle(62), path(62))]
    for g, order, k, variant in checks:
        res = gamma_k(g, k, variant)
        want = (res.number, res.witness) if res.feasible else None
        assert frontier_min_dominating(g, k, variant, order) == want, (g.n, k, variant)


def test_search_golden_digest():
    # one SHA-256 over every (number, witness, feasible) of levels 1..7 and
    # a seeded sample of random graphs with 8..16 vertices, for the five
    # (k, variant) pairs: a faster search must return every witness,
    # ties included, exactly as before
    rng = random.Random(17)
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    graphs += [random_graph(rng.randint(8, 16), rng, p=rng.random()) for _ in range(100)]
    digest = hashlib.sha256()
    for g in graphs:
        for k, variant in ((1, "k-domination"), (2, "k-domination"), (3, "k-domination"), (2, "k-tuple"), (3, "k-tuple")):
            res = gamma_k(g, k, variant)
            digest.update(repr((res.number, res.witness, res.feasible)).encode())
    assert digest.hexdigest() == "3cc806f8b910adf8aff35f2edc6ef526f366a3a1fc269166253113b18eb0d1cb"
