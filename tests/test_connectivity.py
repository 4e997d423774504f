import hashlib
import random
from itertools import combinations, permutations

import pytest

from kdom import (
    Graph,
    build_family,
    complete,
    complete_bipartite,
    connected_graphs,
    cycle,
    disjoint_union,
    friendship,
    graph6_decode,
    join,
    min_degree,
    path,
    wheel,
)
from kdom.connectivity import CutResult, _max_flow_vertex_cut, kappa, vertex_connectivity

from oracles import _connected_after_removal, brute_force_connectivity, brute_force_cut, closest_min_cut, random_graph


# SHA-256 of repr((kappa, cut, separated)) over connected_graphs(3..8) and
# kappa_corpus(), pinned while kappa still ran its flows on an explicit
# vertex-split digraph
GOLDEN_KAPPA_SHA256 = "8b4d252c021de1f6b542c11d908718983a9ecbfcf40034990d70ea44f65226b1"
LARGE_FAMILIES = (
    "C62",
    "P62",
    "W62",
    "complement(C62)",
    "minus_matching(K62,perfect)",
    "K{31,31}",
    "join(C31,C31)",
)


def kappa_corpus():
    """300 seeded G(n, p) graphs with n in 2..62, then the dense and sparse
    62-vertex families."""
    rng = random.Random(12)
    graphs = [random_graph(rng.randint(2, 62), rng, p=rng.random()) for _ in range(300)]
    return graphs + [build_family(text) for text in LARGE_FAMILIES]


def test_known_values():
    assert vertex_connectivity(path(4)).kappa == 1
    assert vertex_connectivity(path(5)).kappa == 1
    assert vertex_connectivity(cycle(4)).kappa == 2
    assert vertex_connectivity(cycle(6)).kappa == 2
    assert vertex_connectivity(complete_bipartite(1, 3)).kappa == 1
    assert vertex_connectivity(friendship(2)).kappa == 1
    assert vertex_connectivity(wheel(6)).kappa == 3


def test_complete_graph_convention():
    res = vertex_connectivity(complete(5))
    assert res.kappa == 4 and res.cut == () and res.separated is None
    assert vertex_connectivity(complete(1)).kappa == 0
    assert vertex_connectivity(complete(2)).kappa == 1


def test_k23_cut_is_small_part():
    res = vertex_connectivity(complete_bipartite(2, 3))
    assert res.kappa == 2
    assert res.cut == (0, 1)


def test_disconnected_input():
    res = vertex_connectivity(disjoint_union(complete(3), complete(3)))
    assert res.kappa == 0 and res.cut == ()
    assert res.separated == (0, 3)
    assert vertex_connectivity(Graph.from_edges(3, [(1, 2)])) == CutResult(0, (), (0, 1))
    three = disjoint_union(disjoint_union(path(2), complete(1)), cycle(3))
    assert vertex_connectivity(three) == CutResult(0, (), (0, 2))
    assert vertex_connectivity(Graph(0, ())).kappa == 0


def test_kappa_without_the_certificate_special_cases():
    # empty, complete and disconnected inputs: the scan finds no non-adjacent pair, or one of value 0
    texts = ("K1", "K2", "K62", "union(C4,C4)", "union(C31,C31)")
    graphs = [Graph(0, ()), Graph.from_edges(4, [(1, 2), (2, 3)])] + [build_family(text) for text in texts]
    assert [kappa(g) for g in graphs] == [0, 0, 0, 1, 61, 0, 0]
    for g in graphs:
        assert kappa(g) == vertex_connectivity(g).kappa


def test_brute_force_values():
    assert brute_force_connectivity(cycle(6)) == 2
    assert brute_force_connectivity(complete(4)) == 3
    assert brute_force_connectivity(path(2)) == 1
    assert brute_force_connectivity(Graph(1, (0,))) == 0
    with pytest.raises(ValueError):
        brute_force_connectivity(complete(13))


def test_cut_certificate_disconnects():
    rng = random.Random(30)
    for _ in range(80):
        g = random_graph(rng.randint(2, 8), rng, p=rng.random())
        res = vertex_connectivity(g)
        if res.separated is None:
            continue  # complete graph, no cut
        assert not _connected_after_removal(g, set(res.cut))
        assert len(res.cut) == res.kappa
        u, v = res.separated
        assert u not in res.cut and v not in res.cut


def test_flow_equals_brute_force_random():
    rng = random.Random(31)
    for _ in range(120):
        g = random_graph(rng.randint(1, 7), rng, p=rng.random())
        assert vertex_connectivity(g).kappa == brute_force_connectivity(g)
        assert kappa(g) == brute_force_connectivity(g)


def test_cut_matches_brute_force_certificate():
    rng = random.Random(33)
    graphs = [random_graph(rng.randint(1, 9), rng, p=rng.uniform(0.3, 0.95)) for _ in range(150)]
    graphs += [cycle(n) for n in range(3, 10)] + [wheel(n) for n in range(4, 10)]
    graphs += [complete_bipartite(3, 3), complete_bipartite(2, 4), path(6), complete_bipartite(1, 5), complete(4)]
    # K_{3,4} plus a perfect matching on the 4-side is 4-regular with kappa 3
    # (cut {0, 1, 2}), but the flows from vertex 0 to its non-neighbours 1
    # and 2 read 4: only the flows between neighbours of 0 find 3
    graphs.append(Graph.from_edges(7, complete_bipartite(3, 4).edges() + [(3, 4), (5, 6)]))
    # an augmenting path that enters v_in from v_out undoes v's split arc:
    # kappa runs that step on the first graph, the certificate scan on the second
    graphs += [graph6_decode("JSOgcPGK`P?"), graph6_decode("J_x@hOHECh?")]
    for g in graphs:
        expected = CutResult(*brute_force_cut(g))
        assert vertex_connectivity(g) == expected, g.edges()
        assert kappa(g) == expected.kappa, g.edges()


def test_kernel_returns_the_closest_minimum_cut():
    # every ordered non-adjacent pair up to n = 7, not only the pairs where
    # kappa or the certificate scan stop: the value and the cut are the
    # pair's own, whatever flow the kernel found
    for n in range(3, 8):
        for g in connected_graphs(n):
            for s, t in permutations(range(n), 2):
                if not g.adj[s] >> t & 1:
                    assert _max_flow_vertex_cut(g.adj, s, t, n) == closest_min_cut(g, s, t), (g.edges(), s, t)


def test_kappa_at_most_min_degree():
    rng = random.Random(32)
    for _ in range(80):
        g = random_graph(rng.randint(2, 8), rng, p=rng.random())
        assert vertex_connectivity(g).kappa <= min_degree(g)


def test_join_with_k1_increments_kappa():
    for g in (path(4), cycle(5), complete_bipartite(2, 3), complete_bipartite(1, 3)):
        assert vertex_connectivity(join(complete(1), g)).kappa == vertex_connectivity(g).kappa + 1


def test_outputs_match_golden_digest():
    graphs = [g for n in range(3, 9) for g in connected_graphs(n)] + kappa_corpus()
    digest = hashlib.sha256()
    for g in graphs:
        res = vertex_connectivity(g)
        digest.update(repr((res.kappa, res.cut, res.separated)).encode())
    assert digest.hexdigest() == GOLDEN_KAPPA_SHA256


def test_networkx_cross_check_beyond_brute_force():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import build_auxiliary_node_connectivity, local_node_connectivity

    rng = random.Random(34)
    for _ in range(40):
        g = random_graph(rng.randint(10, 30), rng, p=rng.uniform(0.15, 0.9))
        G = nx.Graph(g.edges())
        G.add_nodes_from(range(g.n))
        res = vertex_connectivity(g)
        assert res.kappa == nx.node_connectivity(G), g.edges()
        assert len(res.cut) == res.kappa
        if res.separated is None:
            assert g.edge_count() == g.n * (g.n - 1) // 2
            continue
        assert not _connected_after_removal(g, set(res.cut))
        aux = build_auxiliary_node_connectivity(G)
        for s, t in combinations(range(g.n), 2):
            if (s, t) == res.separated:
                break
            if not g.has_edge(s, t):
                assert local_node_connectivity(G, s, t, auxiliary=aux) > res.kappa, (g.edges(), s, t)


def test_dense_62_vertex_closed_forms():
    expected = {"complement(C62)": 59, "minus_matching(K62,perfect)": 60, "K{31,31}": 31, "join(C31,C31)": 33}
    for text, kappa in expected.items():
        g = build_family(text)
        res = vertex_connectivity(g)
        assert res.kappa == kappa and len(res.cut) == kappa, text
        assert not _connected_after_removal(g, set(res.cut)), text
