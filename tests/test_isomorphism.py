import random
from itertools import combinations

import pytest

from kdom import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    graph6_decode,
    graph6_encode,
    path,
    star,
    wheel,
)
from kdom.isomorphism import canonical_form, canonical_graph6, is_isomorphic, is_lex_min

from oracles import brute_min_graph6, labeled_connected_canonical


def random_graph(n, rng, p=0.5):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def permuted(g, rng):
    p = list(range(g.n))
    rng.shuffle(p)
    return Graph.from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])


def test_relabeling_reproduces_canonical_graph():
    rng = random.Random(10)
    for _ in range(100):
        g = random_graph(rng.randint(1, 9), rng, p=rng.random())
        cf = canonical_form(g)
        relab = cf.relabeling
        h = Graph.from_edges(g.n, [(relab[u], relab[v]) for u, v in g.edges()])
        assert cf.canon_graph6 == canonical_graph6(graph6_decode(cf.canon_graph6))
        assert h == graph6_decode(cf.canon_graph6)


def test_matches_brute_force_minimum():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for _ in range(60):
            g = random_graph(n, rng, p=rng.random())
            assert canonical_graph6(g) == brute_min_graph6(g)
    for _ in range(40):
        g = random_graph(6, rng, p=rng.random())
        assert canonical_graph6(g) == brute_min_graph6(g)


def test_is_lex_min_matches_brute_force():
    rng = random.Random(14)
    symmetric = [
        Graph(6, [0] * 6),
        complete(6),
        star(5),
        cycle(6),
        wheel(6),
        complete_bipartite(3, 3),
        complete_bipartite(2, 4),
        disjoint_union(complete(3), complete(3)),
    ]
    graphs = [random_graph(rng.randint(1, 6), rng, p=rng.random()) for _ in range(300)]
    graphs += [permuted(g, rng) for g in symmetric for _ in range(4)]
    graphs += [graph6_decode(canonical_graph6(g)) for g in symmetric]
    for g in graphs:
        assert is_lex_min(g.n, g.adj) == (graph6_encode(g) == brute_min_graph6(g))


def test_is_lex_min_on_canonical_and_relabeled_graphs():
    rng = random.Random(15)
    for _ in range(200):
        g = random_graph(rng.randint(1, 10), rng, p=rng.random())
        canon = canonical_graph6(g)
        assert is_lex_min(g.n, graph6_decode(canon).adj)
        h = permuted(g, rng)
        if graph6_encode(h) != canon:
            assert not is_lex_min(h.n, h.adj)


def test_permutation_invariance_500_trials():
    rng = random.Random(12)
    for _ in range(500):
        g = random_graph(rng.randint(2, 9), rng, p=rng.random())
        assert canonical_graph6(permuted(g, rng)) == canonical_graph6(g)
        assert is_isomorphic(g, permuted(g, rng))


def test_relabeled_cycles_agree():
    c4a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c4b = Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert canonical_graph6(c4a) == canonical_graph6(c4b)


def test_k3_canonical_is_complete():
    cf = canonical_form(complete(3))
    assert cf.relabeling == (0, 1, 2)
    assert graph6_decode(cf.canon_graph6) == complete(3)


def test_different_degree_sequences_differ():
    assert canonical_graph6(path(4)) != canonical_graph6(star(3))


def test_non_isomorphic_pairs():
    assert not is_isomorphic(cycle(6), disjoint_union(complete(3), complete(3)))
    # C5 + chord has 6 edges, complement(P2 u P3) has 7: report the comparison
    c5_chord = Graph.from_edges(5, cycle(5).edges() + [(0, 2)])
    from kdom import complement

    assert not is_isomorphic(c5_chord, complement(disjoint_union(path(2), path(3))))


def test_equivalence_relation_spot_checks():
    rng = random.Random(13)
    pool = [random_graph(6, rng, p=rng.random()) for _ in range(12)]
    for g in pool:
        assert is_isomorphic(g, g)
    for g in pool:
        for h in pool:
            assert is_isomorphic(g, h) == is_isomorphic(h, g)
    for g in pool:
        for h in pool:
            for f in pool:
                if is_isomorphic(g, h) and is_isomorphic(h, f):
                    assert is_isomorphic(g, f)


def test_21_connected_classes_on_5_vertices():
    assert len(labeled_connected_canonical(5, canonical_graph6)) == 21


def test_size_guard():
    with pytest.raises(ValueError):
        canonical_form(path(15))
