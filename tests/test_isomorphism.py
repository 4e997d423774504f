import hashlib
import random
import time
from itertools import combinations

import pytest

from kdom import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    graph6_decode,
    graph6_encode,
    path,
    remove_matching,
    wheel,
)
from kdom.enumeration import connected_graphs
from kdom.isomorphism import canonical_form, canonical_graph6, is_lex_min

from oracles import brute_min_graph6, labeled_connected_canonical, random_graph


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
        complete_bipartite(1, 5),
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
        assert is_lex_min(g.adj) == (graph6_encode(g) == brute_min_graph6(g))


def test_is_lex_min_on_canonical_and_relabeled_graphs():
    rng = random.Random(15)
    for _ in range(200):
        g = random_graph(rng.randint(1, 10), rng, p=rng.random())
        canon = canonical_graph6(g)
        assert is_lex_min(graph6_decode(canon).adj)
        h = permuted(g, rng)
        if graph6_encode(h) != canon:
            assert not is_lex_min(h.adj)


def test_permutation_invariance_500_trials():
    rng = random.Random(12)
    for _ in range(500):
        g = random_graph(rng.randint(2, 9), rng, p=rng.random())
        assert canonical_graph6(permuted(g, rng)) == canonical_graph6(g)


def test_relabeled_cycles_agree():
    c4a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c4b = Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert canonical_graph6(c4a) == canonical_graph6(c4b)


def test_k3_canonical_is_complete():
    cf = canonical_form(complete(3))
    assert cf.relabeling == (0, 1, 2)
    assert graph6_decode(cf.canon_graph6) == complete(3)


def test_different_degree_sequences_differ():
    assert canonical_graph6(path(4)) != canonical_graph6(complete_bipartite(1, 3))


def test_non_isomorphic_pairs():
    assert canonical_graph6(cycle(6)) != canonical_graph6(disjoint_union(complete(3), complete(3)))
    # same order, size and degree sequence (2, 2, 2, 3, 3); only the house has a triangle
    house = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert canonical_graph6(house) != canonical_graph6(complete_bipartite(2, 3))


def test_equivalence_relation_spot_checks():
    # equal canonical strings exactly when the brute-force minima are equal
    rng = random.Random(13)
    pool = [random_graph(6, rng, p=rng.random()) for _ in range(12)]
    pool += [permuted(g, rng) for g in pool]
    canon = [canonical_graph6(g) for g in pool]
    brute = [brute_min_graph6(g) for g in pool]
    for i in range(len(pool)):
        for j in range(len(pool)):
            assert (canon[i] == canon[j]) == (brute[i] == brute[j])


def test_21_connected_classes_on_5_vertices():
    assert len(labeled_connected_canonical(5, canonical_graph6)) == 21


def test_placement_search_golden_digest():
    # one SHA-256 over the levels 1..8 in order and the canonical forms of
    # a seeded sample of relabeled random graphs: a faster search must
    # reproduce every string, level order and relabeling exactly
    digest = hashlib.sha256()
    for n in range(1, 9):
        for g in connected_graphs(n):
            digest.update(graph6_encode(g).encode() + b"\n")
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(2, 12)
        g = permuted(random_graph(n, rng, p=rng.random()), rng)
        digest.update(repr(canonical_form(g)).encode() + b"\n")
    assert digest.hexdigest() == "950b6a5156327476b09b4c48cc16db47043daecda705752ab6f544f1a7d125a3"


def test_size_guard():
    with pytest.raises(ValueError):
        canonical_form(path(15))


def _heawood():
    # LCF notation [5, -5]^7: the 14-cycle plus a chord from each even i to i + 5
    return Graph.from_edges(14, cycle(14).edges() + [(i, (i + 5) % 14) for i in range(0, 14, 2)])


def _paley13():
    residues = {1, 3, 4, 9, 10, 12}
    return Graph.from_edges(13, [(i, j) for i, j in combinations(range(13), 2) if (j - i) % 13 in residues])


SYMMETRIC_14 = {
    "K{7,7}": complete_bipartite(7, 7),
    "2K7": disjoint_union(complete(7), complete(7)),
    "K{6,6}": complete_bipartite(6, 6),
    "K{4,5,5}": complement(disjoint_union(complete(4), disjoint_union(complete(5), complete(5)))),
    "K14-PM": remove_matching(complete(14), [(i, i + 1) for i in range(0, 14, 2)]),
    "Heawood": _heawood(),
    "Paley(13)": _paley13(),
    "C14": cycle(14),
    "14K1": Graph(14, [0] * 14),
    "K14": complete(14),
}


@pytest.mark.parametrize("name", SYMMETRIC_14)
def test_symmetric_graphs_up_to_14_vertices(name):
    # twin classes and vertex-transitive graphs, each within a few seconds
    rng = random.Random(16)
    g = SYMMETRIC_14[name]
    strings = set()
    for h in [g] + [permuted(g, rng) for _ in range(3)]:
        start = time.perf_counter()
        cf = canonical_form(h)
        assert time.perf_counter() - start < 5, name
        relab = cf.relabeling
        canon = graph6_decode(cf.canon_graph6)
        assert Graph.from_edges(h.n, [(relab[u], relab[v]) for u, v in h.edges()]) == canon
        assert is_lex_min(canon.adj)
        strings.add(cf.canon_graph6)
    assert len(strings) == 1, name
