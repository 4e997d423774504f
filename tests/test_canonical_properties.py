"""Property tests of canonical_form on generated graphs up to 14 vertices.

brute_min_graph6 is the definition for n <= 7; above that the checks are
relabeling invariance and, with networkx, agreement with an independent
isomorphism test on pairs that share a degree sequence.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from kdom import Graph, graph6_decode
from kdom.isomorphism import canonical_form, canonical_graph6, is_lex_min

from oracles import brute_min_graph6

PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def relabeled(draw, max_n):
    g = draw(graphs(max_n))
    p = draw(st.permutations(range(g.n)))
    return g, Graph.from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])


def _swapped(g, picks):
    """g after degree-preserving swaps ab, cd -> ac, bd or ad, bc, chosen by picks."""
    edges = set(g.edges())
    for pick in picks:
        options = []
        for (a, b), (c, d) in combinations(sorted(edges), 2):
            if len({a, b, c, d}) == 4:
                for x, y in (((a, c), (b, d)), ((a, d), (b, c))):
                    x, y = tuple(sorted(x)), tuple(sorted(y))
                    if x not in edges and y not in edges:
                        options.append(({(a, b), (c, d)}, {x, y}))
        if not options:
            break
        old, new = options[pick % len(options)]
        edges = (edges - old) | new
    return Graph.from_edges(g.n, sorted(edges))


@settings(PROPERTY, max_examples=150)
@given(relabeled(14))
def test_canonical_form_is_relabeling_invariant(pair):
    g, h = pair
    cf = canonical_form(h)
    assert cf.canon_graph6 == canonical_graph6(g)
    canon = graph6_decode(cf.canon_graph6)
    relab = cf.relabeling
    assert Graph.from_edges(h.n, [(relab[u], relab[v]) for u, v in h.edges()]) == canon
    assert is_lex_min(canon.adj)


@settings(PROPERTY, max_examples=40)
@given(graphs(7))
def test_canonical_graph6_is_the_brute_force_minimum(g):
    assert canonical_graph6(g) == brute_min_graph6(g)


@settings(PROPERTY, max_examples=150)
@given(relabeled(14), st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
def test_equal_strings_exactly_when_networkx_finds_an_isomorphism(pair, picks):
    nx = pytest.importorskip("networkx")
    g, h = pair
    h = _swapped(h, picks)
    assert sorted(map(g.degree, range(g.n))) == sorted(map(h.degree, range(h.n)))
    gx, hx = nx.Graph(), nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    hx.add_nodes_from(range(h.n))
    hx.add_edges_from(h.edges())
    assert (canonical_graph6(g) == canonical_graph6(h)) == nx.is_isomorphic(gx, hx)
