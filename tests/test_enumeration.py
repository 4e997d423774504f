import pytest

from kdom import Graph, graph6_encode, is_connected
from kdom.enumeration import connected_graphs
from kdom.isomorphism import canonical_graph6

from oracles import labeled_connected_canonical

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}  # OEIS A001349


def test_level_counts_up_to_8():
    for n, count in EXPECTED_COUNTS.items():
        assert len(connected_graphs(n)) == count


def test_single_vertex_level():
    level = connected_graphs(1)
    assert len(level) == 1 and level[0].n == 1


def test_levels_are_connected_distinct_and_sorted():
    for n in range(1, 7):
        level = connected_graphs(n)
        strings = [graph6_encode(g) for g in level]
        assert all(is_connected(g) for g in level)
        assert strings == sorted(strings)
        assert len(set(strings)) == len(strings)
        # emitted labelings are canonical already
        assert all(canonical_graph6(g) == s for g, s in zip(level, strings))


def test_matches_labeled_brute_force_to_5():
    for n in range(1, 6):
        expect = labeled_connected_canonical(n, canonical_graph6)
        got = {graph6_encode(g) for g in connected_graphs(n)}
        assert got == expect


def test_matches_graph_atlas_to_7():
    # the atlas lists every graph on up to 7 nodes once, built without kdom
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    for n in range(1, 8):
        connected = [h for h in atlas if h.number_of_nodes() == n and nx.is_connected(h)]
        expect = sorted(canonical_graph6(Graph.from_edges(n, h.edges())) for h in connected)
        assert expect == [graph6_encode(g) for g in connected_graphs(n)]


def test_guards():
    with pytest.raises(ValueError):
        connected_graphs(0)
    with pytest.raises(ValueError, match="allow-large"):
        connected_graphs(9)
    with pytest.raises(ValueError, match="hard ceiling 9"):
        connected_graphs(10, allow_large=True)
    assert len(connected_graphs(3)) == 2
