from functools import lru_cache

import pytest

from kdom import Graph, enumeration, graph6_encode, is_connected, split, verifier
from kdom.enumeration import connected_graphs
from kdom.isomorphism import _twins, canonical_graph6, is_lex_min

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


def reference_level(parents, m):
    """Every child of parents on m vertices whose identity labeling is lex-min, tested by is_lex_min alone."""
    new = m - 1
    kept = []
    for parent in parents:
        for col in range(1 << new):  # ascending new columns, vertex 0's bit first
            sub = sum(1 << v for v in range(new) if col >> (new - 1 - v) & 1)
            rows = [row | 1 << new if sub >> v & 1 else row for v, row in enumerate(parent.adj)] + [sub]
            if is_lex_min(rows):
                kept.append(Graph(m, rows))
    return tuple(kept)


def fresh_caches(monkeypatch):
    """Empty level caches for connected_graphs, holding level 1 only."""
    monkeypatch.setattr(enumeration, "_all_levels", {1: enumeration._all_levels[1]})
    monkeypatch.setattr(enumeration, "_levels", {1: enumeration._all_levels[1]})


def test_extend_level_equals_the_plain_reference():
    # the three shortcuts keep exactly the children that is_lex_min alone keeps
    parents = enumeration._all_levels[1]
    for m in range(2, 8):
        full = reference_level(parents, m)
        assert enumeration._extend_level(parents, m) == full
        assert enumeration._extend_level(parents, m, top=True) == tuple(g for g in full if is_connected(g))
        parents = full


def test_handed_down_twin_table_is_the_childs_own(monkeypatch):
    handed = []
    real = enumeration._smaller_prefix

    def placement_search(adj, twins):
        handed.append((tuple(adj), twins))
        return real(adj, twins)

    monkeypatch.setattr(split, "_cpus", lambda: 1)  # every search in this process
    monkeypatch.setattr(enumeration, "_smaller_prefix", placement_search)
    parents = enumeration._all_levels[1]
    for m in range(2, 8):
        parents = enumeration._extend_level(parents, m)
    assert len(handed) == 2 + 4 + 11 + 43 + 223 + 1709  # the searches left after the twin swaps
    assert all(twins == _twins(rows) for rows, twins in handed)


def test_levels_equal_whatever_order_they_are_asked_in(monkeypatch):
    fresh_caches(monkeypatch)
    ascending = [connected_graphs(n) for n in range(1, 9)]
    fresh_caches(monkeypatch)
    top_first = [connected_graphs(8)] + [connected_graphs(n) for n in range(1, 8)]
    assert ascending == top_first[1:] + top_first[:1]


def test_verify_bound_builds_each_level_once(monkeypatch):
    fresh_caches(monkeypatch)
    # an empty records cache, or levels cached by earlier tests would skip the build
    monkeypatch.setattr(verifier, "level_records", lru_cache(verifier.level_records.__wrapped__))
    built = []
    real = enumeration._extend_level

    def extend_level(parents, m, top=False):
        built.append(m)
        return real(parents, m, top)

    monkeypatch.setattr(enumeration, "_extend_level", extend_level)
    assert verifier.verify_bound(7)["graphs_checked"] == 2 + 6 + 21 + 112 + 853
    assert built == [2, 3, 4, 5, 6, 7]
