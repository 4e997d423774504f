import random
import re
import tracemalloc
from itertools import combinations

import pytest

from kdom import (
    Graph,
    attach_pendant_paths,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    friendship,
    graph6_decode,
    graph6_encode,
    greedy_matching,
    is_connected,
    join,
    max_degree,
    min_degree,
    parse_edge_list,
    path,
    remove_matching,
    wheel,
)
from kdom.domination import is_k_dominating
from kdom.graphs import MAX_VERTICES, component

from oracles import random_graph


# ---------------------------------------------------------------------------
# Graph invariants and validation


def test_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))


def test_rejects_loops_and_out_of_range_bits():
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b01))
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))
    with pytest.raises(ValueError):
        Graph(63, tuple(0 for _ in range(63)))
    for call, message in (
        (lambda: Graph(2, (0,)), "expected 2 adjacency rows, got 1"),
        (lambda: complete(-1), "complete requires n >= 0"),
        (lambda: complete_bipartite(-1, 2), "complete_bipartite requires nonnegative part sizes"),
        (lambda: min_degree(Graph(0, ())), "min_degree of the empty graph is undefined"),
        (lambda: max_degree(Graph(0, ())), "max_degree of the empty graph is undefined"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_constructors_validate(on_sizes=(1, 2, 3, 5, 8)):
    rng = random.Random(0)
    for n in on_sizes:
        g = random_graph(n, rng)
        for v in range(n):
            assert not g.has_edge(v, v)
            for u in g.neighbors(v):
                assert g.has_edge(u, v)


# ---------------------------------------------------------------------------
# Families


def test_vertex_queries_reject_out_of_range_vertices():
    p3 = path(3)
    for call in (
        lambda: p3.neighbors(-1),
        lambda: p3.neighbors(7),
        lambda: p3.degree(3),
        lambda: p3.has_edge(-1, 1),
        lambda: p3.has_edge(0, 5),
        lambda: p3.has_edge(0, -1),
        lambda: p3.has_edge(3, 0),
    ):
        with pytest.raises(ValueError, match=r"outside 0\.\.2"):
            call()
    assert p3.neighbors(1) == (0, 2) and p3.has_edge(2, 1) and not p3.has_edge(0, 2)


def test_path():
    assert path(1).edges() == []
    p4 = path(4)
    assert p4.edges() == [(0, 1), (1, 2), (2, 3)]
    assert min_degree(p4) == 1 and max_degree(p4) == 2
    with pytest.raises(ValueError):
        path(0)


def test_cycle():
    assert cycle(3) == complete(3)
    c6 = cycle(6)
    assert c6.edge_count() == 6
    assert all(c6.degree(v) == 2 for v in range(6))
    with pytest.raises(ValueError):
        cycle(2)


def test_complete_and_bipartite():
    assert complete(4).edge_count() == 6
    k23 = complete_bipartite(2, 3)
    assert sorted(k23.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]
    assert complete_bipartite(1, 3).edge_count() == 3
    assert min_degree(complete_bipartite(1, 3)) == 1


def test_wheel():
    assert wheel(4) == Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
    w5 = wheel(5)
    assert w5.degree(4) == 4
    assert all(w5.degree(v) == 3 for v in range(4))
    with pytest.raises(ValueError):
        wheel(3)


def test_friendship():
    assert friendship(1).edge_count() == 3
    f2 = friendship(2)
    assert f2.n == 5 and f2.degree(0) == 4
    assert all(f2.degree(v) == 2 for v in range(1, 5))
    with pytest.raises(ValueError):
        friendship(0)


def test_families_match_their_definitions_up_to_the_cap():
    # every size the cap allows, against edge lists written from the definitions
    for n in range(4, MAX_VERTICES + 1):
        rim = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
        assert wheel(n) == Graph.from_edges(n, rim + [(i, n - 1) for i in range(n - 1)]), n
    for n in range(1, (MAX_VERTICES - 1) // 2 + 1):
        triangles = [e for i in range(n) for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))]
        assert friendship(n) == Graph.from_edges(2 * n + 1, triangles), n
    for m in range(MAX_VERTICES + 1):
        for n in range(MAX_VERTICES + 1 - m):
            cross = [(u, m + v) for u in range(m) for v in range(n)]
            assert complete_bipartite(m, n) == Graph.from_edges(m + n, cross), (m, n)
    for build, args in ((wheel, (63,)), (friendship, (31,)), (complete_bipartite, (40, 23))):
        with pytest.raises(ValueError):
            build(*args)


# each size takes 8-123 MB when the rows, the edges or a vertex's bit are built before the check
OVERSIZED_CALLS = {
    "path(10**6)": "vertex count 1000000 outside 0..62",
    "cycle(10**6)": "vertex count 1000000 outside 0..62",
    "wheel(10**6)": "vertex count 999999 outside 0..62",
    "friendship(5 * 10**5)": "vertex count 1000000 outside 0..62",
    "complete_bipartite(10**6, 1)": "vertex count 1000000 outside 0..62",
    "complete(20000)": "vertex count 20000 outside 0..62",
    "is_k_dominating(cycle(5), [10**8], 3)": "vertex subset [100000000] not contained in 0..4",
    "is_k_dominating(cycle(5), [-1], 3)": "vertex subset [-1] not contained in 0..4",
}


@pytest.mark.parametrize("call", OVERSIZED_CALLS)
def test_oversized_input_is_refused_before_it_is_built(call):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(OVERSIZED_CALLS[call])):
            eval(call)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_complement_involution():
    rng = random.Random(1)
    assert complement(complete(5)).edge_count() == 0
    for n in (1, 4, 7, 10):
        g = random_graph(n, rng)
        assert complement(complement(g)) == g


def test_union_and_join():
    rng = random.Random(2)
    assert not is_connected(disjoint_union(complete(3), complete(3)))
    for _ in range(20):
        g = random_graph(rng.randint(1, 6), rng)
        h = random_graph(rng.randint(1, 6), rng)
        j = join(g, h)
        assert j.edge_count() == g.edge_count() + h.edge_count() + g.n * h.n
    with pytest.raises(ValueError):
        disjoint_union(complete(40), complete(40))


def test_join_single_vertex_to_path():
    k1p4 = join(complete(1), path(4))
    assert k1p4.n == 5
    assert k1p4.degree(0) == 4


def test_h2_via_complement_of_union():
    h2 = complement(disjoint_union(path(3), path(2)))
    assert h2.n == 5 and h2.edge_count() == 7


def test_remove_matching():
    octa = remove_matching(complete(6), [(0, 1), (2, 3), (4, 5)])
    assert all(octa.degree(v) == 4 for v in range(6))
    assert remove_matching(complete(4), []) == complete(4)
    with pytest.raises(ValueError):
        remove_matching(complete(4), [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        remove_matching(path(3), [(0, 2)])
    for bad in ((0, 5), (-1, 1)):
        with pytest.raises(ValueError, match="is not an edge"):
            remove_matching(path(3), [bad])


def reference_greedy_matching(g, target):
    """The first matching in lexicographic edge order, or None when it stops short."""
    out = []
    used = set()
    for u, v in combinations(range(g.n), 2):
        if len(out) < target and g.has_edge(u, v) and not {u, v} & used:
            out.append((u, v))
            used |= {u, v}
    return out if len(out) == target else None


def test_greedy_matching():
    assert greedy_matching(complete(6), "perfect") == [(0, 1), (2, 3), (4, 5)]
    assert greedy_matching(complete(5), 2) == [(0, 1), (2, 3)]
    with pytest.raises(ValueError):
        greedy_matching(complete(5), "perfect")
    rng = random.Random(15)
    for _ in range(300):
        g = random_graph(rng.randint(0, 12), rng, rng.random())
        for size in list(range(g.n // 2 + 2)) + ["perfect"]:
            if size == "perfect" and g.n % 2:
                with pytest.raises(ValueError, match="even vertex count"):
                    greedy_matching(g, size)
                continue
            expected = reference_greedy_matching(g, g.n // 2 if size == "perfect" else size)
            if expected is None:
                with pytest.raises(ValueError, match="no greedy matching"):
                    greedy_matching(g, size)
            else:
                assert greedy_matching(g, size) == expected, (g, size)
        with pytest.raises(ValueError, match="nonnegative"):
            greedy_matching(g, -1)


def test_attach_pendant_paths():
    g = attach_pendant_paths(cycle(4), [(0, 1, 2), (1, 2, 3), (2, 1, 4), (3, 1, 3)])
    assert g.n == 4 + 1 + 2 * 2 + 3 + 2  # the worked 14-vertex example
    paw = attach_pendant_paths(cycle(3), [(0, 1, 2)])
    assert sorted(paw.degree(v) for v in range(4)) == [1, 2, 2, 3]
    spider = attach_pendant_paths(path(3), [(1, 1, 3)])
    assert spider.n == 5 and spider.degree(1) == 3
    with pytest.raises(ValueError):
        attach_pendant_paths(cycle(3), [(0, 1, 1)])
    with pytest.raises(ValueError):
        attach_pendant_paths(cycle(3), [(5, 1, 2)])


def test_attach_vertex_count_formula():
    rng = random.Random(3)
    for _ in range(25):
        base = random_graph(rng.randint(1, 5), rng)
        specs = []
        for v in range(base.n):
            if rng.random() < 0.5:
                specs.append((v, rng.randint(1, 2), rng.randint(2, 4)))
        if not specs:
            continue
        g = attach_pendant_paths(base, specs)
        assert g.n == base.n + sum(m * (l - 1) for _, m, l in specs)
        for v, m, _ in specs:
            assert g.degree(v) == base.degree(v) + m


def test_equal_graphs_hash_equal():
    built = [cycle(5), Graph.from_edges(5, [(4, 0), (3, 4), (2, 3), (1, 2), (0, 1)]), graph6_decode("Dhc")]
    assert built[0] == built[1] == built[2] and len({hash(g) for g in built}) == 1
    assert len({*built, path(5)}) == 2


def test_is_connected():
    assert is_connected(Graph(0, ()))
    assert is_connected(path(1))
    assert is_connected(path(9))
    assert not is_connected(Graph.from_edges(3, [(0, 1)]))
    g = Graph.from_edges(4, [(1, 2)])
    assert component(g, 1) == 0b0110 and component(g, 3) == 0b1000


# ---------------------------------------------------------------------------
# graph6


def test_graph6_known_values():
    assert graph6_encode(Graph.from_edges(2, [(0, 1)])) == "A_"
    assert graph6_encode(complete(4)) == "C~"
    assert graph6_decode("A_") == Graph.from_edges(2, [(0, 1)])
    assert graph6_decode("C~") == complete(4)
    assert graph6_encode(Graph(0, ())) == "?"
    assert graph6_decode("@") == Graph(1, (0,))


def test_graph6_round_trip_random():
    rng = random.Random(4)
    for _ in range(1000):
        g = random_graph(rng.randint(0, MAX_VERTICES), rng, p=rng.random())
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_malformed():
    cases = (
        ("", "empty graph6 string"),
        ("~??", "multi-byte graph6 size forms"),
        ("C", "graph6 body has 0 bytes, expected 1"),  # truncated body
        ("C~~", "graph6 body has 2 bytes, expected 1"),  # overlong body
        ("B" + chr(40), "graph6 byte '(' out of range"),  # byte below 63
        ("A" + chr(63 + 1), "nonzero padding bits"),
        # bytes above "~", first and last in the body; the first bad byte is named
        ("D" + chr(127) + "?", "graph6 byte '\\x7f' out of range"),
        ("D?" + chr(127), "graph6 byte '\\x7f' out of range"),
        ("Dé?", "graph6 byte 'é' out of range"),
        ("D?é", "graph6 byte 'é' out of range"),
        ("D" + chr(62) + "é", "graph6 byte '>' out of range"),
    )
    for text, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            graph6_decode(text)


# ---------------------------------------------------------------------------
# Edge-list text format


def test_edge_list_round_trip():
    assert parse_edge_list("4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n") == complete(4)
    assert parse_edge_list("6\n0 5\n1 5\n\n2 4\n") == Graph.from_edges(6, [(0, 5), (1, 5), (2, 4)])
    assert parse_edge_list("2\n0 1\n") == Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("x\n")
    with pytest.raises(ValueError):
        parse_edge_list("2\n0 1 2\n")
    # only ASCII decimal digits: int() would also read other scripts' digits, signs and "_"
    for text in ("٣\n٠ ١\n١ ٢\n", "+3\n", "-3\n", "1_0\n"):
        with pytest.raises(ValueError, match="vertex count"):
            parse_edge_list(text)
    for text in ("3\n+0 +1\n", "11\n1_0 1\n", "3\n-1 0\n", "3\n0 ١\n"):
        with pytest.raises(ValueError, match="bad edge-list line"):
            parse_edge_list(text)
