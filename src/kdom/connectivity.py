"""Exact vertex connectivity with a minimum vertex-cut certificate.

Local connectivity kappa(s, t) of a non-adjacent pair is, by Menger's
theorem, the max flow from s_out to t_in on the vertex-split digraph:
v_in -> v_out of capacity 1, and infinite arcs u_out -> v_in both ways
for each edge.  No augmenting path can use the split arc of s or t (it
would enter the source or leave the sink), so one digraph serves every
pair: it is built once per graph, and each flow copies only the
capacities.

kappa itself comes from Esfahanian and Hakimi (*On computing the
connectivity of graphs and digraphs*, Networks 14, 1984).  Take a vertex
v of minimum degree and a minimum cut S.  If v is outside S, some vertex
u of another component of G - S is not adjacent to v, so
kappa(v, u) <= |S|.  If v is in S, v has a neighbour in every component
of G - S (otherwise S - v would still separate), so two non-adjacent
neighbours x, y of v have kappa(x, y) <= |S|.  Hence flows from v to its
non-neighbours and between non-adjacent pairs of N(v) suffice, each
stopped once it reaches the best value so far (at most the minimum
degree).

The reported certificate is the first non-adjacent pair in lexicographic
order that attains kappa, found by flows stopped at kappa + 1.  The one
flow that ends below that bound is a maximum flow, and the cut is read
from it: the split arcs leaving the set reachable from s in the residual
graph.  That set is the same for every maximum flow (it is the source
side of the minimum cut closest to s), so the cut depends only on the
graph and the pair, not on the order of the augmentations.  Complete
graphs are n-1 by convention, disconnected input is 0.
"""

from dataclasses import dataclass
from itertools import combinations

from .graphs import component, iter_bits


@dataclass(frozen=True)
class CutResult:
    """kappa with a certifying cut; separated is a vertex pair the cut
    disconnects (None for complete graphs, where no cut exists)."""

    kappa: int
    cut: tuple
    separated: tuple | None


def _split_network(g):
    """(heads, caps, arcs) of the vertex-split digraph of g.

    Node 2v is v_in and 2v+1 is v_out; arc i ^ 1 is the reverse of arc i.
    """
    inf = g.n + 1
    heads = []
    caps = []
    arcs = [[] for _ in range(2 * g.n)]

    def add_arc(a, b, cap):
        arcs[a].append(len(heads))
        heads.append(b)
        caps.append(cap)
        arcs[b].append(len(heads))
        heads.append(a)
        caps.append(0)

    for v in range(g.n):
        add_arc(2 * v, 2 * v + 1, 1)
    for u, v in g.edges():
        add_arc(2 * u + 1, 2 * v, inf)
        add_arc(2 * v + 1, 2 * u, inf)
    return heads, caps, arcs


def _max_flow_vertex_cut(network, s, t, stop_at):
    """Max vertex-disjoint s-t paths; returns (value, cut or None).

    Aborts with cut=None once value reaches the int stop_at (callers only
    care about strictly smaller values).
    """
    heads, base_caps, arcs = network
    caps = base_caps[:]
    source, sink = 2 * s + 1, 2 * t
    value = 0
    while True:
        if value >= stop_at:
            return value, None
        # BFS for an augmenting path in the residual graph
        parent_arc = [-1] * len(arcs)
        parent_arc[source] = -2
        queue = [source]
        while queue and parent_arc[sink] == -1:
            nxt = []
            for a in queue:
                for ai in arcs[a]:
                    b = heads[ai]
                    if caps[ai] > 0 and parent_arc[b] == -1:
                        parent_arc[b] = ai
                        nxt.append(b)
            queue = nxt
        if parent_arc[sink] == -1:
            break
        # bottleneck is 1: every s-t path crosses a unit split arc
        node = sink
        while node != source:
            ai = parent_arc[node]
            caps[ai] -= 1
            caps[ai ^ 1] += 1
            node = heads[ai ^ 1]
        value += 1

    # residual reachability from the source gives the cut
    reach = [False] * len(arcs)
    reach[source] = True
    stack = [source]
    while stack:
        a = stack.pop()
        for ai in arcs[a]:
            b = heads[ai]
            if caps[ai] > 0 and not reach[b]:
                reach[b] = True
                stack.append(b)
    cut = tuple(v for v in range(len(arcs) // 2) if v not in (s, t) and reach[2 * v] and not reach[2 * v + 1])
    return value, cut


def vertex_connectivity(g):
    """Exact kappa(g) with a certifying minimum vertex cut."""
    n = g.n
    if n == 0:
        return CutResult(0, (), None)
    comp = component(g, 0)
    if comp != (1 << n) - 1:
        other = next(v for v in range(n) if not (comp >> v) & 1)
        return CutResult(0, (), (0, other))
    if g.edge_count() == n * (n - 1) // 2:
        return CutResult(n - 1, (), None)
    network = _split_network(g)
    degs = [row.bit_count() for row in g.adj]
    kappa = min(degs)
    v = degs.index(kappa)
    pairs = [(v, u) for u in range(n) if u != v and not g.has_edge(v, u)]
    pairs += [(x, y) for x, y in combinations(iter_bits(g.adj[v]), 2) if not g.has_edge(x, y)]
    for s, t in pairs:
        if kappa == 1:
            break  # g is connected, so kappa >= 1
        kappa = min(kappa, _max_flow_vertex_cut(network, s, t, kappa)[0])
    for s, t in combinations(range(n), 2):
        if g.has_edge(s, t):
            continue
        value, cut = _max_flow_vertex_cut(network, s, t, kappa + 1)
        if value == kappa:
            return CutResult(kappa, cut, (s, t))
    raise AssertionError("no pair attains the computed kappa")
