"""Exact vertex connectivity with a minimum vertex-cut certificate.

Local connectivity kappa(s, t) of a non-adjacent pair is, by Menger's
theorem, the max flow from s_out to t_in on the vertex-split digraph:
v_in -> v_out of capacity 1, and uncapacitated arcs u_out -> v_in both
ways for each edge.  The digraph is never built: a unit vertex-disjoint
flow (Even and Tarjan, *Network flow and testing graph connectivity*,
SIAM J. Comput. 4, 1975) fits in bitmasks beside g.adj.  It starts from
the paths s-x-t through the common neighbours x and augments along paths
found by a BFS whose layers alternate between out-nodes and in-nodes.

The flow lives in three bitmask tables: used holds the v whose split arc
v_in -> v_out carries flow, into[v] the u whose arc u_out -> v_in
carries flow, and out[u] the same arcs by tail.  The BFS reads into to
leave an in-node backwards, and the walk-back reads out to find the
in-node before an out-node.  No table keeps an arc that leaves s_out,
nor the starting paths' arcs into t_in, because no search reads them:
s_out is seen before the first layer, so no reverse arc back to it is
followed and it is in no later layer, and t_in ends every search that
reaches it, so it is never expanded and never chosen as a predecessor.
(The walk-back still writes the arc into t_in of each path it augments;
nothing reads that either.)  So every BFS layer, walk-back choice, flow,
value and cut is the one the full residual digraph would give.

kappa(g) comes from Esfahanian and Hakimi (*On computing the
connectivity of graphs and digraphs*, Networks 14, 1984).  Take a vertex
v of minimum degree and a minimum cut S.  If v is outside S, some vertex
u of another component of G - S is not adjacent to v, so
kappa(v, u) <= |S|.  If v is in S, v has a neighbour in every component
of G - S (otherwise S - v would still separate), so two non-adjacent
neighbours x, y of v have kappa(x, y) <= |S|.  Hence flows from v to its
non-neighbours and between non-adjacent pairs of N(v) suffice, each
stopped once it reaches the best value so far (at most the minimum
degree).  Empty or disconnected input is 0, and K_n, with no such
pair, is n-1.  The sweeps read only this value.

vertex_connectivity(g) adds a certificate: the first non-adjacent pair
in lexicographic order that attains kappa, found by flows stopped at
kappa + 1.  The one flow that ends below that bound is a maximum flow,
and its failed last search has marked the residual set reachable from s;
the cut is the vertices whose v_in it reached and whose v_out it did
not.  The cut depends only on the graph and the pair: the value and that
set are the same for every maximum flow (the source side of the minimum
cut closest to s), whatever the starting paths and the order of
augmentations.  Each augmenting path is walked back from t_in, taking
the lowest residual predecessor in the layer below and updating the flow
on the way; an update touches only the arc between two later layers, so
every predecessor picked afterwards still has its residual arc.  The
scan runs its own flow on each pair it visits and needs no special case:
on disconnected input its first pair of value 0 is (0, the lowest vertex
outside 0's component), whose failed search marks the empty cut; K_0,
K_1 and K_n have no non-adjacent pair and get (kappa, (), None); and
otherwise the lemma above puts a pair that attains kappa among them.
"""

from collections import namedtuple
from itertools import combinations

from .graphs import component, iter_bits


class CutResult(namedtuple("CutResult", "kappa cut separated")):
    """kappa with a certifying cut; separated is a vertex pair the cut
    disconnects (None for complete graphs, where no cut exists)."""

    __slots__ = ()


def _max_flow_vertex_cut(adj, s, t, stop_at):
    """Max vertex-disjoint s-t paths; returns (value, cut or None).

    Stops with cut=None once value is at least the int stop_at (callers
    only care about strictly smaller values).  adj is the graph's bitmask
    rows.
    """
    used = adj[s] & adj[t]  # split arcs v_in -> v_out carrying flow
    into = [0] * len(adj)  # into[v]: the u whose arc u_out -> v_in carries flow, u != s
    out = [0] * len(adj)  # out[u]: the same arcs, by tail
    value = used.bit_count()
    while value < stop_at:
        # BFS in alternating layers: out-nodes, in-nodes, out-nodes, ...
        front = seen_out = 1 << s
        seen_in = 0
        layers = [front]
        while front:
            nxt = front & used
            for u in iter_bits(front):
                nxt |= adj[u]
            front = nxt & ~seen_in
            seen_in |= front
            layers.append(front)
            if (front >> t) & 1:
                break
            nxt = front & ~used
            for v in iter_bits(front):
                nxt |= into[v]
            front = nxt & ~seen_out
            seen_out |= front
            layers.append(front)
        else:
            cut = seen_in & ~seen_out  # s_out is seen from the start; t_in never is
            return value, tuple(iter_bits(cut))
        # walk back from t_in, augmenting by 1 on the way: every s-t path
        # crosses a unit split arc
        v = t
        for k in range(len(layers) - 2, 0, -2):
            u = _low(layers[k] & (adj[v] | (used & 1 << v)))
            if u == v:
                used &= ~(1 << v)
            else:
                into[v] |= 1 << u
                out[u] |= 1 << v
            v = _low(layers[k - 1] & (out[u] | (~used & 1 << u)))
            if v == u:
                used |= 1 << u
            else:
                into[v] &= ~(1 << u)
                out[u] &= ~(1 << v)
        value += 1
    return value, None


def _low(mask):
    return (mask & -mask).bit_length() - 1


def kappa(g):
    """Exact vertex connectivity of g, by the Esfahanian-Hakimi flows."""
    n = g.n
    if n == 0 or component(g, 0) != (1 << n) - 1:
        return 0
    degs = [row.bit_count() for row in g.adj]
    best = min(degs)
    v = degs.index(best)
    pairs = [(v, u) for u in range(n) if u != v and not g.adj[v] >> u & 1]
    pairs += [(x, y) for x, y in combinations(iter_bits(g.adj[v]), 2) if not g.adj[x] >> y & 1]
    for s, t in pairs:
        if best == 1:
            break  # g is connected, so kappa >= 1
        best = min(best, _max_flow_vertex_cut(g.adj, s, t, best)[0])
    return best


def vertex_connectivity(g):
    """kappa(g) with a certifying minimum vertex cut."""
    k = kappa(g)
    for s, t in combinations(range(g.n), 2):
        if g.adj[s] >> t & 1:
            continue
        value, cut = _max_flow_vertex_cut(g.adj, s, t, k + 1)
        if value == k:
            return CutResult(k, cut, (s, t))
    return CutResult(k, (), None)
