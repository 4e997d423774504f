"""Independent brute-force oracles used to certify the solvers.

These deliberately avoid the library's bitmask internals: set arithmetic,
full subset scans, and permutation scans only, so they stay independent of
the code paths they check.
"""

from itertools import combinations, permutations

from kdom import Graph, graph6_encode


def neighbor_sets(g):
    return [set(g.neighbors(v)) for v in range(g.n)]


def naive_min_dominating(g, k, variant):
    """Scan all 2^n subsets; return (size, vertices) of the minimum-mask
    optimum, or None when no subset works."""
    n = g.n
    nbrs = neighbor_sets(g)
    best = None
    for mask in range(1 << n):
        s = {v for v in range(n) if (mask >> v) & 1}
        if variant == "k-domination":
            ok = all(len(nbrs[v] & s) >= k for v in range(n) if v not in s)
        else:
            ok = all(len((nbrs[v] | {v}) & s) >= k for v in range(n))
        if ok:
            key = (len(s), mask)
            if best is None or key < best[0]:
                best = (key, tuple(sorted(s)))
    if best is None:
        return None
    return best[0][0], best[1]


def frontier_min_dominating(g, k, variant, order=None):
    """naive_min_dominating's answer by dynamic programming over a vertex order.

    The vertices are decided in order (default 0..n-1), in S or out.  The
    frontier is the decided vertices with an undecided neighbour; each holds
    (in S, dominators decided so far, capped at k), and a vertex leaves it
    once its closed neighbourhood is decided, meeting its requirement then.
    Each frontier state keeps its least (size, mask): every completion adds
    the same set of later vertices to each partial set, disjoint from them,
    so the order between partial sets is the order of their completions.
    Time grows as (2(k+1))^width, so the order must keep the frontier narrow.
    """
    order = list(range(g.n)) if order is None else list(order)
    nbrs = neighbor_sets(g)
    pos = {v: i for i, v in enumerate(order)}
    last = {v: max(pos[u] for u in nbrs[v] | {v}) for v in order}
    closed = variant == "k-tuple"
    front, states = [], {(): (0, 0)}  # state: one (in S, dominators) per frontier vertex
    for i, v in enumerate(order):
        new_front = [w for w in front + [v] if last[w] > i]
        leaving = [w for w in front + [v] if last[w] == i]
        nxt = {}
        for state, (size, mask) in states.items():
            before = dict(zip(front, state))
            for chosen in (False, True):
                own = sum(before[u][0] for u in nbrs[v] if u in before) + (chosen and closed)
                facts = {w: (ins, min(k, cnt + (chosen and w in nbrs[v]))) for w, (ins, cnt) in before.items()}
                facts[v] = (chosen, min(k, own))
                if any(cnt < k and (closed or not ins) for ins, cnt in map(facts.get, leaving)):
                    continue
                key = tuple(facts[w] for w in new_front)
                value = (size + chosen, mask | (chosen << v))
                if key not in nxt or value < nxt[key]:
                    nxt[key] = value
        front, states = new_front, nxt
    if () not in states:
        return None
    size, mask = states[()]
    return size, tuple(v for v in range(g.n) if (mask >> v) & 1)


def random_graph(n, rng, p=0.5):
    """G(n, p): each pair an edge with probability p, drawn from rng in combinations order."""
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def brute_min_graph6(g):
    """Minimum graph6 string over every vertex permutation."""
    edges = g.edges()
    return min(
        graph6_encode(Graph.from_edges(g.n, [(p[u], p[v]) for u, v in edges]))
        for p in permutations(range(g.n))
    )


def connected_by_sets(n, edge_set):
    """Connectivity via plain set BFS over an explicit edge set."""
    if n <= 1:
        return True
    adj = {v: set() for v in range(n)}
    for u, v in edge_set:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _connected_after_removal(g, removed):
    """connected_by_sets on g minus the removed vertices, relabeled 0..m-1."""
    index = {v: i for i, v in enumerate(v for v in range(g.n) if v not in removed)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return connected_by_sets(len(index), edges)


def brute_force_connectivity(g):
    """Smallest removal set size that disconnects g, or n-1 when none does.

    Scans removal sets by increasing size; guarded at n <= 12.
    """
    n = g.n
    if n > 12:
        raise ValueError(f"brute_force_connectivity guard exceeded: n={n} > 12")
    for size in range(0, max(n - 1, 0)):
        for removal in combinations(range(n), size):
            if n - size >= 2 and not _connected_after_removal(g, set(removal)):
                return size
    return max(n - 1, 0)


def _component(nbrs, start, removed):
    """Vertices reachable from start in the graph minus removed."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in nbrs[u] - removed - seen:
            seen.add(w)
            stack.append(w)
    return seen


def closest_min_cut(g, s, t):
    """(size, cut) of a minimum vertex cut between non-adjacent s and t.

    Scans removal sets by increasing size.  cut is the minimum cut whose
    s-side component is smallest, checked to lie inside every other
    minimum cut's s-side.
    """
    nbrs = neighbor_sets(g)
    others = sorted(set(range(g.n)) - {s, t})
    for size in range(len(others) + 1):
        sides = {}
        for cut in combinations(others, size):
            side = _component(nbrs, s, set(cut))
            if t not in side:
                sides[cut] = side
        if sides:
            cut = min(sides, key=lambda c: len(sides[c]))
            assert all(sides[cut] <= side for side in sides.values()), (s, t, sides)
            return size, cut


def brute_force_cut(g):
    """(kappa, cut, separated) as vertex_connectivity defines its certificate.

    separated is the lexicographically first non-adjacent pair (s, t)
    that some removal set of size kappa separates; cut is that pair's
    closest_min_cut.  Guarded at n <= 12.
    """
    kappa = brute_force_connectivity(g)
    nbrs = neighbor_sets(g)
    for s, t in combinations(range(g.n), 2):
        if t not in nbrs[s]:
            size, cut = closest_min_cut(g, s, t)
            if size == kappa:
                return kappa, cut, (s, t)
    return kappa, (), None


def all_matchings(n):
    """Every matching of K_n (as a tuple of edges), including the empty one."""

    def rec(avail):
        if not avail:
            yield ()
            return
        u, rest = avail[0], avail[1:]
        yield from rec(rest)
        for i, v in enumerate(rest):
            for m in rec(rest[:i] + rest[i + 1 :]):
                yield ((u, v),) + m

    yield from rec(tuple(range(n)))


def labeled_connected_canonical(n, canon):
    """Canonical strings of every connected labeled graph on n vertices.

    canon: function Graph -> canonical graph6 string.  The generation route
    (all 2^C(n,2) labeled graphs, connectivity filter, dedup) is independent
    of the orderly enumerator it cross-checks.
    """
    pairs = list(combinations(range(n), 2))
    out = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        if not connected_by_sets(n, edges):
            continue
        out.add(canon(Graph.from_edges(n, edges)))
    return out
