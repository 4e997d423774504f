"""Canonical forms for graphs up to 14 vertices.

The canonical form of a graph is the lexicographically smallest graph6
string over all vertex permutations.  graph6 reads the upper triangle
column by column, so a labeling is built by placing vertices one position
at a time: placing position j fixes the whole j-th column.

There is one placement search, _smaller_prefix.  It compares placements
with the identity labeling's columns, follows only placements that tie
them, and returns the first prefix whose last column is lower, or None
when no labeling beats the identity one.  is_lex_min is that None, which
is the test the orderly enumeration needs.  canonical_form descends with
the same search: while a prefix beats the current labeling, relabel (the
prefix first, the other vertices after it in their current order) and
search again.  The columns before the prefix's last position tie and its
last column is lower, so every step strictly lowers the graph6 string
whatever the completion; the loop ends, and it ends at a labeling the
search certifies lex-min.

Each node of the search works on bitmasks.  The identity labeling's
column at position d is bits 0..d-1 of adj[d], and a node holding the
prefix p_0..p_{d-1} narrows the unplaced vertices to those whose column
ties it: for each i < d in turn it keeps the vertices adjacent to p_i
where bit i is 1 and those not adjacent where it is 0.  Where bit i is 1,
the vertices still tied but not adjacent to p_i have a lower column, the
first difference being at i.  The lowest such vertex ends the search with
a smaller prefix; otherwise the search places each tied vertex in
ascending order and goes one position deeper.

Two prunings drop tied placements whose subtree repeats one already
searched, so both stay exact: a vertex with a lower twin still unplaced
(swapping twins is an automorphism fixing the placed prefix), and, below
a sibling of the identity path, everything after the first tied leaf
(that leaf is an automorphism mapping the searched identity subtree onto
the sibling's).  Twin pruning makes complete, edgeless and complete
multipartite graphs cheap.  Simple and auditable by brute force, which is
the point; practical partition-refinement tools are out of scope.
"""

from collections import namedtuple

from .graphs import Graph, graph6_encode

MAX_CANON_VERTICES = 14

_TIED_LEAF = object()  # a subtree outcome: a full placement tied the identity labeling


class CanonicalForm(namedtuple("CanonicalForm", "canon_graph6 relabeling")):
    """canon_graph6 plus the relabeling input vertex -> canonical position."""

    __slots__ = ()


def _smaller_prefix(adj):
    """First placement prefix whose columns beat the identity labeling's, or None.

    adj holds the adjacency rows.  The prefix lists vertices by position;
    its columns tie the identity labeling's except the last, which is lower.
    """
    n = len(adj)
    if n <= 1:
        return None
    twins = [0] * n  # twins[j]: the i < j with the same neighbours as j apart from i and j
    for j in range(1, n):
        row = adj[j]
        for i in range(j):
            if row & ~(1 << i) == adj[i] & ~(1 << j):
                twins[j] |= 1 << i
    prefix = []  # the placed vertices, by position

    def dfs(depth, remaining, on_identity_path):
        # tied: the unplaced vertices whose column ties bits 0..depth-1 of
        # adj[depth] so far; lower: those whose column is already lower
        row = adj[depth]
        tied = remaining
        lower = 0
        for i, p in enumerate(prefix):
            if row >> i & 1:
                lower |= tied & ~adj[p]
                tied &= adj[p]
            else:
                tied &= ~adj[p]
            if not tied:
                break
        if lower:
            return prefix + [(lower & -lower).bit_length() - 1]
        if depth + 1 == n:
            return _TIED_LEAF if tied else None
        while tied:
            low = tied & -tied
            tied ^= low
            u = low.bit_length() - 1
            if twins[u] & remaining:
                continue
            prefix.append(u)
            found = dfs(depth + 1, remaining ^ low, on_identity_path and u == depth)
            prefix.pop()
            if found is _TIED_LEAF:
                if not on_identity_path:
                    return found
            elif found is not None:
                return found
        return None

    found = dfs(0, (1 << n) - 1, True)
    return None if found is _TIED_LEAF else found


def is_lex_min(adj):
    """True when the identity labeling of adjacency rows adj is the canonical one."""
    return _smaller_prefix(adj) is None


def canonical_form(g):
    """Canonical form of g; guard: n <= 14."""
    n = g.n
    if n > MAX_CANON_VERTICES:
        raise ValueError(f"canonical_form guard exceeded: n={n} > {MAX_CANON_VERTICES}")
    order = list(range(n))  # the input vertex at each position
    while True:
        position = sorted(range(n), key=order.__getitem__)  # input vertex -> position
        adj = []
        for v in order:
            row, relabeled = g.adj[v], 0
            while row:
                low = row & -row
                relabeled |= 1 << position[low.bit_length() - 1]
                row ^= low
            adj.append(relabeled)
        prefix = _smaller_prefix(adj)
        if prefix is None:
            return CanonicalForm(graph6_encode(Graph(n, adj)), tuple(position))
        placed = set(prefix)
        order = [order[p] for p in prefix] + [v for p, v in enumerate(order) if p not in placed]


def canonical_graph6(g):
    return canonical_form(g).canon_graph6
