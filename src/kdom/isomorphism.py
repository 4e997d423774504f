"""Canonical forms and isomorphism tests for graphs up to 14 vertices.

The canonical form of a graph is the lexicographically smallest graph6
string over all vertex permutations.  It is found by placing vertices one
position at a time: after placing position j we know the whole j-th
column of the upper triangle, so a running best-known column sequence
prunes the placement tree (branch and bound with candidates ordered by
their column bits).  Complete and edgeless graphs short-circuit, since
every permutation ties.  is_lex_min runs the same search against a known
target to decide whether a labeling is already canonical, which is what
the orderly enumeration needs.  Simple and auditable by brute force, which
is the point; practical partition-refinement tools are out of scope.
"""

from dataclasses import dataclass

from .graphs import Graph, graph6_encode

MAX_CANON_VERTICES = 14

_SENTINEL = 1 << 62

# outcomes of a subtree of the is_lex_min search
_SMALLER, _EXHAUSTED, _TIED_LEAF = range(3)


@dataclass(frozen=True)
class CanonicalForm:
    """canon_graph6 plus the relabeling input vertex -> canonical position."""

    canon_graph6: str
    relabeling: tuple


def _lex_min_placement(n, adj):
    """Return perm with perm[position] = input vertex minimizing the bit string."""
    best_cols = [_SENTINEL] * n
    best_perm = None
    perm = [0] * n

    def dfs(depth, remaining, acc):
        # acc[u] = column bits of u against the placed prefix
        nonlocal best_perm
        cands = []  # sort keys pack (column << 4) | vertex; n <= 14 keeps vertices 4-bit
        m = remaining
        while m:
            low = m & -m
            u = low.bit_length() - 1
            cands.append((acc[u] << 4) | u)
            m ^= low
        cands.sort()
        last = depth + 1 == n
        for key in cands:
            col = key >> 4
            if col > best_cols[depth]:
                break
            if col < best_cols[depth]:
                best_cols[depth] = col
                for t in range(depth + 1, n):
                    best_cols[t] = _SENTINEL
                best_perm = None
            u = key & 15
            perm[depth] = u
            if last:
                if best_perm is None:
                    best_perm = perm.copy()
            else:
                rem = remaining & ~(1 << u)
                au = adj[u]
                acc2 = acc.copy()
                m = rem
                while m:
                    low = m & -m
                    v = low.bit_length() - 1
                    acc2[v] = (acc2[v] << 1) | ((au >> v) & 1)
                    m ^= low
                dfs(depth + 1, rem, acc2)

    dfs(0, (1 << n) - 1, [0] * n)
    return best_perm


def is_lex_min(n, adj):
    """True when the identity labeling of adjacency rows adj is the canonical one.

    The placement search of _lex_min_placement with the target columns
    known in advance: they are the columns of the identity labeling.  A
    placement whose column is below the target proves a smaller labeling
    exists; only placements that tie the target are followed, and two
    prunings drop tied placements whose subtree repeats one already searched:
    a vertex with a lower twin still unplaced (swapping twins is an
    automorphism fixing the placed prefix), and, below a sibling of the
    identity path, everything after the first tied leaf (that leaf is an
    automorphism mapping the searched identity subtree onto the sibling's).
    """
    if n <= 1:
        return True
    target = [0] * n
    twins = [0] * n  # twins[j]: the i < j with the same neighbours as j apart from i and j
    for j in range(1, n):
        row = adj[j]
        col = 0
        for i in range(j):
            col = (col << 1) | ((row >> i) & 1)
            if row & ~(1 << i) == adj[i] & ~(1 << j):
                twins[j] |= 1 << i
        target[j] = col

    def dfs(depth, remaining, acc, on_identity_path):
        # acc[u] = column bits of u against the placed prefix
        want = target[depth]
        tied = []
        m = remaining
        while m:
            low = m & -m
            u = low.bit_length() - 1
            col = acc[u]
            if col < want:
                return _SMALLER
            if col == want and not twins[u] & remaining:
                tied.append(u)
            m ^= low
        if depth + 1 == n:
            return _TIED_LEAF if tied else _EXHAUSTED
        for u in tied:
            rem = remaining & ~(1 << u)
            au = adj[u]
            acc2 = acc.copy()
            m = rem
            while m:
                low = m & -m
                v = low.bit_length() - 1
                acc2[v] = (acc2[v] << 1) | ((au >> v) & 1)
                m ^= low
            found = dfs(depth + 1, rem, acc2, on_identity_path and u == depth)
            if found == _SMALLER or (found == _TIED_LEAF and not on_identity_path):
                return found
        return _EXHAUSTED

    return dfs(0, (1 << n) - 1, [0] * n, True) != _SMALLER


def _apply_relabeling(g, relabeling):
    rows = [0] * g.n
    for v in range(g.n):
        row = 0
        m = g.adj[v]
        while m:
            low = m & -m
            row |= 1 << relabeling[low.bit_length() - 1]
            m ^= low
        rows[relabeling[v]] = row
    return Graph(g.n, rows)


def canonical_form(g):
    """Canonical form of g; guard: n <= 14."""
    n = g.n
    if n > MAX_CANON_VERTICES:
        raise ValueError(f"canonical_form guard exceeded: n={n} > {MAX_CANON_VERTICES}")
    if n <= 1:
        return CanonicalForm(graph6_encode(g), tuple(range(n)))
    m = g.edge_count()
    if m == 0 or m == n * (n - 1) // 2:
        # every permutation gives the same string
        return CanonicalForm(graph6_encode(g), tuple(range(n)))
    perm = _lex_min_placement(n, g.adj)
    relabeling = [0] * n
    for pos, v in enumerate(perm):
        relabeling[v] = pos
    relabeling = tuple(relabeling)
    return CanonicalForm(graph6_encode(_apply_relabeling(g, relabeling)), relabeling)


def canonical_graph6(g):
    return canonical_form(g).canon_graph6


def is_isomorphic(g, h):
    """Canonical-string equality, after cheap rejections on order, size, degrees."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(row.bit_count() for row in g.adj) != sorted(row.bit_count() for row in h.adj):
        return False
    return canonical_graph6(g) == canonical_graph6(h)
