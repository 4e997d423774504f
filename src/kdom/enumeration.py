"""Isomorph-free streams of connected graphs, one level per vertex count.

Levels are built by orderly generation (R. C. Read, "Every one a winner",
Ann. Discrete Math. 2, 1978) over all graphs, connected or not.  Every
graph is kept in its canonical labeling, the one whose graph6 string is
lexicographically smallest (kdom.isomorphism).  A graph on m vertices is
a graph on m-1 vertices plus a last vertex joined to some subset of the
others, the empty subset included, and a child is kept exactly when its
identity labeling is canonical (is_lex_min).

This is exact because the canonical labeling is hereditary.  Deleting the
last vertex of a canonical graph leaves a canonical graph: its string is
the prefix made of columns 1..m-2, and a relabeling that made that prefix
smaller would, with the last vertex fixed, make the whole string smaller.
So each class is produced once, from its unique canonical parent, with no
dedup and no relabeling.

A child's string is its parent's string followed by the new column, so
taking parents in graph6 order and new columns in ascending order emits
every level in graph6 order.  A new column whose adjacency to the first
m-2 vertices reads below the parent's last column is skipped: swapping the
two last vertices would give a smaller string.  The connected level is the
kept graphs that are connected.  Levels are cached, so repeat calls are
free within a process.  Each parent's children depend only on that
parent, so a level's parents go through kdom.split.split_map, which
shares them out in chunks with a forked child on a host with two CPUs.

Guards (check_guard, which builds nothing): n <= 8 by default;
allow_large=True (`kdom enumerate --allow-large`) lifts it to the hard
ceiling 9.
"""

from .graphs import Graph, is_connected
from .isomorphism import is_lex_min
from .split import split_map

DEFAULT_GUARD = 8
MAX_CEILING = 9  # level 10 needs about 12M graphs and hours

_all_levels: dict[int, tuple] = {1: (Graph(1, (0,)),)}  # every graph, canonical labeling
_levels: dict[int, tuple] = {1: _all_levels[1]}  # the connected ones


def _column(row, j):
    """Column of a vertex at position j: its bits for 0..j-1, vertex 0 first."""
    return int(f"{row:0{j}b}"[::-1], 2) if j else 0


def _extend_level(parents, m):
    """Every graph on m vertices in canonical labeling, in graph6 order."""
    new = m - 1
    bit = 1 << new
    subsets = [_column(c, new) for c in range(1 << new)]  # new column -> neighbour mask

    def children(base):
        kept = []
        for col in range(_column(base[-1], new - 1) << 1, 1 << new):
            sub = subsets[col]
            rows = [base[v] | bit if (sub >> v) & 1 else base[v] for v in range(new)]
            rows.append(sub)
            if is_lex_min(rows):
                kept.append(tuple(rows))
        return kept

    per_parent = split_map(children, [p.adj for p in parents])
    return tuple(Graph(m, rows) for kept in per_parent for rows in kept)


def check_guard(n, allow_large=False, least=1):
    """Raise ValueError unless levels least..n may be built; builds nothing."""
    if n < least:
        raise ValueError(f"n={n} is below the smallest level {least}")
    if n > MAX_CEILING:
        raise ValueError(f"n={n} exceeds the hard ceiling {MAX_CEILING}")
    if n > DEFAULT_GUARD and not allow_large:
        raise ValueError(
            f"n={n} exceeds the default guard {DEFAULT_GUARD}; only `kdom enumerate "
            f"--allow-large` or connected_graphs(n, allow_large=True) enumerate level {MAX_CEILING}"
        )


def connected_graphs(n, allow_large=False):
    """All connected graphs on n vertices, one canonical representative each.

    Returns a tuple of graphs whose labeling is canonical, ordered by
    ascending canonical graph6 string.
    """
    check_guard(n, allow_large)
    for m in range(2, n + 1):
        if m not in _levels:
            graphs = _extend_level(_all_levels[m - 1], m)
            if m < MAX_CEILING:  # the top level is never a parent
                _all_levels[m] = graphs
            _levels[m] = tuple(g for g in graphs if is_connected(g))
    return _levels[n]
