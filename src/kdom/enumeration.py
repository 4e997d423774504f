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
two last vertices would give a smaller string.  Three more shortcuts settle
children before the placement search, and each keeps exactly the children
is_lex_min alone would keep:

- Only a parent is built in full.  connected_graphs(n) builds levels
  2..n-1 in full, as parents, but level n, its top, only from the children
  whose new vertex has a neighbour in every component of the parent.
  Those are exactly the connected children: the parent's components meet
  only through the new vertex, and a component it misses stays a
  component of the child.  A later call that needs a top level as a
  parent builds it again, in full, at that point; the connected tuple
  already cached is kept.  kdom.verifier asks for its highest level
  first, so each lower level is built once.
- A twin swap rejects.  Let i < j be twins of the parent (the same
  neighbours apart from each other) with the new vertex adjacent to i and
  not to j.  Swapping i and j is an automorphism of the parent, so every
  earlier column stays the same, and it moves the new column's 1 at i to
  j, which lowers the last column.  So the child is not lex-min.
- The twin table is handed down.  Twins i < j of the child below the new
  vertex are twins of the parent that the new vertex treats alike, and the
  new vertex's twins are the i whose parent row is its column without i.
  So each child's table is its parent's, narrowed, plus one entry, and the
  placement search takes it instead of rebuilding it from the rows.

Levels are cached, so repeat calls are free within a process.  Each
parent's children depend only on that parent, so a level's parents go
through kdom.split.split_map, which shares them out in chunks with a
forked child on a host with two CPUs; each parent's twin table and
components are made in the process that takes it.

Guards (check_guard, which builds nothing): n <= 8 by default;
allow_large=True (`kdom enumerate --allow-large`) lifts it to the hard
ceiling 9.
"""

from .graphs import Graph, components, is_connected, mask_of
from .isomorphism import _smaller_prefix, _twins
from .split import split_map

DEFAULT_GUARD = 8
MAX_CEILING = 9  # level 10 needs about 12M graphs and hours

_all_levels: dict[int, tuple] = {1: (Graph(1, (0,)),)}  # every graph, canonical labeling
_levels: dict[int, tuple] = {1: _all_levels[1]}  # the connected ones


def _column(row, j):
    """Column of a vertex at position j: its bits for 0..j-1, vertex 0 first."""
    return int(f"{row:0{j}b}"[::-1], 2) if j else 0


def _extend_level(parents, m, top=False):
    """Every graph on m vertices in canonical labeling, in graph6 order; if top, the connected ones."""
    new = m - 1
    bit = 1 << new
    subsets = [_column(c, new) for c in range(1 << new)]  # new column -> neighbour mask

    def children(parent):
        base = parent.adj
        twins = _twins(base)
        pairs = [(1 << j, lower) for j, lower in enumerate(twins) if lower]
        comps = components(parent) if top else ()
        kept = []
        for col in range(_column(base[-1], new - 1) << 1, 1 << new):
            sub = subsets[col]
            if not all(sub & comp for comp in comps):
                continue  # disconnected
            if any(lower & sub and not upper & sub for upper, lower in pairs):
                continue  # a twin swap lowers the last column
            rows = [base[v] | bit if (sub >> v) & 1 else base[v] for v in range(new)]
            rows.append(sub)
            child_twins = [lower & (sub if (sub >> v) & 1 else ~sub) for v, lower in enumerate(twins)]
            child_twins.append(mask_of(v for v in range(new) if base[v] == sub & ~(1 << v)))
            if _smaller_prefix(rows, child_twins) is None:
                kept.append(tuple(rows))
        return kept

    per_parent = split_map(children, parents)
    return tuple(Graph(m, rows) for kept in per_parent for rows in kept)


def check_guard(n, allow_large=False, least=1):
    """Raise ValueError unless levels least..n may be built; builds nothing.

    The one place that decides which levels may be built: connected_graphs
    runs it first, and a sweep checks only its range (least, its lowest
    level, up to MAX_CEILING) and leaves the default guard to connected_graphs.
    """
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
    for m in range(2, n):  # the parents, in full
        if m not in _all_levels:
            _all_levels[m] = _extend_level(_all_levels[m - 1], m)
            if m not in _levels:
                _levels[m] = tuple(g for g in _all_levels[m] if is_connected(g))
    if n not in _levels:
        _levels[n] = _extend_level(_all_levels[n - 1], n, top=True)
    return _levels[n]
