"""Exact k-domination and k-tuple domination certificates.

Two semantics coexist because the source material uses both, and the
variant is always an explicit parameter:

- "k-domination": every vertex outside S has at least k neighbors in S
  (open neighborhoods; membership in S discharges the requirement).
  gamma3 is this variant at k=3, classical gamma is k=1.
- "k-tuple": every vertex of V has at least k of its closed neighborhood
  N[v] in S (double domination is k=2).  Infeasible when some |N[v]| < k.

Both are one requirement: S holds k members of rows[v] for every v, with
open rows and the members of S exempt in k-domination, closed rows in
k-tuple.  A vertex of degree < k lies in every feasible set: in
k-domination it cannot be dominated from outside S, and in a feasible
k-tuple instance it has |N[v]| = k, so N[v] lies in S.

One branch and bound finds the minimum size and the witness, the smallest
minimum set by bitmask value, so results are reproducible.  A node holds
the chosen and the banned vertices.  It branches on a most-constrained
deficient vertex: each candidate that could still serve it, in
descending-degree order, is added in turn and banned in the later
branches.  The incumbent starts as V, feasible for every solvable
instance; a feasible node replaces it when smaller, or the same size with
a lower mask.  This is exact:

- The branches partition the feasible supersets of chosen that avoid
  banned: each such set holds a candidate, so it falls in the branch of
  its first one.
- Every completion S of chosen satisfies S >= chosen numerically.
- So a node is cut when its lower bound exceeds the incumbent's size,
  or equals it and chosen >= the incumbent's mask: it holds only sets
  that are larger, or tie with a mask no lower.

A disconnected input is solved one component at a time.  Each vertex's
requirement reads only its own component, so a set is feasible iff its
part in every component is, and the minimum is the sum of the
components' minima; a minimum set's part in each component is minimum
there.  The witness is the union W of the components' lex-min witnesses.
Another minimum set S first differs from W, from the top bit, inside one
component, where both parts are minimum and W's is the lower, so W < S.
A component is searched on the graph's own rows with its vertex mask as
the universe: its rows touch only its vertices, and the numeric order of
its subsets is the order the search needs.  A connected input's universe
is V, so it is one search over the whole graph.  The k-tuple feasibility
check and the forced set are taken on the whole graph first.

The completion's size is bounded by counting, the residual form of
gamma_k >= k*n / (Delta + k) (Fink and Jacobson, "n-Domination in
graphs", 1985).  Let D be the sum of the deficient vertices' needs.  One
added vertex u lowers D by at most g: the number of deficient rows that
hold u, plus u's own need in the k-domination variant.  Needs only shrink
further down, so at least ceil(D / g) vertices remain to add.  On cycles
and paths the bound is tight, which keeps C62 and P62 to seconds.

Each node first takes its room: with s the incumbent's size, room =
s - |chosen| - 1, or s - |chosen| when chosen is below its mask.  A
completion that adds more than room vertices is larger than the
incumbent, or the same size with a mask no lower, so a node with
room < 0 is cut at once.

A node with room <= 1 settles its subtree in closed form, with no branch
and no bound.  Only chosen itself and chosen + u, for one free vertex u,
can improve the incumbent: a completion with two or more vertices is
larger than it, or the same size with a mask above chosen >= its mask.
chosen + u is feasible iff u serves every deficient vertex v.  With
need(v) = 1 that is u in rows[v], or u = v in k-domination; with
need(v) >= 2 only u = v serves, in k-domination, and nothing in k-tuple.
The node intersects the free vertices with these sets and returns when
the intersection empties (at the first deficient vertex when room = 0,
where only chosen itself can improve).  Of what is left, the lowest
vertex u gives the lowest mask chosen + u; it replaces the incumbent
when smaller, or the same size with a lower mask.

A node with room >= 2 never computes the largest g in full.  The cut,
ceil(D / g) > room, holds iff g < ceil(D / room), so the scan of the free
vertices stops at the first drop that reaches ceil(D / room) and cuts
iff none does: the full scan's decision, so the same tree.  The candidate
order depends only on the degrees, so it is sorted once per search.
"""

from collections import namedtuple

from .graphs import as_mask, components, iter_bits, mask_of

VARIANTS = ("k-domination", "k-tuple")


class DominationResult(
    namedtuple("DominationResult", "number witness variant k feasible", defaults=(True,))
):
    """Exact minimum with a certifying witness (None when infeasible)."""

    __slots__ = ()


def _requirement(g, variant, k):
    """(rows, exempt) of the variant's requirement (module docstring); validates variant, then k."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if variant == "k-domination":
        return list(g.adj), True
    return [row | (1 << v) for v, row in enumerate(g.adj)], False


def _dominates(g, s, k, variant):
    rows, exempt = _requirement(g, variant, k)
    mask = as_mask(g.n, s)
    return all((row & mask).bit_count() >= k or (exempt and (mask >> v) & 1) for v, row in enumerate(rows))


def is_k_dominating(g, s, k):
    """True iff every vertex outside s has at least k neighbors inside s."""
    return _dominates(g, s, k, "k-domination")


def is_k_tuple_dominating(g, s, k):
    """True iff every vertex v has |N[v] & s| >= k (closed neighborhoods)."""
    return _dominates(g, s, k, "k-tuple")


def _search(rows, k, exempt, forced, part):
    """(size, mask) of the numerically smallest minimum set inside part, a
    union of components, that contains forced's part and meets part's
    requirements, by the branch and bound the module docstring describes."""
    verts = sorted(iter_bits(part), key=lambda u: (-rows[u].bit_count(), u))
    order = [1 << u for u in verts]
    most = rows[verts[0]].bit_count() + (k if exempt else 0)  # the largest degree: no drop exceeds it
    best, best_mask = len(verts), part  # part is feasible for every solvable instance

    def dfs(chosen, banned, size, pending):
        # pending: the parent's deficient vertices; needs only shrink below it
        nonlocal best, best_mask
        room = best - size - (chosen >= best_mask)
        if room < 0:
            return
        free = part & ~(chosen | banned)
        serve = free if room else 0  # room <= 1: the vertices u with chosen + u feasible so far
        pick_opts, pick_width = 0, len(verts) + 1
        deficient = total = 0
        if exempt:
            pending &= ~chosen
        while pending:
            low = pending & -pending
            pending ^= low
            v = low.bit_length() - 1
            need = k - (rows[v] & chosen).bit_count()
            if need <= 0:
                continue
            deficient |= low
            if room <= 1:
                serve &= (rows[v] if need == 1 else 0) | (low if exempt else 0)
                if not serve:
                    return
                continue
            opts = rows[v] & free
            if exempt and not banned & low:
                # v can always discharge its own requirement by joining S
                opts |= low
            elif opts.bit_count() < need:
                return  # this vertex can no longer be satisfied
            total += need
            avail = opts.bit_count()
            if avail < pick_width:
                pick_opts, pick_width = opts, avail
        if not deficient:
            best, best_mask = size, chosen
            return
        if room <= 1:
            # the closed form (module docstring): the lowest vertex that serves all
            u = serve & -serve
            if size + 1 < best or chosen | u < best_mask:
                best, best_mask = size + 1, chosen | u
            return
        # the bound's early stop (module docstring); rows are symmetric, so
        # rows[u] & deficient are the deficient rows holding u
        enough = -(-total // room)
        if most < enough:
            return
        while free:
            low = free & -free
            free ^= low
            u = low.bit_length() - 1
            drop = (rows[u] & deficient).bit_count()
            if exempt and deficient & low:
                drop += k - (rows[u] & chosen).bit_count()
            if drop >= enough:
                break
        else:
            return
        for bit in order:
            if pick_opts & bit:
                dfs(chosen | bit, banned, size + 1, deficient)
                banned |= bit

    forced &= part
    dfs(forced, 0, forced.bit_count(), part)
    return best, best_mask


def gamma_k(g, k, variant):
    """Exact minimum k-dominating (or k-tuple dominating) set of g, one search per component."""
    rows, exempt = _requirement(g, variant, k)
    if g.n == 0:
        raise ValueError("gamma_k of the empty graph is undefined")
    if not exempt and any(row.bit_count() < k for row in rows):
        return DominationResult(None, None, variant, k, feasible=False)
    forced = mask_of(v for v, row in enumerate(g.adj) if row.bit_count() < k)
    size = mask = 0
    for part in components(g):
        part_size, part_mask = _search(rows, k, exempt, forced, part)
        size += part_size
        mask |= part_mask
    return DominationResult(size, tuple(iter_bits(mask)), variant, k)


def gamma3(g):
    """The 3-domination number with witness (k-domination variant, k=3)."""
    return gamma_k(g, 3, "k-domination")
