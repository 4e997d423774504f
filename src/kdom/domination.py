"""Exact k-domination and k-tuple domination certificates.

Two semantics coexist because the source material uses both, and the
variant is always an explicit parameter:

- "k-domination": every vertex outside S has at least k neighbors in S
  (open neighborhoods; membership in S discharges the requirement).
  gamma3 is this variant at k=3, classical gamma is k=1.
- "k-tuple": every vertex of V has at least k of its closed neighborhood
  N[v] in S (double domination is k=2).  Infeasible when some |N[v]| < k.

The minimum is found by branch and bound (branching on a most-constrained
deficient vertex, candidates in descending-degree order).  The witness is
then re-derived as the smallest minimum set by bitmask value, so results
are reproducible: a depth-first search decides the vertices from n-1 down
to 0, trying "exclude" before "include", so its leaves come in increasing
numeric order and the first feasible one is the witness.  A branch is cut
as soon as some vertex can no longer reach k from the remaining budget and
the undecided vertices.
"""

from dataclasses import dataclass

from .graphs import as_mask, iter_bits

VARIANTS = ("k-domination", "k-tuple")


@dataclass(frozen=True)
class DominationResult:
    """Exact minimum with a certifying witness (None when infeasible)."""

    number: int | None
    witness: tuple | None
    variant: str
    k: int
    feasible: bool = True


def _check_variant(variant):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def is_k_dominating(g, s, k):
    """True iff every vertex outside s has at least k neighbors inside s."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mask = as_mask(g.n, s)
    for v in range(g.n):
        if not (mask >> v) & 1 and (g.adj[v] & mask).bit_count() < k:
            return False
    return True


def is_k_tuple_dominating(g, s, k):
    """True iff every vertex v has |N[v] & s| >= k (closed neighborhoods)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mask = as_mask(g.n, s)
    for v in range(g.n):
        if ((g.adj[v] | (1 << v)) & mask).bit_count() < k:
            return False
    return True


def _requirement_rows(g, variant):
    """Per-vertex rows whose intersection with S must reach k: open
    neighborhoods for k-domination, closed ones for k-tuple."""
    if variant == "k-domination":
        return list(g.adj)
    return [row | (1 << v) for v, row in enumerate(g.adj)]


def _minimum_size(g, k, rows, exempt_members, start_mask):
    """Branch and bound for the minimum feasible size; exact by exhaustion."""
    n = g.n
    degs = [row.bit_count() for row in g.adj]
    best = n  # S = V is feasible for every solvable instance

    def dfs(chosen, banned, size):
        nonlocal best
        if size >= best:
            return
        pick = None
        pick_opts = None
        pick_width = None
        for v in range(n):
            if exempt_members and (chosen >> v) & 1:
                continue
            need = k - (rows[v] & chosen).bit_count()
            if need <= 0:
                continue
            opts = rows[v] & ~chosen & ~banned
            if exempt_members and not (banned >> v) & 1:
                # v can always discharge its own requirement by joining S
                opts |= 1 << v
            elif opts.bit_count() < need:
                return  # this vertex can no longer be satisfied
            avail = opts.bit_count()
            if pick_width is None or avail < pick_width:
                pick, pick_opts, pick_width = v, opts, avail
        if pick is None:
            best = size
            return
        cands = sorted(iter_bits(pick_opts), key=lambda u: (-degs[u], u))
        banned2 = banned
        for u in cands:
            dfs(chosen | (1 << u), banned2, size + 1)
            banned2 |= 1 << u

    dfs(start_mask, 0, start_mask.bit_count())
    return best


def _lex_min_witness(g, k, rows, exempt_members, size, forced):
    """Numerically smallest feasible bitmask of the given popcount
    containing forced, by the ordered search the module docstring
    describes; low holds the undecided vertices, v and those below it."""
    n = g.n

    def dead(chosen, low, budget):
        for v in range(n):
            bit = 1 << v
            if exempt_members and chosen & bit:
                continue
            need = k - (rows[v] & chosen).bit_count()
            if need <= 0:
                continue
            if exempt_members and budget and low & bit:
                continue  # v can still discharge its requirement by joining S
            if need > budget or (rows[v] & low).bit_count() < need:
                return True
        return False

    def dfs(v, chosen, budget):
        if dead(chosen, ((1 << (v + 1)) - 1) & ~forced, budget):
            return None
        if budget == 0 or v < 0:
            return chosen
        bit = 1 << v
        if forced & bit:
            return dfs(v - 1, chosen, budget)
        found = dfs(v - 1, chosen, budget)
        if found is not None:
            return found
        return dfs(v - 1, chosen | bit, budget - 1)

    mask = dfs(n - 1, forced, size - forced.bit_count())
    if mask is None:
        raise AssertionError("no witness at the proven minimum size")
    return mask


def gamma_k(g, k, variant):
    """Exact minimum k-dominating (or k-tuple dominating) set of g."""
    _check_variant(variant)
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n == 0:
        raise ValueError("gamma_k of the empty graph is undefined")
    rows = _requirement_rows(g, variant)
    exempt = variant == "k-domination"
    if variant == "k-tuple":
        if any(row.bit_count() < k for row in rows):
            return DominationResult(None, None, variant, k, feasible=False)
        forced = 0
    else:
        # a vertex of degree < k can never be dominated from outside
        forced = 0
        for v in range(g.n):
            if g.adj[v].bit_count() < k:
                forced |= 1 << v
    size = _minimum_size(g, k, rows, exempt, forced)
    mask = _lex_min_witness(g, k, rows, exempt, size, forced)
    return DominationResult(size, tuple(iter_bits(mask)), variant, k)


def gamma3(g):
    """The 3-domination number with witness (k-domination variant, k=3)."""
    return gamma_k(g, 3, "k-domination")
