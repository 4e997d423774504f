"""Exhaustive verification of the bound and its characterizations.

The enumerated connected graphs are the ground truth and the published lists
are hypotheses under audit.  level_records(n), built once per process,
tabulates g6, gamma3, kappa and min/max degree for each graph of level n,
and every sweep filters it: characterize() takes the extremal sets
gamma3+kappa = 2n-t for every t >= 1, check_theorem() diffs the catalog's
theorems 3.1..3.5 with them (confirmed / extra / missing, canonical-form
keyed), verify_bound() checks gamma3+kappa <= 2n-1, and audit_small_theorems()
checks gamma3=n iff max-degree<=2, 3<=gamma3<=n, kappa<=min-degree, the K_n
minus matching values and gamma+kappa<=n (it computes gamma, which no other
sweep reads).
Every K_n - M with |M| = m is isomorphic to every other, so the matching
sweep solves one per size m and reports a failure once per size, while
its "matchings" count adds the n! / ((n-2m)! m! 2^m) labeled matchings.

Each sweep returns the plain dict that its CLI command prints under
--json, so the keys and the level shape {"n", "extremal"} live only here;
identical inputs give byte-identical JSON, and no timing is recorded.
Levels start at n=3, the smallest order where the source bounds apply.

Horizon lemma: a connected graph with n >= 3 has gamma3+kappa <= n+2.
Let delta be the minimum degree.  If delta >= 2, any n-delta+2 vertices
3-dominate (an outside vertex misses at most n-1-delta of them), so
gamma3 <= n-delta+2, and kappa <= delta.  If delta <= 1, kappa <= 1 and
gamma3 <= n.  So a graph with gamma3+kappa = 2n-t has n <= t+2, and
characterize() (check_theorem() too) reports the levels above t+2 empty
unbuilt; verify_bound() and the audit, exhaustive, check it independently.

The class n+2: a connected graph with n >= 3 has gamma3+kappa = n+2
exactly when it is C_n, K_n or, for even n, K_n minus a perfect matching.
These attain it: C_n has gamma3 = n and kappa = 2; K_n has gamma3 = 3
and kappa = n-1; K_n - PM has gamma3 = 4 (C_4 at n = 4, case D = 1
below for n >= 6) and kappa = n-2: the parts a cut leaves are joined by
no edge and each vertex has one non-neighbour, so they are the two ends
of one removed edge.
Conversely, let H be the complement of a graph attaining n+2.
- delta <= 1: the sum is at most n+1 by the lemma.
- delta = 2: equality needs gamma3 = n, and gamma3 = n iff max degree
  <= 2 (a vertex of degree >= 3 can leave V).  So the graph is C_n.
- delta >= 3: equality needs kappa = delta and gamma3 = n-delta+2.  A
  superset of a 3-dominating set 3-dominates, so gamma3 <= n-delta+1 iff
  the complement V-T of some (delta-1)-set T 3-dominates.  A vertex of
  degree > delta in T keeps >= 3 neighbours outside T; one of degree delta
  (H-degree D = n-1-delta, the maximum) does iff it has an H-neighbour
  in T.  Call T working when it has delta-1 = n-2-D >= 2 vertices and
  each of its vertices of H-degree D has an H-neighbour in T.
  - D = 0: the graph is K_n.
  - D = 1: H is a matching M, and a working T holds the partner of each
    matched vertex in it.  If M is perfect, T is a union of pairs, of
    even size, but n-3 is odd: none works, so gamma3 = 4 and the graph is
    K_n - PM.  Otherwise V minus one pair and one unmatched vertex works.
  - D >= 2: a working T always exists, so the graph falls short.  Take
    whole H-components while they fit; if r >= 2 vertices are missing,
    add a connected part of r vertices (a spanning tree cut down by its
    leaves) of the next component.  A connected part of >= 2 vertices
    gives each of its vertices an H-neighbour, and a vertex of H-degree
    < D (an H-isolated one too) needs none.  If one vertex is missing,
    add a vertex of H-degree < D from outside T.  If there is none, the
    next component has >= 2 vertices, so an H-edge: add it, and drop a
    vertex that is not a cut vertex from a whole component taken (T has
    delta-2 >= 1 vertices so far).  What remains of that component is
    empty, one vertex of H-degree 1 < D, or connected with >= 2
    vertices.
So the top level n = t+2 of a characterization is this class:
top_records(n) builds its graphs, keys them by canonical form (C_3 = K_3,
C_4 = K_4 - PM) and solves them, and _levels(n_max, t+2) gives
characterize() level_records only below t+2, this class at t+2.
"""

import math
from collections import namedtuple
from functools import lru_cache

from .catalog import DiscrepancyNote, THEOREM_OFFSETS, theorem_catalog
from .connectivity import kappa
from .domination import gamma3, gamma_k, is_k_dominating
from .enumeration import DEFAULT_GUARD, check_guard, connected_graphs
from .graphs import Graph, complete, cycle, graph6_decode, graph6_encode, max_degree, min_degree, remove_matching
from .isomorphism import canonical_form
from .split import split_map

_MIN_LEVEL = 3


class GraphRecord(namedtuple("GraphRecord", "g6 gamma3 kappa min_degree max_degree")):
    __slots__ = ()

    @property
    def total(self):
        return self.gamma3 + self.kappa

    def to_jsonable(self):
        return {"g6": self.g6, "gamma3": self.gamma3, "kappa": self.kappa}


def _record(g):
    """GraphRecord's fields for g, as a plain tuple that a split batch can send back."""
    return graph6_encode(g), gamma3(g).number, kappa(g), min_degree(g), max_degree(g)


@lru_cache(maxsize=None)
def level_records(n):
    """Invariant table of level n, one GraphRecord per graph in connected_graphs(n) order."""
    return tuple(map(GraphRecord._make, split_map(_record, connected_graphs(n))))


@lru_cache(maxsize=None)
def top_records(n):
    """The records of level n with gamma3+kappa = n+2, the proved class, in g6 order."""
    graphs = [cycle(n), complete(n)]
    if n % 2 == 0:
        graphs.append(remove_matching(complete(n), [(i, i + 1) for i in range(0, n, 2)]))
    canon = sorted({canonical_form(g).canon_graph6 for g in graphs})  # C_3 = K_3 and C_4 = K_4 - PM
    return tuple(GraphRecord._make(_record(graph6_decode(g6))) for g6 in canon)


def horizon(target_offset):
    """The largest n with a graph of gamma3+kappa = 2n - target_offset, by the lemma."""
    return target_offset + 2


def _levels(n_max, top=None):
    """(n, records) for 3 <= n <= n_max: level_records(n) below top, top_records(n) at it, () above.

    top=None solves every level.  The guard runs before any level is built, and
    only the levels below top, the enumerated ones, must pass the default guard.
    """
    top = n_max + 1 if top is None else top
    check_guard(n_max, allow_large=top - 1 <= DEFAULT_GUARD, least=_MIN_LEVEL)
    levels = range(_MIN_LEVEL, n_max + 1)
    return [(n, level_records(n) if n < top else top_records(n) if n == top else ()) for n in levels]


def verify_bound(n_max=DEFAULT_GUARD):
    """Check gamma3+kappa <= 2n-1 over all connected graphs, 3 <= n <= n_max."""
    violations = []  # must stay empty
    equality = []  # canonical g6 strings attaining 2n-1
    checked = 0
    for n, recs in _levels(n_max):
        bound = 2 * n - 1
        for rec in recs:
            checked += 1
            if rec.total > bound:
                violations.append(rec.to_jsonable())
            elif rec.total == bound:
                equality.append(rec.g6)
    return {
        "n_max": n_max,
        "graphs_checked": checked,
        "violations": violations,
        "equality": sorted(equality),
    }


def characterize(target_offset, n_max=DEFAULT_GUARD):
    """Per-n extremal sets with gamma3+kappa = 2n - target_offset, canonical order."""
    if target_offset < 1:
        raise ValueError("target_offset must be at least 1, since gamma3+kappa <= 2n-1")
    levels = []
    for n, recs in _levels(n_max, horizon(target_offset)):
        extremal = [r.to_jsonable() for r in recs if r.total == 2 * n - target_offset]
        levels.append({"n": n, "extremal": extremal})
    return {"target_offset": target_offset, "n_max": n_max, "levels": levels}


def check_theorem(theorem, n_max=DEFAULT_GUARD):
    """Match one theorem's catalog entries against the computed extremal sets.

    confirmed: entry names matched by the computed set; extra: entries the
    catalog claims and the computation rejects; missing: canonical g6 the
    computation finds and the catalog lacks; caveats: families beyond n_max.
    """
    if theorem not in THEOREM_OFFSETS:
        raise ValueError(f"unknown theorem {theorem!r}; expected one of {sorted(THEOREM_OFFSETS)}")
    offset = THEOREM_OFFSETS[theorem]
    levels = characterize(offset, n_max)["levels"]
    mine, notes = theorem_catalog(theorem)
    computed_set = {r["g6"] for level in levels for r in level["extremal"]}

    confirmed = []
    extra = []
    caveats = []
    for entry in sorted(mine, key=lambda e: e.name):
        if entry.graph.n > n_max:
            caveats.append(
                f"{entry.name} has n={entry.graph.n} beyond n_max={n_max}; not checked"
            )
            continue
        if entry.canon in computed_set:
            confirmed.append(entry.name)
        else:
            extra.append({"name": entry.name, "computed_sum": entry.gamma3 + entry.kappa})

    return {
        "theorem": theorem,
        "target_offset": offset,
        "n_max": n_max,
        "levels": levels,
        "confirmed": confirmed,
        "extra": extra,
        # a computed string lies in a level n <= n_max, so an entry holding it was confirmed
        "missing": sorted(computed_set - {entry.canon for entry in mine}),
        "notes": [nt.to_jsonable() for nt in notes],
        "caveats": caveats,
    }


# Example 2.4's figure graphs, used by the audit.
_G1_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4), (2, 5))
_G2_EDGES = ((0, 1), (0, 2), (0, 3), (2, 5), (3, 5), (4, 5), (1, 4))
_G2_CLAIMED_SET = (2, 3, 4, 5)  # the claimed S2 = {v3, v4, v5, v6}


def audit_small_theorems(n_max=7):
    """Sweep the small structural facts over all enumerated connected graphs."""
    delta_fail = []  # gamma3 = n xor max_degree <= 2
    obs_fail = []  # not 3 <= gamma3 <= n
    kappa_fail = []  # kappa > min_degree
    gk_fail = []  # incidental: gamma + kappa > n
    checked = 0
    for n, recs in _levels(n_max):
        gammas = split_map(lambda g: gamma_k(g, 1, "k-domination").number, connected_graphs(n))
        for gamma, rec in zip(gammas, recs):
            checked += 1
            if (rec.gamma3 == n) != (rec.max_degree <= 2):
                delta_fail.append([rec.g6, rec.gamma3, rec.max_degree])
            if not 3 <= rec.gamma3 <= n:
                obs_fail.append([rec.g6, rec.gamma3])
            if rec.kappa > rec.min_degree:
                kappa_fail.append([rec.g6, rec.kappa, rec.min_degree])
            if gamma + rec.kappa > n:
                gk_fail.append([rec.g6, gamma, rec.kappa])

    sweeps = []
    for n in range(5, 9):
        failures = []  # any K_n minus M off the 2.7/2.8 value
        # K_n - M depends on M only up to isomorphism, that is on m = |M|
        for m in range(n // 2 + 1):
            matching = [[2 * i, 2 * i + 1] for i in range(m)]
            g3 = gamma3(remove_matching(complete(n), matching)).number
            if g3 != (4 if 2 * m == n else 3):
                failures.append({"matching": matching, "gamma3": g3})
        count = sum(math.perm(n, 2 * m) // (math.factorial(m) << m) for m in range(n // 2 + 1))
        sweeps.append({"n": n, "matchings": count, "failures": failures})

    g2 = Graph.from_edges(6, _G2_EDGES)
    g2_gamma3 = gamma3(g2)
    claim_holds = is_k_dominating(g2, _G2_CLAIMED_SET, 3)
    notes = []
    if not claim_holds:
        witness = ",".join(f"v{v + 1}" for v in g2_gamma3.witness)
        note = DiscrepancyNote(
            "Example-2.4-S2",
            "2.4",
            "label-mismatch",
            "the claimed 3-dominating set {v3,v4,v5,v6} of G2 leaves v1 with only two "
            f"dominators; gamma3(G2) = {g2_gamma3.number} still holds (witness {{{witness}}})",
        )
        notes.append(note.to_jsonable())
    return {
        "n_max": n_max,
        "graphs_checked": checked,
        "delta_equivalence_failures": delta_fail,
        "observation_failures": obs_fail,
        "kappa_failures": kappa_fail,
        "gamma_kappa_bound_failures": gk_fail,
        "matching_sweeps": sweeps,
        "example_g1_gamma3": gamma3(Graph.from_edges(6, _G1_EDGES)).number,
        "example_g2_gamma3": g2_gamma3.number,
        "example_g2_claim_holds": claim_holds,
        "notes": notes,
    }
