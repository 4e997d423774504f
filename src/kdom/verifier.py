"""Exhaustive verification of the bound and the five characterizations.

The enumerated connected graphs are the ground truth and the published lists
are hypotheses under audit.  level_records(n), built once per process,
tabulates g6, gamma3, kappa and min/max degree for each graph of level n,
and every sweep filters it: characterize() takes the extremal sets
gamma3+kappa = 2n-offset, check_theorem() diffs them against the catalog
(confirmed / extra / missing, canonical-form keyed), verify_bound() checks
gamma3+kappa <= 2n-1, and audit_small_theorems() checks gamma3=n iff
max-degree<=2, 3<=gamma3<=n, kappa<=min-degree, the K_n minus matching
values and gamma+kappa<=n (it computes gamma, which no other sweep reads).

Reports are deterministic: identical inputs give byte-identical JSON.
Levels start at n=3, the smallest order where the source bounds apply.
"""

import time
from dataclasses import dataclass
from functools import lru_cache

from .catalog import DiscrepancyNote, THEOREM_OFFSETS, checked_catalog, notes_for
from .connectivity import vertex_connectivity
from .domination import gamma3, gamma_k, is_k_dominating
from .enumeration import connected_graphs
from .graphs import (
    Graph,
    all_matchings,
    complete,
    graph6_encode,
    max_degree,
    min_degree,
    remove_matching,
)

DEFAULT_N_MAX = 8
_MIN_LEVEL = 3


@dataclass(frozen=True)
class GraphRecord:
    g6: str
    gamma3: int
    kappa: int
    min_degree: int
    max_degree: int

    @property
    def total(self):
        return self.gamma3 + self.kappa

    def to_jsonable(self):
        return {"g6": self.g6, "gamma3": self.gamma3, "kappa": self.kappa}


@lru_cache(maxsize=None)
def level_records(n):
    """Invariant table of level n, one GraphRecord per graph in connected_graphs(n) order."""
    out = []
    for g in connected_graphs(n):
        g3, kappa = gamma3(g).number, vertex_connectivity(g).kappa
        out.append(GraphRecord(graph6_encode(g), g3, kappa, min_degree(g), max_degree(g)))
    return tuple(out)


def _levels(n_max):
    """(n, level_records(n)) pairs for 3 <= n <= n_max.

    connected_graphs(n_max) runs first, so a guarded n_max is refused
    before any level is built or solved.
    """
    if n_max >= _MIN_LEVEL:
        connected_graphs(n_max)
    return [(n, level_records(n)) for n in range(_MIN_LEVEL, n_max + 1)]


@dataclass(frozen=True)
class BoundReport:
    n_max: int
    graphs_checked: int
    violations: tuple  # GraphRecords with gamma3+kappa > 2n-1 (must be empty)
    equality: tuple  # canonical g6 strings attaining 2n-1
    elapsed_s: float

    def to_jsonable(self):
        return {
            "n_max": self.n_max,
            "graphs_checked": self.graphs_checked,
            "violations": [r.to_jsonable() for r in self.violations],
            "equality": list(self.equality),
        }


def verify_bound(n_max=DEFAULT_N_MAX):
    """Check gamma3+kappa <= 2n-1 over all connected graphs, 3 <= n <= n_max."""
    start = time.perf_counter()
    violations = []
    equality = []
    checked = 0
    for n, recs in _levels(n_max):
        bound = 2 * n - 1
        for rec in recs:
            checked += 1
            if rec.total > bound:
                violations.append(rec)
            elif rec.total == bound:
                equality.append(rec.g6)
    return BoundReport(
        n_max, checked, tuple(violations), tuple(sorted(equality)), time.perf_counter() - start
    )


def characterize(target_offset, n_max=DEFAULT_N_MAX):
    """Per-n extremal sets with gamma3+kappa = 2n - target_offset, canonical order."""
    if target_offset not in THEOREM_OFFSETS.values():
        raise ValueError("target_offset must be in 1..5")
    return {
        n: tuple(rec for rec in recs if rec.total == 2 * n - target_offset)
        for n, recs in _levels(n_max)
    }


@dataclass(frozen=True)
class ExtraEntry:
    name: str
    computed_sum: int

    def to_jsonable(self):
        return {"name": self.name, "computed_sum": self.computed_sum}


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    target_offset: int
    n_max: int
    levels: tuple  # (n, records) pairs
    confirmed: tuple  # entry names matched by the computed set
    extra: tuple  # ExtraEntry: catalog claims it, computation rejects it
    missing: tuple  # canonical g6 the computation finds but the catalog lacks
    notes: tuple  # DiscrepancyNotes for this theorem's entries
    caveats: tuple  # horizon caveats (families beyond n_max)
    elapsed_s: float

    def to_jsonable(self):
        return {
            "theorem": self.theorem,
            "target_offset": self.target_offset,
            "n_max": self.n_max,
            "levels": [
                {"n": n, "extremal": [r.to_jsonable() for r in recs]} for n, recs in self.levels
            ],
            "confirmed": list(self.confirmed),
            "extra": [e.to_jsonable() for e in self.extra],
            "missing": list(self.missing),
            "notes": [nt.to_jsonable() for nt in self.notes],
            "caveats": list(self.caveats),
        }


def check_theorem(theorem, n_max=DEFAULT_N_MAX):
    """Match one theorem's catalog entries against the computed extremal sets."""
    if theorem not in THEOREM_OFFSETS:
        raise ValueError(f"unknown theorem {theorem!r}; expected one of {sorted(THEOREM_OFFSETS)}")
    start = time.perf_counter()
    offset = THEOREM_OFFSETS[theorem]
    computed = characterize(offset, n_max)
    entries, all_notes = checked_catalog()
    mine = [e for e in entries if e.theorem == theorem]
    computed_set = {rec.g6 for recs in computed.values() for rec in recs}

    confirmed = []
    extra = []
    caveats = []
    matched_canon = set()
    for entry in sorted(mine, key=lambda e: e.name):
        if entry.graph.n > n_max:
            caveats.append(
                f"{entry.name} has n={entry.graph.n} beyond n_max={n_max}; not checked"
            )
            continue
        if entry.canon in computed_set:
            confirmed.append(entry.name)
            matched_canon.add(entry.canon)
        else:
            extra.append(ExtraEntry(entry.name, entry.gamma3 + entry.kappa))
    missing = sorted(computed_set - matched_canon)
    if offset + 2 > n_max:
        caveats.append(
            f"the complete-graph member K{offset + 2} lies beyond n_max={n_max}"
        )

    return VerificationReport(
        theorem,
        offset,
        n_max,
        tuple((n, computed[n]) for n in sorted(computed)),
        tuple(confirmed),
        tuple(extra),
        tuple(missing),
        tuple(notes_for(all_notes, theorem)),
        tuple(caveats),
        time.perf_counter() - start,
    )


# Example 2.4's figure graphs, used by the audit.
_G1_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4), (2, 5))
_G2_EDGES = ((0, 1), (0, 2), (0, 3), (2, 5), (3, 5), (4, 5), (1, 4))
_G2_CLAIMED_SET = (2, 3, 4, 5)  # the claimed S2 = {v3, v4, v5, v6}


@dataclass(frozen=True)
class MatchingSweep:
    n: int
    matchings: int
    failures: tuple  # (matching, gamma3) for any K_n minus M off the 2.7/2.8 value

    def to_jsonable(self):
        return {
            "n": self.n,
            "matchings": self.matchings,
            "failures": [{"matching": list(map(list, m)), "gamma3": g} for m, g in self.failures],
        }


@dataclass(frozen=True)
class AuditReport:
    n_max: int
    graphs_checked: int
    delta_equivalence_failures: tuple  # gamma3 = n xor max_degree <= 2
    observation_failures: tuple  # 3 <= gamma3 <= n
    kappa_failures: tuple  # kappa <= min_degree
    gamma_kappa_bound_failures: tuple  # incidental: gamma + kappa <= n
    matching_sweeps: tuple  # MatchingSweep for n = 5..8
    example_g1_gamma3: int
    example_g2_gamma3: int
    example_g2_claim_holds: bool
    notes: tuple
    elapsed_s: float

    def to_jsonable(self):
        return {
            "n_max": self.n_max,
            "graphs_checked": self.graphs_checked,
            "delta_equivalence_failures": [list(f) for f in self.delta_equivalence_failures],
            "observation_failures": [list(f) for f in self.observation_failures],
            "kappa_failures": [list(f) for f in self.kappa_failures],
            "gamma_kappa_bound_failures": [list(f) for f in self.gamma_kappa_bound_failures],
            "matching_sweeps": [s.to_jsonable() for s in self.matching_sweeps],
            "example_g1_gamma3": self.example_g1_gamma3,
            "example_g2_gamma3": self.example_g2_gamma3,
            "example_g2_claim_holds": self.example_g2_claim_holds,
            "notes": [nt.to_jsonable() for nt in self.notes],
        }

    @property
    def clean(self):
        """True when every audited fact holds (the S2 note is expected)."""
        return not (
            self.delta_equivalence_failures
            or self.observation_failures
            or self.kappa_failures
            or self.gamma_kappa_bound_failures
            or any(s.failures for s in self.matching_sweeps)
        )


def audit_small_theorems(n_max=7):
    """Sweep the small structural facts over all enumerated connected graphs."""
    start = time.perf_counter()
    delta_fail = []
    obs_fail = []
    kappa_fail = []
    gk_fail = []
    checked = 0
    for n, recs in _levels(n_max):
        for g, rec in zip(connected_graphs(n), recs):
            checked += 1
            if (rec.gamma3 == n) != (rec.max_degree <= 2):
                delta_fail.append((rec.g6, rec.gamma3, rec.max_degree))
            if not 3 <= rec.gamma3 <= n:
                obs_fail.append((rec.g6, rec.gamma3))
            if rec.kappa > rec.min_degree:
                kappa_fail.append((rec.g6, rec.kappa, rec.min_degree))
            gamma = gamma_k(g, 1, "k-domination").number
            if gamma + rec.kappa > n:
                gk_fail.append((rec.g6, gamma, rec.kappa))

    sweeps = []
    for n in range(5, 9):
        failures = []
        count = 0
        # K_n - M depends on M only up to isomorphism, that is on |M|
        by_size = [
            gamma3(remove_matching(complete(n), [(2 * i, 2 * i + 1) for i in range(m)])).number
            for m in range(n // 2 + 1)
        ]
        for matching in all_matchings(n):
            count += 1
            g3 = by_size[len(matching)]
            want = 4 if len(matching) == n // 2 and n % 2 == 0 else 3
            if g3 != want:
                failures.append((matching, g3))
        sweeps.append(MatchingSweep(n, count, tuple(failures)))

    g1 = Graph.from_edges(6, _G1_EDGES)
    g2 = Graph.from_edges(6, _G2_EDGES)
    claim = is_k_dominating(g2, _G2_CLAIMED_SET, 3)
    notes = [
        DiscrepancyNote(
            "Example-2.4-S2",
            "2.4",
            "label-mismatch",
            "the claimed 3-dominating set {v3,v4,v5,v6} of G2 leaves v1 with only two "
            "dominators; gamma3(G2) = 4 still holds (witness {v2,v3,v4,v5})",
        )
    ]
    return AuditReport(
        n_max,
        checked,
        tuple(delta_fail),
        tuple(obs_fail),
        tuple(kappa_fail),
        tuple(gk_fail),
        tuple(sweeps),
        gamma3(g1).number,
        gamma3(g2).number,
        claim,
        tuple(notes),
        time.perf_counter() - start,
    )
