"""The named extremal graphs of the five characterization theorems.

Every graph a theorem statement, proof, or figure names is transcribed as
a machine-checkable entry: family recipes go through the DSL, figure
graphs are explicit edge lists keyed to their figure id (read from the
drawing coordinates, since several overline labels disagree with what is
drawn).  theorem_catalog(theorem) builds one theorem's entries once per
process: each entry is frozen with its graph, canonical graph6, gamma3
and kappa, and gamma3+kappa is compared against the theorem's 2n-offset
target; checked_catalog() joins the five theorems.  Static transcription
notes record label mismatches, proof-only members, and figure
duplicates, and a fails-target note is attached to every entry that
misses its target.  Nothing is silently corrected.
"""

from collections import namedtuple
from functools import lru_cache

from .connectivity import kappa
from .domination import gamma3
from .families import build_family
from .graphs import Graph, is_connected
from .isomorphism import canonical_graph6

THEOREM_OFFSETS = {"3.1": 1, "3.2": 2, "3.3": 3, "3.4": 4, "3.5": 5}

NOTE_KINDS = ("fails-target", "label-mismatch", "missing-from-statement", "ambiguous-figure")


class CatalogEntry(namedtuple("CatalogEntry", "name theorem source graph canon gamma3 kappa")):
    """One named graph with provenance and its invariants.

    source is "statement", "proof" or a figure id such as "ft102"; canon
    is the canonical graph6 string.
    """

    __slots__ = ()


class DiscrepancyNote(namedtuple("DiscrepancyNote", "entry theorem kind detail")):
    __slots__ = ()

    def __new__(cls, entry, theorem, kind, detail):
        if kind not in NOTE_KINDS:
            raise ValueError(f"unknown note kind {kind!r}")
        return super().__new__(cls, entry, theorem, kind, detail)

    def to_jsonable(self):
        return {"entry": self.entry, "kind": self.kind, "detail": self.detail}


# (name, theorem, source, recipe); a recipe is DSL text or (n, edges), and the
# figures' edges are read vertex by vertex from the drawing coordinates.
_ENTRIES = (
    ("K3", "3.1", "statement", "K3"),
    ("K4", "3.2", "statement", "K4"),
    ("C4", "3.2", "statement", "C4"),
    ("K{1,2}", "3.2", "statement", "K{1,2}"),
    ("K5", "3.3", "statement", "K5"),
    ("C5", "3.3", "statement", "C5"),
    ("P4", "3.3", "statement", "P4"),
    ("K6", "3.4", "statement", "K6"),
    ("K6-PM", "3.4", "statement", "minus_matching(K6,perfect)"),
    ("C6", "3.4", "statement", "C6"),
    ("K5-e", "3.4", "statement", "minus_matching(K5,1)"),
    ("K5-2e", "3.4", "statement", "minus_matching(K5,2)"),
    ("P5", "3.4", "statement", "P5"),
    ("P4", "3.4", "statement", "P4"),  # listed by the statement; fails its target
    ("C3(P2,0,0)", "3.4", "statement", "C3(P2,0,0)"),
    ("K{1,3}", "3.4", "statement", "K{1,3}"),
    ("K1+P4", "3.4", "statement", "join(K1,P4)"),
    # C5 with one chord between two non-adjacent vertices (Theorem 3.4's last entry).
    ("C5+e", "3.4", "statement", (5, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (0, 2)))),
    ("K7", "3.5", "statement", "K7"),
    ("K6-e", "3.5", "statement", "minus_matching(K6,1)"),
    ("K6-2e", "3.5", "statement", "minus_matching(K6,2)"),
    ("T1", "3.5", "ft102", (6, ((0, 1), (0, 2), (2, 3), (3, 4), (1, 4), (0, 5), (2, 5), (3, 5), (1, 3), (0, 4), (4, 5)))),
    ("T2", "3.5", "ft102", (6, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (3, 5), (3, 4), (0, 5)))),
    ("T3", "3.5", "ft102", (6, ((0, 1), (1, 2), (1, 3), (0, 3), (0, 4), (3, 5), (4, 5), (3, 4), (0, 5)))),
    ("T4", "3.5", "ft102", (6, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 5), (2, 5), (1, 3)))),
    ("T5", "3.5", "ft102", (6, ((0, 1), (1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (2, 5), (0, 5), (0, 4)))),
    ("T6", "3.5", "ft102", (6, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 4), (2, 4), (2, 5), (4, 5), (3, 5)))),
    ("C6", "3.5", "statement", "C6"),  # listed by the statement; fails its target
    ("C7", "3.5", "proof", "C7"),
    ("P6", "3.5", "statement", "P6"),
    ("K{2,3}", "3.5", "statement", "K{2,3}"),
    ("K2+3K1", "3.5", "statement", "join(K2,complement(K3))"),
    ("H1", "3.5", "ft101", "complement(union(P3,union(K1,K1)))"),
    ("H2", "3.5", "ft101", "complement(union(P3,P2))"),
    ("F2", "3.5", "statement", "F2"),
    ("K{1,4}", "3.5", "statement", "K{1,4}"),
    ("C4(P2,0,0,0)", "3.5", "statement", "C4(P2,0,0,0)"),
    ("P3(0,P3,0)", "3.5", "statement", "P3(0,P3,0)"),
    ("C3(2P2,0,0)", "3.5", "statement", "C3(2P2,0,0)"),
    ("C3(P2,P2,0)", "3.5", "statement", "C3(P2,P2,0)"),
    ("C3(P3,0,0)", "3.5", "proof", "C3(P3,0,0)"),
    ("T7", "3.5", "ft104", (5, ((0, 1), (1, 2), (3, 4), (2, 4), (1, 4), (0, 4)))),
    ("T8", "3.5", "ft105", (6, ((0, 1), (1, 2), (3, 4), (4, 5), (2, 5), (2, 3), (0, 3)))),
    ("T9", "3.5", "ft105", (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (0, 5)))),
    ("T10", "3.5", "ft107", (6, ((2, 3), (0, 4), (0, 1), (1, 4), (2, 4), (1, 5), (3, 5)))),
    ("T11", "3.5", "ft107", (6, ((0, 1), (2, 3), (3, 4), (2, 4), (0, 4), (4, 5), (1, 5), (2, 5)))),
    ("T12", "3.5", "ft107", (6, ((0, 1), (0, 4), (4, 5), (1, 5), (2, 4), (2, 3), (3, 5)))),
)

_STATIC_NOTES = [
    DiscrepancyNote(
        "K2+3K1", "3.5", "label-mismatch",
        "statement writes K_2+K_3, but join(K2,K3) is K5 (an offset-3 graph); "
        "the proof's case iii builds an empty triangle joined to a 2-cut, so "
        "join(K2, complement(K3)) is transcribed",
    ),
    DiscrepancyNote(
        "T1", "3.5", "label-mismatch",
        "figure label says complement(P2 u P2) (a 4-vertex graph); the drawing is an "
        "11-edge graph on 6 vertices, the complement of P4 u P2",
    ),
    DiscrepancyNote(
        "T2", "3.5", "label-mismatch",
        "figure label says complement(C4 u K1 u K1) (11 edges); the drawing has 9 edges",
    ),
    DiscrepancyNote(
        "T3", "3.5", "label-mismatch",
        "figure label says complement(C4 u P2) (10 edges); the drawing has 9 edges "
        "and a degree-1 vertex",
    ),
    DiscrepancyNote(
        "T4", "3.5", "label-mismatch",
        "figure label says complement(P6) (10 edges); the drawing has 9 edges",
    ),
    DiscrepancyNote(
        "T6", "3.5", "label-mismatch",
        "figure label says W_5, a 5-vertex graph under the stated wheel convention; "
        "the drawing is the 6-vertex wheel (hub joined to C5)",
    ),
    DiscrepancyNote(
        "T10", "3.5", "ambiguous-figure",
        "the drawing is isomorphic to T9 (triangle and C5 sharing an edge); "
        "kept as a deliberately recorded duplicate",
    ),
    DiscrepancyNote(
        "T12", "3.5", "ambiguous-figure",
        "the drawing is isomorphic to T8 (two C4s sharing an edge); "
        "kept as a deliberately recorded duplicate",
    ),
    DiscrepancyNote(
        "C7", "3.5", "missing-from-statement",
        "derived in the proof (case v, n=7) but absent from the statement, "
        "which lists C6 instead",
    ),
    DiscrepancyNote(
        "C3(P3,0,0)", "3.5", "missing-from-statement",
        "derived in the proof (case iv, n=5) but absent from the statement",
    ),
]


@lru_cache(maxsize=None)
def theorem_catalog(theorem):
    """(entries, notes) of one theorem: its entries with their invariants, and its notes sorted."""
    entries = []
    notes = [nt for nt in _STATIC_NOTES if nt.theorem == theorem]
    offset = THEOREM_OFFSETS[theorem]
    for name, entry_theorem, source, recipe in _ENTRIES:
        if entry_theorem != theorem:
            continue
        g = build_family(recipe) if isinstance(recipe, str) else Graph.from_edges(*recipe)
        if not is_connected(g):
            raise AssertionError(f"catalog entry {name} built a disconnected graph")
        g3, k = gamma3(g).number, kappa(g)
        entries.append(CatalogEntry(name, theorem, source, g, canonical_graph6(g), g3, k))
        target = 2 * g.n - offset
        if g3 + k != target:
            notes.append(
                DiscrepancyNote(
                    name,
                    theorem,
                    "fails-target",
                    f"gamma3+kappa = {g3}+{k} = {g3 + k}, "
                    f"but 2n-{offset} = {target} at n={g.n}",
                )
            )
    notes.sort(key=lambda nt: (nt.entry, nt.kind, nt.detail))
    return tuple(entries), tuple(notes)


def checked_catalog():
    """(entries, notes) of every theorem: the entries in table order, the notes sorted."""
    parts = [theorem_catalog(theorem) for theorem in THEOREM_OFFSETS]  # _ENTRIES lists them in this order
    return tuple(e for entries, _ in parts for e in entries), tuple(nt for _, notes in parts for nt in notes)


def canonical_names():
    """Map canonical graph6 -> sorted entry names, for pretty reporting."""
    out = {}
    for entry in checked_catalog()[0]:
        out.setdefault(entry.canon, set()).add(entry.name)
    return {key: sorted(names) for key, names in out.items()}
