"""Exact solvers and an exhaustive verifier for 3-domination plus connectivity
extremal graphs on small vertex counts."""

from .graphs import (
    MAX_VERTICES,
    Graph,
    attach_pendant_paths,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    friendship,
    graph6_decode,
    graph6_encode,
    greedy_matching,
    is_connected,
    join,
    max_degree,
    min_degree,
    parse_edge_list,
    path,
    remove_matching,
    wheel,
)
from .catalog import CatalogEntry, DiscrepancyNote, checked_catalog
from .connectivity import CutResult, vertex_connectivity
from .domination import (
    DominationResult,
    gamma3,
    gamma_k,
    is_k_dominating,
    is_k_tuple_dominating,
)
from .enumeration import connected_graphs
from .families import FamilyParseError, build_family
from .isomorphism import CanonicalForm, canonical_form, canonical_graph6
from .verifier import audit_small_theorems, characterize, check_theorem, verify_bound

__all__ = [
    "CatalogEntry",
    "DiscrepancyNote",
    "checked_catalog",
    "CutResult",
    "vertex_connectivity",
    "DominationResult",
    "gamma3",
    "gamma_k",
    "is_k_dominating",
    "is_k_tuple_dominating",
    "connected_graphs",
    "FamilyParseError",
    "build_family",
    "audit_small_theorems",
    "characterize",
    "check_theorem",
    "verify_bound",
    "MAX_VERTICES",
    "Graph",
    "attach_pendant_paths",
    "complement",
    "complete",
    "complete_bipartite",
    "cycle",
    "disjoint_union",
    "friendship",
    "graph6_decode",
    "graph6_encode",
    "greedy_matching",
    "is_connected",
    "join",
    "max_degree",
    "min_degree",
    "parse_edge_list",
    "path",
    "remove_matching",
    "wheel",
    "CanonicalForm",
    "canonical_form",
    "canonical_graph6",
]
