"""Exact solvers and an exhaustive verifier for 3-domination plus connectivity
extremal graphs on small vertex counts.

Each public name loads its module on first use (PEP 562), so a process
imports only the layers it runs."""

import importlib

_NAMES = {  # module: the public names it defines
    "catalog": "CatalogEntry checked_catalog",
    "connectivity": "CutResult kappa vertex_connectivity",
    "domination": "DominationResult gamma3 gamma_k is_k_dominating is_k_tuple_dominating",
    "enumeration": "connected_graphs",
    "families": "FamilyParseError build_family",
    "graphs": "MAX_VERTICES Graph attach_pendant_paths complement complete complete_bipartite cycle "
    "disjoint_union friendship graph6_decode graph6_encode greedy_matching is_connected join "
    "max_degree min_degree parse_edge_list path remove_matching wheel",
    "isomorphism": "CanonicalForm canonical_form canonical_graph6",
    "verifier": "DiscrepancyNote audit_small_theorems characterize check_theorem verify_bound",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value
