"""Command-line front end.

Subcommands: invariants, construct, enumerate, characterize,
check-theorem, verify-bound, audit.  Output is UTF-8 text or JSON
(--json); JSON is byte-deterministic for identical inputs.  Exit codes:
0 success, 1 discrepancy findings under --strict-paper, a violation of
the bound in verify-bound or any non-empty failure list of audit,
2 usage errors (bad input files, malformed graph6, guard violations,
an unknown theorem or an offset below 1).

Importing this module loads only the layers every invariants call runs
(graphs, domination, connectivity, split); each command imports the
rest it needs, the catalog and its DSL only where it names catalog
graphs or diffs a theorem.  The valid theorems and offsets and the
default --max-n are the verifier's, so the parser leaves them to it."""

import argparse
import json
import sys

from .connectivity import vertex_connectivity
from .domination import gamma_k
from .graphs import graph6_decode, graph6_encode, max_degree, min_degree, parse_edge_list
from .split import split_map

USAGE_ERROR = 2


def _emit(text):
    sys.stdout.write(text)


def _emit_json(obj):
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_graphs(args):
    """Graphs named by --family / --graph6 / --file flags, in order."""
    out = []
    if args.family is not None:
        from .families import build_family

        out.append(build_family(args.family))
    if args.graph6 is not None:
        out.append(graph6_decode(args.graph6))
    if args.file is not None:
        with open(args.file, encoding="utf-8-sig") as handle:
            text = handle.read()
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError(f"no graph in {args.file}")
        if lines[0].strip().isdigit():  # a vertex count; a graph6 size byte chr(63+n) is never a digit
            out.append(parse_edge_list(text))
        else:
            out.extend(map(graph6_decode, lines))
    if not out:
        raise ValueError("no input graph; pass --family, --graph6 or --file")
    return out


def _domination_jsonable(res):
    if not res.feasible:
        return {"feasible": False}
    return {"number": res.number, "witness": list(res.witness)}


def _invariants_row(g):
    """One graph's invariants as a dict of plain values, which a split batch can send back."""
    gamma = gamma_k(g, 1, "k-domination")
    g3 = gamma_k(g, 3, "k-domination")
    double = gamma_k(g, 2, "k-tuple")
    cut = vertex_connectivity(g)
    return {
        "graph6": graph6_encode(g),
        "n": g.n,
        "edges": g.edge_count(),
        "min_degree": min_degree(g),
        "max_degree": max_degree(g),
        "gamma": _domination_jsonable(gamma),
        "gamma3": _domination_jsonable(g3),
        "double_domination": _domination_jsonable(double),
        "kappa": {
            "kappa": cut.kappa,
            "cut": list(cut.cut),
            "separated": list(cut.separated) if cut.separated else None,
        },
    }


def _invariants_text(row):
    out = [
        f"graph6: {row['graph6']}\n",
        f"n: {row['n']}\nedges: {row['edges']}\n",
        f"min_degree: {row['min_degree']}\nmax_degree: {row['max_degree']}\n",
    ]
    for key in ("gamma", "gamma3", "double_domination"):
        val = row[key]
        if not val.get("feasible", True):
            out.append(f"{key}: infeasible\n")
        else:
            witness = ",".join(map(str, val["witness"]))
            out.append(f"{key}: {val['number']} witness: {{{witness}}}\n")
    cut = row["kappa"]
    out.append(f"kappa: {cut['kappa']} cut: {{{','.join(map(str, cut['cut']))}}}\n")
    return "".join(out)


def _cmd_invariants(args):
    # a malformed input fails in _load_graphs, before any graph is solved
    rows = split_map(_invariants_row, _load_graphs(args))
    if args.json:
        _emit_json(rows[0] if len(rows) == 1 else rows)
    else:
        _emit("".join(map(_invariants_text, rows)))
    return 0


def _cmd_construct(args):
    from .families import build_family

    g = build_family(args.family)
    if args.json:
        _emit_json({"family": args.family, "graph6": graph6_encode(g), "n": g.n, "edges": g.edge_count()})
    else:
        _emit(graph6_encode(g) + "\n")
    return 0


def _cmd_enumerate(args):
    from .enumeration import connected_graphs

    level = connected_graphs(args.n, allow_large=args.allow_large)
    strings = [graph6_encode(g) for g in level]
    if args.json:
        _emit_json({"n": args.n, "count": len(strings), "graphs": strings})
    else:
        _emit("".join(s + "\n" for s in strings))
    return 0


def _entry_names(g6, lookup):
    return ",".join(lookup.get(g6, [g6]))


def _n_max(args):
    """--max-n as a sweep's n_max keyword, or none, so the sweep's own default applies."""
    return {} if args.max_n is None else {"n_max": args.max_n}


def _cmd_characterize(args):
    from .verifier import characterize

    doc = characterize(args.offset, **_n_max(args))
    if args.json:
        _emit_json(doc)
        return 0
    from .catalog import canonical_names

    lookup = canonical_names()
    _emit(f"gamma3+kappa = 2n-{args.offset}, n = 3..{doc['n_max']}\n")
    for level in doc["levels"]:
        recs = level["extremal"]
        if not recs:
            _emit(f"n={level['n']}: (none)\n")
            continue
        line = " ".join(f"{r['g6']}[{_entry_names(r['g6'], lookup)}]" for r in recs)
        _emit(f"n={level['n']}: {line}\n")
    return 0


def _cmd_check_theorem(args):
    from .verifier import check_theorem, horizon

    doc = check_theorem(args.theorem, **_n_max(args))
    if args.json:
        _emit_json(doc)
    else:
        _emit(f"theorem {doc['theorem']} (gamma3+kappa = 2n-{doc['target_offset']}), n <= {doc['n_max']}\n")
        _emit(f"confirmed ({len(doc['confirmed'])}): {', '.join(doc['confirmed']) or '(none)'}\n")
        extra = ", ".join(f"{e['name']} (computed sum {e['computed_sum']})" for e in doc["extra"])
        _emit(f"extra ({len(doc['extra'])}): {extra or '(none)'}\n")
        _emit(f"missing ({len(doc['missing'])}): {', '.join(doc['missing']) or '(none)'}\n")
        for nt in doc["notes"]:
            _emit(f"note {nt['entry']}: {nt['kind']}: {nt['detail']}\n")
        for caveat in doc["caveats"]:
            _emit(f"caveat: {caveat}\n")
        top = horizon(doc["target_offset"])
        if doc["n_max"] >= top:
            _emit(f"complete for all n: gamma3+kappa <= n+2, so extremal graphs have n <= {top}\n")
    if args.strict_paper and (doc["extra"] or doc["missing"]):
        return 1
    return 0


def _cmd_verify_bound(args):
    from .verifier import verify_bound

    doc = verify_bound(**_n_max(args))
    if args.json:
        _emit_json(doc)
    else:
        from .catalog import canonical_names

        lookup = canonical_names()
        names = ", ".join(_entry_names(g6, lookup) for g6 in doc["equality"])
        _emit(f"{len(doc['violations'])} violations, equality: {names or '(none)'}\n")
    if args.strict_paper:
        from .catalog import theorem_catalog

        if doc["equality"] != sorted(e.canon for e in theorem_catalog("3.1")[0]):
            return 1  # Theorem 3.1 lists exactly the graphs that attain the bound
    return 1 if doc["violations"] else 0


def _cmd_audit(args):
    from .verifier import audit_small_theorems

    doc = audit_small_theorems(**_n_max(args))
    if args.json:
        _emit_json(doc)
    else:
        _emit(f"graphs checked (n=3..{doc['n_max']}): {doc['graphs_checked']}\n")
        _emit(f"gamma3=n iff max_degree<=2: {len(doc['delta_equivalence_failures'])} failures\n")
        _emit(f"3 <= gamma3 <= n: {len(doc['observation_failures'])} failures\n")
        _emit(f"kappa <= min_degree: {len(doc['kappa_failures'])} failures\n")
        _emit(f"gamma+kappa <= n: {len(doc['gamma_kappa_bound_failures'])} failures\n")
        for sweep in doc["matching_sweeps"]:
            _emit(
                f"K{sweep['n']} minus matchings ({sweep['matchings']}): "
                f"{len(sweep['failures'])} failures\n"
            )
        _emit(f"example graphs: gamma3(G1)={doc['example_g1_gamma3']} gamma3(G2)={doc['example_g2_gamma3']}\n")
        for nt in doc["notes"]:
            _emit(f"note {nt['entry']}: {nt['kind']}: {nt['detail']}\n")
    failed = any(doc[key] for key in doc if key.endswith("_failures"))
    failed = failed or any(sweep["failures"] for sweep in doc["matching_sweeps"])
    # a failed fact exits 1 with or without --strict-paper; the Example 2.4
    # note, present while its claimed set fails, exits 1 under --strict-paper
    if failed or (args.strict_paper and doc["notes"]):
        return 1
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kdom",
        description="Exact 3-domination and connectivity solvers with an exhaustive "
        "extremal-graph verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, strict=False):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if strict:
            p.add_argument(
                "--strict-paper",
                action="store_true",
                help="exit 1 when the source's verbatim claims do not hold",
            )

    p = sub.add_parser("invariants", help="gamma, gamma3, double domination, kappa, degrees")
    p.add_argument("--family", help="family DSL expression, e.g. 'C4(P2,2P3,P4,P3)'")
    p.add_argument("--graph6", help="a graph6 string")
    p.add_argument("--file", help="input file: graph6 lines, or an edge list (first line n)")
    add_common(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("construct", help="evaluate a family DSL expression to graph6")
    p.add_argument("--family", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("enumerate", help="dump one enumeration level as canonical graph6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--allow-large", action="store_true", help="lift the n<=8 guard")
    add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("characterize", help="extremal sets gamma3+kappa = 2n-offset")
    p.add_argument("--offset", type=int, required=True)
    p.add_argument("--max-n", type=int)
    add_common(p)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("check-theorem", help="diff one theorem's list against the computation")
    p.add_argument("theorem")
    p.add_argument("--max-n", type=int)
    add_common(p, strict=True)
    p.set_defaults(func=_cmd_check_theorem)

    p = sub.add_parser("verify-bound", help="check gamma3+kappa <= 2n-1 exhaustively")
    p.add_argument("--max-n", type=int)
    add_common(p, strict=True)
    p.set_defaults(func=_cmd_verify_bound)

    p = sub.add_parser("audit", help="sweep the small structural facts")
    p.add_argument("--max-n", type=int)
    add_common(p, strict=True)
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
