"""Checks on every output the benchmark measures.

The sweeps (check-theorem, verify-bound, audit) are deterministic, so
their stdout must match the SHA-256 digests pinned in expected.json, and
a few facts are checked independently of those digests. The invariants
output is checked by its certificates: every witness is re-verified and
every cut is shown to separate its pair, with code that shares nothing
with kdom. Each check returns a list of problems; empty means correct.
"""

import hashlib
import json
import os

from gen import component, graph6_decode

# connected graphs on n = 1..8 vertices (OEIS A001349)
A001349 = (1, 1, 2, 6, 21, 112, 853, 11117)
FIRST_LEVEL = 3  # the sweeps start at n = 3

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json"), encoding="utf-8") as _f:
    EXPECTED_DIGESTS = json.load(_f)


# the least graph6 string over all labelings of each graph, found by
# trying every permutation; test_bench.py compares them with kdom's
K3 = "Bw"
DIAMOND = "C^"  # K4 minus an edge


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sweep_facts(argv, doc):
    n_max = int(argv[argv.index("--max-n") + 1])
    swept = sum(A001349[FIRST_LEVEL - 1 : n_max])
    if argv[0] == "check-theorem":
        if doc["n_max"] != n_max:
            yield f"n_max is {doc['n_max']}"
        if [level["n"] for level in doc["levels"]] != list(range(FIRST_LEVEL, n_max + 1)):
            yield "levels do not run from 3 to n_max"
        if argv[1] == "3.3" and DIAMOND not in doc["missing"]:
            yield f"the diamond {DIAMOND} is not listed under missing"
    elif argv[0] == "verify-bound":
        if doc["graphs_checked"] != swept:
            yield f"graphs_checked is {doc['graphs_checked']}, not {swept}"
        if doc["violations"]:
            yield f"{len(doc['violations'])} violations"
        if doc["equality"] != [K3]:
            yield f"equality set is {doc['equality']}, not [{K3}]"
    elif argv[0] == "audit":
        if doc["graphs_checked"] != swept:
            yield f"graphs_checked is {doc['graphs_checked']}, not {swept}"
        for key, value in doc.items():
            if key.endswith("_failures") and value:
                yield f"{key} is not empty"
        if any(sweep["failures"] for sweep in doc["matching_sweeps"]):
            yield "a K_n minus matching sweep failed"


def check_sweep(argv, code, stdout):
    """Problems with the output of one deterministic sweep command."""
    name = " ".join(argv)
    if code != 0:
        return [f"{name}: exit code {code}"]
    problems = []
    if digest(stdout) != EXPECTED_DIGESTS.get(name):
        problems.append(f"{name}: stdout differs from the pinned digest")
    try:
        problems += [f"{name}: {p}" for p in _sweep_facts(argv, json.loads(stdout))]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"{name}: malformed output ({exc!r})")
    return problems


def check_level_sizes(levels):
    """Problems with the (n, size) pairs connected_graphs returned."""
    return [
        f"level {n} has {size} graphs, not {A001349[n - 1]}"
        for n, size in levels
        if n <= len(A001349) and size != A001349[n - 1]
    ]


def _dominates(rows, mask, k, closed):
    """k-domination (open neighbourhoods, members exempt) or k-tuple (closed)."""
    for v, row in enumerate(rows):
        if closed:
            if ((row | 1 << v) & mask).bit_count() < k:
                return False
        elif not (mask >> v) & 1 and (row & mask).bit_count() < k:
            return False
    return True


def _row_problems(line, row):
    n, rows = graph6_decode(line)
    degrees = [r.bit_count() for r in rows]
    if (row["graph6"], row["n"], row["edges"]) != (line, n, sum(degrees) // 2):
        yield "graph6, n or edges do not match the input"
    if (row["min_degree"], row["max_degree"]) != (min(degrees), max(degrees)):
        yield "degrees do not match the input"
    for key, k, closed in (("gamma", 1, False), ("gamma3", 3, False), ("double_domination", 2, True)):
        witness = row[key]["witness"]
        if len(set(witness)) != row[key]["number"] or not all(0 <= v < n for v in witness):
            yield f"{key} witness does not have the reported size"
        elif not _dominates(rows, sum(1 << v for v in witness), k, closed):
            yield f"{key} witness fails the domination test"
    if row["gamma"]["number"] > row["gamma3"]["number"]:
        yield "gamma exceeds gamma3"
    kappa = row["kappa"]
    cut = sum(1 << v for v in kappa["cut"])
    if len(set(kappa["cut"])) != kappa["kappa"] or kappa["kappa"] > min(degrees):
        yield "cut size differs from kappa, or kappa exceeds the minimum degree"
    elif kappa["separated"] is None:
        if sum(degrees) != n * (n - 1) or kappa["kappa"] != n - 1:
            yield "no separated pair, but the graph is not complete"
    else:
        u, v = kappa["separated"]
        if (cut >> u) & 1 or (cut >> v) & 1 or (component(rows, u, cut) >> v) & 1:
            yield f"removing the cut does not separate {u} and {v}"


def check_invariants(lines, code, stdout):
    """Problems with `kdom invariants --json` run on the graph6 lines."""
    if code != 0:
        return [f"invariants: exit code {code}"]
    try:
        rows = json.loads(stdout)
    except ValueError as exc:
        return [f"invariants: output is not JSON ({exc})"]
    if isinstance(rows, dict):
        rows = [rows]
    if len(rows) != len(lines):
        return [f"invariants: {len(rows)} rows for {len(lines)} graphs"]
    problems = []
    for line, row in zip(lines, rows):
        try:
            problems += [f"invariants {line}: {p}" for p in _row_problems(line, row)]
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"invariants {line}: malformed row ({exc!r})")
    return problems
