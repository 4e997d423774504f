"""Tests of the benchmark itself. Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import gen
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_cli(argv):
    from kdom.cli import main

    captured = io.StringIO()
    saved, sys.stdout = sys.stdout, captured
    try:
        code = main(argv)
    finally:
        sys.stdout = saved
    return code, captured.getvalue()


def test_generator_is_deterministic_per_seed():
    lines = gen.generate(3)
    assert lines == gen.generate(3)
    assert lines != gen.generate(4)
    assert len(lines) == len(gen.N_RANGE) * len(gen.DENSITIES) * gen.GRAPHS_PER_CELL
    for line in lines:
        n, rows = gen.graph6_decode(line)
        assert n in gen.N_RANGE
        assert gen.component(rows, 0) == (1 << n) - 1
        assert gen.graph6_encode(n, rows) == line


def test_graph6_codec_agrees_with_kdom():
    from kdom.graphs import graph6_decode

    for line in gen.generate(1)[::97]:
        n, rows = gen.graph6_decode(line)
        assert graph6_decode(line).adj == tuple(rows)


def test_graph6_constants_match_kdom():
    from kdom.graphs import Graph
    from kdom.isomorphism import canonical_graph6

    triangle = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert checks.K3 == canonical_graph6(triangle)
    assert checks.DIAMOND == canonical_graph6(diamond)


def test_invariants_checker_accepts_real_output_and_rejects_a_flipped_witness(tmp_path):
    lines = gen.generate(2)[:8]  # n = 12, average degree 3
    path = tmp_path / "g.g6"
    path.write_text("".join(line + "\n" for line in lines))
    code, out = run_cli(["invariants", "--file", str(path), "--json"])
    assert checks.check_invariants(lines, code, out) == []

    # A vertex of degree < 3 lies in every 3-dominating set, so swapping it
    # for an outside vertex must break the gamma3 certificate.
    rows = json.loads(out)
    index, forced = next(
        (i, v)
        for i, line in enumerate(lines)
        for v, row in enumerate(gen.graph6_decode(line)[1])
        if row.bit_count() < 3
    )
    witness = rows[index]["gamma3"]["witness"]
    outside = next(v for v in range(rows[index]["n"]) if v not in witness)
    witness[witness.index(forced)] = outside
    problems = checks.check_invariants(lines, code, json.dumps(rows))
    assert problems and "gamma3 witness fails" in problems[0]


def test_invariants_checker_rejects_a_cut_that_does_not_separate(tmp_path):
    lines = gen.generate(2)[-1:]  # n = 18, p = 0.8
    path = tmp_path / "g.g6"
    path.write_text(lines[0] + "\n")
    code, out = run_cli(["invariants", "--file", str(path), "--json"])
    assert checks.check_invariants(lines, code, out) == []
    row = json.loads(out)
    row["kappa"]["cut"][0] = row["kappa"]["separated"][0]
    assert checks.check_invariants(lines, code, json.dumps(row))


def test_sweep_checker_rejects_one_altered_byte():
    argv = ["verify-bound", "--max-n", "7", "--json"]
    code, out = run_cli(argv)
    assert checks.check_sweep(argv, code, out) == []
    altered = out.replace(" ", "\t", 1)  # still valid JSON with the same facts
    assert json.loads(altered) == json.loads(out)
    assert checks.check_sweep(argv, code, altered) == [f"{' '.join(argv)}: stdout differs from the pinned digest"]
    assert checks.check_sweep(argv, 1, out)


def test_sweep_facts_catch_a_missing_diamond():
    argv = ["check-theorem", "3.3", "--max-n", "7", "--json"]
    doc = {"n_max": 7, "levels": [{"n": n} for n in range(3, 8)], "missing": []}
    assert list(checks._sweep_facts(argv, doc)) == [f"the diamond {checks.DIAMOND} is not listed under missing"]


def test_level_sizes_checked_against_a001349():
    assert checks.check_level_sizes([(7, 853), (8, 11117)]) == []
    assert checks.check_level_sizes([(7, 852)]) == ["level 7 has 852 graphs, not 853"]


def test_self_time_of_nested_spans():
    nested = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["d", 5.0, 9.0, 0, None],
    ]
    assert spans.self_times(nested) == [3.0, 2.0, 1.0, 4.0]
    # overlapping children are covered once, and a child is clipped to its parent
    overlapping = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 6.0, 0, None],
        ["c", 4.0, 12.0, 0, None],
    ]
    assert spans.self_times(overlapping)[0] == 1.0


def test_layer_metrics_of_a_synthetic_trace():
    trace = [
        [spans.ENUMERATION, 0.0, 4.0, -1, [7, 2]],
        [spans.CANONICAL, 0.5, 1.5, 0, 7],
        [spans.CANONICAL, 1.5, 2.5, 0, 7],
        [spans.CANONICAL, 2.5, 3.5, 0, 7],
        ["domination.gamma3", 5.0, 6.0, -1, 1],
        ["domination.gamma3", 6.0, 6.5, -1, 0],
        [spans.KAPPA, 7.0, 8.0, -1, 1],
    ]
    metrics = spans.layer_metrics([trace, trace])
    assert metrics["enumeration.build_s"] == 8.0
    assert metrics["enumeration.children.n7"] == 6
    assert metrics["enumeration.unique.n7"] == 4
    assert metrics["enumeration.unique_ratio.n7"] == pytest.approx(4 / 6)
    assert metrics["isomorphism.canonical_form.calls"] == 6
    assert metrics["isomorphism.canonical_form.p50_us"] == pytest.approx(1e6)
    assert metrics["domination.gamma3.calls"] == 4
    assert metrics["domination.gamma3.self_s"] == pytest.approx(3.0)
    assert metrics["verifier.gamma3_per_graph"] == pytest.approx(0.5)
    assert metrics["verifier.kappa_per_graph"] == pytest.approx(0.5)
    assert metrics["domination.gamma_k.max_ms"] == pytest.approx(1000.0)


def test_traced_child_patches_every_alias(tmp_path):
    path = str(tmp_path / "spans.json")
    spec = {"launched": 0.0, "src": os.path.realpath(SRC), "spans": path,
            "commands": [["verify-bound", "--max-n", "5", "--json"], ["audit", "--max-n", "5", "--json"]]}
    done = subprocess.run(
        [sys.executable, run.CHILD, json.dumps(spec)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120, check=True,
    )
    assert [r["code"] for r in json.loads(done.stdout)["results"]] == [0, 0]
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    metrics = spans.layer_metrics([trace])
    assert checks.check_level_sizes(spans.level_sizes(trace)) == []
    assert metrics["enumeration.unique.n6"] == 0  # max-n 5 builds no level 6
    assert metrics["isomorphism.canonical_form.calls"] > 0
    assert metrics["verifier.gamma3_per_graph"] == 2.0  # level_records, then the audit again
    assert metrics["verifier.kappa_per_graph"] == 2.0
    assert metrics["domination.gamma1.calls"] > 0  # the audit's gamma_k, imported by name
    assert metrics["catalog.checked_catalog.calls"] == 1


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    layer = dict(spans.layer_metrics([]), **{"cli.stdout_bytes": 0, "proc.cpu_s": 0, "trace.overhead_s": 0})
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(k, run.unit_of(k)) for k in layer]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_UNITS.items())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_a_kdom_tree(tmp_path):
    shutil.copytree(os.path.dirname(run.CHILD), tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweeps-n7", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
