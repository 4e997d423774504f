"""split_map gives the serial results, in order, whether or not it forks.

Each batch runs twice: once with the split off (the CPU count reads 1)
and once with it on (the CPU count reads 2, whatever the host has), where
a wrapper on os.fork counts the forks and one on os.waitpid records the
child's exit status, so a test cannot pass on a serial fallback.  The two
processes draw chunks of items as they come free, so which process
computes an item is not fixed: the tests that need one process or the
other tell them apart by os.getpid().
"""

import errno
import hashlib
import json
import os
import random
import threading
import time
from itertools import combinations

import pytest

from kdom import Graph, cli, complete, enumeration, graph6_encode, split
from kdom.cli import main
from kdom.enumeration import connected_graphs
from kdom.verifier import level_records
from test_cli import GOLDEN_SWEEPS_SHA256

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="split_map forks only where os.fork exists")


@pytest.fixture
def serial(monkeypatch):
    monkeypatch.setattr(split, "_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))


@pytest.fixture
def forks(monkeypatch):
    """{'forks': forks made, 'statuses': exit statuses of the reaped children}."""
    seen = {"forks": 0, "statuses": []}
    real_fork, real_waitpid = os.fork, os.waitpid

    def fork():
        seen["forks"] += 1
        return real_fork()

    def waitpid(pid, options):
        reaped = real_waitpid(pid, options)
        seen["statuses"].append(reaped[1])
        return reaped

    monkeypatch.setattr(split, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return seen


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def build_levels(top):
    """Adjacency rows of every level 1..top, each built by _extend_level."""
    levels = [enumeration._all_levels[1]]
    for m in range(2, top + 1):
        levels.append(enumeration._extend_level(levels[-1], m))
    return [tuple(g.adj for g in level) for level in levels]


def test_split_map_keeps_the_order_of_any_batch(forks):
    # 256, 257 and 513 sit at the chunk-size steps; 3001 items make 251 chunks of 12, the last of 1
    sizes = (0, 1, split.SPLIT_MIN - 1, split.SPLIT_MIN, split.SPLIT_MIN + 1, 256, 257, 513, 1000, 3001)
    for size in sizes:
        items = list(range(size))
        assert split.split_map(lambda x: (x, str(x), [x] * (x % 3), None), items) == [
            (x, str(x), [x] * (x % 3), None) for x in items
        ]
    assert forks["forks"] == 7 and forks["statuses"] == [0] * 7
    assert_no_child_left()


def test_the_free_process_takes_the_remaining_chunks(forks):
    """While one process sleeps on item 0, the other computes all the remaining items."""

    def pid(x):
        if x == 0:
            time.sleep(0.5)
        return os.getpid()

    out = split.split_map(pid, range(split.SPLIT_MIN))
    assert forks["forks"] == 1 and forks["statuses"] == [0]
    assert os.getpid() in out and len(set(out)) == 2
    assert out[0] not in out[1:]
    assert_no_child_left()


def test_levels_up_to_8_equal_serial_and_split(monkeypatch, forks):
    split_levels = build_levels(8)
    assert forks["forks"] >= 2 and set(forks["statuses"]) == {0}  # levels 7 and 8 at least
    monkeypatch.setattr(split, "_cpus", lambda: 1)
    assert build_levels(8) == split_levels
    assert [len(level) for level in split_levels] == [1, 2, 4, 11, 34, 156, 1044, 12346]  # OEIS A000088
    assert_no_child_left()


def test_level_records_equal_serial_and_split(monkeypatch, forks):
    connected_graphs(7)  # built and cached first
    made = forks["forks"]
    split_records = level_records.__wrapped__(7)
    assert forks["forks"] == made + 1 and set(forks["statuses"]) == {0}
    monkeypatch.setattr(split, "_cpus", lambda: 1)
    assert level_records.__wrapped__(7) == split_records == level_records(7)


def seeded_graphs(count):
    """G(n, p) graphs with n 6..14, some disconnected or with isolated vertices."""
    rng = random.Random(1313)
    out = []
    for i in range(count):
        n = 6 + i % 9
        p = (0.2, 0.35, 0.5, 0.8)[i % 4]
        out.append(Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return out


def invariants(capsys, path):
    code = main(["invariants", "--file", str(path), "--json"])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_equal_serial_and_split(monkeypatch, capsys, tmp_path, forks):
    graphs = seeded_graphs(split.SPLIT_MIN)
    assert any(min(row.bit_count() for row in g.adj) == 0 for g in graphs)  # double domination infeasible
    path = tmp_path / "graphs.g6"
    path.write_text("".join(graph6_encode(g) + "\n" for g in graphs))
    split_run = invariants(capsys, path)
    assert forks["forks"] == 1 and forks["statuses"] == [0]
    monkeypatch.setattr(split, "_cpus", lambda: 1)
    assert invariants(capsys, path) == split_run
    assert split_run[0] == 0 and split_run[2] == ""


def parent_text(rows):
    """The text output as the CLI built it from whole rows, after the split."""
    out = []
    for row in rows:
        out.append(f"graph6: {row['graph6']}\nn: {row['n']}\nedges: {row['edges']}\n")
        out.append(f"min_degree: {row['min_degree']}\nmax_degree: {row['max_degree']}\n")
        for key in ("gamma", "gamma3", "double_domination"):
            val = row[key]
            if not val.get("feasible", True):
                out.append(f"{key}: infeasible\n")
            else:
                out.append(f"{key}: {val['number']} witness: {{{','.join(map(str, val['witness']))}}}\n")
        out.append(f"kappa: {row['kappa']['kappa']} cut: {{{','.join(map(str, row['kappa']['cut']))}}}\n")
    return "".join(out)


@pytest.mark.parametrize("names, more", [("K1", 0), ("K4", 0), ("K1 K4", 0), ("K1 K4", split.SPLIT_MIN)])
def test_rows_rendered_in_the_split_print_as_the_rows_did(monkeypatch, capsys, tmp_path, forks, names, more):
    """The JSON output is json.dumps of the rows, and the text is the
    parent's renderer over them, split or serial."""
    graphs = [complete(int(name[1:])) for name in names.split()] + seeded_graphs(more)
    rows = [cli._invariants_row(g) for g in graphs]
    heads = rows[: len(names.split())]
    assert all(row["kappa"]["separated"] is None for row in heads)  # a complete graph separates no pair
    assert [row["double_domination"] == {"feasible": False} for row in heads] == [n == "K1" for n in names.split()]
    expected_json = json.dumps(rows if len(rows) > 1 else rows[0], indent=2, sort_keys=True) + "\n"
    path = tmp_path / "graphs.g6"
    path.write_text("".join(graph6_encode(g) + "\n" for g in graphs))
    for cpus in (2, 1):
        monkeypatch.setattr(split, "_cpus", lambda: cpus)
        assert invariants(capsys, path) == (0, expected_json, "")
        assert main(["invariants", "--file", str(path)]) == 0
        assert capsys.readouterr() == (parent_text(rows), "")
    assert forks["forks"] == (2 if more else 0) and set(forks["statuses"]) <= {0}


@pytest.mark.parametrize("where", ["parent", "child"])
def test_a_failing_item_raises_the_serial_error(monkeypatch, capsys, tmp_path, forks, where):
    """The first item that `where` computes fails; the serial rerun raises the empty graph's error."""
    lines = [graph6_encode(g) for g in seeded_graphs(split.SPLIT_MIN + 1)]
    lines[2] = "?"  # n = 0
    path = tmp_path / "graphs.g6"
    path.write_text("".join(line + "\n" for line in lines))
    parent, row, first = os.getpid(), cli._invariants_row, []

    def failing_row(g):
        """The first call in each process fails in `where` and waits 0.2 s in the other one."""
        if not first:
            first.append(g)  # in the child, only the child's copy grows
            if (os.getpid() == parent) == (where == "parent"):
                raise ValueError("injected failure")
            time.sleep(0.2)
        return row(g)

    monkeypatch.setattr(cli, "_invariants_row", failing_row)
    code, out, err = invariants(capsys, path)
    assert forks["forks"] == 1 and len(forks["statuses"]) == 1 and len(first) == 1
    if where == "child":
        assert os.waitstatus_to_exitcode(forks["statuses"][0]) == 1
    assert code == 2 and out == ""
    assert "empty graph" in err and "injected" not in err and "Traceback" not in err
    assert_no_child_left()
    monkeypatch.setattr(split, "_cpus", lambda: 1)
    assert invariants(capsys, path) == (code, out, err)


@pytest.mark.parametrize("failing", ["fork", "result pipe"])
def test_a_failed_fork_or_pipe_runs_the_batch_serially(monkeypatch, capsys, failing):
    """With no process or descriptor to spare, every pipe made is closed and the batch runs serially."""
    real_pipe, calls = os.pipe, []

    def pipe():
        calls.append("pipe")
        if failing == "result pipe" and len(calls) % 2 == 0:  # the ticket pipe is made first
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return real_pipe()

    def fork():
        calls.append("fork")
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(split, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    fds = sorted(os.listdir("/dev/fd"))
    assert split.split_map(abs, range(-500, 0)) == list(range(500, 0, -1))
    assert calls == (["pipe", "pipe", "fork"] if failing == "fork" else ["pipe", "pipe"])
    level_records.cache_clear()  # verify-bound solves its levels here, with each split failing
    code = main(["verify-bound", "--max-n", "7", "--json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "") and len(calls) > 3
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SWEEPS_SHA256[("verify-bound",)]
    assert sorted(os.listdir("/dev/fd")) == fds
    assert_no_child_left()


def test_small_batches_and_one_cpu_stay_in_process(serial):
    assert split.split_map(abs, range(-5000, 0)) == list(range(5000, 0, -1))


def test_no_fork_while_another_thread_runs(forks):
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        assert split.split_map(abs, range(-500, 0)) == list(range(500, 0, -1))
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive()
    assert forks["forks"] == 0
