"""The kdom benchmark: two workloads, end-to-end timings, per-layer traces.

Run from the root of a kdom checkout (stdlib only, nothing to install):

    python3 bench/run.py --workload sweeps-n7 --seed 1 --seconds 50 --trace 0

Each iteration of the closed loop starts fresh child processes that
import kdom from ./src and run CLI commands through kdom.cli.main, one
process at a time; iterations repeat until --seconds would be exceeded.
Every output is checked (checks.py). With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
iterations and reports the per-layer metrics (spans.py). The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload in turn, for a person reading along.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
MAX_N = 7
THEOREMS = ("3.1", "3.2", "3.3", "3.4", "3.5")
SWEPT = sum(checks.A001349[checks.FIRST_LEVEL - 1 : MAX_N])  # graphs one sweep covers
REFERENCE_LOOP = 200_000  # iterations of the loop that gauges the host's current speed
REFERENCE_SAMPLES = 5  # loops timed before and after each child; their median is its gauge
REFERENCE_S = 0.01  # nominal time of one loop; setup_s is scaled to a host this fast
INPUT_FILES = 4  # invariants-random splits its graphs round-robin over this many processes
RUN_LIMIT_S = 170  # a run must end within 180 s, so children are killed after this
WORKLOADS = ("sweeps-n7", "invariants-random")


def _sweep(*args):
    return [*args, "--max-n", str(MAX_N), "--json"]


def plan(workload, inputs):
    """(processes, graphs per iteration); each process is a list of argv lists.

    sweeps-n7 runs one process per theorem, as a shell user would, so that
    a theorem needing fewer levels can skip building the rest, and then
    verify-bound and audit in one process, where the audit sweeps the
    graphs that verify-bound already evaluated. invariants-random runs one
    process per input file.
    """
    if workload == "sweeps-n7":
        theorems = [[_sweep("check-theorem", t)] for t in THEOREMS]
        return theorems + [[_sweep("verify-bound"), _sweep("audit")]], (len(THEOREMS) + 1) * SWEPT
    processes = [[["invariants", "--file", path, "--json"]] for path in inputs]
    return processes, sum(len(lines) for lines in inputs.values())


def reference_loops():
    """Seconds a fixed pure-Python loop takes now, timed REFERENCE_SAMPLES times; it never touches kdom."""
    times = []
    for _ in range(REFERENCE_SAMPLES):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i
        times.append(time.perf_counter() - start)
    return times


def run_process(root, src, commands, spans_path, timeout):
    """Run one child; return (report, None) or (None, reason)."""
    launched = time.monotonic()
    spec = json.dumps({"launched": launched, "src": src, "commands": commands, "spans": spans_path})
    with subprocess.Popen(
        [sys.executable, CHILD, spec],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"killed after {timeout:.0f} s"
        except BaseException:
            proc.kill()  # leaving the with block waits for it
            raise
    wall = time.monotonic() - launched
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {err.strip()[-500:]}"
    try:
        report = json.loads(out)
    except ValueError:
        return None, f"unreadable report: {out[-200:]!r}"
    report["wall_s"] = wall
    return report, None


class Run:
    """The measurements and check results of one benchmark run."""

    def __init__(self, root, src, workdir, inputs):
        self.root, self.src, self.workdir, self.inputs = root, src, workdir, inputs
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setups = []
        self.setup_norms = []
        self.first_digests = {}
        self.refs = []
        self.printed = {}  # values shown to a reader but kept out of the JSON metrics

    def _record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def _launch(self, commands, spans_path):
        return run_process(self.root, self.src, commands, spans_path, max(1.0, self.deadline - time.monotonic()))

    def _check(self, argv, code, stdout):
        if argv[0] != "invariants":
            return checks.check_sweep(argv, code, stdout)
        problems = checks.check_invariants(self.inputs[argv[2]], code, stdout)
        first = self.first_digests.setdefault(" ".join(argv), checks.digest(stdout))
        if checks.digest(stdout) != first:
            problems.append("invariants: stdout differs from the first iteration's")
        return problems

    def iteration(self, processes, traced):
        """Run every process of one iteration and check each command."""
        it = {"traced": traced, "wall_s": 0.0, "wall_norm": 0.0, "cpu_s": 0.0, "rss": 0.0, "stdout_bytes": 0, "spans": []}
        for index, commands in enumerate(processes):
            path = os.path.join(self.workdir, f"spans-{index}.json") if traced else None
            before = reference_loops()
            report, error = self._launch(commands, path)
            ref = statistics.median(before + reference_loops())
            self.refs.append(ref)
            if report is None:
                for argv in commands:
                    self._record([f"{' '.join(argv)}: process failed, {error}"])
                continue
            if not traced:
                self.setups.append(report["setup_s"])
                self.setup_norms.append(report["setup_s"] / ref)
            it["wall_s"] += report["wall_s"]
            it["wall_norm"] += report["wall_s"] / ref
            it["cpu_s"] += report["cpu_s"]
            it["rss"] = max(it["rss"], report["peak_rss_mb"])
            for result in report["results"]:
                it["stdout_bytes"] += len(result["stdout"].encode("utf-8"))
                self._record(self._check(result["argv"], result["code"], result["stdout"]))
            if traced:
                with open(path, encoding="utf-8") as handle:
                    span_list = json.load(handle)
                it["spans"].append(span_list)
                self._record(checks.check_level_sizes(spans.level_sizes(span_list)))
        return it


END_UNITS = {"wall_norm": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name):
    if name in END_UNITS:
        return END_UNITS[name]
    for suffix, unit in ((".calls", "count"), ("_s", "s"), ("_us", "us"), ("_ms", "ms"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count" if ".children." in name or ".unique." in name else "ratio"


def measure(args, workload, root, src, workdir):
    """Run one workload; return (Run, metrics as {name: value})."""
    inputs = {}  # input file -> its graph6 lines
    if workload == "invariants-random":
        lines = gen.generate(args.seed)
        for index in range(INPUT_FILES):
            path = os.path.join(workdir, f"graphs-{index}.g6")
            inputs[path] = lines[index::INPUT_FILES]
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("".join(line + "\n" for line in inputs[path]))
    processes, graphs = plan(workload, inputs)
    run = Run(root, src, workdir, inputs)

    iterations = []
    start = time.monotonic()
    while True:
        iterations.append(run.iteration(processes, traced=args.trace == 1 and len(iterations) % 2 == 1))
        elapsed = time.monotonic() - start
        done = len(iterations) >= 1 + args.trace
        if done and elapsed * (len(iterations) + 1) / len(iterations) > args.seconds or time.monotonic() > run.deadline:
            break

    untraced = [it for it in iterations if not it["traced"]]
    if not args.trace:
        wall = _median(it["wall_s"] for it in untraced)
        run.printed = {
            "wall_s": (wall, "s"),
            "graphs_per_s": (graphs / wall if wall else 0.0, "graphs/s"),
            "reference_loop_ms": (_median(run.refs) * 1e3, "ms"),
            "setup_measured_s": (_median(run.setups), "s"),
        }
        return run, {
            "wall_norm": _median(it["wall_norm"] for it in untraced),
            "setup_s": _median(run.setup_norms) * REFERENCE_S,
            "peak_rss_mb": _median(it["rss"] for it in untraced),
        }
    traced = [it for it in iterations if it["traced"]]
    metrics = spans.median_metrics([spans.layer_metrics(it["spans"]) for it in traced] or [spans.layer_metrics([])])
    metrics["cli.stdout_bytes"] = _median(it["stdout_bytes"] for it in untraced)
    metrics["proc.cpu_s"] = _median(it["cpu_s"] for it in untraced)
    # compared in reference-loop units, so a change in host speed between the two is not counted
    norm_overhead = _median(it["wall_norm"] for it in traced) - _median(it["wall_norm"] for it in untraced)
    metrics["trace.overhead_s"] = norm_overhead * _median(run.refs)
    return run, metrics


def _median(values):
    """Median, or 0 when every measurement failed (the run then reports failures)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def provenance(root, args, workload):
    def git(*cmd):
        try:
            done = subprocess.run(["git", "-C", root, *cmd], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # a checkout that is not itself a repository must not report an enclosing one
    inside = git("rev-parse", "--show-toplevel") == os.path.realpath(root)
    rev = git("rev-parse", "HEAD") if inside else None
    status = git("status", "--porcelain") if inside else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": rev or "unknown",
        "git_dirty": None if rev is None or status is None else bool(status),
        "seed": args.seed,
        "workload": workload,
        "workloads": list(WORKLOADS),
        "trace": args.trace,
    }


def report(workload, run, metrics):
    """Print a workload's metrics, one per line, for a person to read."""
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit_of(name)}")
    for name, (value, unit) in run.printed.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    rate = run.failed / run.attempted if run.attempted else 0.0
    print(f"{workload} error_rate = {rate:.6g} fraction ({run.failed} of {run.attempted} operations failed)")
    for problem in run.problems[:20]:
        print(f"{workload} check failed: {problem}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "kdom", "cli.py")):
        print("bench: no kdom package under ./src; run from the root of a kdom checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".bench_run")
    os.makedirs(scratch, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
            try:
                run, metrics = measure(args, workload, root, src, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print("provenance " + json.dumps(provenance(root, args, workload), sort_keys=True))
            report(workload, run, metrics)
            total["correct"] = total["correct"] and run.failed == 0
            total["attempted"] += run.attempted
            total["failed"] += run.failed
            prefix = "" if len(workloads) == 1 else f"{workload}."
            for name, value in metrics.items():
                total["metrics"][prefix + name] = {"value": value, "unit": unit_of(name)}
    finally:
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
