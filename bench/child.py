"""One measured process: import kdom, run CLI commands through kdom.cli.main.

Started by run.py as

    python3 bench/child.py '<spec as JSON>'

with PYTHONPATH set to the measured tree's src/. The spec holds
`launched` (the parent's time.monotonic() just before the launch),
`src`, `commands` (a list of argv lists), and `spans` (a path to write
the trace to, or null for an untraced run). The child prints one JSON
object: when the import finished, each command's exit code and stdout,
and its own CPU time and peak RSS.
"""

import sys
import time

import kdom.cli

IMPORTED = time.monotonic()

import io  # noqa: E402  (the import of kdom above is what setup_s times)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def main():
    spec = json.loads(sys.argv[1])
    if os.path.dirname(os.path.realpath(kdom.cli.__file__)) != os.path.join(spec["src"], "kdom"):
        raise SystemExit(f"imported kdom from {kdom.cli.__file__}, not from {spec['src']}")
    tracer = None
    if spec["spans"]:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    results = []
    for argv in spec["commands"]:
        captured = io.StringIO()
        saved, sys.stdout = sys.stdout, captured
        try:
            code = kdom.cli.main(argv)
        finally:
            sys.stdout = saved
        results.append({"argv": argv, "code": code, "stdout": captured.getvalue()})
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    json.dump(
        {
            "setup_s": IMPORTED - spec["launched"],
            "results": results,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
