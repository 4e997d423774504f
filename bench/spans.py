"""Spans around kdom's public functions, and the per-layer metrics made from them.

A traced child process calls instrument(), which replaces each target
function under every name a kdom module holds it by (the modules import
by name, so patching only the defining module would miss most calls).
Each call then records a span [name, start, end, parent, info] in memory;
the child writes the list out when its commands end. Nothing under src/
changes.
"""

import math
import statistics
import sys
import time
from collections import Counter, defaultdict

ENUMERATION = "enumeration.connected_graphs"
CANONICAL = "isomorphism.canonical_form"
KAPPA = "connectivity.kappa"
GAMMA_NAMES = {
    (1, "k-domination"): "domination.gamma1",
    (3, "k-domination"): "domination.gamma3",
    (2, "k-tuple"): "domination.double",
}
LEVELS = (6, 7)  # the enumeration levels whose counts are reported


class Tracer:
    """Records one span per call of a wrapped function, in memory."""

    def __init__(self):
        self.spans = []
        self.enumerated = set()  # ids of the graphs connected_graphs returned
        self._open = []

    def wrap(self, name, fn, info=None):
        """fn wrapped to record a span; name may be a function of (args, kwargs)."""

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span = [span_name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if info is not None:
                span[4] = info(self, args, kwargs, result)
            return result

        return wrapper


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _gamma_name(args, kwargs):
    key = (_arg(args, kwargs, 1, "k"), _arg(args, kwargs, 2, "variant"))
    return GAMMA_NAMES.get(key, "domination.gamma_k")


def _on_enumerated(tracer, args, kwargs, result):
    return int(id(_arg(args, kwargs, 0, "g")) in tracer.enumerated)


def _level(tracer, args, kwargs, result):
    tracer.enumerated.update(id(g) for g in result)
    return [_arg(args, kwargs, 0, "n"), len(result)]


# (module, function, span name, info recorder)
TARGETS = (
    ("kdom.graphs", "graph6_decode", "graphs.graph6_decode", None),
    ("kdom.graphs", "graph6_encode", "graphs.graph6_encode", None),
    ("kdom.isomorphism", "canonical_form", CANONICAL, lambda t, a, k, r: _arg(a, k, 0, "g").n),
    ("kdom.enumeration", "connected_graphs", ENUMERATION, _level),
    ("kdom.domination", "gamma_k", _gamma_name, _on_enumerated),
    ("kdom.connectivity", "vertex_connectivity", KAPPA, _on_enumerated),
    ("kdom.verifier", "level_records", "verifier.level_records", None),
    ("kdom.verifier", "check_theorem", "verifier.check_theorem", None),
    ("kdom.verifier", "verify_bound", "verifier.verify_bound", None),
    ("kdom.verifier", "audit_small_theorems", "verifier.audit", None),
    ("kdom.catalog", "checked_catalog", "catalog.checked_catalog", None),
    ("kdom.cli", "main", "cli.main", None),
)


def instrument(tracer):
    """Patch every kdom module attribute bound to a target function.

    A target the program no longer has is skipped, so its metrics read 0.
    """
    modules = [m for key, m in sys.modules.items() if key == "kdom" or key.startswith("kdom.")]
    for module_name, attr, name, info in TARGETS:
        fn = getattr(sys.modules.get(module_name), attr, None)
        if fn is None:
            continue
        wrapper = tracer.wrap(name, fn, info)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(end - start - covered)
    return out


def _percentile(values, q):
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(span_sets):
    """Per-layer metrics of one iteration, from the span lists of its processes.

    Counts and self times add up over the processes; percentiles are taken
    over all their calls together.
    """
    calls = Counter()
    self_s = defaultdict(float)
    durations = defaultdict(list)
    children = Counter()  # canonical_form calls made by enumeration, by n
    unique = Counter()  # level sizes returned by connected_graphs, by n
    on_enumerated = Counter()  # solver calls on enumerated graphs
    enumerated = 0
    build_s = 0.0
    for spans in span_sets:
        selfs = self_times(spans)
        in_enumeration = [False] * len(spans)
        levels = {}
        for index, (name, start, end, parent, info) in enumerate(spans):
            calls[name] += 1
            self_s[name] += selfs[index]
            durations[name].append(end - start)
            inside = parent >= 0 and (in_enumeration[parent] or spans[parent][0] == ENUMERATION)
            in_enumeration[index] = inside
            if name == ENUMERATION:
                if not inside:
                    build_s += end - start
                levels[info[0]] = info[1]
            elif name == CANONICAL and inside:
                children[info] += 1
            elif name in ("domination.gamma3", KAPPA) and info:
                on_enumerated[name] += 1
        unique.update(levels)
        enumerated += sum(levels.values())

    gamma_k_durations = [d for name in durations if name.startswith("domination.") for d in durations[name]]
    top = max(LEVELS)
    metrics = {
        "graphs.graph6_decode.calls": calls["graphs.graph6_decode"],
        "graphs.graph6_decode.self_s": self_s["graphs.graph6_decode"],
        "graphs.graph6_encode.calls": calls["graphs.graph6_encode"],
        "graphs.graph6_encode.self_s": self_s["graphs.graph6_encode"],
        "isomorphism.canonical_form.calls": calls[CANONICAL],
        "isomorphism.canonical_form.self_s": self_s[CANONICAL],
        "isomorphism.canonical_form.p50_us": _percentile(durations[CANONICAL], 0.5) * 1e6,
        "isomorphism.canonical_form.p999_us": _percentile(durations[CANONICAL], 0.999) * 1e6,
        "enumeration.build_s": build_s,
    }
    for n in LEVELS:
        metrics[f"enumeration.children.n{n}"] = children[n]
    for n in LEVELS:
        metrics[f"enumeration.unique.n{n}"] = unique[n]
    metrics[f"enumeration.unique_ratio.n{top}"] = unique[top] / children[top] if children[top] else 0.0
    for short in ("gamma1", "gamma3", "double"):
        metrics[f"domination.{short}.calls"] = calls[f"domination.{short}"]
        metrics[f"domination.{short}.self_s"] = self_s[f"domination.{short}"]
    metrics["domination.gamma_k.p50_us"] = _percentile(gamma_k_durations, 0.5) * 1e6
    metrics["domination.gamma_k.max_ms"] = max(gamma_k_durations, default=0.0) * 1e3
    metrics["connectivity.kappa.calls"] = calls[KAPPA]
    metrics["connectivity.kappa.self_s"] = self_s[KAPPA]
    metrics["connectivity.kappa.p50_us"] = _percentile(durations[KAPPA], 0.5) * 1e6
    metrics["connectivity.kappa.max_ms"] = max(durations[KAPPA], default=0.0) * 1e3
    for short in ("level_records", "check_theorem", "verify_bound", "audit"):
        metrics[f"verifier.{short}.self_s"] = self_s[f"verifier.{short}"]
    metrics["verifier.gamma3_per_graph"] = on_enumerated["domination.gamma3"] / enumerated if enumerated else 0.0
    metrics["verifier.kappa_per_graph"] = on_enumerated[KAPPA] / enumerated if enumerated else 0.0
    metrics["catalog.checked_catalog.calls"] = calls["catalog.checked_catalog"]
    metrics["catalog.checked_catalog.self_s"] = self_s["catalog.checked_catalog"]
    metrics["cli.main.self_s"] = self_s["cli.main"]
    return metrics


def level_sizes(spans):
    """(n, size) of every level connected_graphs returned in one process."""
    return [tuple(span[4]) for span in spans if span[0] == ENUMERATION]


def median_metrics(samples):
    """Metric-wise median of a list of metric dicts with the same keys."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
