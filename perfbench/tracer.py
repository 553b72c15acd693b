"""In-memory span tracing around the analyser's public entry points.

:func:`install` wraps each layer's entry point by rebinding the name that
callers look up (a module attribute or a class attribute); nothing under
``src/`` changes.  Every call becomes a span with a name, start, end,
parent span and request id.  Spans stay in memory until :meth:`Tracer.dump`.

A layer's self time is its spans' total duration minus the part covered by
their child spans (children run on the parent's thread, so they nest).

Run as a script, this module is the launcher for a traced serve daemon::

    python3 perfbench/tracer.py --out spans.json -- serve --port 0 --k 3

which installs the tracer, runs ``repro.cli.main`` with the arguments after
``--`` and writes the spans when the daemon shuts down.
"""

from __future__ import annotations

import collections
import functools
import gc
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path

from common import use_source

#: Span name -> the per-layer metric its self time feeds.
LAYER_OF_SPAN = {
    "frontend.parse": "frontend.parse_s",
    "frontend.lower": "frontend.lower_s",
    "icfg.build": "icfg.build_s",
    "kernel.solve": "kernel.solve_s",
    "summaries.solve": "summaries.solve_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "weihl": "weihl.s",
    "lint": "lint.s",
}

#: EngineReport field -> kernel count metric.
KERNEL_COUNTS = {
    "facts": "kernel.facts",
    "worklist_pops": "kernel.pops",
    "worklist_pushes": "kernel.pushes",
    "dedup_hits": "kernel.dedup_hits",
    "stale_skips": "kernel.stale_skips",
    "upgrades": "kernel.upgrades",
    "join_calls": "kernel.join_calls",
    "join_fanout": "kernel.join_fanout",
}

_SERVE_CLASS = {
    "POST /v1/analyze": "serve.analyze",
    "POST /v1/query": "serve.query",
    "POST /v1/lint": "serve.lint",
}


class Tracer:
    """Spans, counts and collector time for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: ``(request id, metric, value)`` counts, read at span boundaries.
        self.counts: list[tuple] = []
        self.active = True
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # Serve requests wait for the single solver lane in arrival order.
        self._arrivals: collections.deque = collections.deque()
        self._rids = itertools.count(1)
        #: ``(request id, seconds)`` from arrival to the start of its lane call.
        self.waits: list[tuple] = []
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        self._gc_started = 0.0

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def rid(self) -> int:
        stack = self._stack()
        return stack[-1][2] if stack else self.request

    def count(self, rid: int, metric: str, value: float) -> None:
        with self._lock:
            self.counts.append((rid, metric, value))

    def call(self, name: str, fn, args, kwargs, rid=None):
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        if rid is None:
            rid = stack[-1][2] if stack else self.request
        sid = next(self._ids)
        stack.append((sid, name, rid))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, start, end, parent, rid))

    def wrap(self, name: str, fn, on_result=None, outside=()):
        """A traced stand-in for ``fn``.  Calls made inside a span named in
        ``outside`` pass straight through, so a layer that calls itself
        (or a helper bound under the same name) is counted once."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or self.current() in outside:
                return fn(*args, **kwargs)
            rid = self.rid()
            result = self.call(name, fn, args, kwargs)
            if on_result is not None:
                for metric, value in on_result(args, result):
                    self.count(rid, metric, value)
            return result

        return traced

    # -- serve lane ----------------------------------------------------------

    def wrap_arrival(self, fn):
        """``ServeMetrics.request_started``: note when a request arrived."""

        @functools.wraps(fn)
        def arrived(metrics, endpoint):
            started = fn(metrics, endpoint)
            kind = _SERVE_CLASS.get(endpoint)
            if kind is not None:
                with self._lock:
                    self._arrivals.append((kind, next(self._rids), started))
            return started

        return arrived

    def wrap_lane(self, name: str, fn):
        """A session call.  At the top of the lane thread it is matched to
        the oldest arrival of its class; the gap is its lane wait."""

        @functools.wraps(fn)
        def laned(*args, **kwargs):
            if self._stack():
                return self.call(name, fn, args, kwargs)
            begin = time.perf_counter()
            rid = 0
            with self._lock:
                for index, (kind, arrival_rid, started) in enumerate(self._arrivals):
                    if kind == name:
                        del self._arrivals[index]
                        rid = arrival_rid
                        self.waits.append((rid, begin - started))
                        break
            return self.call(name, fn, args, kwargs, rid=rid)

        return laned

    # -- collector -----------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_started
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def start_gc_accounting(self) -> None:
        gc.callbacks.append(self._on_gc)

    # -- output --------------------------------------------------------------

    def document(self) -> dict:
        return {
            "span_cost_s": span_cost(),
            "spans": self.spans,
            "counts": self.counts,
            "waits": self.waits,
            "gc_seconds": self.gc_seconds,
            "gc_gen2": self.gc_gen2,
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(self.document(), handle)


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here on a
    throwaway tracer."""

    def plain() -> None:
        return None

    traced = Tracer().wrap("calibration", plain)
    start = time.perf_counter()
    for _ in range(calls):
        plain()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - start - bare) / calls)


# -- result hooks: counts read where the work happened ------------------------


def _count_icfg(args, icfg):
    return [("icfg.nodes", len(icfg.nodes))]


def _count_engine(args, result):
    solution = result[0] if isinstance(result, tuple) else result
    report = solution.engine.as_dict()
    return [(metric, report[field]) for field, metric in KERNEL_COUNTS.items()]


def _count_summaries(args, store):
    analysis = args[0]
    return [
        ("summaries.rounds", analysis.rounds),
        ("summaries.proc_hits", analysis.cache_hits),
        ("summaries.proc_misses", analysis.cache_misses),
    ]


def _count_cache_get(args, envelope):
    return [("cache.hits" if envelope is not None else "cache.misses", 1)]


def _count_cache_put(args, path):
    return [("cache.puts", 1)]


def _count_lint(args, report):
    return [("lint.findings", len(report.findings))]


def _rebind_function(module_name: str, attr: str, wrapper_factory) -> None:
    """Replace ``module.attr`` and every ``repro`` module global bound to
    the same function object (``from x import f`` copies the binding)."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapper = wrapper_factory(original)
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _rebind_method(module_name: str, cls_name: str, attr: str, wrapper_factory) -> None:
    cls = getattr(importlib.import_module(module_name), cls_name)
    setattr(cls, attr, wrapper_factory(getattr(cls, attr)))


#: Modules whose ``from x import f`` bindings must exist before rebinding.
_PRELOAD = (
    "repro.cli",
    "repro.core.analysis",
    "repro.cache.solve",
    "repro.cache.store",
    "repro.corpus.runner",
    "repro.corpus.stubs",
    "repro.frontend.pycparser_bridge",
    "repro.frontend.semantics",
    "repro.icfg.builder",
    "repro.lint",
    "repro.lint.engine",
    "repro.baselines.weihl",
    "repro.summaries.solver",
    "repro.serve.session",
    "repro.serve.metrics",
)


def install() -> Tracer:
    """Wrap every traced entry point and start collector accounting."""
    use_source()
    for module in _PRELOAD:
        importlib.import_module(module)
    tracer = Tracer()
    kernel = ("kernel.solve",)
    functions = (
        ("repro.frontend.semantics", "parse_and_analyze", "frontend.parse", None, ()),
        ("repro.frontend.pycparser_bridge", "parse_c_lenient", "frontend.lower", None, ()),
        ("repro.corpus.stubs", "synthesize_stubs", "frontend.lower", None, ()),
        # parse_and_analyze calls ``analyze`` itself; that part is parsing.
        ("repro.frontend.semantics", "analyze", "frontend.lower", None, ("frontend.parse",)),
        ("repro.core.analysis", "analyze_program", "kernel.solve", _count_engine, kernel),
        ("repro.cache.solve", "solve_with_cache", "kernel.solve", _count_engine, kernel),
        ("repro.baselines.weihl", "weihl_aliases", "weihl", None, ()),
        ("repro.lint.engine", "run_lint", "lint", _count_lint, ()),
    )
    for module, attr, name, hook, outside in functions:
        _rebind_function(
            module,
            attr,
            lambda fn, name=name, hook=hook, outside=outside: tracer.wrap(
                name, fn, hook, outside
            ),
        )
    methods = (
        ("repro.icfg.builder", "IcfgBuilder", "build", "icfg.build", _count_icfg),
        ("repro.summaries.solver", "SummaryAnalysis", "run", "summaries.solve", _count_summaries),
        ("repro.cache.store", "SolutionCache", "get", "cache.get", _count_cache_get),
        ("repro.cache.store", "SolutionCache", "put", "cache.put", _count_cache_put),
        ("repro.serve.session", "ServeSession", "ensure_solved", "serve.ensure_solved", None),
    )
    for module, cls, attr, name, hook in methods:
        _rebind_method(
            module, cls, attr, lambda fn, name=name, hook=hook: tracer.wrap(name, fn, hook)
        )
    for attr, name in (
        ("analyze_result", "serve.analyze"),
        ("query", "serve.query"),
        ("lint", "serve.lint"),
    ):
        _rebind_method(
            "repro.serve.session",
            "ServeSession",
            attr,
            lambda fn, name=name: tracer.wrap_lane(name, fn),
        )
    _rebind_method("repro.serve.metrics", "ServeMetrics", "request_started", tracer.wrap_arrival)
    tracer.start_gc_accounting()
    return tracer


# -- reading spans back ------------------------------------------------------


def self_times(spans: list) -> dict[str, float]:
    """Span name -> summed self time in seconds."""
    child_time: collections.Counter = collections.Counter()
    for _sid, _name, start, end, parent, _rid in spans:
        if parent:
            child_time[parent] += end - start
    totals: collections.Counter = collections.Counter()
    for sid, name, start, end, _parent, _rid in spans:
        totals[name] += (end - start) - child_time[sid]
    return dict(totals)


def layer_metrics(traces: list[dict], keep=lambda rid: True, per: float = 1.0) -> dict:
    """Per-layer values from tracer documents: self times, counts at the
    layer boundaries and the ratios derived from them, divided by ``per``
    (the number of passes).  Only spans and counts whose request id passes
    ``keep`` are used."""
    seconds: collections.Counter = collections.Counter()
    counts: collections.Counter = collections.Counter()
    gc_s = gc_gen2 = overhead_s = 0.0
    spans = 0
    for doc in traces:
        kept = [span for span in doc["spans"] if keep(span[5])]
        spans += len(kept)
        overhead_s += len(kept) * doc["span_cost_s"]
        seconds.update(self_times(kept))
        for rid, metric, value in doc["counts"]:
            if keep(rid):
                counts[metric] += value
        gc_s += doc["gc_seconds"]
        gc_gen2 += doc["gc_gen2"]
    out = {metric: seconds[name] / per for name, metric in LAYER_OF_SPAN.items()}
    names = ["icfg.nodes", *KERNEL_COUNTS.values()]
    names += ["summaries.rounds", "summaries.proc_hits", "summaries.proc_misses"]
    names += ["cache.hits", "cache.misses", "cache.puts", "lint.findings"]
    for metric in names:
        out[metric] = counts[metric] / per
    pops, facts = counts["kernel.pops"], counts["kernel.facts"]
    out["kernel.pops_per_s"] = pops / seconds["kernel.solve"] if seconds["kernel.solve"] else 0.0
    out["kernel.fact_yield"] = facts / pops if pops else 0.0
    joins = counts["kernel.join_calls"]
    out["kernel.fanout_per_join"] = counts["kernel.join_fanout"] / joins if joins else 0.0
    hits, misses = counts["summaries.proc_hits"], counts["summaries.proc_misses"]
    out["summaries.replay_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    hits, misses = counts["cache.hits"], counts["cache.misses"]
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["runtime.gc_s"] = gc_s / per
    out["runtime.gc_gen2"] = gc_gen2 / per
    out["trace.spans"] = spans / per
    # Estimated seconds the wrappers added; callers divide by the work.
    out["trace.overhead_s"] = overhead_s / per
    return out


def serve_latencies(spans: list) -> dict[str, list[float]]:
    """Durations (s) of the serve session calls, split the way the
    per-layer metrics need them."""
    by_sid = {span[0]: span for span in spans}
    out: dict[str, list[float]] = {
        "solve": [],
        "stats": [],
        "query": [],
        "lint": [],
    }
    inner: dict[int, float] = collections.defaultdict(float)
    for sid, name, start, end, parent, _rid in spans:
        if name == "serve.ensure_solved" and parent in by_sid:
            if by_sid[parent][1] == "serve.analyze":
                inner[parent] += end - start
                out["solve"].append(end - start)
    for sid, name, start, end, parent, _rid in spans:
        if parent:
            continue
        if name == "serve.analyze":
            out["stats"].append((end - start) - inner[sid])
        elif name == "serve.query":
            out["query"].append(end - start)
        elif name == "serve.lint":
            out["lint"].append(end - start)
    return out


def lane_busy(spans: list) -> float:
    """Seconds the serve lane spent inside top-level session calls."""
    return sum(
        end - start
        for _sid, name, start, end, parent, _rid in spans
        if not parent and name in ("serve.analyze", "serve.query", "serve.lint")
    )


def main(argv: list[str]) -> int:
    if "--" not in argv or argv[:1] != ["--out"]:
        print("usage: tracer.py --out FILE -- <repro cli arguments>", file=sys.stderr)
        return 2
    out = Path(argv[1])
    cli_args = argv[argv.index("--") + 1 :]
    tracer = install()
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
