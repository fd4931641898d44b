"""Spans around chaingraph's public functions, installed from outside.

``install`` wraps each traced function and rebinds the wrapper under every
name that refers to the original in any ``chaingraph`` module, because
``cli``, ``metrics`` and ``baseline`` import functions by name. Methods are
rebound on their class. Each thread keeps its own span stack, since
``fetch_range`` parses and stores blocks in pool threads; a span's self
time is its duration minus the time of the spans it directly encloses on
the same thread. Completed spans are held in memory and summarised once,
at the end, by ``Tracer.summary``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

# Layer name -> (module, attribute, class attribute or None).
SPANS = {
    "ingest.fetch_range": ("chaingraph.ingest", "fetch_range", None),
    "ingest.cache_get": ("chaingraph.ingest", "BlockCache", "get"),
    "ingest.parse_block_json": ("chaingraph.ingest", "parse_block_json", None),
    "graph.build_graph": ("chaingraph.graph", "build_graph", None),
    "graph.project_simple": ("chaingraph.graph", "project_simple", None),
    "graph.subgraph": ("chaingraph.graph", "SimpleGraph", "subgraph"),
    "graph.export_pajek": ("chaingraph.graph", "export_pajek", None),
    "metrics.general_metrics": ("chaingraph.metrics", "general_metrics", None),
    "metrics.connected_components": ("chaingraph.metrics", "connected_components", None),
    "metrics.largest_component": ("chaingraph.metrics", "largest_component", None),
    "metrics.average_local_clustering": ("chaingraph.metrics", "average_local_clustering", None),
    "metrics.transitivity": ("chaingraph.metrics", "transitivity", None),
    "metrics.degree_distribution": ("chaingraph.metrics", "degree_distribution", None),
    "metrics.distance_summary": ("chaingraph.metrics", "distance_summary", None),
    "baseline.small_world_report": ("chaingraph.baseline", "small_world_report", None),
    "baseline.gnm_random_graph": ("chaingraph.baseline", "gnm_random_graph", None),
    "cli.main": ("chaingraph.cli", "main", None),
}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[tuple[str, float, float]] = []  # name, duration, self time
        self.counts: dict[str, int] = defaultdict(int)
        self.firsts: dict[str, int] = {}

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def first(self, name: str, value: int) -> None:
        """Keep the value seen on the first call only (the subject graph,
        not the random baselines built later)."""
        with self._lock:
            self.firsts.setdefault(name, value)

    def _enter(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [time.perf_counter(), 0.0]  # start, time of enclosed spans
        stack.append(frame)
        return stack

    def _exit(self, name: str, stack: list) -> None:
        start, enclosed = stack.pop()
        duration = time.perf_counter() - start
        if stack:
            stack[-1][1] += duration
        with self._lock:
            self.spans.append((name, duration, duration - enclosed))

    def wrap(self, name: str, fn, on_result=None):
        if inspect.isgeneratorfunction(fn):
            # The span runs from the first next() to exhaustion; callers
            # drain fetch_range with list(), so nothing else runs inside.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stack = self._enter()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._exit(name, stack)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, stack)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: total time ``s``, self time ``self_s``, ``calls``."""
        out: dict[str, dict[str, float]] = {
            name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in SPANS
        }
        for name, duration, self_time in self.spans:
            row = out[name]
            row["s"] += duration
            row["self_s"] += self_time
            row["calls"] += 1
        return out


def _rebind(original, replacement) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "chaingraph" and not mod_name.startswith("chaingraph."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS, plus counters on cache hits, BFS
    sources and graph sizes. Import every chaingraph module first."""
    on_result = {
        "ingest.cache_get": lambda block: tracer.count(
            "ingest.cache_hits" if block is not None else "ingest.cache_misses"),
        "graph.build_graph": lambda g: (tracer.first("graph.nodes", g.n),
                                        tracer.first("graph.edges", g.m)),
        "metrics.largest_component": lambda g: tracer.first("metrics.main_component_nodes", g.n),
    }
    for name, (mod_name, attr, method) in SPANS.items():
        owner = sys.modules[mod_name]
        if method is not None:
            cls = getattr(owner, attr)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), on_result.get(name)))
            continue
        original = getattr(owner, attr)
        _rebind(original, tracer.wrap(name, original, on_result.get(name)))

    metrics = sys.modules["chaingraph.metrics"]
    bfs = metrics.bfs_distances

    @functools.wraps(bfs)
    def counted_bfs(g, source):
        tracer.count("metrics.bfs_sources")
        return bfs(g, source)

    _rebind(bfs, counted_bfs)
