"""Serve-side observability: request counters, latency percentiles
and the ``repro-serve-stats/1`` document ``GET /metrics`` returns.

Latencies are kept in bounded per-class reservoirs (newest wins) so a
long-lived daemon's memory stays flat; percentiles are computed with
the nearest-rank method over whatever the reservoir currently holds.
Counters are plain ints mutated from the session's single solver lane
and the event loop — CPython attribute updates are atomic under the
GIL, and the document is assembled snapshot-style, so a reader racing
a writer sees a consistent-enough view (metrics, not ledgers).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Optional

SERVE_STATS_SCHEMA = "repro-serve-stats/1"

#: Request classes with their own latency reservoirs.
CLASS_ANALYZE = "analyze"
CLASS_QUERY = "query"
CLASS_LINT = "lint"
CLASS_OTHER = "other"
REQUEST_CLASSES = (CLASS_ANALYZE, CLASS_QUERY, CLASS_LINT, CLASS_OTHER)


def percentile(samples: list[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile (``fraction`` in [0, 1]); None when the
    sample set is empty."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class ServeMetrics:
    """Counters and latency reservoirs for one daemon process."""

    def __init__(self, reservoir: int = 4096) -> None:
        self.started_at = time.time()
        self.requests_total = 0
        self.responses_5xx = 0
        self.responses_4xx = 0
        self.queue_depth = 0
        self.queue_depth_peak = 0
        # Session-level counters (mutated by ServeSession).
        self.edits_total = 0
        self.noop_changes = 0
        self.solves_total = 0
        self.post_edit_solves = 0
        self.scoped_post_edit_solves = 0
        # Segments post-edit solves took over from the solution they
        # replace, and segments they built.
        self.post_edit_segments_reused = 0
        self.post_edit_segments_built = 0
        self.invalidated_procs_total = 0
        self.replayed_procs_total = 0
        self.queries_total = 0
        self.lint_runs_total = 0
        self.stale_retries_total = 0
        self.documents_closed = 0
        self.by_endpoint: Dict[str, int] = {}
        self._latencies: Dict[str, Deque[float]] = {
            name: deque(maxlen=reservoir) for name in REQUEST_CLASSES
        }

    # -- recording -----------------------------------------------------------

    def request_started(self, endpoint: str) -> float:
        """Count one request in; returns the perf-counter start stamp."""
        self.requests_total += 1
        self.by_endpoint[endpoint] = self.by_endpoint.get(endpoint, 0) + 1
        self.queue_depth += 1
        self.queue_depth_peak = max(self.queue_depth_peak, self.queue_depth)
        return time.perf_counter()

    def request_finished(
        self, started: float, request_class: str = CLASS_OTHER, status: int = 200
    ) -> float:
        """Count one request out; returns the recorded wall seconds."""
        wall = time.perf_counter() - started
        self.queue_depth = max(0, self.queue_depth - 1)
        if status >= 500:
            self.responses_5xx += 1
        elif status >= 400:
            self.responses_4xx += 1
        reservoir = self._latencies.get(request_class)
        if reservoir is None:
            reservoir = self._latencies[CLASS_OTHER]
        reservoir.append(wall)
        return wall

    # -- reporting -----------------------------------------------------------

    def latency_dict(self) -> dict:
        """Per-class ``{count, mean_ms, p50_ms, p99_ms, max_ms}``."""
        out = {}
        for name, reservoir in self._latencies.items():
            samples = list(reservoir)
            if samples:
                out[name] = {
                    "count": len(samples),
                    "mean_ms": round(1000.0 * sum(samples) / len(samples), 3),
                    "p50_ms": round(1000.0 * (percentile(samples, 0.5) or 0.0), 3),
                    "p99_ms": round(1000.0 * (percentile(samples, 0.99) or 0.0), 3),
                    "max_ms": round(1000.0 * max(samples), 3),
                }
            else:
                out[name] = {
                    "count": 0,
                    "mean_ms": None,
                    "p50_ms": None,
                    "p99_ms": None,
                    "max_ms": None,
                }
        return out

    def stats_dict(
        self,
        resident_programs: int,
        cache: Optional[dict] = None,
        engine: Optional[dict] = None,
    ) -> dict:
        """The ``repro-serve-stats/1`` document: serve gauges plus the
        session's cumulative engine counters (``repro-stats/1`` shape)
        and cache counters."""
        post = self.post_edit_solves
        scoped = self.scoped_post_edit_solves
        return {
            "schema": SERVE_STATS_SCHEMA,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "resident_programs": resident_programs,
            "requests": {
                "total": self.requests_total,
                "by_endpoint": dict(sorted(self.by_endpoint.items())),
                "responses_4xx": self.responses_4xx,
                "responses_5xx": self.responses_5xx,
                "queue_depth": self.queue_depth,
                "queue_depth_peak": self.queue_depth_peak,
            },
            "session": {
                "edits_total": self.edits_total,
                "noop_changes": self.noop_changes,
                "solves_total": self.solves_total,
                "post_edit_solves": post,
                "scoped_post_edit_solves": scoped,
                "edit_scoped_ratio": (scoped / post) if post else None,
                "post_edit_segments_reused": self.post_edit_segments_reused,
                "post_edit_segments_built": self.post_edit_segments_built,
                "invalidated_procs_total": self.invalidated_procs_total,
                "replayed_procs_total": self.replayed_procs_total,
                "queries_total": self.queries_total,
                "lint_runs_total": self.lint_runs_total,
                "stale_retries_total": self.stale_retries_total,
                "documents_closed": self.documents_closed,
            },
            "latency": self.latency_dict(),
            "cache": cache,
            "engine": engine,
        }
