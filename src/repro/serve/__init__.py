"""``repro serve``: the incremental alias-analysis daemon.

The production scenario for the reproduction is not batch CLI runs but
a long-lived service answering ``may_alias`` and lint queries as code
changes.  This package holds parsed ICFGs and solutions resident in
memory (:class:`~repro.serve.session.ServeSession`), accepts file-
change deltas, invalidates only the procedures an edit touched via the
summary engine's per-procedure cache keys (``repro-summary-entry/2``),
and serves two wire surfaces over one session:

* **JSON-RPC over stdio** (:mod:`repro.serve.protocol`) — LSP-style:
  ``textDocument/didOpen``/``didChange`` push full-text deltas and
  receive published :mod:`repro.lint` diagnostics; the custom
  ``repro/mayAlias`` request answers point alias queries.
* **HTTP batch** (:mod:`repro.serve.http`) — ``POST /v1/analyze``,
  ``POST /v1/query``, ``GET /healthz`` and ``GET /metrics`` (the
  ``repro-serve-stats/1`` document: ``repro-stats/1`` counters plus
  serve gauges — resident programs, invalidations, queue depth,
  per-request wall-time percentiles).

:mod:`repro.serve.loadgen` is the deterministic seeded load generator
the CI ``serve`` job boots the daemon under; the repository benchmark
(``perfbench/serve_load.py``) reuses its programs, client and traffic
mix.  See docs/SERVE.md.
"""

from .metrics import SERVE_STATS_SCHEMA, ServeMetrics
from .session import Document, QueryError, ServeSession, parse_object_name

__all__ = [
    "Document",
    "QueryError",
    "SERVE_STATS_SCHEMA",
    "ServeMetrics",
    "ServeSession",
    "parse_object_name",
]
