"""The on-disk content-addressed store.

Layout (one JSON envelope per solved program)::

    <root>/
      v1/
        ab/
          ab3f....json        # key-prefix sharded to keep dirs small

Writes are atomic — the envelope is serialized to a ``.tmp`` sibling
and moved into place with ``os.replace`` — so concurrent workers (the
parallel sweep driver runs many) can race on the same key without ever
exposing a torn file.  Reads treat *any* malformed entry (truncated
write from a killed process, hand-edited JSON, schema drift) as a miss:
the entry is dropped, counted under ``corrupt_dropped``, and the caller
re-solves.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

#: Envelope schema identifier (versioned independently of the cache
#: directory layout version below).
CACHE_ENTRY_SCHEMA = "repro-cache-entry/1"

#: Directory-layout version; bump orphans every existing entry.
_LAYOUT_VERSION = "v1"


@dataclass(slots=True)
class CacheCounters:
    """Per-process counters for one :class:`SolutionCache` instance.

    ``rebuild_failures`` counts lookups that *hit* but whose envelope
    failed to rebuild into a solution (schema drift inside a
    well-formed entry).  The lookup stays counted as a hit; the
    follow-up solve is not a miss.  (An earlier revision rewrote
    ``hits``/``misses`` in place on this path, which made measured hit
    rates unauditable.)"""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt_dropped: int = 0
    rebuild_failures: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt_dropped": self.corrupt_dropped,
            "rebuild_failures": self.rebuild_failures,
        }

    def snapshot(self) -> "CacheCounters":
        """An independent copy of the current counts."""
        return CacheCounters(
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
            evictions=self.evictions,
            corrupt_dropped=self.corrupt_dropped,
            rebuild_failures=self.rebuild_failures,
        )

    def since(self, earlier: "CacheCounters") -> "CacheCounters":
        """The per-phase delta against an earlier :meth:`snapshot` —
        benchmark rows report these, never the cumulative counts (the
        PR-5 warm-cache row famously showed a 0.5 hit rate on an
        all-hit phase because the cold phase's misses leaked in)."""
        return CacheCounters(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            puts=self.puts - earlier.puts,
            evictions=self.evictions - earlier.evictions,
            corrupt_dropped=self.corrupt_dropped - earlier.corrupt_dropped,
            rebuild_failures=self.rebuild_failures - earlier.rebuild_failures,
        )

    def reset(self) -> None:
        """Zero every counter (phase boundaries in benchmark drivers)."""
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.corrupt_dropped = 0
        self.rebuild_failures = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class SolutionCache:
    """Content-addressed store of solved-solution envelopes.

    ``max_entries`` caps the store: when a ``put`` pushes the entry
    count over the cap, the oldest entries (by file modification time)
    are evicted.  ``None`` means unbounded.
    """

    def __init__(self, root: Path | str, max_entries: Optional[int] = None) -> None:
        self.root = Path(root)
        self.max_entries = max_entries
        self.counters = CacheCounters()

    @property
    def version_dir(self) -> Path:
        return self.root / _LAYOUT_VERSION

    def entry_path(self, key: str) -> Path:
        """Where the envelope for ``key`` lives (existing or not)."""
        return self.version_dir / key[:2] / f"{key}.json"

    # -- reads ---------------------------------------------------------------

    def get(
        self,
        key: str,
        schema: str = CACHE_ENTRY_SCHEMA,
        payload_key: str = "solution",
    ) -> Optional[dict]:
        """The stored envelope for ``key``, or None (a miss).

        ``schema``/``payload_key`` describe what a well-formed entry
        under this key looks like — whole-program solution envelopes by
        default; the summary engine reads its per-procedure entries
        with ``schema=SUMMARY_ENTRY_SCHEMA, payload_key="state"``.  A
        malformed entry — unreadable, truncated, wrong schema — is
        deleted, counted under ``corrupt_dropped``, and reported as a
        miss; the cache never propagates its own corruption."""
        path = self.entry_path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._drop_corrupt(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != schema
            or payload_key not in envelope
        ):
            self._drop_corrupt(path)
            return None
        self.counters.hits += 1
        return envelope

    def _drop_corrupt(self, path: Path) -> None:
        self.counters.corrupt_dropped += 1
        self.counters.misses += 1
        try:
            path.unlink()
        except OSError:
            pass

    # -- writes --------------------------------------------------------------

    def put(self, key: str, envelope: dict) -> Path:
        """Atomically persist ``envelope`` under ``key``.

        Concurrent writers racing on one key are safe: each writes its
        own temporary file and the last ``os.replace`` wins (the
        payloads are identical by construction — the key addresses the
        content)."""
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            # ``dumps`` runs the C encoder; ``json.dump`` streams the
            # same bytes through the pure-Python one, a write per token.
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(envelope, sort_keys=True))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.counters.puts += 1
        if self.max_entries is not None:
            self._evict_over_limit()
        return path

    def _evict_over_limit(self) -> None:
        assert self.max_entries is not None
        entries = sorted(
            self.iter_paths(), key=lambda p: (p.stat().st_mtime, p.name)
        )
        excess = len(entries) - self.max_entries
        for path in entries[:excess]:
            try:
                path.unlink()
                self.counters.evictions += 1
            except OSError:
                pass

    # -- administration ------------------------------------------------------

    def iter_paths(self) -> Iterator[Path]:
        """Every entry file currently on disk (sorted for determinism)."""
        if not self.version_dir.is_dir():
            return iter(())
        return iter(sorted(self.version_dir.glob("*/*.json")))

    def entry_count(self) -> int:
        return sum(1 for _ in self.iter_paths())

    def total_bytes(self) -> int:
        total = 0
        for path in self.iter_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = self.entry_count()
        if self.version_dir.is_dir():
            shutil.rmtree(self.version_dir, ignore_errors=True)
        return removed

    def stats_dict(self) -> dict:
        """The ``repro-cache/1`` stats document for this directory plus
        this process's counters."""
        return {
            "schema": "repro-cache/1",
            "root": str(self.root),
            "entries": self.entry_count(),
            "bytes": self.total_bytes(),
            "max_entries": self.max_entries,
            "counters": self.counters.as_dict(),
            "hit_rate": self.counters.hit_rate,
        }


def open_cache(cache_dir: Optional[Path | str]) -> Optional[SolutionCache]:
    """A handle on the store under ``cache_dir``, or None when no cache
    directory was given (caching off) — the one way the CLI, the sweep
    units and the harnesses open the cache."""
    return SolutionCache(cache_dir) if cache_dir else None
