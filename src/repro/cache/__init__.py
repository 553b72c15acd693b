"""Content-addressed on-disk cache of solved may-alias solutions.

Every sweep the repo runs — ``repro difftest``, ``repro lint``, the
benchmark harness — used to re-solve every program from scratch.  This
package never solves the same ``(program, k, engine config, code
version)`` twice:

* :mod:`repro.cache.keys` canonicalizes a parsed program through the
  pretty-printer (whitespace and comments do not affect the key; any
  real IR change does) and hashes it together with ``k``, the engine
  configuration and the solver code version.
* :mod:`repro.cache.store` is the on-disk store: one JSON envelope per
  entry under ``<root>/v1/<key[:2]>/<key>.json``, written atomically
  (tempfile + ``os.replace``), with hit/miss/put/evict/corrupt
  counters and an optional LRU entry cap.  Corrupted or truncated
  entries are dropped and count as misses — never as errors.
* :mod:`repro.cache.solve` bridges the solver: ``solve_with_cache``
  returns a rebuilt :class:`~repro.core.solution.MayAliasSolution` on a
  hit (full query surface, original engine counters) and solves + stores
  on a miss.  Only *complete* solutions are cached; budget-truncated
  partial solutions are returned but never persisted.

``repro cache stats|clear|verify`` (see :mod:`repro.cli`) administers a
cache directory from the command line.
"""

from .keys import (
    ENGINE_CODE_VERSION,
    canonical_ir_hash,
    canonical_program_text,
    engine_config_dict,
    entry_key,
)
from .solve import solve_with_cache, verify_cache
from .store import CACHE_ENTRY_SCHEMA, CacheCounters, SolutionCache, open_cache

__all__ = [
    "CACHE_ENTRY_SCHEMA",
    "CacheCounters",
    "ENGINE_CODE_VERSION",
    "SolutionCache",
    "canonical_ir_hash",
    "canonical_program_text",
    "engine_config_dict",
    "entry_key",
    "open_cache",
    "solve_with_cache",
    "verify_cache",
]
