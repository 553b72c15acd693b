"""Process-pool sharded execution of independent analysis units.

The Landi/Ryder may-hold iteration is single-threaded per program, but
almost everything the repo runs *around* it is embarrassingly parallel:
corpus sweeps, difftest sweeps and lint sweeps over many programs.
This package fans those units out across worker processes:

* :mod:`repro.parallel.driver` — the generic sharded driver:
  deterministic merge order (results come back in unit order no matter
  which worker finished first), worker crash isolation (a broken pool
  is restarted a bounded number of times, then the affected units are
  *degraded*, mirroring the PR-1 budget path — never a hang), and an
  optional global deadline.
* :mod:`repro.parallel.units` — the per-file units of ``repro
  analyze``, ``lint`` and ``difftest --replay``, alone or sharded.

Parallelism *within* one program belongs to the summary engine
(:mod:`repro.summaries`), whose per-procedure drains run in their own
pool.  Wall-clock numbers are hardware-bound: on a single-core
container the pool adds overhead instead of speedup; the
content-addressed result cache (:mod:`repro.cache`) is what makes
repeated sweeps cheap everywhere.
"""

from .driver import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    ShardOutcome,
    run_sharded,
)

__all__ = [
    "STATUS_CRASHED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "ShardOutcome",
    "run_sharded",
]
