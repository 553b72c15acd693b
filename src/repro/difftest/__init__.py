"""Differential testing: cross-checking the Landi/Ryder engine
against executable oracles and coarser baseline analyses.

* :mod:`repro.difftest.harness` — runs every analysis on one program
  and checks the soundness lattice (oracle pairs must be contained in
  the conditional may-alias solution, which in turn is covered by
  Weihl's flow-insensitive closure).
* :mod:`repro.difftest.shrink` — delta-debugging (ddmin over source
  lines) that reduces a violating program while preserving the
  violation.
* :mod:`repro.difftest.corpus` — persists shrunk counterexamples under
  ``tests/corpus/`` where the unit suite replays them as regressions.
"""

from .corpus import (
    corpus_entries,
    load_corpus_entry,
    persist_counterexample,
)
from .harness import (
    ALL_CHECKS,
    CHECK_LINT_SOUNDNESS,
    CheckResult,
    DifftestConfig,
    ProgramVerdict,
    SuiteResult,
    difftest_source,
    run_difftest_suite,
    violation_predicate,
    weihl_pair_covered,
)
from .shrink import shrink_source

__all__ = [
    "ALL_CHECKS",
    "CHECK_LINT_SOUNDNESS",
    "CheckResult",
    "DifftestConfig",
    "ProgramVerdict",
    "SuiteResult",
    "corpus_entries",
    "difftest_source",
    "load_corpus_entry",
    "persist_counterexample",
    "run_difftest_suite",
    "shrink_source",
    "violation_predicate",
    "weihl_pair_covered",
]
