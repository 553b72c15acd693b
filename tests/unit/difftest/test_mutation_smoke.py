"""Mutation smoke test: an intentionally-broken transfer function must
be caught by the differential harness, shrunk to a small program, and
persisted in corpus format.

This is the end-to-end proof that the oracle subsystem has teeth — if
this test ever passes with the mutation *not* detected, the harness
has gone vacuous.
"""

import json

import pytest

from repro.core.transfer import RhsView
from repro.difftest import (
    DifftestConfig,
    difftest_source,
    load_corpus_entry,
    persist_counterexample,
    run_difftest_suite,
    shrink_source,
    violation_predicate,
)
from repro.difftest.harness import CHECK_DYNAMIC_IN_LR, CHECK_SUMMARY_EQ_KERNEL

FAST = DifftestConfig(draws=4, run_baselines=False)

COMMITTED_ENTRY = "tests/corpus/mutation-assign-intro.c"


@pytest.fixture
def broken_intro(monkeypatch):
    """Disable Figure 2's alias introduction at assignments — the
    engine silently misses every (*p, x) fact an assignment creates.

    ``RhsView.intro_target`` is the single source of introduced pairs
    for *both* engines (the reference transfer calls it per visit, the
    kernel bakes it into its per-node table), so the mutation breaks
    them identically and must be caught by the oracle checks rather
    than the kernel-vs-reference equality edge."""
    monkeypatch.setattr(RhsView, "intro_target", lambda self, lhs: None)


def test_mutation_caught_shrunk_and_persisted(broken_intro, tmp_path):
    result = run_difftest_suite(range(1, 10), FAST)
    assert not result.ok, "harness failed to catch a disabled transfer"
    failure = result.failures[0]
    checks = [c.name for c in failure.violating_checks]
    assert CHECK_DYNAMIC_IN_LR in checks

    # The exact_in_lr edge also fires on this mutation (the exact
    # oracle enumerates the pairs the engine dropped), so shrink on the
    # dynamic check alone to keep the replay assertion sharp.
    shrunk = shrink_source(
        failure.source, violation_predicate(FAST, [CHECK_DYNAMIC_IN_LR])
    )
    assert shrunk.lines <= 20, shrunk.source
    # The shrunk program still exhibits exactly the original violation.
    verdict = difftest_source(shrunk.source, FAST)
    assert CHECK_DYNAMIC_IN_LR in [c.name for c in verdict.violating_checks]

    path = persist_counterexample(
        shrunk.source,
        tmp_path,
        failure.name,
        metadata={"checks": checks, "k": FAST.k},
    )
    source, metadata = load_corpus_entry(path)
    assert metadata["checks"] == checks
    # Corpus entries are fed to the harness verbatim (comments and
    # all) and must still reproduce under the mutation.
    replay = difftest_source(source, FAST)
    assert not replay.ok


@pytest.fixture
def broken_summary_join(monkeypatch):
    """Sabotage the summary engine's instantiation join: injected
    deltas silently drop the mirrored callee exit facts, so a caller's
    return join never sees what its callees did.  Only the summary
    engine routes through :class:`ProcSolver`, so the kernel solution
    (and every oracle check against it) stays correct — the violation
    must surface on the ``summary_eq_kernel`` edge and nowhere else."""
    from repro.summaries.solver import ProcSolver

    original = ProcSolver.inject

    def drop_mirrors(self, delta_text):
        slim = json.loads(delta_text)
        slim["mirrors"] = {}
        original(self, json.dumps(slim, sort_keys=True, separators=(",", ":")))

    monkeypatch.setattr(ProcSolver, "inject", drop_mirrors)


def test_summary_join_mutation_caught_by_summary_edge(broken_summary_join):
    from repro.programs import ALL_FIXTURES

    verdict = difftest_source(ALL_FIXTURES["figure1"], FAST, name="figure1")
    assert not verdict.ok, "harness failed to catch a dropped summary join"
    names = [c.name for c in verdict.violating_checks]
    assert names == [CHECK_SUMMARY_EQ_KERNEL]


def test_committed_corpus_entry_reproduces_under_mutation(broken_intro):
    source, metadata = load_corpus_entry(COMMITTED_ENTRY)
    assert metadata["mutation"].startswith("AssignTransfer.intro")
    assert metadata["lines"] <= 20
    verdict = difftest_source(source, FAST, name=COMMITTED_ENTRY)
    found = [c.name for c in verdict.violating_checks]
    assert set(metadata["checks"]) & set(found), (
        f"committed counterexample no longer reproduces; found {found}"
    )
