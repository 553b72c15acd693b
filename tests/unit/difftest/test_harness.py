"""Differential harness: verdict structure, lattice checks, and the
budget-partial degradation contract."""

import pytest

from repro.difftest import DifftestConfig, difftest_source, run_difftest_suite
from repro.difftest.harness import (
    CHECK_DYNAMIC_IN_EXACT,
    CHECK_DYNAMIC_IN_LR,
    CHECK_EXACT_IN_LR,
    CHECK_KERNEL_EQ_REFERENCE,
    CHECK_LINT_SOUNDNESS,
    CHECK_LR_IN_WEIHL,
    CHECK_PARTIAL_TAINT,
    CHECK_SUMMARY_EQ_KERNEL,
)
from repro.programs.fixtures import FIGURE1

FAST = DifftestConfig(draws=4, run_baselines=False)


class TestVerdict:
    def test_figure1_all_checks_pass(self):
        verdict = difftest_source(FIGURE1, FAST, name="figure1")
        assert verdict.ok
        by_name = {c.name: c.status for c in verdict.checks}
        assert by_name == {
            CHECK_DYNAMIC_IN_LR: "ok",
            CHECK_EXACT_IN_LR: "ok",
            CHECK_DYNAMIC_IN_EXACT: "ok",
            CHECK_LR_IN_WEIHL: "ok",
            CHECK_LINT_SOUNDNESS: "ok",
            CHECK_KERNEL_EQ_REFERENCE: "ok",
            CHECK_SUMMARY_EQ_KERNEL: "ok",
        }

    def test_stats_cover_every_stage(self):
        verdict = difftest_source(FIGURE1, DifftestConfig(draws=2))
        assert verdict.stats["lr"]["complete"]
        assert verdict.stats["dynamic_oracle"]["draws"] == 2
        assert verdict.stats["exact_oracle"]["complete"]
        assert "andersen" in verdict.stats["baselines"]
        assert "typebased" in verdict.stats["baselines"]
        assert "weihl" in verdict.stats
        assert "fp_delta" in verdict.stats["lint"]

    def test_report_is_readable(self):
        verdict = difftest_source(FIGURE1, FAST)
        text = verdict.report()
        assert "OK" in text
        assert CHECK_DYNAMIC_IN_LR in text

    def test_as_dict_round_trips_to_json(self):
        import json

        verdict = difftest_source(FIGURE1, FAST)
        assert json.loads(json.dumps(verdict.as_dict()))["ok"] is True

    def test_exact_oracle_gated_by_icfg_size(self):
        config = DifftestConfig(draws=2, run_baselines=False, exact_max_nodes=1)
        verdict = difftest_source(FIGURE1, config)
        assert verdict.ok
        assert verdict.check(CHECK_EXACT_IN_LR).status == "skipped"
        assert verdict.check(CHECK_DYNAMIC_IN_EXACT).status == "skipped"
        assert verdict.check(CHECK_DYNAMIC_IN_LR).status == "ok"


class TestBudgetPartial:
    """PR 1 interaction: a budget-truncated solution makes no
    containment claim, so the lattice checks must degrade to the
    taint invariants instead of false-alarming."""

    def test_max_facts_partial_skips_containment(self):
        verdict = difftest_source(
            FIGURE1, DifftestConfig(max_facts=10, run_baselines=False)
        )
        assert verdict.ok
        statuses = {c.name: c.status for c in verdict.checks}
        assert statuses[CHECK_DYNAMIC_IN_LR] == "skipped"
        assert statuses[CHECK_EXACT_IN_LR] == "skipped"
        assert statuses[CHECK_LR_IN_WEIHL] == "skipped"
        assert statuses[CHECK_LINT_SOUNDNESS] == "skipped"
        assert statuses[CHECK_PARTIAL_TAINT] == "ok"
        assert not verdict.stats["lr"]["complete"]

    def test_deadline_partial_skips_containment(self):
        # FIGURE1 drains in fewer pops than the engine's deadline poll
        # interval, so use a generated program with a bigger worklist.
        from repro.difftest.harness import DEFAULT_SUITE_SPEC
        from repro.programs import ProgramSpec, generate_program

        source = generate_program(
            ProgramSpec(name="deadline", seed=5, **DEFAULT_SUITE_SPEC)
        )
        verdict = difftest_source(
            source,
            DifftestConfig(deadline_seconds=0.0, run_baselines=False),
        )
        assert verdict.ok
        assert verdict.check(CHECK_PARTIAL_TAINT).status == "ok"
        assert verdict.stats["lr"]["budget"]["reason"] == "deadline"

    def test_partial_taint_check_is_not_vacuous(self, monkeypatch):
        # A partial store smuggling a CLEAN fact violates the PR 1
        # contract and must be flagged.
        from repro.core.kernel import KernelAnalysis
        from repro.core.store import MayHoldStore

        original = MayHoldStore.taint_all

        def leaky_taint_all(self):
            count = original(self)
            for key in list(self._facts)[:1]:
                self._facts[key] = True
            return count

        monkeypatch.setattr(MayHoldStore, "taint_all", leaky_taint_all)

        # The kernel demotes through its private _taint_all at the
        # budget trip, so leak there.
        kernel_original = KernelAnalysis._taint_all

        def leaky_kernel_taint_all(self):
            count = kernel_original(self)
            if self._taint:
                self._taint[0] = 1
            return count

        monkeypatch.setattr(KernelAnalysis, "_taint_all", leaky_kernel_taint_all)
        verdict = difftest_source(
            FIGURE1, DifftestConfig(max_facts=10, run_baselines=False)
        )
        check = verdict.check(CHECK_PARTIAL_TAINT)
        assert check.status == "violation"

    def test_on_budget_raise_skips_program(self):
        config = DifftestConfig(
            max_facts=10, on_budget="raise", run_baselines=False
        )
        verdict = difftest_source(FIGURE1, config)
        assert verdict.ok
        assert verdict.stats["lr"]["budget_exceeded"]
        assert all(c.status == "skipped" for c in verdict.checks)


class TestSuite:
    def test_suite_aggregates_stats(self):
        result = run_difftest_suite([1, 2], FAST)
        assert result.ok
        stats = result.stats_dict()
        assert stats["programs"] == 2
        assert stats["failures"] == 0
        assert stats["checks"][CHECK_DYNAMIC_IN_LR]["ok"] == 2

    def test_suite_stops_on_first_failure(self, monkeypatch):
        from repro.core.transfer import AssignTransfer

        monkeypatch.setattr(
            AssignTransfer, "intro", lambda self, succ_id, stmt: None
        )
        result = run_difftest_suite(range(1, 10), FAST)
        assert not result.ok
        # seed 1 already exhibits the bug; the sweep must not run on.
        assert len(result.verdicts) == 1
