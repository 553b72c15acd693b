"""Differential-testing harness: one program, every analysis, one
verdict.

The soundness lattice checked here (ISSUE: the paper's safety claim
made executable):

    dynamic oracle  ⊆  exact bounded oracle  ⊆  Landi/Ryder  ⊆  Weihl

* ``dynamic ⊆ LR`` and ``exact ⊆ LR`` are **hard** soundness checks:
  oracle pairs were witnessed on (or enumerated along) realizable
  paths, so a miss is a bug with no approximation argument to hide
  behind.  The exact-oracle check holds even when the enumeration was
  cut short — every state it *did* explore lies on a realizable path.
* ``dynamic ⊆ exact`` is asserted only when the enumeration completed
  (an incomplete enumeration legitimately misses pairs).
* ``LR ⊆ Weihl`` compares untruncated program aliases through the
  representative-coverage relation (the two algorithms pick different
  family representatives at the k-limit frontier).
* Partial solutions (``on_budget="partial"``) make **no containment
  claim** — they are an all-TAINTED subset of the full fixpoint (see
  ``BudgetOutcome``), so the containment checks are skipped and the
  PR 1 taint invariants are checked instead.

Andersen and the type-based filter are run for comparative statistics
only; their precision is incomparable with the flow-sensitive
analysis, so no containment is asserted.

The ``lint_soundness`` check extends the lattice to the client layer:
every pointer bug *witnessed at run time* (uninitialized pointer read,
dangling dereference — see :mod:`repro.interp.events`) must be covered
by a lint finding on the same variable, and the LR-vs-Weihl finding
delta is recorded as a precision self-measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..core.analysis import BudgetExceeded
from ..core.solution import MayAliasSolution
from ..frontend.semantics import parse_and_analyze
from ..icfg.builder import IcfgBuilder
from ..interp.recorder import SoundnessChecker
from ..oracle import ExactEnumerator, collect_dynamic_oracle
from ..programs.generator import ProgramSpec, generate_program

#: Check names (stable identifiers used in reports and stats JSON).
CHECK_DYNAMIC_IN_LR = "dynamic_in_lr"
CHECK_EXACT_IN_LR = "exact_in_lr"
CHECK_DYNAMIC_IN_EXACT = "dynamic_in_exact"
CHECK_LR_IN_WEIHL = "lr_in_weihl"
CHECK_PARTIAL_TAINT = "partial_taint"
CHECK_LINT_SOUNDNESS = "lint_soundness"
CHECK_KERNEL_EQ_REFERENCE = "kernel_eq_reference"
CHECK_SUMMARY_EQ_KERNEL = "summary_eq_kernel"

ALL_CHECKS = (
    CHECK_DYNAMIC_IN_LR,
    CHECK_EXACT_IN_LR,
    CHECK_DYNAMIC_IN_EXACT,
    CHECK_LR_IN_WEIHL,
    CHECK_PARTIAL_TAINT,
    CHECK_LINT_SOUNDNESS,
    CHECK_KERNEL_EQ_REFERENCE,
    CHECK_SUMMARY_EQ_KERNEL,
)


@dataclass(slots=True)
class DifftestConfig:
    """Knobs for one differential-testing run.

    ``on_budget`` defaults to ``"partial"`` so a rare pointer-dense
    draw degrades to the taint-invariant check instead of aborting the
    whole suite.
    """

    k: int = 2
    draws: int = 8
    oracle_seed: int = 0
    fuel: int = 60_000
    max_facts: Optional[int] = 600_000
    deadline_seconds: Optional[float] = None
    on_budget: str = "partial"
    exact_max_states: int = 4_000
    exact_max_call_depth: int = 8
    #: Skip the exact oracle for ICFGs with more nodes than this —
    #: exhaustive path enumeration is for tiny programs only.
    exact_max_nodes: int = 160
    run_baselines: bool = True
    #: Run the lint detectors and hold them to the dynamic events
    #: (every witnessed uninit read / dangling deref must be reported).
    run_lint_check: bool = True
    #: Comparison provider for the lint false-positive delta (None
    #: skips the comparison; the soundness check still runs).
    lint_compare: Optional[str] = "weihl"
    #: Re-solve with the reference (object-graph) engine and require
    #: the integer-ID kernel's solution to match it *exactly* — fact
    #: insertion order, assumptions, taint bits and per-node
    #: ``pairs_at`` — the PR-6 equality edge of the lattice.
    run_kernel_check: bool = True
    #: Re-solve with the bottom-up summary engine and require its
    #: merged solution to match the kernel's exactly — fact set,
    #: assumptions, taint bits and per-node ``pairs_at`` — the PR-7
    #: equality edge of the lattice.
    run_summary_check: bool = True
    #: Violations reported per check (the totals are always exact).
    max_violation_reports: int = 8


@dataclass(slots=True)
class CheckResult:
    """Outcome of one lattice check on one program."""

    name: str
    status: str  # "ok" | "violation" | "skipped"
    detail: str = ""
    #: Human-readable descriptions of the first few violations.
    violations: list[str] = field(default_factory=list)
    violation_count: int = 0

    @property
    def ok(self) -> bool:
        return self.status != "violation"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "violation_count": self.violation_count,
            "violations": list(self.violations),
        }


@dataclass(slots=True)
class ProgramVerdict:
    """Everything the harness learned about one program."""

    name: str
    source: str
    k: int
    checks: list[CheckResult] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def violating_checks(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "violation"]

    def check(self, name: str) -> Optional[CheckResult]:
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def report(self) -> str:
        """Readable multi-line report (what the CLI prints on failure)."""
        lines = [f"program {self.name}: {'OK' if self.ok else 'SOUNDNESS VIOLATION'}"]
        for c in self.checks:
            mark = {"ok": "pass", "skipped": "skip", "violation": "FAIL"}[c.status]
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"  [{mark}] {c.name}{suffix}")
            for v in c.violations:
                lines.append(f"         {v}")
            hidden = c.violation_count - len(c.violations)
            if hidden > 0:
                lines.append(f"         ... and {hidden} more")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "k": self.k,
            "seconds": round(self.seconds, 4),
            "checks": [c.as_dict() for c in self.checks],
            "stats": self.stats,
        }


def weihl_member_covered(weihl_name, lr_name) -> bool:
    """Does a Weihl-side name cover an LR-side name?  Equal names, or
    either side's truncated representative standing for the other's
    family (representatives may sit at different truncation depths:
    the LR algorithm marks family representatives eagerly at the
    k-frontier, Weihl's congruence closure materializes to k+1)."""
    if weihl_name == lr_name:
        return True
    if weihl_name.truncated and weihl_name.is_prefix(lr_name):
        return True
    if lr_name.truncated and lr_name.is_prefix(weihl_name):
        return True
    return False


def weihl_pair_covered(pair, weihl_pairs) -> bool:
    """A pair is covered if some Weihl pair represents it (truncated
    members stand for their extensions)."""
    for wp in weihl_pairs:
        for a, b in ((wp.first, wp.second), (wp.second, wp.first)):
            if weihl_member_covered(a, pair.first) and weihl_member_covered(
                b, pair.second
            ):
                return True
    return False


def _check_oracle_in_lr(
    name: str,
    pairs_by_node: dict,
    node_by_nid: dict,
    solution: MayAliasSolution,
    config: DifftestConfig,
    detail: str = "",
) -> CheckResult:
    """Shared containment check for both executable oracles."""
    checker = SoundnessChecker(solution)
    for nid in sorted(pairs_by_node):
        checker.check_observed(node_by_nid[nid], pairs_by_node[nid])
    report = checker.report
    if report.ok:
        extra = f"{report.checked_pairs} pairs at {report.checked_nodes} nodes"
        return CheckResult(
            name, "ok", detail=f"{detail}{'; ' if detail else ''}{extra}"
        )
    shown = [str(v) for v in report.violations[: config.max_violation_reports]]
    return CheckResult(
        name,
        "violation",
        detail=detail,
        violations=shown,
        violation_count=len(report.violations),
    )


def _check_dynamic_in_exact(dynamic, exact, config: DifftestConfig) -> CheckResult:
    """Witnessed pairs must appear among the exactly-enumerated pairs
    (both oracles speak concrete, untruncated names — plain set
    containment per node)."""
    missing: list[str] = []
    count = 0
    for nid in sorted(dynamic.pairs_by_node):
        have = exact.pairs_by_node.get(nid, set())
        for pair in dynamic.pairs_by_node[nid] - have:
            count += 1
            if len(missing) < config.max_violation_reports:
                node = dynamic.node_by_nid[nid]
                missing.append(
                    f"witnessed {pair} at n{nid} [{node.label()}] "
                    "not enumerated by the exact oracle"
                )
    if count:
        return CheckResult(
            CHECK_DYNAMIC_IN_EXACT,
            "violation",
            violations=missing,
            violation_count=count,
        )
    return CheckResult(
        CHECK_DYNAMIC_IN_EXACT,
        "ok",
        detail=f"{dynamic.total_pairs} witnessed pairs all enumerated",
    )


def _check_lr_in_weihl(solution: MayAliasSolution, weihl, config) -> CheckResult:
    by_base: dict[str, list] = {}
    for wp in weihl.aliases:
        by_base.setdefault(wp.first.base, []).append(wp)
        if wp.second.base != wp.first.base:
            by_base.setdefault(wp.second.base, []).append(wp)
    missing: list[str] = []
    count = 0
    checked = 0
    for pair in solution.program_aliases():
        if pair.first.truncated or pair.second.truncated:
            continue
        checked += 1
        if pair in weihl.aliases:
            continue
        if weihl_pair_covered(pair, by_base.get(pair.first.base, ())):
            continue
        count += 1
        if len(missing) < config.max_violation_reports:
            missing.append(f"LR program alias {pair} not covered by Weihl")
    if count:
        return CheckResult(
            CHECK_LR_IN_WEIHL,
            "violation",
            violations=missing,
            violation_count=count,
        )
    return CheckResult(
        CHECK_LR_IN_WEIHL, "ok", detail=f"{checked} untruncated pairs covered"
    )


def _check_partial_taint(solution: MayAliasSolution) -> CheckResult:
    """PR 1 contract for budget-partial solutions: the store is a
    subset of the full fixpoint with *every* fact demoted to TAINTED
    and nothing certified precise."""
    problems: list[str] = []
    clean = sum(1 for _, taint in solution.store.facts() if taint)
    if clean:
        problems.append(f"{clean} facts still CLEAN in a partial solution")
    if solution.percent_yes() != 0.0:
        problems.append(
            f"percent_yes={solution.percent_yes()} != 0 for a partial solution"
        )
    if solution.budget.reason not in ("max_facts", "deadline"):
        problems.append(f"unexpected budget reason {solution.budget.reason!r}")
    if problems:
        return CheckResult(
            CHECK_PARTIAL_TAINT,
            "violation",
            violations=problems,
            violation_count=len(problems),
        )
    return CheckResult(
        CHECK_PARTIAL_TAINT,
        "ok",
        detail=f"all facts TAINTED (reason={solution.budget.reason})",
    )


def _check_kernel_eq_reference(
    analyzed,
    icfg,
    solution: MayAliasSolution,
    config: DifftestConfig,
) -> CheckResult:
    """The engine-equality edge: the kernel and reference engines must
    produce *identical* solutions — same fact set (pair + assumption),
    same taint bits, same per-node pair sets.

    ``solution`` is the kernel's result (the default engine); this
    re-solves with ``engine="reference"`` and diffs.  Insertion order
    is deliberately *not* compared: the kernel's directed return join
    skips the reference's redundant record rescans, so a return fact
    first materializes at the exit fact's own pop rather than at an
    earlier call-site rescan — a pure reordering that the fact-set and
    taint comparison would surface if it ever changed an answer."""
    from ..core.analysis import analyze_program

    reference = analyze_program(
        analyzed,
        icfg,
        k=config.k,
        max_facts=config.max_facts,
        on_budget="partial",
        engine="reference",
    )
    if not reference.complete:
        return CheckResult(
            CHECK_KERNEL_EQ_REFERENCE,
            "skipped",
            detail=f"reference re-solve hit its {reference.budget.reason} budget",
        )
    kernel_facts = list(solution.store.facts())
    reference_facts = list(reference.store.facts())
    problems: list[str] = []
    count = 0
    if len(kernel_facts) != len(reference_facts):
        count += 1
        problems.append(
            f"fact counts differ: kernel {len(kernel_facts)} "
            f"vs reference {len(reference_facts)}"
        )
    kernel_map = dict(kernel_facts)
    reference_map = dict(reference_facts)
    for fact in kernel_map.keys() - reference_map.keys():
        count += 1
        if len(problems) < config.max_violation_reports:
            problems.append(f"kernel-only fact {fact}")
    for fact in reference_map.keys() - kernel_map.keys():
        count += 1
        if len(problems) < config.max_violation_reports:
            problems.append(f"reference-only fact {fact}")
    for fact in kernel_map.keys() & reference_map.keys():
        if kernel_map[fact] != reference_map[fact]:
            count += 1
            if len(problems) < config.max_violation_reports:
                problems.append(
                    f"taint differs on {fact}: kernel clean={kernel_map[fact]} "
                    f"reference clean={reference_map[fact]}"
                )
    for node in icfg.nodes:
        if solution.store.pairs_at(node.nid) != reference.store.pairs_at(node.nid):
            count += 1
            if len(problems) < config.max_violation_reports:
                problems.append(f"pairs_at(n{node.nid}) differs")
    if count:
        return CheckResult(
            CHECK_KERNEL_EQ_REFERENCE,
            "violation",
            violations=problems,
            violation_count=count,
        )
    return CheckResult(
        CHECK_KERNEL_EQ_REFERENCE,
        "ok",
        detail=f"{len(kernel_facts)} facts identical across engines",
    )


def _check_summary_eq_kernel(
    analyzed,
    icfg,
    solution: MayAliasSolution,
    config: DifftestConfig,
) -> CheckResult:
    """The second engine-equality edge: the bottom-up summary engine's
    merged solution must equal the kernel's (the default engine that
    produced ``solution``) — same fact set, same taint bits, same
    per-node pair sets.

    Exactness rests on two pinned properties: unconditional
    extension/closure emission makes the fact fixpoint
    schedule-independent, and the final retaint pass makes the taint
    fixpoint schedule-independent — so a per-procedure schedule with
    mirrored summaries must land on the very same bits the global
    worklist does.  Fact *insertion order* is deliberately not
    compared: the merged store replays facts procedure-by-procedure."""
    from ..summaries.solver import solve_summary

    summary = solve_summary(
        analyzed,
        icfg,
        k=config.k,
        max_facts=config.max_facts,
        on_budget="partial",
    )
    if not summary.complete:
        return CheckResult(
            CHECK_SUMMARY_EQ_KERNEL,
            "skipped",
            detail=f"summary re-solve hit its {summary.budget.reason} budget",
        )
    kernel_map = dict(solution.store.facts())
    summary_map = dict(summary.store.facts())
    problems: list[str] = []
    count = 0
    if len(kernel_map) != len(summary_map):
        count += 1
        problems.append(
            f"fact counts differ: kernel {len(kernel_map)} "
            f"vs summary {len(summary_map)}"
        )
    for fact in kernel_map.keys() - summary_map.keys():
        count += 1
        if len(problems) < config.max_violation_reports:
            problems.append(f"kernel-only fact {fact}")
    for fact in summary_map.keys() - kernel_map.keys():
        count += 1
        if len(problems) < config.max_violation_reports:
            problems.append(f"summary-only fact {fact}")
    for fact in kernel_map.keys() & summary_map.keys():
        if kernel_map[fact] != summary_map[fact]:
            count += 1
            if len(problems) < config.max_violation_reports:
                problems.append(
                    f"taint differs on {fact}: kernel clean={kernel_map[fact]} "
                    f"summary clean={summary_map[fact]}"
                )
    for node in icfg.nodes:
        if solution.store.pairs_at(node.nid) != summary.store.pairs_at(node.nid):
            count += 1
            if len(problems) < config.max_violation_reports:
                problems.append(f"pairs_at(n{node.nid}) differs")
    if count:
        return CheckResult(
            CHECK_SUMMARY_EQ_KERNEL,
            "violation",
            violations=problems,
            violation_count=count,
        )
    return CheckResult(
        CHECK_SUMMARY_EQ_KERNEL,
        "ok",
        detail=f"{len(kernel_map)} facts identical across engines",
    )


def _check_lint_soundness(
    analyzed,
    builder,
    icfg,
    solution: MayAliasSolution,
    config: DifftestConfig,
) -> tuple[CheckResult, dict]:
    """Hold the lint detectors to the dynamic oracle: every witnessed
    ``uninit_read`` / ``dangling_deref`` event must be covered by a
    finding on the same variable (``repro.lint.validation``).  Also
    records the LR-vs-baseline false-positive delta as a precision
    self-measure."""
    from ..lint.engine import LintInput, run_lint
    from ..lint.validation import collect_runtime_events, uncovered_events

    lint_input = LintInput(analyzed=analyzed, builder=builder, icfg=icfg)
    try:
        report = run_lint(
            lint_input,
            provider="lr",
            compare_with=config.lint_compare,
            k=config.k,
            max_facts=config.max_facts,
            solution=solution,
        )
    except Exception as exc:  # comparison baseline saturated on a dense draw
        if config.lint_compare is None:
            raise
        report = run_lint(
            lint_input, provider="lr", k=config.k, solution=solution
        )
        report_stats = {"comparison_error": str(exc)}
    else:
        report_stats = {}
    events, trapped = collect_runtime_events(
        analyzed,
        builder,
        icfg,
        draws=config.draws,
        seed=config.oracle_seed,
        fuel=config.fuel,
    )
    stats = {
        "findings": len(report.findings),
        "rules": report.rule_counts(),
        "events": events.stats_dict(),
        "runs_trapped": trapped,
        **report_stats,
    }
    if report.compared_with:
        stats["fp_delta"] = report.fp_delta()
        stats["flow_sensitive_only"] = sum(
            1 for f in report.findings if f.also_weihl is False
        )
    missing = uncovered_events(events, report)
    if missing:
        shown = [
            f"witnessed {event} has no covering finding"
            for event in missing[: config.max_violation_reports]
        ]
        return (
            CheckResult(
                CHECK_LINT_SOUNDNESS,
                "violation",
                violations=shown,
                violation_count=len(missing),
            ),
            stats,
        )
    return (
        CheckResult(
            CHECK_LINT_SOUNDNESS,
            "ok",
            detail=(
                f"{len(events)} distinct runtime events covered by "
                f"{len(report.findings)} findings"
            ),
        ),
        stats,
    )


def difftest_source(
    source: str,
    config: Optional[DifftestConfig] = None,
    name: str = "<program>",
    cache=None,
) -> ProgramVerdict:
    """Run every analysis on ``source`` and check the lattice.

    ``cache`` is an optional :class:`repro.cache.SolutionCache`; the
    expensive Landi/Ryder solve is looked up there first (the oracles
    and baselines always run — they are what the solution is checked
    *against*)."""
    config = config or DifftestConfig()
    started = time.perf_counter()
    verdict = ProgramVerdict(name=name, source=source, k=config.k)

    analyzed = parse_and_analyze(source)
    builder = IcfgBuilder(analyzed)
    icfg = builder.build()
    verdict.stats["icfg_nodes"] = len(icfg.nodes)

    try:
        from ..cache.solve import solve_with_cache

        solution, cache_status = solve_with_cache(
            analyzed,
            icfg,
            k=config.k,
            max_facts=config.max_facts,
            deadline_seconds=config.deadline_seconds,
            on_budget=config.on_budget,
            cache=cache,
        )
    except BudgetExceeded as exc:
        # on_budget="raise": no solution to check against; record the
        # outcome so suite stats still count the program.
        verdict.stats["lr"] = {"budget_exceeded": True, "error": str(exc)}
        for check_name in (
            CHECK_DYNAMIC_IN_LR,
            CHECK_EXACT_IN_LR,
            CHECK_LR_IN_WEIHL,
            CHECK_LINT_SOUNDNESS,
            CHECK_KERNEL_EQ_REFERENCE,
            CHECK_SUMMARY_EQ_KERNEL,
        ):
            verdict.checks.append(
                CheckResult(check_name, "skipped", detail="analysis budget exceeded")
            )
        verdict.seconds = time.perf_counter() - started
        return verdict

    verdict.stats["lr"] = {
        "complete": solution.complete,
        "facts": len(solution.store),
        "percent_yes": solution.percent_yes(),
        "seconds": round(solution.analysis_seconds, 4),
        "budget": solution.budget.as_dict(),
        "engine": solution.engine.as_dict(),
        "cache": cache_status,
    }

    if solution.complete:
        # Oracles are only collected when there is a solution to hold
        # them against — a partial solution makes no containment claim.
        max_derefs = config.k + 1
        dynamic = collect_dynamic_oracle(
            analyzed,
            builder,
            icfg,
            draws=config.draws,
            seed=config.oracle_seed,
            fuel=config.fuel,
            max_derefs=max_derefs,
        )
        verdict.stats["dynamic_oracle"] = dynamic.stats_dict()

        exact = None
        if len(icfg.nodes) <= config.exact_max_nodes:
            exact = ExactEnumerator(
                analyzed,
                icfg,
                max_states=config.exact_max_states,
                max_call_depth=config.exact_max_call_depth,
                max_derefs=max_derefs,
            ).run()
            verdict.stats["exact_oracle"] = exact.stats_dict()

        verdict.checks.append(
            _check_oracle_in_lr(
                CHECK_DYNAMIC_IN_LR,
                dynamic.pairs_by_node,
                dynamic.node_by_nid,
                solution,
                config,
            )
        )
        if exact is not None:
            verdict.checks.append(
                _check_oracle_in_lr(
                    CHECK_EXACT_IN_LR,
                    exact.pairs_by_node,
                    exact.node_by_nid,
                    solution,
                    config,
                    detail=(
                        "complete enumeration"
                        if exact.complete
                        else f"bounded enumeration ({exact.incomplete_reason}); "
                        "explored states are still realizable"
                    ),
                )
            )
            if exact.complete:
                verdict.checks.append(
                    _check_dynamic_in_exact(dynamic, exact, config)
                )
            else:
                verdict.checks.append(
                    CheckResult(
                        CHECK_DYNAMIC_IN_EXACT,
                        "skipped",
                        detail=f"enumeration incomplete ({exact.incomplete_reason})",
                    )
                )
        else:
            detail = f"ICFG has {len(icfg.nodes)} nodes > {config.exact_max_nodes}"
            verdict.checks.append(
                CheckResult(CHECK_EXACT_IN_LR, "skipped", detail=detail)
            )
            verdict.checks.append(
                CheckResult(CHECK_DYNAMIC_IN_EXACT, "skipped", detail=detail)
            )
        try:
            from ..baselines.weihl import weihl_aliases

            weihl = weihl_aliases(analyzed, icfg, k=config.k)
        except Exception as exc:  # budget/saturation on a dense draw
            verdict.checks.append(
                CheckResult(
                    CHECK_LR_IN_WEIHL, "skipped", detail=f"weihl failed: {exc}"
                )
            )
        else:
            verdict.stats["weihl"] = {
                "aliases": weihl.alias_count,
                "aliases_untruncated": weihl.alias_count_untruncated,
                "seconds": round(weihl.total_seconds, 4),
            }
            verdict.checks.append(_check_lr_in_weihl(solution, weihl, config))
        if config.run_lint_check:
            lint_check, lint_stats = _check_lint_soundness(
                analyzed, builder, icfg, solution, config
            )
            verdict.stats["lint"] = lint_stats
            verdict.checks.append(lint_check)
        if config.run_kernel_check:
            verdict.checks.append(
                _check_kernel_eq_reference(analyzed, icfg, solution, config)
            )
        if config.run_summary_check:
            verdict.checks.append(
                _check_summary_eq_kernel(analyzed, icfg, solution, config)
            )
    else:
        # Partial solution: an all-TAINTED subset of the fixpoint makes
        # no containment claim in either direction.
        detail = (
            f"partial solution ({solution.budget.reason}): no containment claim"
        )
        for check_name in (
            CHECK_DYNAMIC_IN_LR,
            CHECK_EXACT_IN_LR,
            CHECK_DYNAMIC_IN_EXACT,
            CHECK_LR_IN_WEIHL,
            CHECK_LINT_SOUNDNESS,
            CHECK_KERNEL_EQ_REFERENCE,
            CHECK_SUMMARY_EQ_KERNEL,
        ):
            verdict.checks.append(CheckResult(check_name, "skipped", detail=detail))
        verdict.checks.append(_check_partial_taint(solution))

    if config.run_baselines:
        verdict.stats["baselines"] = _baseline_stats(analyzed, icfg, config)

    verdict.seconds = time.perf_counter() - started
    return verdict


def _baseline_stats(analyzed, icfg, config: DifftestConfig) -> dict:
    """Comparative numbers only — Andersen and the type-based filter
    are incomparable in precision with the flow-sensitive analysis."""
    stats: dict = {}
    try:
        from ..baselines.andersen import andersen_aliases

        andersen = andersen_aliases(analyzed, icfg)
        stats["andersen"] = {
            "aliases": len(andersen.aliases),
            "seconds": round(andersen.total_seconds, 4),
        }
    except Exception as exc:
        stats["andersen"] = {"error": str(exc)}
    try:
        from ..baselines.typebased import typebased_aliases

        typed = typebased_aliases(analyzed, icfg, k=config.k)
        stats["typebased"] = {
            "aliases": len(typed.aliases),
            "seconds": round(typed.total_seconds, 4),
        }
    except Exception as exc:
        stats["typebased"] = {"error": str(exc)}
    return stats


# ---------------------------------------------------------------------------
# Suites over generated programs


#: Generator profile used by ``repro difftest``: small programs with a
#: depth/density cap — big enough to exercise calls, recursion, structs
#: and heap allocation; small enough that the exact oracle usually runs.
DEFAULT_SUITE_SPEC = dict(
    n_functions=3,
    n_globals=4,
    stmts_per_function=5,
    max_pointer_depth=1,
    pointer_density=0.85,
)


@dataclass(slots=True)
class SuiteResult:
    """Aggregated outcome of a difftest sweep."""

    verdicts: list[ProgramVerdict] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def failures(self) -> list[ProgramVerdict]:
        return [v for v in self.verdicts if not v.ok]

    @property
    def degraded(self) -> list[ProgramVerdict]:
        """Verdicts degraded by a dead/timed-out worker shard."""
        return [v for v in self.verdicts if "shard" in v.stats]

    def stats_dict(self) -> dict:
        by_status: dict[str, dict[str, int]] = {}
        for verdict in self.verdicts:
            for check in verdict.checks:
                row = by_status.setdefault(
                    check.name, {"ok": 0, "skipped": 0, "violation": 0}
                )
                row[check.status] += 1
        return {
            "programs": len(self.verdicts),
            "failures": len(self.failures),
            "seconds": round(self.seconds, 3),
            "checks": by_status,
            "partial_solutions": sum(
                1
                for v in self.verdicts
                if not v.stats.get("lr", {}).get("complete", True)
            ),
            "degraded_shards": len(self.degraded),
            "exact_oracle_complete": sum(
                1
                for v in self.verdicts
                if v.stats.get("exact_oracle", {}).get("complete")
            ),
            "dynamic_pairs_total": sum(
                v.stats.get("dynamic_oracle", {}).get("distinct_node_pairs", 0)
                for v in self.verdicts
            ),
            "lint": self._lint_stats(),
            "engine": self._engine_stats(),
            "cache": self._cache_stats(),
        }

    def _engine_stats(self) -> dict:
        """Per-program engine counters aggregated across the suite —
        the ``repro-stats/1`` counter block at sweep granularity.  The
        merge is order-independent (sums), so every job count yields
        the same numbers; the intern-table sizes are *process-global*
        gauges (they depend on how programs were packed into worker
        processes), so they are excluded from the deterministic block."""
        from ..core.metrics import EngineReport

        reports = [
            EngineReport.from_dict(v.stats["lr"]["engine"])
            for v in self.verdicts
            if "engine" in v.stats.get("lr", {})
        ]
        merged = EngineReport.aggregate(reports).as_dict()
        merged.pop("interned_names", None)
        merged.pop("interned_pairs", None)
        return merged

    def _cache_stats(self) -> dict:
        """Result-cache lookup outcomes across the suite (per-status
        counts of the ``solve_with_cache`` statuses)."""
        counts = {"off": 0, "hit": 0, "miss": 0, "uncacheable": 0}
        for verdict in self.verdicts:
            status = verdict.stats.get("lr", {}).get("cache")
            if status in counts:
                counts[status] += 1
        lookups = counts["hit"] + counts["miss"]
        counts["hit_rate"] = round(counts["hit"] / lookups, 4) if lookups else 0.0
        return counts

    def _lint_stats(self) -> dict:
        """Suite-wide lint precision numbers: total findings and the
        per-rule false-positive delta vs the flow-insensitive baseline
        (positive = extra findings the baseline would emit)."""
        findings = 0
        runtime_events = 0
        fp_delta: dict[str, int] = {}
        for verdict in self.verdicts:
            lint = verdict.stats.get("lint")
            if not lint:
                continue
            findings += lint.get("findings", 0)
            runtime_events += lint.get("events", {}).get("distinct_events", 0)
            for rule, delta in lint.get("fp_delta", {}).items():
                fp_delta[rule] = fp_delta.get(rule, 0) + delta
        return {
            "findings_total": findings,
            "runtime_events_total": runtime_events,
            "fp_delta": dict(sorted(fp_delta.items())),
            "fp_avoided_total": sum(d for d in fp_delta.values() if d > 0),
        }


def degraded_verdict(name: str, source: str, k: int, shard: dict) -> ProgramVerdict:
    """The sweep-level analogue of the engine's budget degradation: a
    worker shard that raised, died or timed out yields a verdict whose
    checks are all *skipped* (no claim either way), clearly marked with
    the shard outcome — partial results, never a hang, never a silent
    gap."""
    verdict = ProgramVerdict(name=name, source=source, k=k)
    verdict.stats["shard"] = dict(shard)
    detail = f"worker shard {shard.get('status', 'lost')}: no result"
    verdict.checks = [
        CheckResult(check_name, "skipped", detail=detail)
        for check_name in ALL_CHECKS
    ]
    return verdict


def _difftest_unit(payload: tuple) -> ProgramVerdict:
    """Sharded-driver worker: difftest one generated seed.

    Module-level (picklable); opens its own cache handle — concurrent
    writers are safe because entries land via atomic rename."""
    from ..cache.store import open_cache

    seed, config, spec_kwargs, cache_dir = payload
    cache = open_cache(cache_dir)
    spec = ProgramSpec(name=f"difftest{seed}", seed=seed, **spec_kwargs)
    source = generate_program(spec)
    return difftest_source(source, config, name=f"seed{seed}", cache=cache)


def run_difftest_suite(
    seeds: Iterable[int],
    config: Optional[DifftestConfig] = None,
    spec_kwargs: Optional[dict] = None,
    stop_on_failure: bool = True,
    progress: Optional[Callable[[ProgramVerdict], None]] = None,
    jobs: int = 1,
    cache_dir=None,
) -> SuiteResult:
    """Differential-test one generated program per seed.

    ``jobs > 1`` fans the seeds out over worker processes via
    :func:`repro.parallel.run_sharded`; verdicts are merged in seed
    order, so the suite result (and its stats document) is identical
    for every job count, modulo wall-clock fields.  With
    ``stop_on_failure`` the parallel verdict list is truncated at the
    first failure — exactly the prefix the serial loop would produce.
    ``cache_dir`` enables the content-addressed solution cache."""
    config = config or DifftestConfig()
    spec_kwargs = dict(DEFAULT_SUITE_SPEC if spec_kwargs is None else spec_kwargs)
    seed_list = list(seeds)
    result = SuiteResult()
    started = time.perf_counter()

    if jobs > 1 and len(seed_list) > 1:
        from ..parallel import run_sharded

        units = [(seed, config, spec_kwargs, cache_dir) for seed in seed_list]
        outcomes = run_sharded(
            _difftest_unit,
            units,
            jobs=jobs,
            timeout=config.deadline_seconds and config.deadline_seconds * len(units),
        )
        for seed, outcome in zip(seed_list, outcomes):
            if outcome.ok:
                verdict = outcome.value
            else:
                verdict = degraded_verdict(
                    f"seed{seed}", "", config.k, outcome.as_dict()
                )
            result.verdicts.append(verdict)
            if progress is not None:
                progress(verdict)
        if stop_on_failure:
            for position, verdict in enumerate(result.verdicts):
                if not verdict.ok:
                    del result.verdicts[position + 1 :]
                    break
        result.seconds = time.perf_counter() - started
        return result

    from ..cache.store import open_cache

    cache = open_cache(cache_dir)
    for seed in seed_list:
        spec = ProgramSpec(name=f"difftest{seed}", seed=seed, **spec_kwargs)
        source = generate_program(spec)
        verdict = difftest_source(source, config, name=f"seed{seed}", cache=cache)
        result.verdicts.append(verdict)
        if progress is not None:
            progress(verdict)
        if stop_on_failure and not verdict.ok:
            break
    result.seconds = time.perf_counter() - started
    return result


def violation_predicate(
    config: Optional[DifftestConfig] = None,
    check_names: Optional[Iterable[str]] = None,
) -> Callable[[str], bool]:
    """A shrinking predicate: does ``source`` still exhibit a violation?

    ``check_names`` restricts the predicate to the checks that failed
    originally, so shrinking cannot wander onto an unrelated failure.
    Sources that fail to parse/analyze (or crash any analysis) do not
    exhibit the violation — ddmin discards those candidates.
    """
    config = config or DifftestConfig()
    wanted = set(check_names) if check_names is not None else None
    def predicate(source: str) -> bool:
        try:
            verdict = difftest_source(source, config)
        except Exception:
            return False
        for check in verdict.violating_checks:
            if wanted is None or check.name in wanted:
                return True
        return False

    return predicate
