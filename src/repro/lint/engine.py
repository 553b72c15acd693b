"""Lint driver: providers, detector dispatch, provenance comparison.

``run_lint`` is the one entry point: it builds (or accepts) an alias
solution from a named *provider* — the Landi/Ryder engine (``"lr"``),
Weihl's flow-insensitive baseline (``"weihl"``) or the Andersen-style
baseline (``"andersen"``) — runs every detector over it, deduplicates,
and (optionally) re-runs the provider-sensitive detectors under a
comparison provider to tag each finding with flow-sensitivity
provenance ("would Weihl also flag this?").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..frontend.semantics import AnalyzedProgram, parse_and_analyze
from ..icfg.builder import IcfgBuilder
from ..icfg.graph import ICFG
from .detectors import (
    find_dangling_escapes,
    find_dead_stores,
    find_null_derefs,
    find_statement_conflicts,
    find_uninit_uses,
)
from .findings import Finding, LintReport, dedup_findings

PROVIDERS = ("lr", "weihl", "andersen")

#: Detector registry: (callable, depends on the alias provider?).
#: The uninit detector uses aliases only to trim 'definite' facts, so
#: its warning-level output is provider-independent; it is excluded
#: from the provenance comparison to keep comparisons meaningful.
_DETECTORS: tuple[tuple[Callable, bool], ...] = (
    (find_uninit_uses, False),
    (find_null_derefs, True),
    (find_dangling_escapes, True),
    (find_dead_stores, True),
    (find_statement_conflicts, True),
)


def make_provider(
    name: str,
    analyzed: AnalyzedProgram,
    icfg: ICFG,
    k: int = 3,
    max_facts: Optional[int] = 2_000_000,
    cache=None,
):
    """Build an alias solution presenting the MayAliasSolution query
    surface, by provider name.  ``cache`` (a
    :class:`repro.cache.SolutionCache`) short-circuits the ``"lr"``
    solve through the content-addressed result cache."""
    if name == "lr":
        from ..cache.solve import solve_with_cache

        solution, _status = solve_with_cache(
            analyzed, icfg, k=k, max_facts=max_facts, on_budget="raise", cache=cache
        )
        return solution
    if name == "weihl":
        from ..baselines.weihl import weihl_aliases
        from ..clients.adapters import WeihlBackedSolution

        return WeihlBackedSolution(
            analyzed, icfg, weihl_aliases(analyzed, icfg, k=k), k=k
        )
    if name == "andersen":
        from ..baselines.andersen import andersen_aliases
        from ..clients.adapters import AndersenBackedSolution

        return AndersenBackedSolution(
            analyzed, icfg, andersen_aliases(analyzed, icfg), k=k
        )
    raise ValueError(f"unknown provider {name!r} (expected one of {PROVIDERS})")


def run_detectors(solution, provider_name: str = "lr") -> list[Finding]:
    """Run every detector over one solution; deduplicated findings."""
    findings: list[Finding] = []
    for detector, _sensitive in _DETECTORS:
        for finding in detector(solution):
            findings.append(
                Finding(
                    rule=finding.rule,
                    severity=finding.severity,
                    message=finding.message,
                    proc=finding.proc,
                    node_id=finding.node_id,
                    span=finding.span,
                    name=finding.name,
                    witnesses=finding.witnesses,
                    provider=provider_name,
                    also_weihl=finding.also_weihl,
                    confidence=finding.confidence,
                )
            )
    return dedup_findings(findings)


@dataclass(slots=True)
class LintInput:
    """A parsed-and-lowered program ready for linting."""

    analyzed: AnalyzedProgram
    builder: IcfgBuilder
    icfg: ICFG

    @staticmethod
    def from_source(source: str, filename: str = "<input>") -> "LintInput":
        analyzed = parse_and_analyze(source, filename=filename)
        builder = IcfgBuilder(analyzed)
        return LintInput(analyzed, builder, builder.build())


def run_lint(
    source_or_input,
    provider: str = "lr",
    compare_with: Optional[str] = None,
    k: int = 3,
    max_facts: Optional[int] = 2_000_000,
    filename: str = "<input>",
    solution=None,
    cache=None,
) -> LintReport:
    """Lint one program.

    ``source_or_input`` is MiniC source text or a :class:`LintInput`.
    ``compare_with`` names a second provider; when given, every
    provider-sensitive finding is tagged with whether the comparison
    provider also produces a matching finding, and the report records
    the comparison's per-rule counts (the false-positive delta).
    A pre-built ``solution`` (anything with the MayAliasSolution query
    surface) short-circuits provider construction; ``cache`` routes
    the primary provider's solve through the result cache.
    """
    if isinstance(source_or_input, LintInput):
        lint_input = source_or_input
    else:
        lint_input = LintInput.from_source(source_or_input, filename=filename)
    analyzed, icfg = lint_input.analyzed, lint_input.icfg

    t0 = time.perf_counter()
    if solution is None:
        solution = make_provider(
            provider, analyzed, icfg, k=k, max_facts=max_facts, cache=cache
        )
    analysis_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    findings = run_detectors(solution, provider)
    report = LintReport(
        findings=findings, provider=provider, analysis_seconds=analysis_seconds
    )
    if compare_with is not None and compare_with != provider:
        other = make_provider(compare_with, analyzed, icfg, k=k, max_facts=max_facts)
        other_findings = run_detectors(other, compare_with)
        other_keys = {f.match_key() for f in other_findings}
        tagged = []
        for finding in findings:
            sensitive = _rule_is_sensitive(finding.rule)
            tagged.append(
                finding
                if not sensitive
                else Finding(
                    rule=finding.rule,
                    severity=finding.severity,
                    message=finding.message,
                    proc=finding.proc,
                    node_id=finding.node_id,
                    span=finding.span,
                    name=finding.name,
                    witnesses=finding.witnesses,
                    provider=finding.provider,
                    also_weihl=finding.match_key() in other_keys,
                    confidence=finding.confidence,
                )
            )
        report.findings = tagged
        report.compared_with = compare_with
        counts: dict[str, int] = {}
        for f in other_findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        report.comparison_counts = counts
    report.lint_seconds = time.perf_counter() - t1
    return report


def _rule_is_sensitive(rule: str) -> bool:
    from .findings import RULE_UNINIT

    return rule != RULE_UNINIT


def self_check(sources: Optional[Iterable[tuple[str, str]]] = None) -> list[str]:
    """Smoke target for CI: lint the bundled fixture programs under
    every provider and return a list of problems (empty = healthy).

    Checks structural invariants only — detectors run to completion,
    findings carry valid severities/rules, SARIF serializes and
    validates — not specific findings.
    """
    from ..programs.fixtures import ALL_FIXTURES
    from .findings import CONFIDENCES, RULE_CATALOG, SEVERITIES
    from .sarif import to_sarif, validate_sarif

    problems: list[str] = []
    if sources is None:
        sources = sorted(ALL_FIXTURES.items())
    for name, source in sources:
        for provider in PROVIDERS:
            try:
                report = run_lint(source, provider=provider, filename=f"<{name}>")
            except Exception as exc:  # pragma: no cover - defensive
                problems.append(f"{name}/{provider}: lint crashed: {exc!r}")
                continue
            for finding in report.findings:
                if finding.rule not in RULE_CATALOG:
                    problems.append(
                        f"{name}/{provider}: unknown rule {finding.rule}"
                    )
                if finding.severity not in SEVERITIES:
                    problems.append(
                        f"{name}/{provider}: bad severity {finding.severity}"
                    )
                if finding.confidence not in CONFIDENCES:
                    problems.append(
                        f"{name}/{provider}: bad confidence {finding.confidence}"
                    )
            doc = to_sarif(report, filename=f"<{name}>")
            problems.extend(
                f"{name}/{provider}: sarif: {issue}" for issue in validate_sarif(doc)
            )
    return problems
