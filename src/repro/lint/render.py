"""Human-readable and machine-readable lint report rendering.

Text output mirrors compiler diagnostics (``file:line:col: severity:
[rule] message``); the stats document uses the ``repro-lint/1`` schema
(a sibling of the engine's ``repro-stats/1``) so benchmark tooling can
scrape finding counts and the flow-sensitivity delta without parsing
prose.
"""

from __future__ import annotations

from .findings import RULE_CATALOG, LintReport

LINT_STATS_SCHEMA = "repro-lint/1"


def render_text(report: LintReport, show_witnesses: bool = True) -> str:
    """Compiler-style text report plus a per-rule summary footer."""
    lines: list[str] = []
    for finding in report.findings:
        if show_witnesses:
            lines.append(str(finding))
        else:
            lines.append(
                f"{finding.location()}: {finding.severity}: "
                f"[{finding.rule}] {finding.message}"
            )
    counts = report.rule_counts()
    total = len(report.findings)
    summary = ", ".join(
        f"{rule}: {count}" for rule, count in sorted(counts.items()) if count
    )
    lines.append("")
    if total:
        lines.append(f"{total} finding{'s' if total != 1 else ''} ({summary})")
    else:
        lines.append("no findings")
    if report.compared_with:
        delta = report.fp_delta()
        extra = sum(d for d in delta.values() if d > 0)
        lines.append(
            f"flow-insensitive comparison ({report.compared_with}): "
            f"{extra} extra finding{'s' if extra != 1 else ''} avoided by "
            f"{report.provider}"
        )
    return "\n".join(lines)


def stats_dict(report: LintReport) -> dict:
    """The ``repro-lint/1`` stats document (JSON-ready)."""
    doc = {
        "schema": LINT_STATS_SCHEMA,
        "provider": report.provider,
        "findings": len(report.findings),
        "rules": {
            rule: count for rule, count in sorted(report.rule_counts().items())
        },
        "severities": _severity_counts(report),
        "confidences": report.confidence_counts(),
        "analysis_seconds": report.analysis_seconds,
        "lint_seconds": report.lint_seconds,
    }
    if report.compared_with:
        doc["comparison"] = {
            "provider": report.compared_with,
            "rules": dict(sorted(report.comparison_counts.items())),
            "fp_delta": dict(sorted(report.fp_delta().items())),
            "flow_sensitive_only": sum(
                1 for f in report.findings if f.also_weihl is False
            ),
            "shared": sum(1 for f in report.findings if f.also_weihl is True),
        }
    return doc


def _severity_counts(report: LintReport) -> dict[str, int]:
    counts = {"error": 0, "warning": 0, "note": 0}
    for finding in report.findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    return counts


def rule_help() -> str:
    """The detector catalog, rendered for ``repro lint --rules``."""
    lines = []
    for info in RULE_CATALOG.values():
        lines.append(f"{info.rule_id} ({info.default_level})")
        lines.append(f"    {info.short}.")
        lines.append(f"    {info.help_text}")
    return "\n".join(lines)
