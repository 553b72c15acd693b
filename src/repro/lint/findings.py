"""Structured lint findings.

A :class:`Finding` is one diagnostic produced by a detector: a rule
id, a severity, a source location (threaded from the frontend spans
through the ICFG), the principal object name it is about, and the
*witness* alias pairs from the backing may-alias solution that made
the detector fire.  Findings carry flow-sensitivity provenance — for
every finding the report can answer "would the flow-insensitive
(Weihl) solution also flag this?" — which is how the lint layer turns
the paper's precision claims into something user-visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..frontend.diagnostics import DUMMY_SPAN, Span
from ..names.object_names import ObjectName

#: Rule identifiers (stable: used in SARIF, stats JSON and tests).
RULE_UNINIT = "uninit-pointer-use"
RULE_DANGLING = "dangling-escape"
RULE_NULL_DEREF = "null-deref"
RULE_DEAD_STORE = "dead-store"
RULE_CONFLICT = "stmt-conflict"

#: Severity levels, ordered.  These map 1:1 onto SARIF levels.
SEVERITIES = ("error", "warning", "note")

#: Confidence levels, ordered strongest-first.  "definite" means the
#: defect occurs on *every* path reaching the flagged node, shown by the
#: detector's own all-paths reasoning: the intersection-merged sets of
#: uninit-pointer-use and null-deref, or a dead store's unambiguous
#: target (see docs/LINT.md).  dangling-escape and stmt-conflict rest
#: on may-alias pairs alone and are always "possible": the
#: may-analysis cannot rule them out.
CONFIDENCES = ("definite", "possible")


@dataclass(frozen=True, slots=True)
class RuleInfo:
    """Catalog entry for one detector rule."""

    rule_id: str
    short: str
    default_level: str
    help_text: str


RULE_CATALOG: dict[str, RuleInfo] = {
    RULE_UNINIT: RuleInfo(
        RULE_UNINIT,
        "Use of a possibly uninitialized pointer",
        "warning",
        "A pointer-typed local is read on some path before any "
        "assignment reaches it.  'error' severity means every path "
        "reaching the use leaves the pointer uninitialized.",
    ),
    RULE_DANGLING: RuleInfo(
        RULE_DANGLING,
        "Stack address escapes the procedure that owns it",
        "error",
        "At a procedure's EXIT the may-alias solution shows storage "
        "that outlives the activation (a global, a return slot, or "
        "caller storage reached through a formal) still holding the "
        "address of a local.  Any later dereference is undefined.",
    ),
    RULE_NULL_DEREF: RuleInfo(
        RULE_NULL_DEREF,
        "Dereference of a null pointer",
        "warning",
        "A dereference of a pointer that is definitely ('error') or "
        "possibly ('warning') null at the dereference point.",
    ),
    RULE_DEAD_STORE: RuleInfo(
        RULE_DEAD_STORE,
        "Stored value is never read",
        "note",
        "No name the store may define is live afterwards (alias-aware "
        "liveness); the store is removable.",
    ),
    RULE_CONFLICT: RuleInfo(
        RULE_CONFLICT,
        "Adjacent statements cannot be reordered",
        "note",
        "Parallelism report: consecutive statements access "
        "may-overlapping storage, so they must stay ordered.",
    ),
}


@dataclass(frozen=True, slots=True)
class Finding:
    """One diagnostic: rule + severity + location + evidence."""

    rule: str
    severity: str
    message: str
    proc: str
    node_id: int
    span: Span = DUMMY_SPAN
    #: The object name the finding is about (None for pair findings).
    name: Optional[ObjectName] = None
    #: Rendered alias pairs (or other evidence) supporting the finding.
    witnesses: tuple[str, ...] = ()
    #: Name of the alias provider that produced it ("lr", "weihl", ...).
    provider: str = "lr"
    #: Flow-sensitivity provenance: True / False when a comparison
    #: provider was consulted, None when it was not.
    also_weihl: Optional[bool] = None
    #: "definite" when the detector's all-paths reasoning shows the
    #: defect on every path, else "possible".
    confidence: str = "possible"

    @property
    def has_location(self) -> bool:
        """Does the finding carry a real (non-dummy) source span?"""
        return self.span is not DUMMY_SPAN and self.span.start.offset >= 0 and (
            self.span.start.line != 1
            or self.span.start.column != 1
            or self.span.end.offset > 0
        )

    def dedup_key(self) -> tuple:
        """Findings with equal keys describe the same defect."""
        return (
            self.rule,
            self.proc,
            str(self.name) if self.name is not None else "",
            self.span.start.line,
            self.span.start.column,
        )

    def match_key(self) -> tuple:
        """Coarser key used for cross-provider matching and dynamic
        witness coverage: (rule, base variable uid)."""
        base = self.name.base if self.name is not None else ""
        return (self.rule, base)

    def location(self) -> str:
        """``file:line:col`` (synthesized nodes fall back to the
        procedure name)."""
        if self.has_location:
            return f"{self.span.filename}:{self.span.start.line}:{self.span.start.column}"
        return f"<{self.proc}>"

    def __str__(self) -> str:
        marker = " (definite)" if self.confidence == "definite" else ""
        parts = [
            f"{self.location()}: {self.severity}{marker}: "
            f"[{self.rule}] {self.message}"
        ]
        if self.witnesses:
            parts.append(f"  witness: {'; '.join(self.witnesses)}")
        if self.also_weihl is not None:
            tag = "also flagged" if self.also_weihl else "NOT flagged"
            parts.append(f"  flow-insensitive (Weihl): {tag}")
        return "\n".join(parts)


def dedup_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Drop duplicate findings (same :meth:`Finding.dedup_key`),
    keeping the first — and most severe — occurrence of each."""
    ranked = sorted(
        findings,
        key=lambda f: (
            SEVERITIES.index(f.severity),
            CONFIDENCES.index(f.confidence),
            f.node_id,
        ),
    )
    seen: set[tuple] = set()
    out: list[Finding] = []
    for finding in ranked:
        key = finding.dedup_key()
        if key not in seen:
            seen.add(key)
            out.append(finding)
    out.sort(
        key=lambda f: (
            f.span.start.line,
            f.span.start.column,
            f.rule,
            str(f.name) if f.name else "",
        )
    )
    return out


@dataclass(slots=True)
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    provider: str = "lr"
    compared_with: Optional[str] = None
    analysis_seconds: float = 0.0
    lint_seconds: float = 0.0
    #: Findings per rule from the comparison provider (for the
    #: false-positive delta); empty when no comparison ran.
    comparison_counts: dict[str, int] = field(default_factory=dict)

    def by_rule(self, rule: str) -> list[Finding]:
        """Findings for one rule."""
        return [f for f in self.findings if f.rule == rule]

    def rule_counts(self) -> dict[str, int]:
        """Findings per rule (every catalog rule present, 0 allowed)."""
        counts = {rule: 0 for rule in RULE_CATALOG}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def max_severity(self) -> Optional[str]:
        """The most severe level present, or None when clean."""
        present = {f.severity for f in self.findings}
        for level in SEVERITIES:
            if level in present:
                return level
        return None

    def confidence_counts(self) -> dict[str, int]:
        """Findings per confidence level (every level present)."""
        counts = {level: 0 for level in CONFIDENCES}
        for finding in self.findings:
            counts[finding.confidence] = counts.get(finding.confidence, 0) + 1
        return counts

    def definite_count(self) -> int:
        """Findings shown to occur on every path."""
        return sum(1 for f in self.findings if f.confidence == "definite")

    def fp_delta(self) -> dict[str, int]:
        """Per-rule ``comparison - primary`` finding-count deltas (the
        flow-insensitive provider's extra findings are the imprecision
        the Landi/Ryder solution avoids)."""
        if not self.comparison_counts:
            return {}
        mine = self.rule_counts()
        return {
            rule: self.comparison_counts.get(rule, 0) - mine.get(rule, 0)
            for rule in RULE_CATALOG
        }
