"""SARIF 2.1.0 output for lint reports.

Emits the subset of the OASIS *Static Analysis Results Interchange
Format* that result viewers (GitHub code scanning, VS Code SARIF
viewer) consume: one run, a tool driver with a rule catalog, and one
``result`` per finding with a physical location.

``validate_sarif`` is a hand-rolled structural checker covering the
spec constraints this emitter can get wrong (required properties,
level enumeration, rule-index consistency, 1-based regions).  The
environment bundles no JSON-Schema validator, and the checks here are
sharper than a generic schema walk anyway — they also verify
cross-references like ``ruleIndex`` pointing at the right rule.
"""

from __future__ import annotations

import json
from typing import Optional

from .findings import RULE_CATALOG, Finding, LintReport

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-lint"
TOOL_URI = "https://github.com/landi-ryder-repro/repro"

#: Finding severity → SARIF result level (identical vocabularies here).
_LEVELS = {"error": "error", "warning": "warning", "note": "note"}


def _rule_objects() -> list[dict]:
    rules = []
    for info in RULE_CATALOG.values():
        rules.append(
            {
                "id": info.rule_id,
                "shortDescription": {"text": info.short},
                "fullDescription": {"text": info.help_text},
                "defaultConfiguration": {"level": _LEVELS[info.default_level]},
            }
        )
    return rules


def _result_object(
    finding: Finding, rule_index: dict[str, int], filename: str
) -> dict:
    message = finding.message
    if finding.witnesses:
        message += f" [witness: {'; '.join(finding.witnesses)}]"
    result = {
        "ruleId": finding.rule,
        "ruleIndex": rule_index[finding.rule],
        "level": _LEVELS[finding.severity],
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": _artifact_uri(finding, filename)},
                    "region": {
                        "startLine": max(1, finding.span.start.line),
                        "startColumn": max(1, finding.span.start.column),
                    },
                }
            }
        ],
        "properties": {
            "proc": finding.proc,
            "provider": finding.provider,
            "name": str(finding.name) if finding.name is not None else "",
            "confidence": finding.confidence,
        },
    }
    if finding.also_weihl is not None:
        result["properties"]["alsoFlaggedByWeihl"] = finding.also_weihl
    return result


def _artifact_uri(finding: Finding, filename: str) -> str:
    name = finding.span.filename if finding.has_location else filename
    if name.startswith("<"):
        # Synthesized/in-memory sources still need a legal URI.
        return "inmemory://" + name.strip("<>").replace(" ", "_")
    return name


def to_sarif(report: LintReport, filename: str = "<input>") -> dict:
    """The SARIF 2.1.0 document for one lint run (as a JSON-ready
    dict; use :func:`render_sarif` for text)."""
    rules = _rule_objects()
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "version": "1.0.0",
                        "rules": rules,
                    }
                },
                "results": [
                    _result_object(f, rule_index, filename) for f in report.findings
                ],
                "properties": {
                    "provider": report.provider,
                    "comparedWith": report.compared_with or "",
                    "definiteFindings": report.definite_count(),
                    "analysisSeconds": report.analysis_seconds,
                    "lintSeconds": report.lint_seconds,
                },
            }
        ],
    }


def render_sarif(report: LintReport, filename: str = "<input>") -> str:
    """Serialized SARIF document."""
    return json.dumps(to_sarif(report, filename=filename), indent=2, sort_keys=True)


# -- structural validation ------------------------------------------------------

_VALID_LEVELS = {"none", "note", "warning", "error"}


def validate_sarif(doc: object) -> list[str]:
    """Structural SARIF 2.1.0 validation; a list of problems (empty =
    valid).  Covers the schema's required properties and enumerations
    for the subset this emitter produces, plus cross-reference checks a
    plain schema cannot express."""
    problems: list[str] = []

    def err(msg: str) -> None:
        problems.append(msg)

    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("version") != SARIF_VERSION:
        err(f"version must be {SARIF_VERSION!r}, got {doc.get('version')!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        return problems + ["'runs' must be a non-empty array"]
    for ri, run in enumerate(runs):
        where = f"runs[{ri}]"
        if not isinstance(run, dict):
            err(f"{where} is not an object")
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(run.get("tool"), dict) else None
        if not isinstance(driver, dict):
            err(f"{where}.tool.driver missing")
            continue
        if not isinstance(driver.get("name"), str) or not driver["name"]:
            err(f"{where}.tool.driver.name must be a non-empty string")
        rules = driver.get("rules", [])
        rule_ids: list[Optional[str]] = []
        if not isinstance(rules, list):
            err(f"{where}.tool.driver.rules must be an array")
            rules = []
        for qi, rule in enumerate(rules):
            if not isinstance(rule, dict) or not isinstance(rule.get("id"), str):
                err(f"{where}.tool.driver.rules[{qi}] needs a string 'id'")
                rule_ids.append(None)
                continue
            rule_ids.append(rule["id"])
            short = rule.get("shortDescription")
            if not (isinstance(short, dict) and isinstance(short.get("text"), str)):
                err(f"{where}.rules[{qi}].shortDescription.text missing")
            config = rule.get("defaultConfiguration", {})
            if config.get("level") not in _VALID_LEVELS:
                err(f"{where}.rules[{qi}].defaultConfiguration.level invalid")
        results = run.get("results")
        if not isinstance(results, list):
            err(f"{where}.results must be an array (may be empty)")
            continue
        for fi, result in enumerate(results):
            rwhere = f"{where}.results[{fi}]"
            if not isinstance(result, dict):
                err(f"{rwhere} is not an object")
                continue
            message = result.get("message")
            if not (isinstance(message, dict) and isinstance(message.get("text"), str)):
                err(f"{rwhere}.message.text is required")
            if result.get("level") not in _VALID_LEVELS:
                err(f"{rwhere}.level invalid: {result.get('level')!r}")
            rule_id = result.get("ruleId")
            if rule_id is not None and rule_id not in rule_ids:
                err(f"{rwhere}.ruleId {rule_id!r} not in the rule catalog")
            index = result.get("ruleIndex")
            if index is not None:
                if (
                    not isinstance(index, int)
                    or index < 0
                    or index >= len(rule_ids)
                    or (rule_id is not None and rule_ids[index] != rule_id)
                ):
                    err(f"{rwhere}.ruleIndex {index!r} inconsistent with ruleId")
            for li, loc in enumerate(result.get("locations", []) or []):
                physical = loc.get("physicalLocation") if isinstance(loc, dict) else None
                if not isinstance(physical, dict):
                    err(f"{rwhere}.locations[{li}].physicalLocation missing")
                    continue
                artifact = physical.get("artifactLocation")
                if not (
                    isinstance(artifact, dict)
                    and isinstance(artifact.get("uri"), str)
                ):
                    err(f"{rwhere}.locations[{li}].artifactLocation.uri missing")
                region = physical.get("region")
                if region is not None:
                    for key in ("startLine", "startColumn"):
                        value = region.get(key)
                        if value is not None and (
                            not isinstance(value, int) or value < 1
                        ):
                            err(f"{rwhere}.locations[{li}].region.{key} must be >= 1")
    return problems
