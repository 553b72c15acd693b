"""SARIF 2.1.0 emission: the acceptance check (`repro lint
examples/figure1.c --format sarif` is schema-valid) plus validator
sharpness on corrupted documents."""

import copy
import json
import pathlib

import pytest

from repro.lint import CONFIDENCES, run_lint, render_sarif, to_sarif, validate_sarif
from repro.lint.findings import RULE_CATALOG
from repro.lint.sarif import SARIF_SCHEMA_URI, SARIF_VERSION, TOOL_NAME

pytestmark = pytest.mark.lint

EXAMPLE = pathlib.Path(__file__).resolve().parents[3] / "examples" / "figure1.c"


@pytest.fixture(scope="module")
def figure1_sarif():
    report = run_lint(EXAMPLE.read_text(), filename=str(EXAMPLE), compare_with="weihl")
    return report, to_sarif(report, filename=str(EXAMPLE))


class TestEmission:
    def test_example_figure1_is_schema_valid(self, figure1_sarif):
        report, doc = figure1_sarif
        assert report.findings, "example must produce diagnostics"
        assert validate_sarif(doc) == []

    def test_envelope(self, figure1_sarif):
        _, doc = figure1_sarif
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA_URI
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == TOOL_NAME
        assert {rule["id"] for rule in driver["rules"]} == set(RULE_CATALOG)

    def test_results_reference_rules_consistently(self, figure1_sarif):
        report, doc = figure1_sarif
        run = doc["runs"][0]
        assert len(run["results"]) == len(report.findings)
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_provenance_lands_in_properties(self, figure1_sarif):
        _, doc = figure1_sarif
        tagged = [
            r
            for r in doc["runs"][0]["results"]
            if "alsoFlaggedByWeihl" in r["properties"]
        ]
        assert tagged, "comparison run must tag provider-sensitive results"

    def test_confidence_lands_in_properties(self, figure1_sarif):
        report, doc = figure1_sarif
        run = doc["runs"][0]
        assert run["properties"]["definiteFindings"] == report.definite_count()
        for result in run["results"]:
            assert result["properties"]["confidence"] in CONFIDENCES

    def test_render_sarif_round_trips(self, figure1_sarif):
        report, _ = figure1_sarif
        doc = json.loads(render_sarif(report, filename=str(EXAMPLE)))
        assert validate_sarif(doc) == []

    def test_in_memory_filenames_become_legal_uris(self):
        report = run_lint(
            "int main() { int *p; int x; x = *p; return x; }",
            filename="<stdin>",
        )
        doc = to_sarif(report, filename="<stdin>")
        uri = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
            "artifactLocation"
        ]["uri"]
        assert uri == "inmemory://stdin"
        assert validate_sarif(doc) == []


class TestValidator:
    """The structural validator must actually reject broken documents —
    otherwise the emission tests above are vacuous."""

    @pytest.fixture()
    def doc(self, figure1_sarif):
        return copy.deepcopy(figure1_sarif[1])

    def test_rejects_non_object(self):
        assert validate_sarif([]) == ["document is not a JSON object"]

    def test_rejects_wrong_version(self, doc):
        doc["version"] = "2.0.0"
        assert any("version" in p for p in validate_sarif(doc))

    def test_rejects_missing_runs(self, doc):
        del doc["runs"]
        assert any("runs" in p for p in validate_sarif(doc))

    def test_rejects_bad_level(self, doc):
        doc["runs"][0]["results"][0]["level"] = "fatal"
        assert any("level" in p for p in validate_sarif(doc))

    def test_rejects_unknown_rule_id(self, doc):
        doc["runs"][0]["results"][0]["ruleId"] = "made-up-rule"
        assert any("ruleId" in p for p in validate_sarif(doc))

    def test_rejects_inconsistent_rule_index(self, doc):
        doc["runs"][0]["results"][0]["ruleIndex"] = 99
        assert any("ruleIndex" in p for p in validate_sarif(doc))

    def test_rejects_zero_based_region(self, doc):
        region = doc["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]["region"]
        region["startLine"] = 0
        assert any("startLine" in p for p in validate_sarif(doc))
