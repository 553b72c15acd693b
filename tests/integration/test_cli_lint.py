"""Integration tests for the ``repro lint`` subcommand, including the
tier-1 ``--self-check`` smoke required by the lint tooling config."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import EXIT_LINT_FINDINGS, main
from repro.lint import validate_sarif

pytestmark = pytest.mark.lint

EXAMPLE = str(pathlib.Path(__file__).resolve().parents[2] / "examples" / "figure1.c")
SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
NULL_STORE = str(
    pathlib.Path(__file__).resolve().parents[1]
    / "corpus"
    / "null-store-through-alias.c"
)

BUGGY = (
    "int *mk() { int local; int *p; p = &local; return p; }"
    " int main() { int *q; int x; q = mk(); x = *q; return x; }"
)
CLEAN = "int main() { int *p, x; x = 3; p = &x; return *p; }"


@pytest.fixture()
def buggy_file(tmp_path):
    path = tmp_path / "buggy.c"
    path.write_text(BUGGY)
    return str(path)


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(CLEAN)
    return str(path)


class TestLintCli:
    # ~15s: runs the full provider self-check sweep, which the unit
    # test_self_check_is_clean already covers and the CI soundness job
    # exercises through the real CLI.
    @pytest.mark.slow
    def test_self_check_smoke(self, capsys):
        assert main(["lint", "--self-check"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_findings_set_exit_code(self, buggy_file, capsys):
        assert main(["lint", buggy_file]) == EXIT_LINT_FINDINGS
        out = capsys.readouterr().out
        assert "dangling-escape" in out
        assert "buggy.c:" in out

    def test_fail_on_never_is_zero(self, buggy_file):
        assert main(["lint", buggy_file, "--fail-on", "never"]) == 0

    def test_clean_program_is_zero(self, clean_file, capsys):
        assert main(["lint", clean_file]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_null_store_through_alias_is_a_warning(self, capsys):
        # A warning is below the default --fail-on error threshold.
        assert main(["lint", NULL_STORE]) == 0
        assert "warning: [null-deref]" in capsys.readouterr().out

    def test_sarif_output_is_valid(self, capsys):
        assert main(["lint", EXAMPLE, "--format", "sarif", "--fail-on", "never"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert validate_sarif(doc) == []
        assert doc["runs"][0]["results"]

    def test_compare_weihl_tags_output(self, buggy_file, capsys):
        assert (
            main(["lint", buggy_file, "--compare-weihl"]) == EXIT_LINT_FINDINGS
        )
        out = capsys.readouterr().out
        assert "flow-insensitive" in out

    def test_stats_json_document(self, buggy_file, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        assert (
            main(
                [
                    "lint",
                    buggy_file,
                    "--stats-json",
                    str(stats_path),
                    "--fail-on",
                    "never",
                ]
            )
            == 0
        )
        stats = json.loads(stats_path.read_text())
        assert stats["schema"] == "repro-lint/1"
        assert stats["findings"] >= 1
        assert stats["rules"]["dangling-escape"] == 1

    def test_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("uninit-pointer-use", "dangling-escape", "null-deref"):
            assert rule in out

    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(CLEAN))
        assert main(["lint", "-"]) == 0

    def test_parse_error_is_reported_not_raised(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        assert main(["lint", str(bad)]) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_sarif_independent_of_hash_seed(self, tmp_path):
        """Witnesses are picked in a canonical order, not in the string
        hash order of a set of pairs."""
        from repro.programs import ProgramSpec, generate_program

        program = tmp_path / "scale240.c"
        program.write_text(
            generate_program(ProgramSpec.for_target_nodes("scaling", 240))
        )
        documents = []
        for seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", "lint", str(program),
                 "--provider", "weihl", "--format", "sarif", "--fail-on", "never"],
                env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            )
            document = json.loads(result.stdout)
            for run in document["runs"]:
                del run["properties"]["analysisSeconds"]
                del run["properties"]["lintSeconds"]
            documents.append(document)
        assert documents[0]["runs"][0]["results"]
        assert documents[0] == documents[1]


class TestFailOnDefinite:
    def test_definite_findings_fail(self):
        # The dead store to x is definite.
        assert (
            main(["lint", NULL_STORE, "--fail-on", "definite"]) == EXIT_LINT_FINDINGS
        )

    def test_clean_program_passes(self, clean_file):
        assert main(["lint", clean_file, "--fail-on", "definite"]) == 0

    def test_possible_only_report_passes(self, tmp_path):
        # One branch assigns, the other doesn't: the deref is only
        # possibly uninitialized, so no definite findings exist and
        # --fail-on definite comes back clean while the default
        # severity policy still fails.
        path = tmp_path / "maybe.c"
        path.write_text(
            "int g; int main() { int *p; int x;"
            " if (g) { p = &x; } x = *p; return x; }"
        )
        assert (
            main(["lint", str(path), "--fail-on", "warning"])
            == EXIT_LINT_FINDINGS
        )
        assert main(["lint", str(path), "--fail-on", "definite"]) == 0
