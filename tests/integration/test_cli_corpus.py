"""End-to-end: ``repro corpus run`` and the parse-error resilience of
the ``analyze`` / ``lint`` sweeps (one bad file must not abort the
others)."""

import json

import pytest

pycparser = pytest.importorskip("pycparser")

from repro.cli import main

GOOD = """
extern void *malloc(unsigned long n);
struct cell { int v; struct cell *next; };
struct cell *push(struct cell *head) {
    struct cell *c = (struct cell *)malloc(sizeof(struct cell));
    if (c != 0) { c->next = head; return c; }
    return head;
}
int main() { struct cell *l = 0; l = push(push(l)); return l != 0; }
"""

MINIC_GOOD = """
int *g;
int v;
int main() { g = &v; return *g; }
"""

BROKEN = "int main( { not C at all\n"


@pytest.fixture()
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "good.c").write_text(GOOD)
    (root / "broken.c").write_text(BROKEN)
    return root


class TestCorpusRun:
    def test_run_writes_sarif_and_report(self, corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        status = main(
            [
                "corpus",
                "run",
                str(corpus_dir / "good.c"),
                "--out",
                str(out_dir),
            ]
        )
        assert status == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["schema"] == "repro-corpus/1"
        assert report["aggregate"]["files_ok"] == 1
        entry = report["files"][0]
        sarif = json.loads(open(entry["sarif_file"]).read())
        assert sarif["version"] == "2.1.0"
        stdout = capsys.readouterr().out
        assert "1/1 files ok" in stdout

    def test_bad_file_reported_not_fatal(self, corpus_dir, capsys):
        status = main(["corpus", "run", str(corpus_dir)])
        assert status == 1  # parse error present -> non-zero, but ran
        stdout = capsys.readouterr().out
        assert "parse_error" in stdout
        assert "1/2 files ok" in stdout

    def test_partial_file_printed_apart_from_the_totals(self, corpus_dir, capsys):
        good = corpus_dir / "good.c"
        assert main(["corpus", "run", str(good), "--max-facts", "10"]) == 0
        stdout = capsys.readouterr().out
        assert "1 partial" in stdout
        assert "LR 0 vs Weihl 0 aliases over complete files" in stdout
        assert f"partial, left out of the alias totals: {good}" in stdout

    def test_cold_then_warm_cache(self, corpus_dir, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        stats = tmp_path / "warm.json"
        good = str(corpus_dir / "good.c")
        assert main(["corpus", "run", good, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "corpus",
                    "run",
                    good,
                    "--cache-dir",
                    cache_dir,
                    "--stats-json",
                    str(stats),
                ]
            )
            == 0
        )
        report = json.loads(stats.read_text())
        assert report["aggregate"]["cache"]["hits"] == 1

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["corpus", "run", "does-not-exist"]) == 2


class TestSweepParseErrors:
    def test_analyze_sweep_continues_past_bad_file(self, tmp_path, capsys):
        good = tmp_path / "good.c"
        bad = tmp_path / "bad.c"
        good.write_text(MINIC_GOOD)
        bad.write_text(BROKEN)
        stats = tmp_path / "stats.json"
        status = main(
            [str(good), str(bad), "-k", "2", "--stats-json", str(stats)]
        )
        assert status == 1
        captured = capsys.readouterr()
        assert str(good) in captured.out  # good file still summarized
        assert "error" in captured.err
        document = json.loads(stats.read_text())
        assert document["parse_errors"] == 1
        assert document["failed_shards"] == 0
        entries = {e["file"]: e for e in document["files"]}
        assert "parse_error" in entries[str(bad)]
        assert "solution" in entries[str(good)]

    def test_lint_sweep_continues_past_bad_file(self, tmp_path, capsys):
        good = tmp_path / "good.c"
        bad = tmp_path / "bad.c"
        good.write_text(MINIC_GOOD)
        bad.write_text(BROKEN)
        stats = tmp_path / "stats.json"
        status = main(
            [
                "lint",
                str(good),
                str(bad),
                "-k",
                "2",
                "--fail-on",
                "never",
                "--stats-json",
                str(stats),
            ]
        )
        assert status == 1
        captured = capsys.readouterr()
        assert f"== {good} ==" in captured.out
        assert "error" in captured.err
        document = json.loads(stats.read_text())
        assert document["parse_errors"] == 1
        entries = {e["file"]: e for e in document["files"]}
        assert "parse_error" in entries[str(bad)]
