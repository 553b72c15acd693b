"""Unit tests for the corpus runner: discovery, per-file outcomes,
error resilience, cache integration and the aggregate report."""

import json

import pytest

pycparser = pytest.importorskip("pycparser")

from repro.corpus import CORPUS_SCHEMA, corpus_file_unit, discover_corpus, run_corpus

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

STUBBED = """
struct cell { int v; struct cell *next; };
extern struct cell *clone(struct cell *c);
int main() { struct cell local; return clone(&local) != 0; }
"""

BROKEN = "int main( { this is not C\n"

TINY = "int main() { int x; int *p; p = &x; return p != 0; }\n"


@pytest.fixture()
def corpus_dir(tmp_path):
    (tmp_path / "good.c").write_text(GOOD)
    (tmp_path / "stubbed.c").write_text(STUBBED)
    (tmp_path / "broken.c").write_text(BROKEN)
    (tmp_path / "notes.txt").write_text("not C\n")
    return tmp_path


class TestDiscovery:
    def test_only_c_files_sorted(self, corpus_dir):
        names = [p.name for p in discover_corpus(corpus_dir)]
        assert names == ["broken.c", "good.c", "stubbed.c"]

    def test_single_file(self, corpus_dir):
        found = discover_corpus(corpus_dir / "good.c")
        assert [p.name for p in found] == ["good.c"]


class TestFileUnit:
    def test_ok_file(self, corpus_dir):
        result = corpus_file_unit(
            {"path": "good.c", "source": GOOD, "k": 1, "max_facts": 100_000}
        )
        assert result["status"] == "ok"
        assert result["solution"]["complete"]
        assert result["precision"]["lr_untruncated"] > 0
        assert (
            result["precision"]["weihl_untruncated"]
            >= result["precision"]["lr_untruncated"]
        )
        assert result["ledger"]["coverage_percent"] == 100.0
        assert json.loads(result["sarif"])["version"] == "2.1.0"

    def test_parse_error_is_explicit(self):
        result = corpus_file_unit(
            {"path": "broken.c", "source": BROKEN, "k": 1}
        )
        assert result["status"] == "parse_error"
        assert "broken.c" in result["error"] or result["error"]

    def test_stubbed_file_reports_synthesis(self):
        result = corpus_file_unit(
            {"path": "stubbed.c", "source": STUBBED, "k": 1, "max_facts": 100_000}
        )
        assert result["status"] == "ok"
        assert result["stubs"]["stubbed"] == ["clone"]


class TestRunCorpus:
    def test_sweep_survives_bad_file(self, corpus_dir):
        report = run_corpus([corpus_dir], k=1, jobs=1)
        assert report["schema"] == CORPUS_SCHEMA
        agg = report["aggregate"]
        assert agg["files_total"] == 3
        assert agg["files_ok"] == 2
        assert agg["parse_errors"] == 1
        assert agg["shard_failures"] == 0
        assert agg["stubs_synthesized"] == 1
        statuses = {f["path"].split("/")[-1]: f["status"] for f in report["files"]}
        assert statuses["broken.c"] == "parse_error"
        assert statuses["good.c"] == "ok"

    def test_cold_then_warm_cache(self, corpus_dir, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_corpus([corpus_dir], k=1, jobs=1, cache_dir=cache_dir)
        warm = run_corpus([corpus_dir], k=1, jobs=1, cache_dir=cache_dir)
        assert cold["aggregate"]["cache"]["misses"] == 2
        assert warm["aggregate"]["cache"]["hits"] == 2
        cold_ok = [f for f in cold["files"] if f["status"] == "ok"]
        warm_ok = [f for f in warm["files"] if f["status"] == "ok"]
        for before, after in zip(cold_ok, warm_ok):
            assert before["precision"] == after["precision"]

    def test_budget_reported_as_partial(self, corpus_dir):
        report = run_corpus([corpus_dir / "good.c"], k=1, jobs=1, max_facts=10)
        entry = report["files"][0]
        assert entry["status"] == "ok"
        assert not entry["solution"]["complete"]
        assert report["aggregate"]["files_partial"] == 1

    def test_partial_file_left_out_of_the_totals(self, tmp_path):
        # A budget-partial LR count is a lower bound: the alias totals
        # and their ratio cover the complete files only.
        (tmp_path / "good.c").write_text(GOOD)
        (tmp_path / "tiny.c").write_text(TINY)
        report = run_corpus([tmp_path], k=1, jobs=1, max_facts=10)
        good, tiny = report["files"]
        assert not good["solution"]["complete"]
        assert tiny["solution"]["complete"]
        agg = report["aggregate"]
        assert agg["files_partial"] == 1
        assert agg["partial_files"] == [good["path"]]
        assert agg["lr_untruncated_total"] == tiny["precision"]["lr_untruncated"]
        assert agg["weihl_untruncated_total"] == tiny["precision"]["weihl_untruncated"]
        assert agg["ratio_weihl_over_lr"] == tiny["precision"]["ratio_weihl_over_lr"]
