"""The content-addressed solution cache: keys, store, cached solving.

The contract under test (docs/PARALLEL.md):

* the key is *content*-addressed — whitespace and comments don't
  change it, while any of (IR, k, engine config, code version) does;
* a hit reproduces the cold solution exactly (facts, taints, engine
  counters) — only wall-clock fields may differ;
* corruption of any kind degrades to a miss, never to a wrong answer;
* only complete solutions are ever stored.
"""

import json

import pytest

from repro.cache.keys import (
    ENGINE_CODE_VERSION,
    canonical_ir_hash,
    engine_config_dict,
    entry_key,
)
from repro.cache.solve import (
    STATUS_HIT,
    STATUS_MISS,
    STATUS_OFF,
    STATUS_UNCACHEABLE,
    solve_with_cache,
    verify_cache,
)
from repro.cache.store import SolutionCache
from repro.frontend.semantics import parse_and_analyze
from repro.icfg.builder import build_icfg

pytestmark = pytest.mark.parallel

SOURCE = """
int *p; int *q; int x;
void main() {
    p = &x;
    q = p;
}
"""

#: Same program, reformatted and commented — must hit the same entry.
SOURCE_REFORMATTED = """
int *p;
int *q;   /* the second pointer */
int x;
void main() {
    p = &x;    /* p points at x */
    q = p;
}
"""

#: One statement changed — must miss.
SOURCE_CHANGED = """
int *p; int *q; int x;
void main() {
    p = &x;
    q = &x;
}
"""


def _key_for(source: str, k: int = 3, **engine_kwargs) -> str:
    analyzed = parse_and_analyze(source)
    return entry_key(
        canonical_ir_hash(analyzed), k, engine_config_dict(**engine_kwargs)
    )


class TestKeys:
    def test_whitespace_and_comments_do_not_change_the_key(self):
        assert _key_for(SOURCE) == _key_for(SOURCE_REFORMATTED)

    def test_one_statement_change_changes_the_key(self):
        assert _key_for(SOURCE) != _key_for(SOURCE_CHANGED)

    def test_k_changes_the_key(self):
        assert _key_for(SOURCE, k=2) != _key_for(SOURCE, k=3)

    def test_engine_config_changes_the_key(self):
        assert _key_for(SOURCE) != _key_for(SOURCE, max_facts=100)
        assert _key_for(SOURCE) != _key_for(SOURCE, engine="reference")

    def test_code_version_changes_the_key(self):
        analyzed = parse_and_analyze(SOURCE)
        ir_hash = canonical_ir_hash(analyzed)
        config = engine_config_dict()
        assert entry_key(ir_hash, 3, config) != entry_key(
            ir_hash, 3, config, code_version=ENGINE_CODE_VERSION + "-next"
        )


def _solve(source: str, cache, k: int = 3, **kwargs):
    analyzed = parse_and_analyze(source)
    icfg = build_icfg(analyzed)
    return solve_with_cache(analyzed, icfg, k=k, cache=cache, **kwargs)


class TestCachedSolving:
    def test_no_cache_is_off(self):
        _solution, status = _solve(SOURCE, cache=None)
        assert status == STATUS_OFF

    def test_miss_then_hit_reproduces_the_solution(self, tmp_path):
        cache = SolutionCache(tmp_path)
        cold, status = _solve(SOURCE, cache)
        assert status == STATUS_MISS
        warm, status = _solve(SOURCE, cache)
        assert status == STATUS_HIT
        assert dict(cold.store.facts()) == dict(warm.store.facts())
        assert cold.engine.as_dict() == warm.engine.as_dict()
        assert cold.percent_yes() == warm.percent_yes()
        assert warm.complete
        assert cache.counters.hits == 1 and cache.counters.misses == 1

    def test_reformatted_source_hits(self, tmp_path):
        cache = SolutionCache(tmp_path)
        _solve(SOURCE, cache)
        _warm, status = _solve(SOURCE_REFORMATTED, cache)
        assert status == STATUS_HIT

    def test_changed_source_and_changed_k_miss(self, tmp_path):
        cache = SolutionCache(tmp_path)
        _solve(SOURCE, cache)
        _s, status = _solve(SOURCE_CHANGED, cache)
        assert status == STATUS_MISS
        _s, status = _solve(SOURCE, cache, k=2)
        assert status == STATUS_MISS

    def test_partial_solution_is_not_cached(self, tmp_path):
        cache = SolutionCache(tmp_path)
        solution, status = _solve(
            SOURCE, cache, max_facts=1, on_budget="partial"
        )
        assert status == STATUS_UNCACHEABLE
        assert not solution.complete
        assert cache.entry_count() == 0
        # And the budget-degraded run never poisons a later full solve.
        _s, status = _solve(SOURCE, cache)
        assert status == STATUS_MISS

    def test_hit_rebuild_preserves_query_surface(self, tmp_path):
        cache = SolutionCache(tmp_path)
        cold, _ = _solve(SOURCE, cache)
        warm, _ = _solve(SOURCE, cache)
        icfg = warm.icfg
        for node in icfg.nodes:
            assert {str(p) for p in cold.may_alias(node)} == {
                str(p) for p in warm.may_alias(node)
            }
        assert {str(p) for p in cold.program_aliases()} == {
            str(p) for p in warm.program_aliases()
        }


#: Wide multi-procedure program for the per-procedure invalidation
#: test: several independent helpers over disjoint global pointers, so
#: an edit to one cannot disturb another's summary.
WIDE_SOURCE = """
int *p0, *p1, *p2, *p3, *p4, *p5, *p6, *p7, *p8, *p9, *p10, *p11;
int x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11;
int s;

void f0(void) { p0 = &x0; p0 = p0; }
void f1(void) { p1 = &x1; p1 = p1; }
void f2(void) { p2 = &x2; p2 = p2; }
void f3(void) { p3 = &x3; p3 = p3; }
void f4(void) { p4 = &x4; p4 = p4; }
void f5(void) { p5 = &x5; p5 = p5; }
void f6(void) { p6 = &x6; p6 = p6; }
void f7(void) { p7 = &x7; p7 = p7; }
void f8(void) { p8 = &x8; p8 = p8; }
void f9(void) { p9 = &x9; p9 = p9; }
void f10(void) { p10 = &x10; p10 = p10; }
void f11(void) { p11 = &x11; p11 = p11; }

int main() {
    f0();
    f1();
    f2();
    f3();
    f4();
    f5();
    f6();
    f7();
    f8();
    f9();
    f10();
    f11();
    return 0;
}
"""

#: Same program with one *alias-neutral* edit inside f3 (a scalar
#: increment): f3's body hash changes, its may-hold summary does not,
#: so no caller or sibling has any reason to re-drain.
WIDE_SOURCE_EDITED = WIDE_SOURCE.replace(
    "void f3(void) { p3 = &x3; p3 = p3; }",
    "void f3(void) { p3 = &x3; p3 = p3; s = s + 1; }",
)


class TestPerProcedureInvalidation:
    """PR 7: the summary engine's per-procedure envelopes make cache
    invalidation *procedural* — editing one function re-drains that
    function, not the program."""

    def test_single_function_edit_misses_only_that_procedure(self, tmp_path):
        from repro.summaries.envelope import SUMMARY_ENTRY_SCHEMA

        cache = SolutionCache(tmp_path)
        cold, status = _solve(WIDE_SOURCE, cache, engine="summary")
        assert status == STATUS_MISS
        assert cold.complete

        before = {path.name for path in cache.iter_paths()}
        snapshot = cache.counters.snapshot()
        edited, status = _solve(WIDE_SOURCE_EDITED, cache, engine="summary")
        assert status == STATUS_MISS  # the whole-program key must miss
        assert edited.complete

        # ISSUE acceptance: >= 90% of per-procedure lookups still hit.
        delta = cache.counters.since(snapshot)
        assert delta.hits > 0
        assert delta.hits / (delta.hits + delta.misses) >= 0.9

        # Every envelope written by the edited run belongs to f3 (or is
        # the new whole-program entry) — no other procedure re-drained
        # into the store.
        fresh_procs = set()
        for path in cache.iter_paths():
            if path.name in before:
                continue
            envelope = json.loads(path.read_text())
            if envelope.get("schema") == SUMMARY_ENTRY_SCHEMA:
                fresh_procs.add(envelope["proc"])
        assert fresh_procs == {"f3"}

    def test_warm_replay_matches_a_cache_off_solve(self, tmp_path):
        cache = SolutionCache(tmp_path)
        _solve(WIDE_SOURCE, cache, engine="summary")
        replayed, _ = _solve(WIDE_SOURCE_EDITED, cache, engine="summary")
        fresh, status = _solve(WIDE_SOURCE_EDITED, cache=None, engine="summary")
        assert status == STATUS_OFF
        assert dict(replayed.store.facts()) == dict(fresh.store.facts())


class TestCorruptionRecovery:
    def _prime(self, tmp_path):
        cache = SolutionCache(tmp_path)
        _solve(SOURCE, cache)
        (path,) = list(cache.iter_paths())
        return cache, path

    def test_truncated_entry_recovers(self, tmp_path):
        cache, path = self._prime(tmp_path)
        path.write_text(path.read_text()[: 50])
        _s, status = _solve(SOURCE, cache)
        assert status == STATUS_MISS
        assert cache.counters.corrupt_dropped == 1
        # The fresh solve re-populated the entry.
        _s, status = _solve(SOURCE, cache)
        assert status == STATUS_HIT

    def test_garbage_entry_recovers(self, tmp_path):
        cache, path = self._prime(tmp_path)
        path.write_text("not json at all {{{")
        _s, status = _solve(SOURCE, cache)
        assert status == STATUS_MISS
        assert cache.counters.corrupt_dropped == 1

    def test_wrong_schema_entry_recovers(self, tmp_path):
        cache, path = self._prime(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["schema"] = "something-else/9"
        path.write_text(json.dumps(envelope))
        _s, status = _solve(SOURCE, cache)
        assert status == STATUS_MISS

    def test_drifted_solution_document_recovers(self, tmp_path):
        # Well-formed envelope whose solution document no longer parses
        # (simulates schema drift between code versions).
        cache, path = self._prime(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["solution"]["packed"] = {"bogus": True}
        path.write_text(json.dumps(envelope))
        solution, status = _solve(SOURCE, cache)
        assert status == STATUS_MISS
        assert solution.complete


class TestStoreAdministration:
    def test_eviction_keeps_newest(self, tmp_path):
        import os

        cache = SolutionCache(tmp_path, max_entries=2)
        third = SOURCE.replace("q = p;", "q = p; p = q;")
        sources = [SOURCE, SOURCE_CHANGED, third]
        stamped: set = set()
        for stamp, source in enumerate(sources):
            _solve(source, cache)
            # Give each new entry a distinct, increasing mtime so the
            # eviction order is deterministic even on filesystems with
            # coarse timestamps.
            for path in cache.iter_paths():
                if path not in stamped:
                    os.utime(path, (stamp, stamp))
                    stamped.add(path)
        assert cache.entry_count() == 2
        assert cache.counters.evictions == 1
        # The oldest (first) entry was evicted.
        _s, status = _solve(sources[0], cache)
        assert status == STATUS_MISS

    def test_clear_and_stats(self, tmp_path):
        cache = SolutionCache(tmp_path)
        _solve(SOURCE, cache)
        stats = cache.stats_dict()
        assert stats["schema"] == "repro-cache/1"
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert cache.clear() == 1
        assert cache.entry_count() == 0


class TestVerify:
    def test_clean_cache_verifies(self, tmp_path):
        cache = SolutionCache(tmp_path)
        _solve(SOURCE, cache)
        _solve(SOURCE_CHANGED, cache)
        checked, problems = verify_cache(cache)
        assert checked == 2
        assert problems == []

    def test_sample_bounds_the_work(self, tmp_path):
        cache = SolutionCache(tmp_path)
        _solve(SOURCE, cache)
        _solve(SOURCE_CHANGED, cache)
        checked, problems = verify_cache(cache, sample=1)
        assert checked == 1
        assert problems == []

    def test_tampered_entry_is_reported(self, tmp_path):
        import base64

        cache = SolutionCache(tmp_path)
        _solve(SOURCE, cache)
        (path,) = list(cache.iter_paths())
        envelope = json.loads(path.read_text())
        # Flip one fact's taint bit inside the packed columns: the
        # stored solution no longer matches a fresh re-solve.
        packed = envelope["solution"]["packed"]
        taint = bytearray(base64.b64decode(packed["taint"]))
        taint[0] ^= 1
        packed["taint"] = base64.b64encode(bytes(taint)).decode("ascii")
        path.write_text(json.dumps(envelope))
        checked, problems = verify_cache(cache)
        assert checked == 1
        assert len(problems) == 1
        assert "drift" in problems[0]

    def test_stale_code_version_is_reported(self, tmp_path):
        cache = SolutionCache(tmp_path)
        _solve(SOURCE, cache)
        (path,) = list(cache.iter_paths())
        envelope = json.loads(path.read_text())
        envelope["inputs"]["code_version"] = "lr-engine/0.0"
        path.write_text(json.dumps(envelope))
        checked, problems = verify_cache(cache)
        assert checked == 1
        assert "stale code version" in problems[0]
