"""Per-procedure cache keys: what invalidates one procedure's entries
and — just as load-bearing — what must *not*."""

from repro.cache.keys import ENGINE_CODE_VERSION
from repro.frontend.semantics import parse_and_analyze
from repro.icfg.builder import build_icfg
from repro.summaries.envelope import (
    SUMMARY_ENTRY_SCHEMA,
    load_summary_envelope,
    make_summary_envelope,
    proc_environment_text,
    proc_program_texts,
    summary_entry_key,
    summary_proc_key,
)

SOURCE = """
int *g; int x;
void helper(void) { g = &x; }
int main() { helper(); return 0; }
"""

#: helper's body edited; main untouched.
SOURCE_HELPER_EDITED = SOURCE.replace("{ g = &x; }", "{ g = &x; g = g; }")

#: a global added: the shared environment changed for *everyone*.
SOURCE_NEW_GLOBAL = SOURCE.replace("int *g; int x;", "int *g, *h; int x;")

#: ``h`` calls ``f`` before its pointer store.  Without ``f``'s body the
#: call is one node instead of a CALL/RETURN pair, so every later node
#: of ``h`` moves, though ``h``'s text and every signature are the same.
CALLS_F = (
    "int *g; int y; void f(void) { y = 1; } "
    "void h(void) { int x; f(); g = &x; } "
    "int main(void) { h(); return 0; }"
)
CALLS_F_DECLARED = CALLS_F.replace("void f(void) { y = 1; }", "void f(void);")


def _env(source):
    analyzed = parse_and_analyze(source)
    return analyzed, proc_environment_text(analyzed, build_icfg(analyzed))


def _keys(source, k=3):
    analyzed, env = _env(source)
    texts = proc_program_texts(analyzed)
    return {proc: summary_proc_key(env, text, k) for proc, text in texts.items()}


class TestProcKeys:
    def test_environment_text_has_signatures_not_bodies(self):
        env = _env(SOURCE)[1]
        assert "helper" in env and "main" in env
        assert "&x" not in env  # no statement bodies

    def test_editing_one_body_changes_only_that_key(self):
        base = _keys(SOURCE)
        edited = _keys(SOURCE_HELPER_EDITED)
        assert base["helper"] != edited["helper"]
        assert base["main"] == edited["main"]

    def test_environment_change_invalidates_every_key(self):
        base = _keys(SOURCE)
        widened = _keys(SOURCE_NEW_GLOBAL)
        assert base["helper"] != widened["helper"]
        assert base["main"] != widened["main"]

    def test_removing_a_called_body_changes_every_key(self):
        defined = _keys(CALLS_F)
        declared = _keys(CALLS_F_DECLARED)
        assert declared.keys() == {"h", "main"}
        for proc, key in declared.items():
            assert defined[proc] != key

    def test_a_program_that_defines_what_it_declares_keeps_its_text(self):
        # Only a function declared without a body adds to the
        # environment text, so the keys of every other program stay.
        assert _env(SOURCE)[1] == (
            "int *g;\n\nint x;\n\nvoid helper(void);\n\nint main(void);\n"
        )
        forward = "void helper(void);\n" + SOURCE
        assert "no body" not in _env(forward)[1]

    def test_k_and_code_version_change_the_key(self):
        analyzed, env = _env(SOURCE)
        text = proc_program_texts(analyzed)["helper"]
        assert summary_proc_key(env, text, 2) != summary_proc_key(env, text, 3)
        assert summary_proc_key(env, text, 3) != summary_proc_key(
            env, text, 3, code_version=ENGINE_CODE_VERSION + "-next"
        )

    def test_entry_key_tracks_the_inputs_digest(self):
        assert summary_entry_key("proc", "d1") != summary_entry_key("proc", "d2")
        assert summary_entry_key("p1", "d") != summary_entry_key("p2", "d")
        assert summary_entry_key("p", "d") == summary_entry_key("p", "d")


class TestEnvelopeRoundTrip:
    def _envelope(self):
        state = {"packed": {"count": 0}, "stats": {"worklist_pops": 1}}
        harvest = {"seeds": {}, "exits": []}
        return make_summary_envelope(
            "key123", "helper", "prockey", "digest", state, harvest
        )

    def test_well_formed_envelope_loads(self):
        envelope = self._envelope()
        assert envelope["schema"] == SUMMARY_ENTRY_SCHEMA
        loaded = load_summary_envelope(envelope)
        assert loaded is not None
        state, harvest = loaded
        assert state["packed"]["count"] == 0
        assert harvest == {"seeds": {}, "exits": []}

    def test_wrong_schema_is_a_miss(self):
        envelope = self._envelope()
        envelope["schema"] = "repro-cache-entry/1"
        assert load_summary_envelope(envelope) is None

    def test_stale_code_version_is_a_miss(self):
        envelope = self._envelope()
        envelope["inputs"]["code_version"] = "lr-engine/0.0"
        assert load_summary_envelope(envelope) is None

    def test_harvest_items_must_be_texts(self):
        envelope = self._envelope()
        pair = [["g", [], False], ["x", [], False]]
        envelope["harvest"] = {"seeds": {}, "exits": [[[], pair, True]]}
        assert load_summary_envelope(envelope) is None
        envelope["harvest"] = {"seeds": {"helper": [pair]}, "exits": []}
        assert load_summary_envelope(envelope) is None
        envelope["harvest"] = {"seeds": {"helper": "[]"}, "exits": []}
        assert load_summary_envelope(envelope) is None
        text = '[["g",[],false],["x",[],false]]'
        envelope["harvest"] = {
            "seeds": {"helper": [text]},
            "exits": [f"[[],{text},true]"],
        }
        assert load_summary_envelope(envelope) is not None

    def test_malformed_envelope_is_a_miss(self):
        assert load_summary_envelope({}) is None
        assert load_summary_envelope({"schema": SUMMARY_ENTRY_SCHEMA}) is None
        envelope = self._envelope()
        envelope["state"] = "not a dict"
        assert load_summary_envelope(envelope) is None
