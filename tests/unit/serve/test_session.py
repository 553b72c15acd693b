"""ServeSession: document lifecycle, query parsing, scoped invalidation.

The session is the single implementation behind both wire surfaces, so
this is where the incremental contract is pinned at the Python level:
versions only move forward, solutions are tagged with the version they
solved, an edit to one procedure body re-solves only that procedure,
and an environment edit (new global, changed signature) honestly
re-solves everything.
"""

import pytest

from repro.frontend.diagnostics import MiniCError
from repro.names.object_names import ObjectName
from repro.serve import QueryError, ServeSession, parse_object_name

PROGRAM = """
int g;
int h;
int *p;

void helper(void) {
    p = &h;
}

void main(void) {
    p = &g;
    helper();
}
"""

#: Same program with one extra statement in ``helper`` only.
PROGRAM_HELPER_EDIT = PROGRAM.replace("p = &h;", "p = &h;\n    p = &h;")

#: Same program with a new global — an environment edit.
PROGRAM_ENV_EDIT = PROGRAM.replace("int g;", "int g;\nint g2;")


@pytest.fixture()
def session(tmp_path):
    return ServeSession(k=3, cache_dir=str(tmp_path / "cache"))


class TestParseObjectName:
    def test_plain_variable(self):
        assert parse_object_name("p") == ObjectName.variable("p")

    def test_deref(self):
        assert parse_object_name("*p") == ObjectName.variable("p").deref()

    def test_double_deref(self):
        assert (
            parse_object_name("**p")
            == ObjectName.variable("p").deref().deref()
        )

    def test_arrow(self):
        expected = ObjectName.variable("p").deref().field("next")
        assert parse_object_name("p->next") == expected

    def test_dot(self):
        assert parse_object_name("g.f") == ObjectName.variable("g").field("f")

    def test_deref_binds_last(self):
        # ``*p->next`` reads as *(p->next), matching C precedence.
        expected = ObjectName.variable("p").deref().field("next").deref()
        assert parse_object_name("*p->next") == expected

    def test_whitespace_tolerated(self):
        assert parse_object_name("  * p ") == ObjectName.variable("p").deref()

    @pytest.mark.parametrize(
        "expr", ["", "*", "->x", "p->", "p.", "p[0]", "p+q", "&p", "3p"]
    )
    def test_junk_raises(self, expr):
        with pytest.raises(QueryError):
            parse_object_name(expr)


class TestDocumentLifecycle:
    def test_upsert_states(self, session):
        assert session.upsert("a.c", PROGRAM) == "opened"
        assert session.upsert("a.c", PROGRAM) == "unchanged"
        assert session.upsert("a.c", PROGRAM_HELPER_EDIT) == "changed"
        assert session.metrics.edits_total == 2
        assert session.metrics.noop_changes == 1

    def test_versions_move_forward(self, session):
        session.upsert("a.c", PROGRAM)
        assert session.documents["a.c"].version == 0
        session.upsert("a.c", PROGRAM_HELPER_EDIT)
        assert session.documents["a.c"].version == 1
        session.upsert("a.c", PROGRAM)
        assert session.documents["a.c"].version == 2

    def test_unknown_document_raises(self, session):
        with pytest.raises(QueryError):
            session.query("missing.c", 1)

    def test_close(self, session):
        session.upsert("a.c", PROGRAM)
        assert session.close("a.c") is True
        assert session.close("a.c") is False
        assert session.metrics.documents_closed == 1
        with pytest.raises(QueryError):
            session.document("a.c")

    def test_parse_error_recorded_and_raised(self, session):
        session.upsert("bad.c", "void main(void) { this is not C }")
        with pytest.raises(MiniCError):
            session.ensure_solved("bad.c")
        doc = session.documents["bad.c"]
        assert doc.parse_error is not None
        assert doc.last_solve["status"] == "parse_error"
        # Asking again doesn't re-parse (version unchanged) but still
        # reports the failure.
        with pytest.raises(MiniCError):
            session.query("bad.c", 1)

    def test_parse_error_clears_on_fix(self, session):
        session.upsert("a.c", "void main(void) { ___ }")
        with pytest.raises(MiniCError):
            session.ensure_solved("a.c")
        session.upsert("a.c", PROGRAM)
        doc = session.ensure_solved("a.c")
        assert doc.parse_error is None
        assert doc.solution is not None


class TestQueries:
    def test_pair_query_true(self, session):
        session.upsert("a.c", PROGRAM)
        # Line 11 is ``p = &g;`` inside main.
        answer = session.query("a.c", 11, "*p", "g")
        assert answer["may_alias"] is True
        assert answer["matched_nodes"] >= 1
        assert answer["complete"] is True
        assert answer["version"] == 0

    def test_pair_query_unmatched_line(self, session):
        session.upsert("a.c", PROGRAM)
        answer = session.query("a.c", 999, "*p", "g")
        assert answer["may_alias"] is None
        assert answer["matched_nodes"] == 0

    def test_pair_listing(self, session):
        session.upsert("a.c", PROGRAM)
        answer = session.query("a.c", 11)
        assert any("*p" in pair and "g" in pair for pair in answer["pairs"])

    def test_half_pair_rejected(self, session):
        session.upsert("a.c", PROGRAM)
        with pytest.raises(QueryError):
            session.query("a.c", 11, "*p", None)

    def test_query_counts(self, session):
        session.upsert("a.c", PROGRAM)
        session.query("a.c", 11)
        session.query("a.c", 12)
        assert session.metrics.queries_total == 2


class TestScopedInvalidation:
    def test_first_solve_is_not_post_edit(self, session):
        session.upsert("a.c", PROGRAM)
        session.ensure_solved("a.c")
        assert session.metrics.solves_total == 1
        assert session.metrics.post_edit_solves == 0
        assert "scoped" not in session.documents["a.c"].last_solve

    def test_body_edit_resolves_only_that_proc(self, session):
        session.upsert("a.c", PROGRAM)
        session.ensure_solved("a.c")
        session.upsert("a.c", PROGRAM_HELPER_EDIT)
        doc = session.ensure_solved("a.c")
        assert doc.last_solve["scoped"] is True
        assert doc.last_solve["edited_procs"] == ["helper"]
        assert doc.last_solve["resolved_procs"] == ["helper"]
        assert doc.last_solve["replayed_procs"] >= 1
        assert session.metrics.post_edit_solves == 1
        assert session.metrics.scoped_post_edit_solves == 1

    def test_env_edit_marks_everything_edited(self, session):
        session.upsert("a.c", PROGRAM)
        session.ensure_solved("a.c")
        session.upsert("a.c", PROGRAM_ENV_EDIT)
        doc = session.ensure_solved("a.c")
        # A new global rekeys every procedure: the solve is still
        # "scoped" (misses ⊆ edited) because *everything* counts as
        # edited — the honest accounting for environment edits.
        assert set(doc.last_solve["edited_procs"]) >= {"helper", "main"}
        assert doc.last_solve["scoped"] is True

    def test_literal_renumbering_is_an_environment_edit(self, session):
        # A literal added to ``a`` renames ``h``'s ``$str0`` to
        # ``$str1`` under an unchanged text of ``h``; the literal table
        # closes the environment text, so every procedure is edited.
        source = (
            "char *g; void a(void) { char *p; p = 0; } "
            'void h(void) { g = "x"; } '
            "int main(void) { a(); h(); return 0; }"
        )
        session.upsert("a.c", source)
        session.ensure_solved("a.c")
        session.upsert("a.c", source.replace("p = 0;", 'p = "y";'))
        doc = session.ensure_solved("a.c")
        assert doc.last_solve["edited_procs"] == ["a", "h", "main"]
        assert doc.last_solve["scoped"] is True
        pairs = session.query("a.c", 1)["pairs"]
        assert any("$str1" in pair for pair in pairs)
        assert not any("$str0" in pair and "*g" in pair for pair in pairs)

    def test_noop_reupsert_does_not_resolve(self, session):
        session.upsert("a.c", PROGRAM)
        session.ensure_solved("a.c")
        session.upsert("a.c", PROGRAM)
        session.ensure_solved("a.c")
        assert session.metrics.solves_total == 1

    def test_lint_memoized_per_version(self, session):
        session.upsert("a.c", PROGRAM)
        first = session.lint("a.c")
        assert session.lint("a.c") is first
        assert session.metrics.lint_runs_total == 1
        session.upsert("a.c", PROGRAM_HELPER_EDIT)
        second = session.lint("a.c")
        assert second is not first
        assert session.metrics.lint_runs_total == 2

    def test_stats_dict_shape(self, session):
        session.upsert("a.c", PROGRAM)
        session.ensure_solved("a.c")
        document = session.stats_dict()
        assert document["schema"] == "repro-serve-stats/1"
        assert document["resident_programs"] == 1
        assert document["cache"]["misses"] >= 1
        assert document["engine"] is not None
