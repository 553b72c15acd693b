"""Detector behavior on targeted programs: each rule fires where it
should, stays quiet where it shouldn't, and flow sensitivity is
visible in the LR-vs-Weihl comparison."""

import pytest

from repro.lint import run_lint
from repro.lint.findings import (
    RULE_CONFLICT,
    RULE_DANGLING,
    RULE_DEAD_STORE,
    RULE_NULL_DEREF,
    RULE_UNINIT,
)

pytestmark = pytest.mark.lint


def rules(source, provider="lr", **kw):
    report = run_lint(source, provider=provider, **kw)
    return report, {f.rule for f in report.findings}


class TestUninit:
    def test_definite_uninit_is_error(self):
        report, seen = rules("int main() { int *p; int x; x = *p; return x; }")
        assert RULE_UNINIT in seen
        (finding,) = report.by_rule(RULE_UNINIT)
        assert finding.severity == "error"
        assert finding.name.base == "main::p"

    def test_maybe_uninit_is_warning(self):
        report, seen = rules(
            "int g; int main() { int *p; int x;"
            " if (g) { p = &x; } x = *p; return x; }"
        )
        (finding,) = report.by_rule(RULE_UNINIT)
        assert finding.severity == "warning"

    def test_initialized_on_all_paths_is_quiet(self):
        _, seen = rules(
            "int main() { int *p; int x; p = &x; x = *p; return x; }"
        )
        assert RULE_UNINIT not in seen


class TestNullDeref:
    def test_definitely_null_is_error(self):
        report, seen = rules("int main() { int *p, x; p = NULL; x = *p; return x; }")
        (finding,) = report.by_rule(RULE_NULL_DEREF)
        assert finding.severity == "error"

    def test_possibly_null_is_warning(self):
        report, _ = rules(
            "int g; int main() { int *p, x; x = 5; p = NULL;"
            " if (g) { p = &x; } x = *p; return x; }"
        )
        (finding,) = report.by_rule(RULE_NULL_DEREF)
        assert finding.severity == "warning"

    def test_null_stored_through_alias_is_possible(self):
        # h points to p, so *h = 0 nulls p; the detector sees that store
        # only through the may-alias (*h, p), so p is possibly null.
        report, _ = rules(
            "int x; int *p; int **h;"
            " void main(void) { h = &p; p = &x; *h = 0; x = *p; }"
        )
        (finding,) = report.by_rule(RULE_NULL_DEREF)
        assert finding.severity == "warning"
        assert finding.confidence == "possible"

    def test_flow_sensitive_kill_avoids_weihl_false_positive(self):
        # At `*pp = NULL` the flow-sensitive solution knows pp points
        # only at q; the flow-insensitive one smears the write over p
        # too and reports a possible null deref at `*p` — a false
        # positive LR avoids.  (A plain kill like `p = NULL; p = &x`
        # would not differentiate: the nullness dataflow itself is
        # flow-sensitive under every provider, only the alias queries
        # change.)
        report, seen = rules(
            "int g;"
            " int main() {"
            "   int **pp; int *p, *q; int x;"
            "   x = 1; p = &x; q = &x;"
            "   if (g) { pp = &p; } else { pp = &q; }"
            "   pp = &q;"
            "   *pp = NULL;"
            "   q = &x;"
            "   x = *p;"
            "   return x; }",
            compare_with="weihl",
        )
        assert RULE_NULL_DEREF not in seen
        assert report.comparison_counts.get(RULE_NULL_DEREF, 0) >= 1
        assert report.fp_delta()[RULE_NULL_DEREF] >= 1


class TestDangling:
    SOURCE = (
        "int *mk() { int local; int *p; p = &local; return p; }"
        " int main() { int *q; int x; q = mk(); x = *q; return x; }"
    )

    def test_escaping_local_is_error_with_witness(self):
        report, seen = rules(self.SOURCE)
        assert RULE_DANGLING in seen
        (finding,) = report.by_rule(RULE_DANGLING)
        assert finding.severity == "error"
        assert finding.name.base == "mk::local"
        assert finding.witnesses

    def test_local_that_does_not_escape_is_quiet(self):
        _, seen = rules(
            "int mk() { int local; int *p; p = &local; return *p; }"
            " int main() { return mk(); }"
        )
        assert RULE_DANGLING not in seen


class TestDeadStore:
    def test_overwritten_store_is_flagged(self):
        report, seen = rules("int main() { int x; x = 1; x = 2; return x; }")
        assert RULE_DEAD_STORE in seen
        assert any(f.name.base == "main::x" for f in report.by_rule(RULE_DEAD_STORE))

    def test_store_read_through_alias_is_live(self):
        _, seen = rules(
            "int main() { int *p, x; p = &x; x = 7; return *p; }"
        )
        assert RULE_DEAD_STORE not in seen


class TestConflicts:
    def test_alias_mediated_conflict_reported(self):
        report, seen = rules(
            "int main() { int *p, *q, a; a = 0; p = &a; q = p;"
            " *p = 1; a = a + *q; return a; }"
        )
        assert RULE_CONFLICT in seen
        (finding,) = report.by_rule(RULE_CONFLICT)
        assert finding.witnesses

    def test_independent_statements_are_quiet(self):
        _, seen = rules(
            "int main() { int a, b; a = 1; b = 2; return a + b; }"
        )
        assert RULE_CONFLICT not in seen


class TestSpans:
    def test_findings_carry_real_source_locations(self):
        source = (
            "int main() {\n"
            "    int *p;\n"
            "    int x;\n"
            "    x = *p;\n"
            "    return x;\n"
            "}\n"
        )
        report = run_lint(source, filename="spans.c")
        (finding,) = report.by_rule(RULE_UNINIT)
        assert finding.has_location
        assert finding.span.filename == "spans.c"
        assert finding.span.start.line == 4
        assert finding.location().startswith("spans.c:4:")

    def test_synthesized_nodes_fall_back_to_proc(self):
        # Dangling escapes anchor at the callee; whatever span they
        # get, location() must never crash and always says something.
        report = run_lint(TestDangling.SOURCE)
        for finding in report.findings:
            assert finding.location()
