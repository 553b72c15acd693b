"""Rendering and representative-coverage details of the solution layer."""

import pytest

from repro import analyze_source
from repro.core.solution import MayAliasSolution
from repro.core.store import CLEAN, MayHoldStore
from repro.names import AliasPair, ObjectName


def _represents(stored: AliasPair, query: AliasPair) -> bool:
    """Does a solution holding only ``stored`` answer ``query``?"""
    store = MayHoldStore()
    store.make_true(0, (), stored, CLEAN)
    solution = MayAliasSolution(None, store, None, k=1)
    return solution.alias_query(0, query.first, query.second)


class TestRepresents:
    def a(self, sel=(), trunc=False):
        return ObjectName("a", sel, trunc)

    def b(self, sel=(), trunc=False):
        return ObjectName("b", sel, trunc)

    def test_exact_match(self):
        pair = AliasPair(self.a(("*",)), self.b())
        assert _represents(pair, pair)

    def test_truncated_member_covers_extension(self):
        stored = AliasPair(self.a(("*",), True), self.b())
        query = AliasPair(self.a(("*", "f", "*")), self.b())
        assert _represents(stored, query)

    def test_untruncated_member_does_not_cover(self):
        stored = AliasPair(self.a(("*",)), self.b())
        query = AliasPair(self.a(("*", "f")), self.b())
        assert not _represents(stored, query)

    def test_other_member_must_match(self):
        stored = AliasPair(self.a(("*",), True), self.b())
        query = AliasPair(self.a(("*", "*")), self.b(("f",)))
        assert not _represents(stored, query)

    def test_both_truncated(self):
        stored = AliasPair(self.a(("*",), True), self.b(("*",), True))
        query = AliasPair(self.a(("*", "*")), self.b(("*", "f")))
        assert _represents(stored, query)


class TestRendering:
    @pytest.fixture(scope="class")
    def solution(self):
        return analyze_source("int *p, v; int main() { p = &v; return 0; }")

    def test_report_includes_label_and_pairs(self, solution):
        node = next(n for n in solution.icfg.nodes if n.is_pointer_assignment)
        report = solution.render_node_report(node)
        assert "p = &v" in report
        assert "(*p, v)" in report

    def test_report_limit(self, solution):
        node = next(n for n in solution.icfg.nodes if n.is_pointer_assignment)
        report = solution.render_node_report(node, limit=0)
        assert report.count("(") <= 1  # only the label line
