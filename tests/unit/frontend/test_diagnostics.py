"""Unit tests for source positions and diagnostics."""

import pickle

import pytest

from repro.frontend.diagnostics import (
    DUMMY_SPAN,
    Diagnostic,
    DiagnosticSink,
    MiniCError,
    ParseError,
    Position,
    Span,
)


class TestPosition:
    def test_advance_plain_text(self):
        pos = Position()
        after = pos.advanced("abc")
        assert after.column == 4
        assert after.offset == 3
        assert after.line == 1

    def test_advance_over_newlines(self):
        after = Position().advanced("ab\ncd\ne")
        assert after.line == 3
        assert after.column == 2

    def test_str(self):
        assert str(Position(4, 7)) == "4:7"


class TestSpan:
    def test_merge_orders_by_offset(self):
        early = Span(Position(1, 1, 0), Position(1, 4, 3), "f.c")
        late = Span(Position(2, 1, 10), Position(2, 3, 12), "f.c")
        merged = Span.merge(late, early)
        assert merged.start.offset == 0
        assert merged.end.offset == 12

    def test_str_includes_file(self):
        span = Span(Position(3, 2, 5), Position(3, 4, 7), "prog.c")
        assert str(span) == "prog.c:3:2"


class TestErrors:
    def test_error_message_carries_span(self):
        err = MiniCError("bad thing", Span(Position(5, 3, 0), Position(5, 4, 1), "x.c"))
        assert "x.c:5:3" in str(err)
        assert err.message == "bad thing"

    def test_error_survives_pickling(self):
        err = ParseError("bad thing", Span(Position(5, 3, 0), Position(5, 4, 1), "x.c"))
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is ParseError
        assert str(clone) == str(err) == "x.c:5:3: bad thing"
        assert clone.span == err.span


class TestSink:
    def test_collects_in_order(self):
        sink = DiagnosticSink()
        sink.warn("first")
        sink.note("second")
        assert len(sink) == 2
        assert [d.severity for d in sink] == ["warning", "note"]

    def test_warnings_filter(self):
        sink = DiagnosticSink()
        sink.warn("w")
        sink.note("n")
        assert len(sink.warnings) == 1

    def test_diagnostic_str(self):
        diag = Diagnostic("warning", "odd", DUMMY_SPAN)
        assert "warning: odd" in str(diag)
