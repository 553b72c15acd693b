"""Source locations and diagnostics for the MiniC frontend.

Every token and AST node carries a :class:`Span` so that later phases
(type checking, normalization, the alias analysis itself) can report
findings against the original source text.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Position:
    """A single point in a source file (1-based line and column)."""

    line: int = 1
    column: int = 1
    offset: int = 0

    def advanced(self, text: str) -> "Position":
        """Return the position after consuming ``text``."""
        line = self.line
        column = self.column
        for ch in text:
            if ch == "\n":
                line += 1
                column = 1
            else:
                column += 1
        return Position(line, column, self.offset + len(text))

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True, slots=True)
class Span:
    """A contiguous region of source text."""

    start: Position = field(default_factory=Position)
    end: Position = field(default_factory=Position)
    filename: str = "<input>"

    @staticmethod
    def merge(first: "Span", second: "Span") -> "Span":
        """Smallest span covering both arguments (same file assumed)."""
        start = min(first.start, second.start, key=lambda p: p.offset)
        end = max(first.end, second.end, key=lambda p: p.offset)
        return Span(start, end, first.filename)

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"


DUMMY_SPAN = Span()


class MiniCError(Exception):
    """Base class for all frontend errors."""

    def __init__(self, message: str, span: Span = DUMMY_SPAN) -> None:
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span

    def __reduce__(self):
        # Rebuild from the parts, not the formatted text, so an error
        # raised in a worker process reads the same in the parent.
        return type(self), (self.message, self.span)


class LexError(MiniCError):
    """Raised when the scanner meets an unrecognized character sequence."""


class ParseError(MiniCError):
    """Raised when the parser meets an unexpected token."""


class TypeError_(MiniCError):
    """Raised by the semantic analyzer on ill-typed programs.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class UnsupportedFeatureError(MiniCError):
    """Raised for C features outside the paper's reduced language.

    The paper's prototype excludes union types, nested structure
    definitions, casting, pointers to functions and exception handling;
    we raise this error rather than silently mis-analyzing.
    """


@dataclass(slots=True)
class Diagnostic:
    """A non-fatal message produced during analysis."""

    severity: str
    message: str
    span: Span = DUMMY_SPAN

    def __str__(self) -> str:
        return f"{self.span}: {self.severity}: {self.message}"


class DiagnosticSink:
    """Collects diagnostics; phases append, drivers print or assert."""

    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []

    def warn(self, message: str, span: Span = DUMMY_SPAN) -> None:
        """Record a warning."""
        self.diagnostics.append(Diagnostic("warning", message, span))

    def note(self, message: str, span: Span = DUMMY_SPAN) -> None:
        """Record an informational note."""
        self.diagnostics.append(Diagnostic("note", message, span))

    @property
    def warnings(self) -> list[Diagnostic]:
        """Only the warnings."""
        return [d for d in self.diagnostics if d.severity == "warning"]

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)
