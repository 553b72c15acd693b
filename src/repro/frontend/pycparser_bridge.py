"""Optional pycparser adapter.

The built-in MiniC frontend is self-contained, but users with real C
files (already preprocessed) can parse them with pycparser and convert
the resulting AST into our representation.  Two modes:

* **strict** (default, :func:`parse_c`): only the MiniC subset is
  convertible — unions, casts, function pointers and other excluded
  constructs raise :class:`UnsupportedFeatureError`, exactly like the
  native parser.
* **lenient** (:func:`parse_c_lenient`): out-of-model constructs are
  *lowered* to sound over-approximations instead of rejected — casts
  erase to their operand, unions become field-split structs, statements
  that cannot be converted become nondeterministic pointer shuffles
  over their mentioned lvalues (see :mod:`repro.frontend.havoc`), and
  every such decision is recorded in a per-file
  :class:`CoverageLedger` so no approximation is silent.

Usage::

    from repro.frontend.pycparser_bridge import parse_c, parse_c_lenient
    program = parse_c(source_text)          # -> repro AST (strict)
    unit = parse_c_lenient(source_text)     # -> LoweredUnit(program, ledger)
    analyzed = analyze(unit.program)

pycparser is imported lazily so the rest of the library has no hard
dependency on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import ast_nodes as ast
from .diagnostics import DUMMY_SPAN, MiniCError, Span, UnsupportedFeatureError
from .havoc import shuffle
from .parser import _unescape_char
from .types import ArrayType, PointerType, StructType, Type, TypeTable, scalar


def _require_pycparser():
    try:
        import pycparser
        from pycparser import c_ast
    except ImportError as err:  # pragma: no cover - environment dependent
        raise ImportError(
            "pycparser is not installed; install repro[cparser] or use "
            "repro.frontend.parse for the built-in MiniC parser"
        ) from err
    return pycparser, c_ast


# ---------------------------------------------------------------------------
# Coverage ledger
# ---------------------------------------------------------------------------

# Function statuses, from best to worst.  ``record`` demotes, never
# promotes: one havocked statement makes the whole function "havocked".
FUNC_CLEAN = "clean"
FUNC_LOWERED = "lowered"
FUNC_HAVOCKED = "havocked"
FUNC_DROPPED = "dropped"
_STATUS_ORDER = (FUNC_CLEAN, FUNC_LOWERED, FUNC_HAVOCKED, FUNC_DROPPED)

# Event kinds that demote the enclosing function to "havocked" (the
# statement's real effect was replaced wholesale, not refined).
_HAVOC_KINDS = frozenset({"stmt-havoc", "decl-dropped", "body-dropped"})


@dataclass(slots=True)
class LoweringEvent:
    """One lenient-mode decision, source-located."""

    kind: str
    detail: str
    line: int
    column: int
    function: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "line": self.line,
            "column": self.column,
            "function": self.function,
        }


class CoverageLedger:
    """Per-file record of everything the lenient lowering changed.

    ``coverage_percent`` is the share of attempted statement
    conversions that did *not* end in a havoc shuffle; ``functions``
    maps each function to clean/lowered/havocked/dropped.  A file with
    an empty ledger round-tripped through the strict subset untouched.
    """

    def __init__(self, filename: str = "<pycparser>") -> None:
        self.filename = filename
        self.events: list[LoweringEvent] = []
        self.functions: dict[str, str] = {}
        self.stmts_total = 0
        self.stmts_havocked = 0

    # -- recording ---------------------------------------------------------

    def note_function(self, name: str) -> None:
        self.functions.setdefault(name, FUNC_CLEAN)

    def demote(self, name: Optional[str], status: str) -> None:
        if name is None:
            return
        current = self.functions.get(name, FUNC_CLEAN)
        if _STATUS_ORDER.index(status) > _STATUS_ORDER.index(current):
            self.functions[name] = status

    def record(
        self, kind: str, detail: str, span: Span, function: Optional[str] = None
    ) -> None:
        self.events.append(
            LoweringEvent(
                kind=kind,
                detail=detail,
                line=span.start.line,
                column=span.start.column,
                function=function,
            )
        )
        self.demote(
            function, FUNC_HAVOCKED if kind in _HAVOC_KINDS else FUNC_LOWERED
        )

    # -- reporting ---------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.events

    @property
    def coverage_percent(self) -> float:
        if self.stmts_total == 0:
            return 100.0
        return 100.0 * (1.0 - self.stmts_havocked / self.stmts_total)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def function_counts(self) -> dict[str, int]:
        out = {status: 0 for status in _STATUS_ORDER}
        for status in self.functions.values():
            out[status] += 1
        return out

    def as_dict(self) -> dict:
        return {
            "filename": self.filename,
            "clean": self.clean,
            "stmts_total": self.stmts_total,
            "stmts_havocked": self.stmts_havocked,
            "coverage_percent": round(self.coverage_percent, 2),
            "events": [e.as_dict() for e in self.events],
            "event_counts": self.counts(),
            "functions": dict(self.functions),
            "function_counts": self.function_counts(),
        }


@dataclass(slots=True)
class LoweredUnit:
    """A leniently converted translation unit plus its ledger."""

    program: ast.Program
    ledger: CoverageLedger


# ---------------------------------------------------------------------------
# Converter
# ---------------------------------------------------------------------------


class PycparserConverter:
    """Converts a pycparser translation unit to a repro Program.

    ``strict=True`` (the default) reproduces the native parser's
    rejection behaviour.  ``strict=False`` lowers instead of raising
    and records every lowering in ``self.ledger``.
    """

    def __init__(
        self, strict: bool = True, filename: str = "<pycparser>"
    ) -> None:
        _, self.c_ast = _require_pycparser()
        self.types = TypeTable()
        self.strict = strict
        self.ledger = CoverageLedger(filename)
        # Declared-type scopes (globals in _scopes[0]); drives havoc
        # shuffles and init-list expansion in lenient mode.
        self._scopes: list[dict[str, Type]] = [{}]
        self._current_func: Optional[str] = None
        # Fixed arity of functions whose varargs tail was dropped.
        self._varargs: dict[str, int] = {}
        self._anon_unions = 0
        # Known function names (defs + prototypes) and the struct tags
        # already materialized as StructDef top-levels.
        self._functions: set[str] = set()
        self._emitted_structs: set[str] = set()

    # -- scopes ------------------------------------------------------------

    def _declare(self, name: Optional[str], t: Type) -> None:
        if name:
            self._scopes[-1][name] = t

    def _lookup(self, name: str) -> Optional[Type]:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def _record(self, kind: str, detail: str, span: Span) -> None:
        self.ledger.record(kind, detail, span, self._current_func)

    # -- types -------------------------------------------------------------

    def convert_type(self, node, span: Span = DUMMY_SPAN) -> Type:
        """Convert a pycparser type node to a repro Type.

        The node's own coordinates win over the caller-provided span so
        strict-mode failures and ledger entries point at the construct
        itself, not the enclosing declaration.
        """
        c_ast = self.c_ast
        own = self._span(node)
        if own is not DUMMY_SPAN:
            span = own
        if isinstance(node, c_ast.PtrDecl):
            return PointerType(self.convert_type(node.type, span))
        if isinstance(node, c_ast.ArrayDecl):
            size = None
            if isinstance(node.dim, c_ast.Constant):
                try:
                    size = int(node.dim.value, 0)
                except ValueError:
                    size = None
            return ArrayType(self.convert_type(node.type, span), size)
        if isinstance(node, c_ast.TypeDecl):
            return self.convert_type(node.type, span)
        if isinstance(node, c_ast.Typename):
            return self.convert_type(node.type, span)
        if isinstance(node, c_ast.IdentifierType):
            names = set(node.names)
            for name in ("void", "char", "float", "double"):
                if name in names:
                    return scalar(name)
            known_typedef = next(
                (n for n in node.names if self.types.is_typedef(n)), None
            )
            if known_typedef is not None:
                return self.types.typedef(known_typedef)
            return scalar("int")
        if isinstance(node, c_ast.Struct):
            if node.decls is not None:
                fields = []
                for decl in node.decls:
                    fields.append((decl.name, self.convert_type(decl.type, span)))
                self.types.define_struct(node.name, fields)
            return self.types.struct(node.name or "$anon")
        if isinstance(node, c_ast.Union):
            if self.strict:
                raise UnsupportedFeatureError("unions are not part of MiniC", span)
            return self._lower_union(node, span)
        if isinstance(node, c_ast.FuncDecl):
            if self.strict:
                raise UnsupportedFeatureError(
                    "function pointers are not part of MiniC", span
                )
            self._record("function-pointer-erased", "function pointer -> int", span)
            return scalar("int")
        if isinstance(node, c_ast.Enum):
            return scalar("int")
        if self.strict:
            raise UnsupportedFeatureError(
                f"unconvertible type {type(node).__name__}", span
            )
        self._record("unknown-type", type(node).__name__, span)
        return scalar("int")

    def _lower_union(self, node, span: Span) -> Type:
        """Lenient union encoding: a struct with the same fields.

        Field-split structs keep member accesses typeable but treat the
        overlapping members as *distinct* cells — a knowingly optimistic
        approximation (see docs/CORPUS.md), so it is always recorded.
        """
        if node.name:
            tag = f"__union_{node.name}"
        else:
            self._anon_unions += 1
            tag = f"__union_anon{self._anon_unions}"
        if node.decls is not None:
            fields = [
                (decl.name, self.convert_type(decl.type, span))
                for decl in node.decls
            ]
            self.types.define_struct(tag, fields)
        self._record("union-field-split", f"union {node.name or '<anon>'}", span)
        return self.types.struct(tag)

    # -- expressions -------------------------------------------------------

    def convert_expr(self, node) -> ast.Expr:
        """Convert a pycparser expression node."""
        c_ast = self.c_ast
        span = self._span(node)
        if isinstance(node, c_ast.Constant):
            if node.type in ("int", "long int", "unsigned int"):
                return ast.IntLit(int(node.value.rstrip("uUlL"), 0), span=span)
            if node.type in ("float", "double"):
                return ast.FloatLit(float(node.value.rstrip("fFlL")), span=span)
            if node.type == "char":
                return ast.CharLit(_unescape_char(node.value), span=span)
            if node.type == "string":
                return ast.StringLit(node.value.strip('"'), span=span)
            return ast.IntLit(0, span=span)
        if isinstance(node, c_ast.ID):
            if node.name == "NULL":
                return ast.NullLit(span=span)
            if (
                not self.strict
                and node.name in self._functions
                and self._lookup(node.name) is None
            ):
                # A function name in value position (address-of-function);
                # MiniC has no function pointers, so the value is opaque.
                self._record("function-address-erased", node.name, span)
                return ast.IntLit(0, span=span)
            return ast.Ident(node.name, span=span)
        if isinstance(node, c_ast.UnaryOp):
            if node.op in ("p++", "p--"):
                return ast.Postfix(node.op[1:], self.convert_expr(node.expr), span=span)
            if node.op == "sizeof":
                return ast.SizeOf(operand=None, span=span)
            return ast.Unary(node.op, self.convert_expr(node.expr), span=span)
        if isinstance(node, c_ast.BinaryOp):
            return ast.Binary(
                node.op,
                self.convert_expr(node.left),
                self.convert_expr(node.right),
                span=span,
            )
        if isinstance(node, c_ast.Assignment):
            return ast.Assign(
                node.op,
                self.convert_expr(node.lvalue),
                self.convert_expr(node.rvalue),
                span=span,
            )
        if isinstance(node, c_ast.TernaryOp):
            return ast.Conditional(
                self.convert_expr(node.cond),
                self.convert_expr(node.iftrue),
                self.convert_expr(node.iffalse),
                span=span,
            )
        if isinstance(node, c_ast.FuncCall):
            if not isinstance(node.name, c_ast.ID):
                raise UnsupportedFeatureError(
                    "calls through expressions are not part of MiniC", span
                )
            callee = node.name.name
            if not self.strict:
                self._reject_unanalyzable_call(node, callee, span)
            args = []
            if node.args is not None:
                args = [self.convert_expr(a) for a in node.args.exprs]
            fixed = self._varargs.get(callee)
            if fixed is not None and len(args) > fixed:
                self._record(
                    "varargs-call-truncated",
                    f"{callee}: dropped {len(args) - fixed} variadic argument(s)",
                    span,
                )
                args = args[:fixed]
            return ast.Call(callee, args, span=span)
        if isinstance(node, c_ast.ArrayRef):
            return ast.Index(
                self.convert_expr(node.name),
                self.convert_expr(node.subscript),
                span=span,
            )
        if isinstance(node, c_ast.StructRef):
            return ast.Member(
                self.convert_expr(node.name),
                node.field.name,
                arrow=(node.type == "->"),
                span=span,
            )
        if isinstance(node, c_ast.Cast):
            if self.strict:
                raise UnsupportedFeatureError("casts are not part of MiniC", span)
            return self._lower_cast(node, span)
        if isinstance(node, c_ast.ExprList):
            exprs = [self.convert_expr(e) for e in node.exprs]
            result = exprs[0]
            for nxt in exprs[1:]:
                result = ast.Comma(result, nxt, span=span)
            return result
        raise UnsupportedFeatureError(
            f"unconvertible expression {type(node).__name__}", span
        )

    def _reject_unanalyzable_call(self, node, callee: str, span: Span) -> None:
        """Raise (so the enclosing statement havocs) for calls the
        semantic analyzer would reject file-wide: calls through erased
        function-pointer variables, and implicit externals handed
        pointer-bearing arguments."""
        from .semantics import ALLOCATOR_NAMES, PURE_EXTERNALS

        if callee in self._functions or callee in ALLOCATOR_NAMES:
            return
        if self._lookup(callee) is not None:
            raise UnsupportedFeatureError(
                f"call through function-pointer variable {callee!r}", span
            )
        if callee in PURE_EXTERNALS:
            return
        if node.args is not None and self._args_pointerish(node.args):
            raise UnsupportedFeatureError(
                f"implicit external {callee!r} with pointer arguments", span
            )

    def _args_pointerish(self, args) -> bool:
        c_ast = self.c_ast
        if self._mentioned(args):
            return True

        found = False

        def walk(n) -> None:
            nonlocal found
            if isinstance(n, c_ast.Constant) and n.type == "string":
                found = True
                return
            if isinstance(n, c_ast.UnaryOp) and n.op == "&":
                found = True
                return
            if isinstance(n, c_ast.ID) and n.name == "NULL":
                found = True
                return
            for _name, child in n.children():
                walk(child)

        walk(args)
        return found

    def _lower_cast(self, node, span: Span) -> ast.Expr:
        """Lenient cast erasure.

        Pointer/struct-target casts erase to their operand (alias-exact
        for same-representation pointer casts, which is what real code
        does with ``malloc`` results and ``void*`` round-trips).  A
        scalar-target cast of a pointer operand would not type-check as
        the operand alone, so it lowers to ``(operand, 0)`` — effects
        kept, value opaque.
        """
        operand = self.convert_expr(node.expr)
        try:
            target = self.convert_type(node.to_type, span)
        except MiniCError:
            target = scalar("int")
        decayed = target.decayed()
        if isinstance(decayed, (PointerType, StructType)):
            self._record("cast-erased", "pointer cast -> operand", span)
            return operand
        self._record("cast-erased", "scalar cast -> (operand, 0)", span)
        return ast.Comma(operand, ast.IntLit(0, span=span), span=span)

    # -- statements ----------------------------------------------------------

    def _stmt(self, node) -> ast.Stmt:
        """Statement conversion boundary: in lenient mode a failure
        havocs just this statement instead of the whole file."""
        if self.strict:
            return self.convert_stmt(node)
        self.ledger.stmts_total += 1
        try:
            return self.convert_stmt(node)
        except MiniCError as err:
            return self._havoc_stmt(node, err)

    def _havoc_stmt(self, node, err: MiniCError) -> ast.Stmt:
        span = self._span(node)
        mentioned = self._mentioned(node)
        result = shuffle(mentioned, include_direct=True, span=span)
        self.ledger.stmts_havocked += 1
        detail = f"{type(node).__name__}: {err.args[0] if err.args else err}"
        if mentioned:
            detail += " (shuffled: " + ", ".join(n for n, _ in mentioned) + ")"
        self._record("stmt-havoc", detail, span)
        if result.truncated:
            self._record(
                "havoc-truncated", f"{result.truncated} shuffle arm(s) capped", span
            )
        if not result.statements:
            return ast.EmptyStmt(span=span)
        return ast.Block(result.statements, span=span)

    def _mentioned(self, node) -> list[tuple[str, Type]]:
        """In-scope, pointer-bearing variables mentioned under ``node``
        (callee names and struct field names excluded)."""
        c_ast = self.c_ast
        found: dict[str, Type] = {}

        def walk(n) -> None:
            if isinstance(n, c_ast.FuncCall):
                if not isinstance(n.name, c_ast.ID):
                    walk(n.name)
                if n.args is not None:
                    walk(n.args)
                return
            if isinstance(n, c_ast.StructRef):
                walk(n.name)
                return
            if isinstance(n, c_ast.ID):
                t = self._lookup(n.name)
                if t is not None and t.decayed().has_pointers():
                    found.setdefault(n.name, t)
                return
            for _name, child in n.children():
                walk(child)

        walk(node)
        return list(found.items())

    def convert_stmt(self, node) -> ast.Stmt:
        """Convert a pycparser statement node."""
        c_ast = self.c_ast
        span = self._span(node)
        if node is None:
            return ast.EmptyStmt(span=span)
        if isinstance(node, c_ast.Compound):
            return self.convert_block(node)
        if isinstance(node, c_ast.If):
            return ast.If(
                self.convert_expr(node.cond),
                self._stmt(node.iftrue),
                self._stmt(node.iffalse) if node.iffalse else None,
                span=span,
            )
        if isinstance(node, c_ast.While):
            return ast.While(
                self.convert_expr(node.cond), self._stmt(node.stmt), span=span
            )
        if isinstance(node, c_ast.DoWhile):
            return ast.DoWhile(
                self._stmt(node.stmt), self.convert_expr(node.cond), span=span
            )
        if isinstance(node, c_ast.For):
            return self._convert_for(node, span)
        if isinstance(node, c_ast.Return):
            value = self.convert_expr(node.expr) if node.expr else None
            return ast.Return(value, span=span)
        if isinstance(node, c_ast.Break):
            return ast.Break(span=span)
        if isinstance(node, c_ast.Continue):
            return ast.Continue(span=span)
        if isinstance(node, c_ast.Goto):
            return ast.Goto(node.name, span=span)
        if isinstance(node, c_ast.Label):
            return ast.Label(node.name, self._stmt(node.stmt), span=span)
        if isinstance(node, c_ast.EmptyStatement):
            return ast.EmptyStmt(span=span)
        if isinstance(node, c_ast.Switch):
            return self._convert_switch(node, span)
        # Expression statement.
        return ast.ExprStmt(self.convert_expr(node), span=span)

    def _convert_for(self, node, span: Span) -> ast.Stmt:
        c_ast = self.c_ast
        if node.init is not None and isinstance(node.init, c_ast.DeclList):
            if self.strict:
                raise UnsupportedFeatureError(
                    "declarations in for-init are not part of MiniC",
                    self._span(node.init),
                )
            # Hoist the declarations into an enclosing block.
            items: list = []
            for decl in node.init.decls:
                items.extend(self._convert_block_decl(decl))
            self._record("for-decl-hoisted", "for-init declaration", span)
            loop = ast.For(
                None,
                self.convert_expr(node.cond) if node.cond else None,
                self.convert_expr(node.next) if node.next else None,
                self._stmt(node.stmt),
                span=span,
            )
            items.append(loop)
            return ast.Block(items, span=span)
        return ast.For(
            self.convert_expr(node.init) if node.init else None,
            self.convert_expr(node.cond) if node.cond else None,
            self.convert_expr(node.next) if node.next else None,
            self._stmt(node.stmt),
            span=span,
        )

    def _convert_switch(self, node, span: Span) -> ast.Switch:
        c_ast = self.c_ast
        cases: list[ast.SwitchCase] = []
        body = node.stmt
        items = body.block_items or [] if isinstance(body, c_ast.Compound) else [body]
        for item in items:
            if isinstance(item, c_ast.Case):
                stmts = [self._stmt(s) for s in (item.stmts or [])]
                cases.append(
                    ast.SwitchCase(self.convert_expr(item.expr), stmts, self._span(item))
                )
            elif isinstance(item, c_ast.Default):
                stmts = [self._stmt(s) for s in (item.stmts or [])]
                cases.append(ast.SwitchCase(None, stmts, self._span(item)))
            else:
                if cases:
                    cases[-1].body.append(self._stmt(item))
        return ast.Switch(self.convert_expr(node.cond), cases, span=span)

    def convert_block(self, node) -> ast.Block:
        """Convert a compound statement."""
        c_ast = self.c_ast
        self._scopes.append({})
        try:
            items: list = []
            for item in node.block_items or []:
                if isinstance(item, c_ast.Decl):
                    items.extend(self._convert_block_decl(item))
                else:
                    items.append(self._stmt(item))
            return ast.Block(items, span=self._span(node))
        finally:
            self._scopes.pop()

    def _convert_block_decl(self, decl) -> list:
        """One block-level declaration -> [VarDecl, *init statements].

        Lenient mode expands brace initializers into per-element
        assignments and drops (with a ledger entry) declarations it
        cannot convert at all.
        """
        c_ast = self.c_ast
        span = self._span(decl)
        if decl.name is None:
            # Local struct/union/enum definition with no declarator.
            if self.strict:
                return [self._convert_var_decl(decl)]
            try:
                self.convert_type(decl.type, span)
            except MiniCError:
                pass
            self._record("local-type-def", type(decl.type).__name__, span)
            return []
        if self.strict:
            return [self._convert_var_decl(decl)]
        try:
            var, followups = self._convert_var_decl_lenient(decl, stmt_position=True)
        except MiniCError as err:
            self._record("decl-dropped", f"{decl.name}: {err.args[0]}", span)
            return []
        return [var, *followups]

    def _convert_var_decl(self, decl) -> ast.VarDecl:
        span = self._span(decl)
        var_type = self.convert_type(decl.type, span)
        init = self.convert_expr(decl.init) if decl.init is not None else None
        storage = decl.storage or []
        self._declare(decl.name, var_type)
        return ast.VarDecl(
            var_type,
            decl.name,
            init,
            span=span,
            is_static="static" in storage,
            is_extern="extern" in storage,
        )

    def _convert_var_decl_lenient(
        self, decl, stmt_position: bool
    ) -> tuple[ast.VarDecl, list[ast.Stmt]]:
        c_ast = self.c_ast
        span = self._span(decl)
        var_type = self.convert_type(decl.type, span)
        init: Optional[ast.Expr] = None
        followups: list[ast.Stmt] = []
        if decl.init is not None:
            if isinstance(decl.init, c_ast.InitList):
                if stmt_position:
                    followups = self._lower_init_list(decl.name, var_type, decl.init)
                else:
                    self._record(
                        "global-initializer-dropped",
                        f"{decl.name}: brace initializer",
                        span,
                    )
            else:
                try:
                    init = self.convert_expr(decl.init)
                except MiniCError as err:
                    self._record(
                        "initializer-dropped", f"{decl.name}: {err.args[0]}", span
                    )
        storage = decl.storage or []
        self._declare(decl.name, var_type)
        var = ast.VarDecl(
            var_type,
            decl.name,
            init,
            span=span,
            is_static="static" in storage,
            is_extern="extern" in storage,
        )
        return var, followups

    def _lower_init_list(self, name: str, t: Type, initlist) -> list[ast.Stmt]:
        """``T x = {a, b, ...};`` -> per-element assignments."""
        c_ast = self.c_ast
        span = self._span(initlist)
        out: list[ast.Stmt] = []

        def assign(target: ast.Expr, expr_node) -> None:
            if isinstance(expr_node, c_ast.InitList):
                self._record("nested-initializer-dropped", name, span)
                return
            try:
                value = self.convert_expr(expr_node)
            except MiniCError as err:
                self._record("initializer-dropped", f"{name}: {err.args[0]}", span)
                return
            out.append(
                ast.ExprStmt(ast.Assign("=", target, value, span=span), span=span)
            )

        if isinstance(t, ArrayType):
            for i, expr_node in enumerate(initlist.exprs):
                target = ast.Index(
                    ast.Ident(name, span=span), ast.IntLit(i, span=span), span=span
                )
                assign(target, expr_node)
        elif isinstance(t, StructType):
            fields = [fname for fname, _ in t.fields]
            position = 0
            for expr_node in initlist.exprs:
                if isinstance(expr_node, c_ast.NamedInitializer):
                    designator = expr_node.name[0]
                    fname = designator.name if hasattr(designator, "name") else None
                    if fname is None or fname not in fields:
                        self._record("initializer-dropped", f"{name}: designator", span)
                        continue
                    position = fields.index(fname) + 1
                    inner = expr_node.expr
                else:
                    if position >= len(fields):
                        self._record("initializer-dropped", f"{name}: overflow", span)
                        continue
                    fname = fields[position]
                    position += 1
                    inner = expr_node
                target = ast.Member(
                    ast.Ident(name, span=span), fname, arrow=False, span=span
                )
                assign(target, inner)
        else:
            # Scalar with a redundant brace: take the first element.
            if initlist.exprs:
                assign(ast.Ident(name, span=span), initlist.exprs[0])
        self._record("initializer-expanded", name, span)
        return out

    # -- top level ------------------------------------------------------------

    def convert_translation_unit(self, tu) -> ast.Program:
        """Convert a whole pycparser AST to a repro Program."""
        c_ast = self.c_ast
        decls: list[ast.TopLevel] = []
        for ext in tu.ext:
            if self.strict:
                converted = self._convert_toplevel(ext)
            else:
                try:
                    converted = self._convert_toplevel(ext)
                except MiniCError as err:
                    span = self._span(ext)
                    name = getattr(ext, "name", None) or type(ext).__name__
                    if isinstance(ext, c_ast.FuncDef):
                        name = ext.decl.name
                        self.ledger.demote(name, FUNC_DROPPED)
                    self._record("toplevel-dropped", f"{name}: {err.args[0]}", span)
                    continue
            decls.extend(
                self._pending_struct_defs(
                    {d.name for d in converted if isinstance(d, ast.StructDef)}
                )
            )
            decls.extend(converted)
        return ast.Program(decls)

    def _pending_struct_defs(self, skip: set[str]) -> list[ast.StructDef]:
        """StructDef top-levels for struct types defined as a side
        effect of the declaration just converted (typedef bodies,
        lowered unions, nested definitions) — the printed program must
        re-parse, so every defined struct needs a definition site."""
        out: list[ast.StructDef] = []
        self._emitted_structs.update(skip)
        for struct in self.types.structs():
            if not struct.fields or struct.name in self._emitted_structs:
                continue
            fields = [
                ast.Param(ftype, fname, DUMMY_SPAN)
                for fname, ftype in struct.fields
            ]
            out.append(ast.StructDef(struct.name, fields, span=DUMMY_SPAN))
            self._emitted_structs.add(struct.name)
        return out

    def _convert_toplevel(self, ext) -> list[ast.TopLevel]:
        c_ast = self.c_ast
        span = self._span(ext)
        if isinstance(ext, c_ast.FuncDef):
            return [self._convert_func_def(ext)]
        if isinstance(ext, c_ast.Decl):
            if isinstance(ext.type, c_ast.Struct) and ext.name is None:
                self.convert_type(ext.type, span)  # registers the struct
                struct = self.types.struct(ext.type.name)
                fields = [
                    ast.Param(ftype, fname, span)
                    for fname, ftype in struct.fields
                ]
                return [ast.StructDef(ext.type.name, fields, span=span)]
            if isinstance(ext.type, c_ast.Union) and ext.name is None:
                if self.strict:
                    raise UnsupportedFeatureError(
                        "unions are not part of MiniC", span
                    )
                struct = self._lower_union(ext.type, span)
                fields = [
                    ast.Param(ftype, fname, span)
                    for fname, ftype in struct.fields
                ]
                return [ast.StructDef(struct.name, fields, span=span)]
            if isinstance(ext.type, c_ast.Enum) and ext.name is None:
                return self._convert_enum_def(ext.type, span)
            if isinstance(ext.type, c_ast.FuncDecl):
                return [self._convert_prototype(ext)]
            if self.strict:
                return [self._convert_var_decl(ext)]
            var, _followups = self._convert_var_decl_lenient(
                ext, stmt_position=False
            )
            return [var]
        if isinstance(ext, c_ast.Typedef):
            aliased = self.convert_type(ext.type, span)
            self.types.add_typedef(ext.name, aliased)
            return [ast.Typedef(ext.name, aliased, span=span)]
        raise UnsupportedFeatureError(
            f"unconvertible top-level {type(ext).__name__}", span
        )

    def _convert_enum_def(self, enum, span: Span) -> list[ast.TopLevel]:
        """``enum E { A, B };`` -> ``int A; int B;`` so uses resolve.

        Enumerator *values* are irrelevant to aliasing; only the names
        must exist.  Strict mode keeps the historical behaviour.
        """
        if self.strict:
            raise UnsupportedFeatureError(
                "enum definitions are not part of MiniC", span
            )
        out: list[ast.TopLevel] = []
        enumerators = getattr(enum.values, "enumerators", None) or []
        for i, enumerator in enumerate(enumerators):
            t = scalar("int")
            self._declare(enumerator.name, t)
            out.append(
                ast.VarDecl(t, enumerator.name, ast.IntLit(i, span=span), span=span)
            )
        self._record("enum-lowered", enum.name or "<anon>", span)
        return out

    def _convert_func_def(self, node) -> ast.FuncDef:
        span = self._span(node)
        decl = node.decl
        func_type = decl.type
        params, had_varargs = self._convert_params(func_type)
        if had_varargs:
            self._varargs[decl.name] = len(params)
        return_type = self.convert_type(func_type.type, span)
        self._functions.add(decl.name)
        self.ledger.note_function(decl.name)
        outer = self._current_func
        self._current_func = decl.name
        self._scopes.append({p.name: p.param_type for p in params})
        try:
            body = self.convert_block(node.body)
        finally:
            self._scopes.pop()
            self._current_func = outer
        return ast.FuncDef(return_type, decl.name, params, body, span=span)

    def _convert_prototype(self, decl) -> ast.FuncDecl:
        span = self._span(decl)
        params, had_varargs = self._convert_params(decl.type)
        if had_varargs:
            self._varargs[decl.name] = len(params)
        return_type = self.convert_type(decl.type.type, span)
        self._functions.add(decl.name)
        return ast.FuncDecl(return_type, decl.name, params, span=span)

    def _convert_params(self, func_type) -> tuple[list[ast.Param], bool]:
        c_ast = self.c_ast
        params: list[ast.Param] = []
        had_varargs = False
        if func_type.args is None:
            return params, had_varargs
        for i, param in enumerate(func_type.args.params):
            if isinstance(param, c_ast.EllipsisParam):
                if self.strict:
                    raise UnsupportedFeatureError(
                        "varargs are not part of MiniC", self._span(param)
                    )
                had_varargs = True
                self._record(
                    "varargs-dropped", "variadic tail", self._span(param)
                )
                continue
            if isinstance(param, c_ast.Typename) or param.name is None:
                if self.strict:
                    # (void) parameter list; unnamed parameters dropped.
                    continue
                ptype = self.convert_type(param.type, self._span(param)).decayed()
                if ptype.is_void():
                    # (void) parameter list.
                    continue
                params.append(ast.Param(ptype, f"__p{i}", self._span(param)))
                continue
            ptype = self.convert_type(param.type, self._span(param)).decayed()
            params.append(ast.Param(ptype, param.name, self._span(param)))
        return params, had_varargs

    @staticmethod
    def _span(node) -> Span:
        coord = getattr(node, "coord", None)
        if coord is None:
            return DUMMY_SPAN
        from .diagnostics import Position

        pos = Position(coord.line or 1, coord.column or 1, 0)
        return Span(pos, pos, str(coord.file or "<pycparser>"))


def strip_comments(source: str) -> str:
    """Replace ``//`` and ``/* */`` comments with spaces, keeping
    newlines so line/column coordinates survive.

    pycparser expects cpp output, and a real preprocessor removes
    comments; corpus files have not been through cpp, so we do the one
    lexical piece of its job that plain C files always need.  String
    and character literals are respected.
    """
    out = list(source)
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if source[i] == "\\":
                    i += 2
                    continue
                if source[i] == quote:
                    i += 1
                    break
                if source[i] == "\n":
                    # Unterminated literal; leave it for the parser.
                    break
                i += 1
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                out[i] = " "
                i += 1
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "*":
            out[i] = " "
            out[i + 1] = " "
            i += 2
            while i < n:
                if source[i] == "*" and i + 1 < n and source[i + 1] == "/":
                    out[i] = " "
                    out[i + 1] = " "
                    i += 2
                    break
                if source[i] != "\n":
                    out[i] = " "
                i += 1
            continue
        i += 1
    return "".join(out)


def _blank_directives(
    source: str, ledger: Optional[CoverageLedger] = None
) -> str:
    """Blank out preprocessor lines (``#include``, ``#define``, ...),
    including backslash continuations, recording each dropped directive
    in the ledger.  Macro-dependent meaning is lost, which is exactly
    the kind of approximation the ledger exists to make non-silent."""
    from .diagnostics import Position

    lines = source.split("\n")
    continuing = False
    for idx, line in enumerate(lines):
        stripped = line.lstrip()
        if not continuing and not stripped.startswith("#"):
            continue
        if not continuing and ledger is not None:
            words = stripped[1:].split()
            detail = words[0] if words else "#"
            pos = Position(idx + 1, 1, 0)
            ledger.record(
                "directive-dropped", detail, Span(pos, pos, ledger.filename)
            )
        continuing = line.rstrip().endswith("\\")
        lines[idx] = ""
    return "\n".join(lines)


def parse_c(source: str, filename: str = "<pycparser>") -> ast.Program:
    """Parse (already preprocessed) C source with pycparser and convert
    it to the repro AST, rejecting everything outside MiniC.  Comments
    are stripped first (cpp would have removed them)."""
    pycparser, _ = _require_pycparser()
    parser = pycparser.CParser()
    tu = parser.parse(strip_comments(source), filename)
    return PycparserConverter(filename=filename).convert_translation_unit(tu)


def parse_c_lenient(source: str, filename: str = "<pycparser>") -> LoweredUnit:
    """Parse real C and lower everything outside MiniC to recorded
    over-approximations instead of rejecting it.  Comments are
    stripped and preprocessor directives blanked (and ledgered) so
    plain, un-preprocessed files go straight in."""
    pycparser, _ = _require_pycparser()
    parser = pycparser.CParser()
    converter = PycparserConverter(strict=False, filename=filename)
    prepared = _blank_directives(strip_comments(source), converter.ledger)
    tu = parser.parse(prepared, filename)
    program = converter.convert_translation_unit(tu)
    return LoweredUnit(program, converter.ledger)
