"""MiniC pretty-printer: AST → source text.

``parse(print_program(ast))`` reproduces the same AST (modulo spans),
which the property suite checks on generated programs; it is also handy
for emitting lowered or transformed programs.
"""

from __future__ import annotations

from . import ast_nodes as ast
from .types import ArrayType, PointerType, ScalarType, StructType, Type

_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


def type_prefix_suffix(t: Type) -> tuple[str, str]:
    """Split a type into declaration prefix and suffix:
    ``int *`` + ``[10]`` styles around the declarator name."""
    suffix = ""
    while isinstance(t, ArrayType):
        size = "" if t.size is None else str(t.size)
        suffix = f"[{size}]" + suffix  # C reads outer dimension first
        t = t.element
    stars = ""
    while isinstance(t, PointerType):
        stars = "*" + stars
        t = t.pointee
    if isinstance(t, StructType):
        base = f"struct {t.name}"
    else:
        assert isinstance(t, ScalarType)
        base = t.name
    return f"{base} {stars}".rstrip() + (" " if not stars else ""), suffix


def declare(t: Type, name: str) -> str:
    """Render a declaration: ``declare(int*, "p") == "int *p"``."""
    prefix, suffix = type_prefix_suffix(t)
    sep = "" if prefix.endswith("*") else " "
    return f"{prefix.rstrip()}{sep if name else ''}{name}{suffix}"


def print_expr(expr: ast.Expr, parent_prec: int = 0) -> str:
    """Render an expression, parenthesizing below ``parent_prec``."""
    text, prec = _expr(expr)
    if prec < parent_prec:
        return f"({text})"
    return text


def _expr(expr: ast.Expr) -> tuple[str, int]:
    if isinstance(expr, ast.IntLit):
        return str(expr.value), 100
    if isinstance(expr, ast.FloatLit):
        return repr(expr.value), 100
    if isinstance(expr, ast.CharLit):
        ch = expr.value
        escaped = {
            "\n": "\\n",
            "\t": "\\t",
            "\r": "\\r",
            "\0": "\\0",
            "'": "\\'",
            "\\": "\\\\",
        }.get(ch, ch)
        return f"'{escaped}'", 100
    if isinstance(expr, ast.StringLit):
        # The lexer stores string bodies verbatim (escape sequences
        # intact), so they print back unchanged.
        return '"' + expr.value + '"', 100
    if isinstance(expr, ast.NullLit):
        return "NULL", 100
    if isinstance(expr, ast.Ident):
        return expr.name, 100
    if isinstance(expr, ast.Unary):
        operand = print_expr(expr.operand, 11)
        return f"{expr.op}{operand}", 11
    if isinstance(expr, ast.Postfix):
        operand = print_expr(expr.operand, 12)
        return f"{operand}{expr.op}", 12
    if isinstance(expr, ast.Binary):
        prec = _PRECEDENCE[expr.op]
        left = print_expr(expr.left, prec)
        right = print_expr(expr.right, prec + 1)
        return f"{left} {expr.op} {right}", prec
    if isinstance(expr, ast.Assign):
        target = print_expr(expr.target, 1)
        value = print_expr(expr.value, 0)
        return f"{target} {expr.op} {value}", 0
    if isinstance(expr, ast.Conditional):
        return (
            f"{print_expr(expr.cond, 1)} ? {print_expr(expr.then)} : "
            f"{print_expr(expr.otherwise, 1)}",
            0,
        )
    if isinstance(expr, ast.Call):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{expr.callee}({args})", 12
    if isinstance(expr, ast.Index):
        return f"{print_expr(expr.base, 12)}[{print_expr(expr.index)}]", 12
    if isinstance(expr, ast.Member):
        op = "->" if expr.arrow else "."
        return f"{print_expr(expr.base, 12)}{op}{expr.field_name}", 12
    if isinstance(expr, ast.Comma):
        return f"{print_expr(expr.left)}, {print_expr(expr.right)}", 0
    if isinstance(expr, ast.SizeOf):
        if expr.type_name is not None:
            return f"sizeof({declare(expr.type_name, '')})", 11
        if expr.operand is None:
            # The pycparser bridge erases sizeof operands it cannot
            # model; any constant re-parses to the same scalar shape.
            return "sizeof 1", 11
        return f"sizeof {print_expr(expr.operand, 11)}", 11
    raise TypeError(f"cannot print {type(expr).__name__}")


class _Printer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, text: str) -> None:
        """Append one indented line."""
        self.lines.append("    " * self.indent + text)

    def stmt(self, stmt: ast.Stmt) -> None:
        """Render one statement (recursive)."""
        if isinstance(stmt, ast.Block):
            self.emit("{")
            self.indent += 1
            for item in stmt.items:
                if isinstance(item, ast.VarDecl):
                    self.var_decl(item)
                else:
                    self.stmt(item)
            self.indent -= 1
            self.emit("}")
        elif isinstance(stmt, ast.ExprStmt):
            self.emit(print_expr(stmt.expr) + ";")
        elif isinstance(stmt, ast.EmptyStmt):
            self.emit(";")
        elif isinstance(stmt, ast.If):
            self.emit(f"if ({print_expr(stmt.cond)})")
            self.block_or_stmt(stmt.then)
            if stmt.otherwise is not None:
                self.emit("else")
                self.block_or_stmt(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            self.emit(f"while ({print_expr(stmt.cond)})")
            self.block_or_stmt(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            self.emit("do")
            self.block_or_stmt(stmt.body)
            self.emit(f"while ({print_expr(stmt.cond)});")
        elif isinstance(stmt, ast.For):
            init = print_expr(stmt.init) if stmt.init else ""
            cond = print_expr(stmt.cond) if stmt.cond else ""
            step = print_expr(stmt.step) if stmt.step else ""
            self.emit(f"for ({init}; {cond}; {step})")
            self.block_or_stmt(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self.emit("return;")
            else:
                self.emit(f"return {print_expr(stmt.value)};")
        elif isinstance(stmt, ast.Break):
            self.emit("break;")
        elif isinstance(stmt, ast.Continue):
            self.emit("continue;")
        elif isinstance(stmt, ast.Goto):
            self.emit(f"goto {stmt.label};")
        elif isinstance(stmt, ast.Label):
            self.emit(f"{stmt.name}:")
            self.stmt(stmt.stmt)
        elif isinstance(stmt, ast.Switch):
            self.emit(f"switch ({print_expr(stmt.cond)}) {{")
            self.indent += 1
            for case in stmt.cases:
                if case.value is None:
                    self.emit("default:")
                else:
                    self.emit(f"case {print_expr(case.value)}:")
                self.indent += 1
                for inner in case.body:
                    self.stmt(inner)
                self.indent -= 1
            self.indent -= 1
            self.emit("}")
        else:
            raise TypeError(f"cannot print {type(stmt).__name__}")

    def block_or_stmt(self, stmt: ast.Stmt) -> None:
        """Render a statement, indenting non-blocks."""
        if isinstance(stmt, ast.Block):
            self.stmt(stmt)
        else:
            self.indent += 1
            self.stmt(stmt)
            self.indent -= 1

    def var_decl(self, decl: ast.VarDecl) -> None:
        """Render a variable declaration with optional initializer."""
        storage = ""
        if decl.is_static:
            storage = "static "
        elif decl.is_extern:
            storage = "extern "
        text = storage + declare(decl.var_type, decl.name)
        if decl.init is not None:
            text += f" = {print_expr(decl.init)}"
        self.emit(text + ";")

    def program(self, program: ast.Program) -> str:
        """Render every top-level declaration."""
        for decl in program.decls:
            if isinstance(decl, ast.StructDef):
                self.emit(f"struct {decl.name} {{")
                self.indent += 1
                for fld in decl.fields:
                    self.emit(declare(fld.param_type, fld.name) + ";")
                self.indent -= 1
                self.emit("};")
            elif isinstance(decl, ast.VarDecl):
                self.var_decl(decl)
            elif isinstance(decl, ast.Typedef):
                self.emit(f"typedef {declare(decl.aliased, decl.name)};")
            elif isinstance(decl, (ast.FuncDef, ast.FuncDecl)):
                params = ", ".join(
                    declare(p.param_type, p.name) for p in decl.params
                )
                header = declare(decl.return_type, decl.name) + f"({params or 'void'})"
                if isinstance(decl, ast.FuncDecl):
                    self.emit(header + ";")
                else:
                    self.emit(header)
                    self.stmt(decl.body)
            self.emit("")
        return "\n".join(self.lines)


def print_program(program: ast.Program) -> str:
    """Render a full translation unit back to MiniC source."""
    return _Printer().program(program)
