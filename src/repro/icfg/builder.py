"""Lowering MiniC ASTs to the ICFG.

Statements and expressions are decomposed into the normalized shapes
of :mod:`repro.icfg.ir` — pointer assignments, calls, predicates and
pass-through nodes — introducing compiler temporaries where a pointer
value flows through a complex expression.  Struct assignments are
expanded into one pointer assignment per pointer-reaching field path
(arrays are aggregates: indexes are dropped and such assignments are
*weak*).

The builder also records, for every simple statement, the ICFG node at
which the statement's effect is complete (``stmt_end_nodes``); the
concrete interpreter uses this to validate the static solution against
observed run-time aliases.
"""

from __future__ import annotations

from typing import Optional

from ..frontend import ast_nodes as ast
from ..frontend.diagnostics import Span, UnsupportedFeatureError
from ..frontend.semantics import ALLOCATOR_NAMES, AnalyzedProgram
from ..frontend.symbols import Symbol, SymbolKind
from ..frontend.types import ArrayType, PointerType, StructType, Type, scalar
from ..names.context import collapse_arrays
from ..names.object_names import DEREF, ObjectName
from .graph import ICFG, ProcGraph
from .ir import AddrOf, CallInfo, NameRef, NodeKind, Opaque, OtherStmt, Operand, PtrAssign, Node


def pointer_field_paths(t: Type) -> list[tuple[str, ...]]:
    """Field-only selector paths from ``t`` to pointer-typed leaves.

    Used to expand struct copies: ``s1 = s2`` copies every pointer held
    (transitively, by value) inside the struct.  By-value recursion is
    impossible in C, so this terminates.
    """
    t = collapse_arrays(t)
    if isinstance(t, PointerType):
        return [()]
    if isinstance(t, StructType) and t.complete:
        paths: list[tuple[str, ...]] = []
        for fname, ftype in t.fields:
            for sub in pointer_field_paths(ftype):
                paths.append((fname,) + sub)
        return paths
    return []


class LoweringError(UnsupportedFeatureError):
    """Raised when an expression cannot be normalized."""


class _FunctionLowerer:
    """Lowers one function body into its ProcGraph."""

    def __init__(self, owner: "IcfgBuilder", fn: ast.FuncDef) -> None:
        self.owner = owner
        self.icfg = owner.icfg
        self.fn = fn
        self.proc = fn.name
        self.info = owner.analyzed.symbols.function(fn.name)
        self.entry = self.icfg.new_node(NodeKind.ENTRY, fn.name, span=fn.span)
        self.exit = self.icfg.new_node(NodeKind.EXIT, fn.name, span=fn.span)
        self._temp_count = 0
        self._labels: dict[str, Node] = {}
        self._break_stack: list[list[Node]] = []
        self._continue_stack: list[Node] = []

    # -- plumbing ----------------------------------------------------------

    def node(self, kind: NodeKind, stmt=None, span: Optional[Span] = None) -> Node:
        """Create a node owned by this procedure."""
        return self.icfg.new_node(kind, self.proc, stmt, span)

    def seq(self, frontier: list[Node], node: Node) -> list[Node]:
        """Wire every frontier node to ``node``; new frontier is [node]."""
        for prev in frontier:
            prev.add_succ(node)
        return [node]

    def fresh_temp(self, t: Type) -> Symbol:
        """Allocate a compiler temporary of type ``t``."""
        self._temp_count += 1
        name = f"$t{self._temp_count}"
        uid = self.owner.analyzed.symbols.fresh_uid(self.proc, name)
        sym = Symbol(uid, name, t, SymbolKind.LOCAL, self.proc, self.fn.span)
        self.info.locals.append(sym)
        return sym

    def label_node(self, name: str, span: Optional[Span] = None) -> Node:
        """The join node for ``name`` (created on first use)."""
        node = self._labels.get(name)
        if node is None:
            node = self.node(NodeKind.OTHER, OtherStmt(f"label {name}"), span)
            self._labels[name] = node
        return node

    # -- entry point ----------------------------------------------------------

    def lower(self, preamble: list[Node]) -> ProcGraph:
        """Lower the whole function body; returns its ProcGraph."""
        frontier: list[Node] = [self.entry]
        for pre in preamble:
            frontier = self.seq(frontier, pre)
        frontier = self.lower_block(self.fn.body, frontier)
        for node in frontier:
            node.add_succ(self.exit)
        proc_nodes = [n for n in self.icfg.nodes if n.proc == self.proc]
        return ProcGraph(self.proc, self.entry, self.exit, proc_nodes)

    # -- statements ----------------------------------------------------------

    def lower_block(self, block: ast.Block, frontier: list[Node]) -> list[Node]:
        """Lower a block's declarations and statements in order."""
        for item in block.items:
            if isinstance(item, ast.VarDecl):
                frontier = self.lower_local_decl(item, frontier)
            else:
                frontier = self.lower_stmt(item, frontier)
        return frontier

    def lower_local_decl(self, decl: ast.VarDecl, frontier: list[Node]) -> list[Node]:
        """Lower a local declaration's initializer, if any."""
        if decl.init is None:
            return frontier
        sym = self._local_symbol_for(decl)
        target = ObjectName(sym.uid)
        frontier = self.lower_assignment(
            target, collapse_arrays(sym.type), decl.init, False, frontier, decl.span
        )
        self.owner.stmt_end_nodes[id(decl)] = frontier[0] if len(frontier) == 1 else None
        return frontier

    def _local_symbol_for(self, decl: ast.VarDecl) -> Symbol:
        # The semantic analyzer created symbols in declaration order; we
        # find the one whose span matches this declaration.
        for sym in self.info.locals:
            if sym.span == decl.span and sym.name == decl.name:
                return sym
        raise LoweringError(f"unresolved local {decl.name!r}", decl.span)

    def lower_stmt(self, stmt: ast.Stmt, frontier: list[Node]) -> list[Node]:
        """Lower one statement; returns the new frontier."""
        if isinstance(stmt, ast.Block):
            return self.lower_block(stmt, frontier)
        if isinstance(stmt, ast.ExprStmt):
            frontier = self.lower_expr_effects(stmt.expr, frontier)
            self.owner.stmt_end_nodes[id(stmt)] = (
                frontier[0] if len(frontier) == 1 else None
            )
            return frontier
        if isinstance(stmt, ast.EmptyStmt):
            return frontier
        if isinstance(stmt, ast.If):
            return self.lower_if(stmt, frontier)
        if isinstance(stmt, ast.While):
            return self.lower_while(stmt, frontier)
        if isinstance(stmt, ast.DoWhile):
            return self.lower_do_while(stmt, frontier)
        if isinstance(stmt, ast.For):
            return self.lower_for(stmt, frontier)
        if isinstance(stmt, ast.Return):
            return self.lower_return(stmt, frontier)
        if isinstance(stmt, ast.Break):
            if not self._break_stack:
                raise LoweringError("break outside loop/switch", stmt.span)
            self._break_stack[-1].extend(frontier)
            return []
        if isinstance(stmt, ast.Continue):
            if not self._continue_stack:
                raise LoweringError("continue outside loop", stmt.span)
            target = self._continue_stack[-1]
            for node in frontier:
                node.add_succ(target)
            return []
        if isinstance(stmt, ast.Goto):
            target = self.label_node(stmt.label, stmt.span)
            for node in frontier:
                node.add_succ(target)
            return []
        if isinstance(stmt, ast.Label):
            node = self.label_node(stmt.name, stmt.span)
            frontier = self.seq(frontier, node)
            return self.lower_stmt(stmt.stmt, frontier)
        if isinstance(stmt, ast.Switch):
            return self.lower_switch(stmt, frontier)
        raise LoweringError(f"cannot lower {type(stmt).__name__}", stmt.span)

    def lower_if(self, stmt: ast.If, frontier: list[Node]) -> list[Node]:
        """Lower ``if``/``else`` into a predicate diamond."""
        frontier = self.lower_expr_effects(stmt.cond, frontier, keep_value=False)
        pred = self.node(NodeKind.PREDICATE, OtherStmt("if", reads=tuple(self._read_names(stmt.cond))), stmt.span)
        frontier = self.seq(frontier, pred)
        then_out = self.lower_stmt(stmt.then, [pred])
        else_out = self.lower_stmt(stmt.otherwise, [pred]) if stmt.otherwise else [pred]
        if stmt.otherwise is None:
            return then_out + [pred]
        return then_out + else_out

    def lower_while(self, stmt: ast.While, frontier: list[Node]) -> list[Node]:
        """Lower a ``while`` loop with back edge and breaks."""
        header = self.node(NodeKind.OTHER, OtherStmt("loop"), stmt.span)
        frontier = self.seq(frontier, header)
        cond_out = self.lower_expr_effects(stmt.cond, [header], keep_value=False)
        pred = self.node(NodeKind.PREDICATE, OtherStmt("while", reads=tuple(self._read_names(stmt.cond))), stmt.span)
        cond_out = self.seq(cond_out, pred)
        breaks: list[Node] = []
        self._break_stack.append(breaks)
        self._continue_stack.append(header)
        body_out = self.lower_stmt(stmt.body, [pred])
        self._break_stack.pop()
        self._continue_stack.pop()
        for node in body_out:
            node.add_succ(header)
        return [pred] + breaks

    def lower_do_while(self, stmt: ast.DoWhile, frontier: list[Node]) -> list[Node]:
        """Lower a ``do``/``while`` loop (body first)."""
        body_start = self.node(NodeKind.OTHER, OtherStmt("do"), stmt.span)
        frontier = self.seq(frontier, body_start)
        cond_start = self.node(NodeKind.OTHER, OtherStmt("do-cond"), stmt.span)
        breaks: list[Node] = []
        self._break_stack.append(breaks)
        self._continue_stack.append(cond_start)
        body_out = self.lower_stmt(stmt.body, [body_start])
        self._break_stack.pop()
        self._continue_stack.pop()
        for node in body_out:
            node.add_succ(cond_start)
        cond_out = self.lower_expr_effects(stmt.cond, [cond_start], keep_value=False)
        pred = self.node(NodeKind.PREDICATE, OtherStmt("do-while", reads=tuple(self._read_names(stmt.cond))), stmt.span)
        cond_out = self.seq(cond_out, pred)
        pred.add_succ(body_start)
        return [pred] + breaks

    def lower_for(self, stmt: ast.For, frontier: list[Node]) -> list[Node]:
        """Lower a ``for`` loop (continue targets the step)."""
        if stmt.init is not None:
            frontier = self.lower_expr_effects(stmt.init, frontier, keep_value=False)
        header = self.node(NodeKind.OTHER, OtherStmt("for"), stmt.span)
        frontier = self.seq(frontier, header)
        cond_out: list[Node] = [header]
        cond_reads: tuple = ()
        if stmt.cond is not None:
            cond_out = self.lower_expr_effects(stmt.cond, cond_out, keep_value=False)
            cond_reads = tuple(self._read_names(stmt.cond))
        pred = self.node(NodeKind.PREDICATE, OtherStmt("for-cond", reads=cond_reads), stmt.span)
        cond_out = self.seq(cond_out, pred)
        step_start = self.node(NodeKind.OTHER, OtherStmt("for-step"), stmt.span)
        breaks: list[Node] = []
        self._break_stack.append(breaks)
        self._continue_stack.append(step_start)
        body_out = self.lower_stmt(stmt.body, [pred])
        self._break_stack.pop()
        self._continue_stack.pop()
        for node in body_out:
            node.add_succ(step_start)
        step_out: list[Node] = [step_start]
        if stmt.step is not None:
            step_out = self.lower_expr_effects(stmt.step, step_out, keep_value=False)
        for node in step_out:
            node.add_succ(header)
        return [pred] + breaks

    def lower_switch(self, stmt: ast.Switch, frontier: list[Node]) -> list[Node]:
        """Lower ``switch`` with fallthrough and breaks."""
        frontier = self.lower_expr_effects(stmt.cond, frontier, keep_value=False)
        pred = self.node(NodeKind.PREDICATE, OtherStmt("switch", reads=tuple(self._read_names(stmt.cond))), stmt.span)
        frontier = self.seq(frontier, pred)
        breaks: list[Node] = []
        self._break_stack.append(breaks)
        fall_through: list[Node] = []
        has_default = False
        for case in stmt.cases:
            case_entry = self.node(
                NodeKind.OTHER,
                OtherStmt("default:" if case.value is None else "case"),
                case.span,
            )
            pred.add_succ(case_entry)
            if case.value is None:
                has_default = True
            current = fall_through + [case_entry]
            for inner in case.body:
                current = self.lower_stmt(inner, current)
            fall_through = current
        self._break_stack.pop()
        out = breaks + fall_through
        if not has_default:
            out.append(pred)
        return out

    def lower_return(self, stmt: ast.Return, frontier: list[Node]) -> list[Node]:
        """Lower ``return`` (pointer results go through ``f$ret``)."""
        if stmt.value is not None:
            if self.info.return_slot is not None:
                slot = ObjectName(self.info.return_slot.uid)
                frontier = self.lower_assignment(
                    slot,
                    collapse_arrays(self.info.return_type),
                    stmt.value,
                    False,
                    frontier,
                    stmt.span,
                )
            else:
                frontier = self.lower_expr_effects(stmt.value, frontier, keep_value=False)
                reads = tuple(self._read_names(stmt.value))
                if reads:
                    node = self.node(
                        NodeKind.OTHER, OtherStmt("return", reads=reads), stmt.span
                    )
                    frontier = self.seq(frontier, node)
        for node in frontier:
            node.add_succ(self.exit)
        return []

    # -- expressions ---------------------------------------------------------

    def lower_expr_effects(
        self, expr: ast.Expr, frontier: list[Node], keep_value: bool = False
    ) -> list[Node]:
        """Emit nodes for all side effects of ``expr``; the value itself
        is discarded unless a sub-lowering needs it."""
        if isinstance(
            expr,
            (ast.IntLit, ast.FloatLit, ast.CharLit, ast.StringLit, ast.NullLit, ast.Ident),
        ):
            return frontier
        if isinstance(expr, ast.Assign):
            return self._lower_assign_expr(expr, frontier)[1]
        if isinstance(expr, ast.Call):
            frontier, _ = self.lower_call(expr, frontier, want_result=False)
            return frontier
        if isinstance(expr, (ast.Unary, ast.Postfix)):
            if isinstance(expr, (ast.Unary, ast.Postfix)) and expr.op in ("++", "--"):
                return self._lower_incr(expr, frontier)
            return self.lower_expr_effects(expr.operand, frontier)
        if isinstance(expr, ast.Binary):
            frontier = self.lower_expr_effects(expr.left, frontier)
            return self.lower_expr_effects(expr.right, frontier)
        if isinstance(expr, ast.Conditional):
            frontier = self.lower_expr_effects(expr.cond, frontier)
            pred = self.node(
                NodeKind.PREDICATE,
                OtherStmt("?:", reads=tuple(self._read_names(expr.cond))),
                expr.span,
            )
            frontier = self.seq(frontier, pred)
            then_out = self.lower_expr_effects(expr.then, [pred])
            else_out = self.lower_expr_effects(expr.otherwise, [pred])
            return then_out + else_out
        if isinstance(expr, ast.Comma):
            frontier = self.lower_expr_effects(expr.left, frontier)
            return self.lower_expr_effects(expr.right, frontier)
        if isinstance(expr, ast.Index):
            frontier = self.lower_expr_effects(expr.base, frontier)
            return self.lower_expr_effects(expr.index, frontier)
        if isinstance(expr, ast.Member):
            return self.lower_expr_effects(expr.base, frontier)
        if isinstance(expr, ast.SizeOf):
            return frontier
        return frontier

    def _lower_incr(self, expr, frontier: list[Node]) -> list[Node]:
        """``++``/``--``: pointer arithmetic stays inside the aggregate,
        so alias-wise this is a no-op — but the operand is both read and
        written, which client analyses (liveness, lint) must see."""
        frontier = self.lower_expr_effects(expr.operand, frontier)
        reads = tuple(self._read_names(expr.operand))
        writes = (reads[-1],) if reads else ()
        node = self.node(
            NodeKind.OTHER, OtherStmt(expr.op, writes=writes, reads=reads), expr.span
        )
        return self.seq(frontier, node)

    def _lower_assign_expr(
        self, expr: ast.Assign, frontier: list[Node]
    ) -> tuple[Optional[ObjectName], list[Node]]:
        target_type = expr.target.ctype
        assert target_type is not None, "semantic analysis must run first"
        target_type = collapse_arrays(target_type)
        if expr.op != "=" or not (
            target_type.is_pointer() or target_type.is_struct()
        ) or not target_type.has_pointers():
            # Scalar or compound assignment: no alias effect, one node —
            # but record the accessed names for client analyses.
            frontier = self.lower_expr_effects(expr.value, frontier)
            frontier, lhs_name, _ = self._lower_lvalue_effects(expr.target, frontier)
            reads = tuple(self._read_names(expr.value))
            if expr.op != "=":
                reads = reads + (lhs_name,)
            node = self.node(
                NodeKind.OTHER,
                OtherStmt("scalar-assign", writes=(lhs_name,), reads=reads),
                expr.span,
            )
            return None, self.seq(frontier, node)
        frontier, lhs, weak = self._lower_lvalue_effects(expr.target, frontier)
        frontier = self.lower_assignment(
            lhs, target_type, expr.value, weak, frontier, expr.span
        )
        return lhs, frontier

    def lower_assignment(
        self,
        lhs: ObjectName,
        lhs_type: Type,
        value: ast.Expr,
        weak: bool,
        frontier: list[Node],
        span: Span,
    ) -> list[Node]:
        """Emit the node(s) for ``lhs = value`` (pointer or struct)."""
        if lhs_type.is_struct():
            frontier, rhs = self.lower_operand(value, frontier)
            if not isinstance(rhs, NameRef):
                raise LoweringError("struct assigned from non-lvalue", span)
            paths = pointer_field_paths(lhs_type)
            for path in paths:
                node = self.node(
                    NodeKind.ASSIGN,
                    PtrAssign(lhs.extend(path), NameRef(rhs.name.extend(path)), weak),
                    span,
                )
                frontier = self.seq(frontier, node)
            if not paths:
                node = self.node(NodeKind.OTHER, OtherStmt("struct-assign"), span)
                frontier = self.seq(frontier, node)
            return frontier
        frontier, rhs = self.lower_operand(value, frontier)
        node = self.node(NodeKind.ASSIGN, PtrAssign(lhs, rhs, weak), span)
        return self.seq(frontier, node)

    def _read_names(self, expr: ast.Expr) -> list[ObjectName]:
        """Best-effort object names read by ``expr`` (for client
        analyses; side-effect-free walk, no node emission)."""
        names: list[ObjectName] = []

        def walk(node: ast.Expr) -> Optional[ObjectName]:
            if isinstance(node, ast.Ident):
                sym = node.symbol
                if isinstance(sym, Symbol):
                    name = ObjectName(sym.uid)
                    names.append(name)
                    return name
                return None
            if isinstance(node, ast.Unary) and node.op == "*":
                base = walk(node.operand)
                if base is not None:
                    name = base.deref()
                    names.append(name)
                    return name
                return None
            if isinstance(node, ast.Member):
                base = walk(node.base)
                if base is not None:
                    name = (
                        base.deref().field(node.field_name)
                        if node.arrow
                        else base.field(node.field_name)
                    )
                    names.append(name)
                    return name
                return None
            if isinstance(node, ast.Index):
                walk(node.index)
                base = walk(node.base)
                if base is not None:
                    base_type = node.base.ctype
                    name = base if base_type is not None and base_type.is_array() else base.deref()
                    names.append(name)
                    return name
                return None
            if isinstance(node, ast.Unary):
                walk(node.operand)
                return None
            if isinstance(node, ast.Binary):
                walk(node.left)
                walk(node.right)
                return None
            if isinstance(node, (ast.Assign, ast.Comma)):
                for child in (
                    (node.target, node.value)
                    if isinstance(node, ast.Assign)
                    else (node.left, node.right)
                ):
                    walk(child)
                return None
            if isinstance(node, ast.Conditional):
                walk(node.cond)
                walk(node.then)
                walk(node.otherwise)
                return None
            if isinstance(node, ast.Call):
                for arg in node.args:
                    walk(arg)
                return None
            if isinstance(node, ast.Postfix):
                walk(node.operand)
                return None
            return None

        walk(expr)
        return names

    def _lower_lvalue_effects(
        self, expr: ast.Expr, frontier: list[Node]
    ) -> tuple[list[Node], ObjectName, bool]:
        """Emit side effects inside an lvalue; return its object name and
        whether assignment through it must be weak (array aggregate)."""
        if isinstance(expr, ast.Ident):
            sym = expr.symbol
            assert isinstance(sym, Symbol)
            weak = isinstance(sym.type, ArrayType)
            return frontier, ObjectName(sym.uid), weak
        if isinstance(expr, ast.Unary) and expr.op == "*":
            frontier, operand = self.lower_operand(expr.operand, frontier)
            name, weak = self._operand_target(operand, expr.span)
            return frontier, name, weak
        if isinstance(expr, ast.Member):
            if expr.arrow:
                frontier, operand = self.lower_operand(expr.base, frontier)
                name, weak = self._operand_target(operand, expr.span)
                return frontier, name.field(expr.field_name), weak
            frontier, base, weak = self._lower_lvalue_effects(expr.base, frontier)
            return frontier, base.field(expr.field_name), weak
        if isinstance(expr, ast.Index):
            frontier = self.lower_expr_effects(expr.index, frontier)
            base_type = expr.base.ctype
            assert base_type is not None
            if isinstance(base_type, ArrayType):
                # a[i] is the aggregate a; always weak.
                frontier, base, _ = self._lower_lvalue_effects(expr.base, frontier)
                return frontier, base, True
            # p[i] is *(p+i): the aggregate *p; weak.
            frontier, operand = self.lower_operand(expr.base, frontier)
            name, _ = self._operand_target(operand, expr.span)
            return frontier, name, True
        raise LoweringError(
            f"{type(expr).__name__} is not a MiniC lvalue", expr.span
        )

    def _operand_target(self, operand: Operand, span: Span) -> tuple[ObjectName, bool]:
        """The object name ``*operand`` denotes (used to build lvalues)."""
        if isinstance(operand, NameRef):
            return operand.name.deref(), False
        if isinstance(operand, AddrOf):
            return operand.name, False
        raise LoweringError("dereference of a pointer-free value", span)

    def lower_operand(
        self, expr: ast.Expr, frontier: list[Node]
    ) -> tuple[list[Node], Operand]:
        """Normalize ``expr`` (in a pointer-value context) to an operand,
        emitting any prerequisite nodes."""
        if isinstance(expr, (ast.NullLit,)):
            return frontier, Opaque("NULL")
        if isinstance(expr, ast.IntLit):
            return frontier, Opaque(str(expr.value))
        if isinstance(expr, (ast.FloatLit, ast.CharLit, ast.SizeOf)):
            return frontier, Opaque("scalar")
        if isinstance(expr, ast.StringLit):
            return frontier, AddrOf(ObjectName(self.owner.string_literal_uid(expr.value)))
        if isinstance(expr, ast.Ident):
            sym = expr.symbol
            assert isinstance(sym, Symbol)
            if isinstance(sym.type, ArrayType):
                # Array-to-pointer decay: the value of an array name is
                # the address of the aggregate object.
                return frontier, AddrOf(ObjectName(sym.uid))
            return frontier, NameRef(ObjectName(sym.uid))
        if isinstance(expr, ast.Unary) and expr.op == "&":
            frontier, name, _ = self._lower_lvalue_effects(expr.operand, frontier)
            return frontier, AddrOf(name)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            frontier, inner = self.lower_operand(expr.operand, frontier)
            name, _ = self._operand_target(inner, expr.span)
            return frontier, NameRef(name)
        if isinstance(expr, (ast.Member, ast.Index)):
            frontier, name, _ = self._lower_lvalue_effects(expr, frontier)
            if expr.ctype is not None and expr.ctype.is_array():
                return frontier, AddrOf(name)  # decay of an array member
            return frontier, NameRef(name)
        if isinstance(expr, ast.Call):
            return self._lower_call_operand(expr, frontier)
        if isinstance(expr, ast.Assign):
            lhs, frontier = self._lower_assign_expr(expr, frontier)
            if lhs is None:
                return frontier, Opaque("scalar")
            return frontier, NameRef(lhs)
        if isinstance(expr, ast.Binary):
            return self._lower_pointer_arith(expr, frontier)
        if isinstance(expr, ast.Conditional):
            return self._lower_conditional_operand(expr, frontier)
        if isinstance(expr, ast.Comma):
            frontier = self.lower_expr_effects(expr.left, frontier)
            return self.lower_operand(expr.right, frontier)
        if isinstance(expr, (ast.Unary, ast.Postfix)):
            frontier = self.lower_expr_effects(expr, frontier)
            ctype = expr.ctype
            if ctype is not None and collapse_arrays(ctype).is_pointer() and isinstance(
                expr, (ast.Unary, ast.Postfix)
            ) and expr.op in ("++", "--"):
                # (p++) evaluates to p (same aggregate).
                inner_frontier, inner = self.lower_operand(expr.operand, frontier)
                return inner_frontier, inner
            return frontier, Opaque("scalar")
        raise LoweringError(
            f"cannot use {type(expr).__name__} as a pointer value", expr.span
        )

    def _lower_pointer_arith(
        self, expr: ast.Binary, frontier: list[Node]
    ) -> tuple[list[Node], Operand]:
        """Pointer +/- integer stays within the aggregate; the result is
        the pointer operand itself."""
        left_type = expr.left.ctype
        left_is_ptr = left_type is not None and (
            isinstance(left_type, (PointerType, ArrayType))
            or collapse_arrays(left_type).decayed().is_pointer()
        )
        if left_is_ptr:
            frontier = self.lower_expr_effects(expr.right, frontier)
            return self.lower_operand(expr.left, frontier)
        frontier = self.lower_expr_effects(expr.left, frontier)
        return self.lower_operand(expr.right, frontier)

    def _lower_conditional_operand(
        self, expr: ast.Conditional, frontier: list[Node]
    ) -> tuple[list[Node], Operand]:
        """``c ? a : b`` with pointer type: lower to a diamond storing
        into a temporary."""
        ctype = expr.ctype or expr.then.ctype
        assert ctype is not None
        temp = self.fresh_temp(collapse_arrays(ctype).decayed())
        temp_name = ObjectName(temp.uid)
        frontier = self.lower_expr_effects(expr.cond, frontier)
        pred = self.node(
            NodeKind.PREDICATE,
            OtherStmt("?:", reads=tuple(self._read_names(expr.cond))),
            expr.span,
        )
        frontier = self.seq(frontier, pred)
        then_front, then_rhs = self.lower_operand(expr.then, [pred])
        then_node = self.node(NodeKind.ASSIGN, PtrAssign(temp_name, then_rhs), expr.span)
        then_front = self.seq(then_front, then_node)
        else_front, else_rhs = self.lower_operand(expr.otherwise, [pred])
        else_node = self.node(NodeKind.ASSIGN, PtrAssign(temp_name, else_rhs), expr.span)
        else_front = self.seq(else_front, else_node)
        return then_front + else_front, NameRef(temp_name)

    def _lower_call_operand(
        self, expr: ast.Call, frontier: list[Node]
    ) -> tuple[list[Node], Operand]:
        if expr.callee in ALLOCATOR_NAMES:
            for arg in expr.args:
                frontier = self.lower_expr_effects(arg, frontier)
            return frontier, Opaque(expr.callee)
        frontier, result = self.lower_call(expr, frontier, want_result=True)
        if result is None:
            return frontier, Opaque("scalar")
        return frontier, result

    def lower_call(
        self, expr: ast.Call, frontier: list[Node], want_result: bool
    ) -> tuple[list[Node], Optional[Operand]]:
        """Emit arg-evaluation, CALL and RETURN nodes; optionally copy
        the callee's return slot into a fresh temporary."""
        symbols = self.owner.analyzed.symbols
        if not symbols.has_function(expr.callee) or expr.callee not in self.owner.defined_functions:
            # External (or declared-but-undefined): must be alias-free.
            if symbols.has_function(expr.callee):
                info = symbols.function(expr.callee)
                has_ptr = any(
                    collapse_arrays(p.type).decayed().has_pointers() for p in info.params
                ) or info.return_slot is not None
                if has_ptr:
                    raise LoweringError(
                        f"call to declared-but-undefined function "
                        f"{expr.callee!r} involving pointers; provide a body",
                        expr.span,
                    )
            for arg in expr.args:
                frontier = self.lower_expr_effects(arg, frontier)
            node = self.node(NodeKind.OTHER, OtherStmt(f"call {expr.callee}"), expr.span)
            return self.seq(frontier, node), None
        info = symbols.function(expr.callee)
        operands: list[Operand] = []
        scalar_reads: list[ObjectName] = []
        for arg, param in zip(expr.args, info.params):
            ptype = collapse_arrays(param.type).decayed()
            if ptype.has_pointers():
                frontier, operand = self.lower_operand(arg, frontier)
            else:
                frontier = self.lower_expr_effects(arg, frontier)
                operand = Opaque("scalar")
                scalar_reads.extend(self._read_names(arg))
            operands.append(operand)
        call = self.node(
            NodeKind.CALL,
            CallInfo(expr.callee, tuple(operands), tuple(scalar_reads)),
            expr.span,
        )
        ret = self.node(NodeKind.RETURN, None, expr.span)
        call.callee = expr.callee
        ret.callee = expr.callee
        call.paired_return = ret
        ret.paired_call = call
        self.owner.call_site_nodes[id(expr)] = (call, ret)
        frontier = self.seq(frontier, call)
        # Deliberately no call->return edge; link_calls wires
        # call->entry and exit->return.
        frontier = [ret]
        if want_result and info.return_slot is not None:
            temp = self.fresh_temp(collapse_arrays(info.return_type))
            temp_name = ObjectName(temp.uid)
            if collapse_arrays(info.return_type).is_struct():
                out: list[Node] = frontier
                for path in pointer_field_paths(info.return_type):
                    node = self.node(
                        NodeKind.ASSIGN,
                        PtrAssign(
                            temp_name.extend(path),
                            NameRef(ObjectName(info.return_slot.uid).extend(path)),
                        ),
                        expr.span,
                    )
                    out = self.seq(out, node)
                return out, NameRef(temp_name)
            node = self.node(
                NodeKind.ASSIGN,
                PtrAssign(temp_name, NameRef(ObjectName(info.return_slot.uid))),
                expr.span,
            )
            return self.seq(frontier, node), NameRef(temp_name)
        if want_result:
            return frontier, None
        return frontier, None


class IcfgBuilder:
    """Builds the whole-program ICFG from an analyzed program."""

    def __init__(self, analyzed: AnalyzedProgram, entry_proc: str = "main") -> None:
        self.analyzed = analyzed
        self.icfg = ICFG(entry_proc)
        self.stmt_end_nodes: dict[int, Optional[Node]] = {}
        #: id(ast.Call) -> (CALL node, RETURN node) for defined callees;
        #: the interpreter observes aliases at both sides of the bind.
        self.call_site_nodes: dict[int, tuple[Node, Node]] = {}
        self._string_uids: dict[str, str] = {}
        self.defined_functions = {fn.name for fn in analyzed.functions}

    def string_literal_uid(self, value: str) -> str:
        """The synthetic global backing a string literal (interned)."""
        uid = self._string_uids.get(value)
        if uid is None:
            synthetic = f"$str{len(self._string_uids)}"
            sym = self.analyzed.symbols.add_global(synthetic, ArrayType(scalar("char"), None))
            uid = sym.uid
            self._string_uids[value] = uid
        return uid

    def build(self) -> ICFG:
        """Build and validate the whole-program ICFG."""
        entry_name = self.icfg.entry_proc
        for fn in self.analyzed.functions:
            lowerer = _FunctionLowerer(self, fn)
            preamble: list[Node] = []
            if fn.name == entry_name:
                preamble = self._global_init_nodes(lowerer)
            proc = lowerer.lower(preamble)
            self.icfg.add_proc(proc)
        self.icfg.link_calls()
        self.icfg.validate()
        self.icfg.string_literals = tuple(self._string_uids)
        return self.icfg

    def _global_init_nodes(self, lowerer: _FunctionLowerer) -> list[Node]:
        """Global initializers run before main's body (C semantics allow
        only constant initializers; we accept the same shapes the parser
        does and lower pointer initializers as assignments)."""
        nodes: list[Node] = []
        for decl in self.analyzed.ast.globals:
            if decl.init is None:
                continue
            sym = self.analyzed.symbols.globals.get(decl.name)
            if sym is None:
                continue
            gtype = collapse_arrays(sym.type)
            if not gtype.has_pointers():
                continue
            target = ObjectName(sym.uid)
            frontier, rhs = lowerer.lower_operand(decl.init, [])
            if frontier:
                raise LoweringError(
                    "global initializer requires run-time evaluation", decl.span
                )
            node = lowerer.node(NodeKind.ASSIGN, PtrAssign(target, rhs), decl.span)
            nodes.append(node)
        return nodes


def build_icfg(analyzed: AnalyzedProgram, entry_proc: str = "main") -> ICFG:
    """Build the ICFG for ``analyzed`` (convenience wrapper)."""
    return IcfgBuilder(analyzed, entry_proc).build()
