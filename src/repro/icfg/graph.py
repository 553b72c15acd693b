"""The interprocedural control flow graph (paper §3, Figure 1).

An ICFG is the union of statement-level CFGs for each procedure,
augmented with ``entry``/``exit``/``call``/``return`` nodes.  Call
nodes are connected to the entry nodes of the procedures they invoke;
exit nodes are connected to the return nodes corresponding to those
calls.  There is *no* direct call→return edge: information flows
around a call only via the rules at call/exit nodes, which is exactly
what makes paths *realizable*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .ir import Node, NodeKind


@dataclass(slots=True)
class ProcGraph:
    """The per-procedure slice of the ICFG."""

    name: str
    entry: Node
    exit: Node
    nodes: list[Node] = field(default_factory=list)


class ICFG:
    """Whole-program graph plus indexes used by the analysis."""

    def __init__(self, entry_proc: str = "main") -> None:
        self.entry_proc = entry_proc
        self.nodes: list[Node] = []
        self.procs: dict[str, ProcGraph] = {}
        #: Each string literal's value, in the order of the ``$strN``
        #: globals the builder numbers them with.
        self.string_literals: tuple[str, ...] = ()
        self._next_id = 0

    # -- construction ---------------------------------------------------------

    def new_node(self, kind: NodeKind, proc: str, stmt=None, span=None) -> Node:
        """Allocate the next node id and register the node."""
        node = Node(self._next_id, kind, proc, stmt)
        if span is not None:
            node.span = span
        self._next_id += 1
        self.nodes.append(node)
        return node

    def add_proc(self, proc: ProcGraph) -> None:
        """Register a procedure's graph slice."""
        self.procs[proc.name] = proc

    def link_calls(self) -> None:
        """Wire call→entry and exit→return edges for every call site."""
        for node in self.nodes:
            if node.kind is not NodeKind.CALL:
                continue
            callee = self.procs.get(node.callee or "")
            if callee is None:
                continue  # external; the builder ensures these are benign
            node.add_succ(callee.entry)
            assert node.paired_return is not None
            callee.exit.add_succ(node.paired_return)

    # -- queries ---------------------------------------------------------------

    @property
    def main(self) -> ProcGraph:
        """The entry procedure's graph."""
        return self.procs[self.entry_proc]

    def proc_of(self, node: Node) -> ProcGraph:
        """The procedure graph containing ``node``."""
        return self.procs[node.proc]

    def entry_of(self, proc_name: str) -> Node:
        """The ENTRY node of ``proc_name``."""
        return self.procs[proc_name].entry

    def exit_of(self, proc_name: str) -> Node:
        """The EXIT node of ``proc_name``."""
        return self.procs[proc_name].exit

    def call_sites(self, callee: str) -> Iterator[Node]:
        """All CALL nodes that invoke ``callee``."""
        for node in self.nodes:
            if node.kind is NodeKind.CALL and node.callee == callee:
                yield node

    def node(self, nid: int) -> Node:
        """The node with id ``nid``."""
        return self.nodes[nid]

    def __len__(self) -> int:
        return len(self.nodes)

    def pointer_assignments(self) -> Iterator[Node]:
        """All normalized pointer-assignment nodes."""
        for node in self.nodes:
            if node.is_pointer_assignment:
                yield node

    def reachable_procs(self) -> set[str]:
        """Procedures reachable from the entry procedure's call sites."""
        seen: set[str] = set()
        work = [self.entry_proc]
        while work:
            name = work.pop()
            if name in seen or name not in self.procs:
                continue
            seen.add(name)
            for node in self.procs[name].nodes:
                if node.kind is NodeKind.CALL and node.callee:
                    work.append(node.callee)
        return seen

    def validate(self) -> None:
        """Structural sanity checks; raises AssertionError on violation."""
        for node in self.nodes:
            for succ in node.succs:
                assert node in succ.preds, f"broken edge {node} -> {succ}"
            if node.kind is NodeKind.CALL and node.callee in self.procs:
                assert node.paired_return is not None, f"{node} has no return"
                assert node.paired_return.paired_call is node
        for proc in self.procs.values():
            assert proc.entry.kind is NodeKind.ENTRY
            assert proc.exit.kind is NodeKind.EXIT
