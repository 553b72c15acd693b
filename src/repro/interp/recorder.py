"""Run-time alias observation and soundness checking.

After each observed statement the recorder enumerates every object
name reachable from the live variable roots (up to a dereference
budget), maps names to concrete storage cells, and derives the alias
pairs that *actually hold* at that moment.  A sound static solution
must contain every observed pair at the corresponding ICFG node —
this is the dynamic validation used by the property test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..core.solution import MayAliasSolution
from ..icfg.ir import Node
from ..names.alias_pairs import AliasPair
from ..names.object_names import ObjectName, is_nonvisible_based
from .memory import Memory, Obj


def enumerate_names(
    memory: Memory, max_derefs: int
) -> Iterator[tuple[ObjectName, Obj]]:
    """All (object name, cell) pairs reachable from the live roots with
    at most ``max_derefs`` dereferences."""
    for uid, root in memory.live_roots().items():
        yield from _walk(ObjectName(uid), root, max_derefs)


def _walk(
    name: ObjectName, obj: Obj, budget: int
) -> Iterator[tuple[ObjectName, Obj]]:
    yield name, obj
    if obj.is_struct:
        assert obj.fields is not None
        for fname, cell in obj.fields.items():
            yield from _walk(name.field(fname), cell, budget)
    elif isinstance(obj.value, Obj) and budget > 0:
        yield from _walk(name.deref(), obj.value, budget - 1)


def observed_aliases(memory: Memory, max_derefs: int) -> set[AliasPair]:
    """Alias pairs that hold right now: distinct names, same cell."""
    by_cell: dict[int, list[ObjectName]] = {}
    for name, obj in enumerate_names(memory, max_derefs):
        by_cell.setdefault(obj.oid, []).append(name)
    pairs: set[AliasPair] = set()
    for names in by_cell.values():
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                pair = AliasPair(a, b)
                if not pair.is_trivial:
                    pairs.add(pair)
    return pairs


@dataclass(slots=True)
class SoundnessViolation:
    """One observed alias missing from the static solution."""
    node: Node
    pair: AliasPair

    def __str__(self) -> str:
        return f"missing alias {self.pair} at n{self.node.nid} [{self.node.label()}]"


@dataclass(slots=True)
class SoundnessReport:
    """Result of validating one execution against a static solution."""

    checked_nodes: int = 0
    checked_pairs: int = 0
    violations: list[SoundnessViolation] = field(default_factory=list)
    #: observation counts per NodeKind name (ASSIGN, CALL, RETURN,
    #: ENTRY, EXIT, ...) — lets tests assert the oracle actually covers
    #: the bind/back-bind edges, not just statement nodes.
    checked_by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No violations recorded."""
        return not self.violations

    def merge(self, other: "SoundnessReport") -> None:
        """Fold another run's counts and violations into this report."""
        self.checked_nodes += other.checked_nodes
        self.checked_pairs += other.checked_pairs
        self.violations.extend(other.violations)
        for kind, count in other.checked_by_kind.items():
            self.checked_by_kind[kind] = self.checked_by_kind.get(kind, 0) + count


class SoundnessChecker:
    """Observer asserting observed aliases are statically predicted.

    The static solution speaks the paper's language: at a node of
    procedure ``P`` it tracks aliases among names *visible in P*
    (globals plus P's own variables), with every non-visible name
    compressed into the ``nonvisible`` token.  The checker therefore

    * checks pairs of P-visible names directly,
    * checks (visible, non-visible) pairs against the node's
      nonvisible-bearing facts, and
    * skips pairs of two non-visible names (they are validated at the
      caller's own nodes, where both names are visible).
    """

    def __init__(self, solution: MayAliasSolution, max_derefs: Optional[int] = None) -> None:
        self.solution = solution
        self.max_derefs = max_derefs if max_derefs is not None else solution.k + 1
        self.report = SoundnessReport()

    def _visible_at(self, name: ObjectName, proc: str) -> bool:
        sym = self.solution.ctx.base_symbol(name)
        if sym is None:
            return False
        return sym.is_global or sym.proc == proc

    def _nonvisible_covered(self, node: Node, visible: ObjectName) -> bool:
        """Is ``visible`` paired with the nonvisible token at ``node``
        (exactly or through a truncated representative)?"""
        return any(
            is_nonvisible_based(name)
            for name in self.solution.may_alias_names(node, visible)
        )

    def check_observed(self, node: Node, pairs: set[AliasPair]) -> None:
        """Check one node's observed alias set against the solution
        (also used by the dynamic oracle, which batches observations
        across runs before checking)."""
        self.report.checked_nodes += 1
        kind = node.kind.name
        self.report.checked_by_kind[kind] = (
            self.report.checked_by_kind.get(kind, 0) + 1
        )
        for pair in pairs:
            vis_first = self._visible_at(pair.first, node.proc)
            vis_second = self._visible_at(pair.second, node.proc)
            if not vis_first and not vis_second:
                continue
            self.report.checked_pairs += 1
            if vis_first and vis_second:
                ok = self.solution.alias_query(node, pair.first, pair.second)
            else:
                visible = pair.first if vis_first else pair.second
                ok = self._nonvisible_covered(node, visible)
            if not ok:
                self.report.violations.append(SoundnessViolation(node, pair))

    def __call__(self, node: Node, memory: Memory) -> None:
        self.check_observed(node, observed_aliases(memory, self.max_derefs))


def make_observed_interpreter(
    analyzed,
    builder,
    icfg,
    observer: Optional[object] = None,
    fuel: int = 100_000,
    extern_values: Optional[list[int]] = None,
    scalar_global_values: Optional[dict[str, int]] = None,
    event_log=None,
):
    """An :class:`Interpreter` wired for full-coverage observation:
    statement end nodes plus CALL/RETURN/ENTRY/EXIT nodes.  Shared by
    :func:`validate_soundness` and the dynamic oracle."""
    from .interpreter import Interpreter

    proc_nodes = {
        name: (proc.entry, proc.exit) for name, proc in icfg.procs.items()
    }
    return Interpreter(
        analyzed,
        stmt_end_nodes=builder.stmt_end_nodes,
        observer=observer,
        fuel=fuel,
        extern_values=extern_values,
        string_uids=dict(builder._string_uids),
        call_site_nodes=builder.call_site_nodes,
        proc_nodes=proc_nodes,
        scalar_global_values=scalar_global_values,
        event_log=event_log,
    )


def validate_soundness(
    source: str,
    k: int = 3,
    fuel: int = 100_000,
    extern_values: Optional[list[int]] = None,
    max_facts: Optional[int] = 2_000_000,
    scalar_global_values: Optional[dict[str, int]] = None,
) -> SoundnessReport:
    """End-to-end dynamic validation of the analysis on ``source``:
    parse, analyze, execute, and check every observed alias.  Raises
    RuntimeError when the static analysis exceeds ``max_facts``."""
    from ..core.analysis import analyze_program
    from ..frontend.semantics import parse_and_analyze
    from ..icfg.builder import IcfgBuilder

    analyzed = parse_and_analyze(source)
    builder = IcfgBuilder(analyzed)
    icfg = builder.build()
    solution = analyze_program(analyzed, icfg, k=k, max_facts=max_facts)
    checker = SoundnessChecker(solution)
    interp = make_observed_interpreter(
        analyzed,
        builder,
        icfg,
        observer=checker,
        fuel=fuel,
        extern_values=extern_values,
        scalar_global_values=scalar_global_values,
    )
    interp.run()
    return checker.report
