"""Query layer over a completed may-hold computation.

``may_alias(n) = { PA | exists AA with may_hold[(n, AA), PA] }`` — the
paper notes this is computable in time linear in the may-hold solution.
Point questions (``alias_query``, ``may_alias_names``) probe the store's
per-node name index instead; the derived quantities the evaluation
section reports — *program aliases* (Table 1), per-node alias counts and
the ``%YES_k`` precision measure (Table 2 / Figure 5) — come from one
pass over the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..icfg.graph import ICFG
from ..icfg.ir import Node
from ..names.alias_pairs import AliasPair, pair_represented
from ..names.context import NameContext
from ..names.object_names import ObjectName, representatives
from .metrics import BudgetOutcome, EngineReport, PhaseTimer
from .store import MayHoldStore, PairCounts

STATS_SCHEMA = "repro-stats/1"


@dataclass(slots=True)
class SolutionStats:
    """Aggregate numbers in the shape the paper reports, plus the
    engine/observability layer added on top (phase wall times, worklist
    counters, budget outcome)."""

    icfg_nodes: int
    may_hold_facts: int
    node_alias_count: int  # |{(node, PA)}| summed over nodes
    program_alias_count: int
    percent_yes: float
    analysis_seconds: float = 0.0
    engine: EngineReport = field(default_factory=EngineReport)
    phases: dict[str, float] = field(default_factory=dict)
    budget: BudgetOutcome = field(default_factory=BudgetOutcome)


class MayAliasSolution:
    """The result of running the Landi/Ryder analysis."""

    def __init__(
        self,
        icfg: ICFG,
        store: MayHoldStore,
        ctx: NameContext,
        k: int,
        analysis_seconds: float = 0.0,
        engine: Optional[EngineReport] = None,
        phases: Optional[PhaseTimer] = None,
        budget: Optional[BudgetOutcome] = None,
    ) -> None:
        self.icfg = icfg
        self.store = store
        self.ctx = ctx
        self.k = k
        self.analysis_seconds = analysis_seconds
        self.engine = engine if engine is not None else EngineReport()
        self.phases = phases if phases is not None else PhaseTimer()
        self.budget = budget if budget is not None else BudgetOutcome()

    @property
    def complete(self) -> bool:
        """False when a budget truncated the run (partial solution)."""
        return not self.budget.exceeded

    # -- core queries -----------------------------------------------------------
    #
    # A query touches only the name-index buckets of the names it asks
    # about and their truncated representatives, however many facts the
    # node holds.

    def may_alias(self, node: Node | int) -> set[AliasPair]:
        """All alias pairs that may hold immediately after ``node``."""
        nid = node if isinstance(node, int) else node.nid
        return self.store.pairs_at(nid)

    def exact_partners(self, node: Node | int, name: ObjectName) -> set[ObjectName]:
        """Names stored in a pair with exactly ``name`` at ``node`` (no
        representative widening)."""
        nid = node if isinstance(node, int) else node.nid
        return self.store.partners(nid, name)

    def may_alias_names(self, node: Node | int, name: ObjectName) -> set[ObjectName]:
        """Names possibly aliased to ``name`` at ``node``: the exact
        partners of every representative of ``name``, since a stored
        truncated name stands for ``name`` too.  Each returned name is
        one ``alias_query`` accepts, and every name it accepts has a
        representative here."""
        nid = node if isinstance(node, int) else node.nid
        out: set[ObjectName] = set()
        for rep in representatives(name):
            out |= self.store.partners(nid, rep)
        return out

    def alias_query(self, node: Node | int, a: ObjectName, b: ObjectName) -> bool:
        """May ``a`` and ``b`` be aliases at ``node``?  Honors the
        k-limited-representative convention: a truncated pair member
        represents all of its extensions."""
        nid = node if isinstance(node, int) else node.nid
        partners = self.store.partners
        return pair_represented(lambda name: partners(nid, name), a, b)

    def program_aliases(self, include_nonvisible: bool = False) -> set[AliasPair]:
        """Paper Table 1: ``{(a, b) | exists ICFG node n with
        (a, b) in may_alias(n)}``."""
        return _program_aliases(self.store.pair_counts(), include_nonvisible)

    def node_pairs(self) -> Iterator[tuple[int, AliasPair]]:
        """Distinct (node, pair) combinations."""
        for node in self.icfg.nodes:
            for pair in self.store.pairs_at(node.nid):
                yield node.nid, pair

    # -- precision (Figure 5) -------------------------------------------------------

    def percent_yes(self) -> float:
        """``%YES_k``: the percentage of (node, PA) facts with at least
        one derivation free of type-2/3/4 approximations.  The paper
        proves %YES_k(P) <= 100 * (1 / precision_k(landi, P)), i.e. this
        is a lower bound on true precision."""
        return _percent_yes(self.store.pair_counts())

    # -- reporting --------------------------------------------------------------------

    def stats(self) -> SolutionStats:
        """Aggregate numbers in the shape the paper reports (one pass
        over the store)."""
        counts = self.store.pair_counts()
        return SolutionStats(
            icfg_nodes=len(self.icfg),
            may_hold_facts=len(self.store),
            node_alias_count=counts.node_pairs,
            program_alias_count=len(_program_aliases(counts, False)),
            percent_yes=_percent_yes(counts),
            analysis_seconds=self.analysis_seconds,
            engine=self.engine,
            phases=self.phases.as_dict(),
            budget=self.budget,
        )

    def stats_dict(self) -> dict:
        """The full ``repro-stats/1`` document (see docs/API.md):
        phase wall times, engine counters, solution aggregates and the
        budget outcome, all JSON-serializable."""
        stats = self.stats()
        return {
            "schema": STATS_SCHEMA,
            "k": self.k,
            "phases": stats.phases,
            "engine": stats.engine.as_dict(),
            "solution": {
                "icfg_nodes": stats.icfg_nodes,
                "may_hold_facts": stats.may_hold_facts,
                "node_alias_count": stats.node_alias_count,
                "program_alias_count": stats.program_alias_count,
                "percent_yes": stats.percent_yes,
                "analysis_seconds": stats.analysis_seconds,
            },
            "budget": stats.budget.as_dict(),
        }

    def render_node_report(self, node: Node | int, limit: Optional[int] = None) -> str:
        """Human-readable alias list for one node (debugging aid)."""
        nid = node if isinstance(node, int) else node.nid
        actual = self.icfg.node(nid)
        pairs = sorted(str(p) for p in self.may_alias(nid))
        if limit is not None:
            pairs = pairs[:limit]
        lines = [f"n{nid} [{actual.label()}]:"]
        lines.extend(f"  {p}" for p in pairs)
        return "\n".join(lines)


def _program_aliases(counts: PairCounts, include_nonvisible: bool) -> set[AliasPair]:
    if include_nonvisible:
        return set(counts.pairs)
    return {pair for pair in counts.pairs if not pair.has_nonvisible}


def _percent_yes(counts: PairCounts) -> float:
    if not counts.node_pairs:
        # Zero-alias program: vacuously precise (and the 0/0 ratio
        # would otherwise be nan).
        return 100.0
    return max(
        0.0, min(100.0, 100.0 * counts.clean_node_pairs / counts.node_pairs)
    )
