"""The summary engine's whole-program store: one segment per procedure.

The facts at a procedure's own nodes come from its restricted kernel
alone, and the summary entry key of the procedure's last drain fixes
that kernel's state — the per-procedure cache stores one state per key
and replays it as the drain's result (:mod:`repro.summaries.envelope`).
So the store is a sequence of per-procedure *segments*, in the
coordinator's bottom-up order.  A segment is a
:class:`~repro.core.columns.ColumnStore` of one procedure's facts at its
own nodes, indexed by the node's position in that procedure (the
``("p", position)`` tokens of the portable state).  The key fixes the
positions too: it covers the procedure's text and the environment text,
which names every function declared without a body and every string
literal, the two things outside the procedure that change how its
statements are lowered.  A later solve whose procedure ends on the same
key reuses the segment as it is; that is exactly as safe as a cache hit
on that key, so an edit builds segments only for the procedures whose
inputs it changed.

The store answers the query surface :class:`~repro.core.solution.
MayAliasSolution` reads — ``pairs_at``, ``partners``, ``pair_counts``,
``len``, ``facts`` — through the segment of the node's owning
procedure.  ``facts()`` yields the rows a single merged kernel would
hold, in the same order: each procedure's own facts in its kernel's
insertion order, procedures in bottom-up order.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..core.columns import ColumnStore, pack_columns
from ..core.kernel import KernelAnalysis
from ..core.store import PairCounts
from ..frontend.semantics import AnalyzedProgram
from ..icfg.graph import ICFG
from ..names.alias_pairs import AliasPair
from ..names.object_names import ObjectName


class SegmentStore:
    """The summary engine's whole-program store: each procedure's
    segment, in bottom-up order, read through the node's owning
    procedure."""

    __slots__ = ("analyzed", "icfg", "k", "segments", "_nids", "_where")

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        icfg: ICFG,
        k: int,
        segments: dict[str, ColumnStore],
    ) -> None:
        self.analyzed = analyzed
        self.icfg = icfg
        self.k = k
        self.segments = segments
        # proc -> its node ids in position order; node id -> (proc,
        # position) for every node of a procedure with a segment.
        self._nids = {
            proc: [node.nid for node in icfg.procs[proc].nodes]
            for proc in segments
        }
        where: list[Optional[tuple[str, int]]] = [None] * len(icfg.nodes)
        for proc, nids in self._nids.items():
            for pos, nid in enumerate(nids):
                where[nid] = (proc, pos)
        self._where = where

    def __len__(self) -> int:
        return sum(len(segment) for segment in self.segments.values())

    def pairs_at(self, nid: int) -> set[AliasPair]:
        found = self._where[nid]
        if found is None:
            return set()
        proc, pos = found
        return self.segments[proc].pairs_at(pos)

    def partners(self, nid: int, name: ObjectName) -> set[ObjectName]:
        found = self._where[nid]
        if found is None:
            return set()
        proc, pos = found
        return self.segments[proc].partners(pos, name)

    def pair_counts(self) -> PairCounts:
        """The sums of the segments' counts: their node sets are
        disjoint, so only the distinct pairs need a union."""
        counts = [segment.pair_counts() for segment in self.segments.values()]
        return PairCounts(
            sum(c.node_pairs for c in counts),
            sum(c.clean_node_pairs for c in counts),
            set().union(*(c.pairs for c in counts)),
        )

    def facts(self) -> Iterator[tuple[tuple, bool]]:
        """Every (triple, taint) item: each procedure's own facts in
        its kernel's insertion order, procedures in bottom-up order."""
        for proc, segment in self.segments.items():
            yield from segment.facts(self._nids[proc])

    def facts_json(self) -> list[dict]:
        """The per-fact dicts of :func:`repro.io.solution_to_dict`, in
        :meth:`facts` order, each pair encoded once per store."""
        pair_json: dict[AliasPair, list] = {}
        out: list[dict] = []
        for proc, segment in self.segments.items():
            out.extend(segment.facts_json(self._nids[proc], pair_json))
        return out

    def packed_json(self) -> dict:
        """The ``kernel-packed/1`` payload (what the result cache stores
        for a summary solution) of one query-only kernel that replays
        every segment's rows, procedures in order."""
        kernel = KernelAnalysis(
            self.analyzed, self.icfg, k=self.k, owned_nodes=frozenset()
        )
        for proc, segment in self.segments.items():
            kernel.absorb(segment.own_columns(self._nids[proc]))
        return pack_columns(kernel.columns())

    def taint_all(self) -> int:
        """Demote every fact (a budget-partial solve).  Each segment is
        replaced by a demoted copy, never changed."""
        demoted = 0
        for proc, segment in self.segments.items():
            self.segments[proc], clean = segment.demoted()
            demoted += clean
        return demoted
