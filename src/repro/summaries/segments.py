"""The summary engine's whole-program store: one segment per procedure.

The facts at a procedure's own nodes come from its restricted kernel
alone, and the summary entry key of the procedure's last drain fixes
that kernel's state — the per-procedure cache stores one state per key
and replays it as the drain's result (:mod:`repro.summaries.envelope`).
So the store is a sequence of per-procedure *segments*, in the
coordinator's bottom-up order.  A segment holds one procedure's facts
at its own nodes, indexed by the node's position in that procedure (the
``("p", position)`` tokens of the portable state), and counts its pairs
once, when it is built.  The key fixes the positions too: it covers the
procedure's text and the environment text, which names every function
declared without a body, the one thing outside the procedure that
changes how its calls are lowered.  A later solve whose procedure ends
on the same key reuses the segment as it is; that is exactly as safe as
a cache hit on that key, so an edit builds segments only for the
procedures whose inputs it changed.

The store answers the query surface :class:`~repro.core.solution.
MayAliasSolution` reads — ``pairs_at``, ``partners``, ``pair_counts``,
``len``, ``facts`` — through the segment of the node's owning
procedure.  ``facts()`` yields the rows a single merged kernel would
hold, in the same order: each procedure's own facts in its kernel's
insertion order, procedures in bottom-up order.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator, Optional, Sequence

from ..core.kernel import _SHIFT, FactColumns, KernelAnalysis, node_partners
from ..core.store import PairCounts
from ..frontend.semantics import AnalyzedProgram
from ..icfg.graph import ICFG
from ..names.alias_pairs import AliasPair
from ..names.object_names import ObjectName


class Segment:
    """One procedure's facts at its own nodes, by node position.

    ``columns`` are the procedure kernel's tables and fact rows, in the
    node-id frame of the solve that built the segment; ``pos_of`` maps
    that frame's own node ids to positions, and rows at any other node
    (the kernel's copies of callee entry seeds and exit facts) are not
    the procedure's and are skipped.  ``by_pos`` and ``by_name`` are the
    kernel's per-node entry lists and name index at each position.  A
    segment is never changed once built (:meth:`demoted` makes a new
    one), so two solutions can share it."""

    __slots__ = (
        "key",
        "columns",
        "name_ids",
        "pos_of",
        "by_pos",
        "by_name",
        "size",
        "counts",
        "__weakref__",
    )

    def __init__(
        self,
        key: Optional[str],
        columns: FactColumns,
        name_ids: dict[ObjectName, int],
        pos_of: dict[int, int],
        by_pos: list[list[int]],
        by_name: list[dict[int, list[int]]],
    ) -> None:
        self.key = key
        self.columns = columns
        self.name_ids = name_ids
        self.pos_of = pos_of
        self.by_pos = by_pos
        self.by_name = by_name
        own = bytes(map(pos_of.__contains__, columns.fact_node))
        rows = list(compress(zip(columns.fact_node, columns.fact_entry), own))
        entry_pair = columns.entry_pair
        node_pairs = {(entry_pair[e] << _SHIFT) | node for node, e in rows}
        clean = {
            (entry_pair[e] << _SHIFT) | node
            for node, e in compress(rows, compress(columns.taint, own))
        }
        pairs = columns.pairs
        self.size = len(rows)
        self.counts = PairCounts(
            len(node_pairs),
            len(clean),
            {pairs[pid] for pid in {key >> _SHIFT for key in node_pairs}},
        )

    @classmethod
    def of_kernel(
        cls, key: Optional[str], kernel: KernelAnalysis, nids: Sequence[int]
    ) -> "Segment":
        """The segment of a live procedure kernel whose own nodes are
        ``nids``, in position order.  It shares the kernel's columns and
        its indexes at those nodes; the rest of the kernel is freed
        with it."""
        return cls(
            key,
            kernel.store.columns(),
            kernel._name_ids,
            {nid: pos for pos, nid in enumerate(nids)},
            [kernel._by_node[nid] for nid in nids],
            [kernel._by_node_name[nid] for nid in nids],
        )

    @classmethod
    def of_columns(
        cls, key: Optional[str], columns: FactColumns, nids: Sequence[int]
    ) -> "Segment":
        """The segment of decoded packed columns: the per-position
        indexes are built as the kernel's ``_make_true_entry`` builds
        its per-node ones, in row order."""
        pos_of = {nid: pos for pos, nid in enumerate(nids)}
        by_pos: list[list[int]] = [[] for _ in nids]
        by_name: list[dict[int, list[int]]] = [{} for _ in nids]
        entry_pair = columns.entry_pair
        first, second = columns.pair_first, columns.pair_second
        for node, eid in zip(columns.fact_node, columns.fact_entry):
            pos = pos_of.get(node)
            if pos is None:
                continue
            by_pos[pos].append(eid)
            index = by_name[pos]
            pid = entry_pair[eid]
            index.setdefault(first[pid], []).append(eid)
            if second[pid] != first[pid]:
                index.setdefault(second[pid], []).append(eid)
        name_ids = {name: name_id for name_id, name in enumerate(columns.names)}
        return cls(key, columns, name_ids, pos_of, by_pos, by_name)

    def pairs_at(self, pos: int) -> set[AliasPair]:
        pairs, entry_pair = self.columns.pairs, self.columns.entry_pair
        return {pairs[entry_pair[e]] for e in self.by_pos[pos]}

    def partners(self, pos: int, name: ObjectName) -> set[ObjectName]:
        name_id = self.name_ids.get(name)
        if name_id is None:
            return set()
        columns = self.columns
        return node_partners(
            self.by_name[pos].get(name_id),
            name_id,
            columns.entry_pair,
            columns.pair_first,
            columns.pair_second,
            columns.names,
        )

    def rows(self) -> Iterator[tuple[int, int, int]]:
        """``(position, entry id, taint)`` of every own fact, in the
        kernel's insertion order."""
        pos_of = self.pos_of
        columns = self.columns
        for node, eid, taint in zip(
            columns.fact_node, columns.fact_entry, columns.taint
        ):
            pos = pos_of.get(node)
            if pos is not None:
                yield pos, eid, taint

    def own_columns(self, nids: Sequence[int]) -> FactColumns:
        """The tables with only the own rows, each node read as the id
        its position has in ``nids``."""
        fact_node: list[int] = []
        fact_entry: list[int] = []
        taint = bytearray()
        for pos, eid, clean in self.rows():
            fact_node.append(nids[pos])
            fact_entry.append(eid)
            taint.append(clean)
        return self.columns._replace(
            fact_node=fact_node, fact_entry=fact_entry, taint=taint
        )

    def demoted(self) -> tuple["Segment", int]:
        """A copy with every fact TAINTED, and how many own facts were
        CLEAN.  The copy has no key: a partial solve offers nothing for
        reuse."""
        columns = self.columns
        own = map(self.pos_of.__contains__, columns.fact_node)
        clean = sum(compress(columns.taint, own))
        copy = Segment(
            None,
            columns._replace(taint=bytes(len(columns.taint))),
            self.name_ids,
            self.pos_of,
            self.by_pos,
            self.by_name,
        )
        return copy, clean


class SegmentStore:
    """The summary engine's whole-program store: each procedure's
    :class:`Segment`, in bottom-up order, read through the node's
    owning procedure."""

    __slots__ = ("analyzed", "icfg", "k", "segments", "_nids", "_where")

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        icfg: ICFG,
        k: int,
        segments: dict[str, Segment],
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
        return sum(segment.size for segment in self.segments.values())

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
        counts = [segment.counts for segment in self.segments.values()]
        return PairCounts(
            sum(c.node_pairs for c in counts),
            sum(c.clean_node_pairs for c in counts),
            set().union(*(c.pairs for c in counts)),
        )

    def facts(self) -> Iterator[tuple[tuple, bool]]:
        """Every (triple, taint) item: each procedure's own facts in
        its kernel's insertion order, procedures in bottom-up order."""
        for proc, segment in self.segments.items():
            nids = self._nids[proc]
            columns = segment.columns
            aas, pairs = columns.aas, columns.pairs
            entry_aa, entry_pair = columns.entry_aa, columns.entry_pair
            for pos, eid, taint in segment.rows():
                yield (
                    (nids[pos], aas[entry_aa[eid]], pairs[entry_pair[eid]]),
                    bool(taint),
                )

    def facts_json(self) -> list[dict]:
        """The per-fact dicts of :func:`repro.io.solution_to_dict`, in
        :meth:`facts` order, with each pair and assumption encoded once
        per segment id (a pair once per store), as
        :meth:`KernelStore.facts_json` does."""
        from ..io import pair_to_json

        pair_json: dict[AliasPair, list] = {}
        out: list[dict] = []
        append = out.append
        for proc, segment in self.segments.items():
            nids = self._nids[proc]
            # The segment's own node ids -> this store's ids.
            nid_of = {node: nids[pos] for node, pos in segment.pos_of.items()}
            columns = segment.columns
            pairs, aas = columns.pairs, columns.aas
            entry_aa, entry_pair = columns.entry_aa, columns.entry_pair
            pj_of: list = [None] * len(pairs)
            aj_of: list = [None] * len(aas)
            for node, eid, taint in zip(
                columns.fact_node, columns.fact_entry, columns.taint
            ):
                nid = nid_of.get(node)
                if nid is None:
                    continue
                pid = entry_pair[eid]
                pj = pj_of[pid]
                if pj is None:
                    pair = pairs[pid]
                    pj = pair_json.get(pair)
                    if pj is None:
                        pj = pair_json[pair] = pair_to_json(pair)
                    pj_of[pid] = pj
                aid = entry_aa[eid]
                aj = aj_of[aid]
                if aj is None:
                    aj = aj_of[aid] = [pair_to_json(a) for a in aas[aid]]
                append(
                    {
                        "node": nid,
                        "assume": aj,
                        "pair": pj,
                        "clean": bool(taint),
                    }
                )
        return out

    def packed_json(self) -> dict:
        """The ``kernel-packed/1`` payload (what the result cache stores
        for a summary solution) of one query-only kernel that replays
        every segment's own rows, procedures in order."""
        kernel = KernelAnalysis(
            self.analyzed, self.icfg, k=self.k, owned_nodes=frozenset()
        )
        for proc, segment in self.segments.items():
            kernel.absorb(segment.own_columns(self._nids[proc]))
        return kernel.store.packed_json()

    def taint_all(self) -> int:
        """Demote every fact (a budget-partial solve).  Each segment is
        replaced by a demoted copy, never changed."""
        demoted = 0
        for proc, segment in self.segments.items():
            self.segments[proc], clean = segment.demoted()
            demoted += clean
        return demoted
