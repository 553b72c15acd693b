"""The ``may-hold`` triple store and worklist (paper §4, Figure 2).

The paper requires constant-time find/set of
``may_hold[(node, AA), PA]`` (they use dynamic hashing); Python dicts
give us the same.  On top of the raw mapping we maintain the indexes
the propagation rules need:

* all facts at a node (assignment-transfer pairing, call matching),
* facts at a node whose pair contains a given object name (cases
  2.iii/3.iii and the taint checks), and
* facts at a node grouped by a member of their assumption (matching
  exit facts against call facts — the paper's "additional data
  structure" [Lan92]).

Each fact carries a one-bit precision lattice (paper §5): ``TAINTED``
facts are (directly or transitively) the result of one of the counted
approximation types; ``CLEAN`` dominates, and an upgrade re-enters the
worklist so downstream facts are upgraded too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, Iterator, NamedTuple, Optional

from ..names.alias_pairs import AliasPair
from ..names.object_names import ObjectName
from .assumptions import Assumption

Fact = tuple[int, Assumption, AliasPair]  # (node id, AA, PA)

TAINTED = False
CLEAN = True


@dataclass(slots=True)
class StoreStats:
    """Counters for benchmarks and the paper's tables.

    ``worklist_pushes`` counts actual queue appends; a fact upgraded
    while still pending is *merged* into its queued entry and counted
    under ``dedup_hits`` instead (the seed overcounted pushes here and
    re-processed the fact).  ``stale_skips`` counts popped entries whose
    store state had already been processed — a defensive net that
    stays 0."""

    facts: int = 0
    worklist_pushes: int = 0
    worklist_pops: int = 0
    dedup_hits: int = 0
    stale_skips: int = 0
    upgrades: int = 0


class PairCounts(NamedTuple):
    """The solution aggregates, read off a store in one pass."""

    node_pairs: int  # distinct (node, PA)
    clean_node_pairs: int  # distinct (node, PA) with a CLEAN fact
    pairs: AbstractSet[AliasPair]  # distinct PA over every node


class MayHoldStore:
    """Hash-backed may-hold relation with the analysis worklist."""

    def __init__(self) -> None:
        # (nid, AA, PA) -> CLEAN/TAINTED.  Absence means false.
        self._facts: dict[Fact, bool] = {}
        # Index values are insertion-ordered keys-only dicts rather than
        # sets: iteration order then depends only on the derivation
        # order, never on PYTHONHASHSEED.  The taint bits of
        # approximations 3/4 are order-sensitive (a CLEAN certified
        # before the rebinding alias appears is never revoked), so
        # ordered indexes make whole runs — fact order *and* taint bits
        # — reproducible, and let the integer-ID kernel match the
        # reference bit for bit.
        self._by_node: dict[int, dict[tuple[Assumption, AliasPair], None]] = {}
        self._by_node_name: dict[tuple[int, ObjectName], dict[tuple[Assumption, AliasPair], None]] = {}
        self._by_node_base: dict[tuple[int, str], dict[tuple[Assumption, AliasPair], None]] = {}
        self._by_node_assumed: dict[tuple[int, AliasPair], dict[tuple[Assumption, AliasPair], None]] = {}
        self._worklist: deque[Fact] = deque()
        # Facts currently sitting in the queue.
        self._pending: set[Fact] = set()
        # Taint state a fact last left the queue with; lets pop() skip
        # entries whose store state hasn't changed since enqueue.
        self._popped_taint: dict[Fact, bool] = {}
        self.stats = StoreStats()

    # -- queries ---------------------------------------------------------------

    def holds(self, nid: int, assumption: Assumption, pair: AliasPair) -> bool:
        """Is the triple true?"""
        return (nid, assumption, pair) in self._facts

    def is_clean(self, nid: int, assumption: Assumption, pair: AliasPair) -> bool:
        """Is the triple true with a clean derivation?"""
        return self._facts.get((nid, assumption, pair), TAINTED) is CLEAN

    def taint_of(self, nid: int, assumption: Assumption, pair: AliasPair) -> bool:
        """CLEAN/TAINTED for an existing fact (KeyError if absent)."""
        return self._facts[(nid, assumption, pair)]

    def at_node(self, nid: int) -> Iterator[tuple[Assumption, AliasPair]]:
        """All (AA, PA) true at ``nid`` (snapshot: safe to mutate during
        iteration)."""
        return iter(tuple(self._by_node.get(nid, ())))

    def at_node_with_name(
        self, nid: int, name: ObjectName
    ) -> Iterator[tuple[Assumption, AliasPair]]:
        """Facts at ``nid`` whose pair has ``name`` as a member."""
        return iter(tuple(self._by_node_name.get((nid, name), ())))

    def at_node_with_base(
        self, nid: int, base: str
    ) -> Iterator[tuple[Assumption, AliasPair]]:
        """Facts at ``nid`` with a member whose base variable is ``base``."""
        return iter(tuple(self._by_node_base.get((nid, base), ())))

    def at_node_assuming(
        self, nid: int, assumed: AliasPair
    ) -> Iterator[tuple[Assumption, AliasPair]]:
        """Facts at ``nid`` whose assumption set contains ``assumed``."""
        return iter(tuple(self._by_node_assumed.get((nid, assumed), ())))

    def __len__(self) -> int:
        return len(self._facts)

    def facts(self) -> Iterator[tuple[Fact, bool]]:
        """Every (triple, taint) item."""
        return iter(self._facts.items())

    def pairs_at(self, nid: int) -> set[AliasPair]:
        """may_alias(nid): pairs true at the node under any assumption."""
        return {pair for _, pair in self._by_node.get(nid, ())}

    def partners(self, nid: int, name: ObjectName) -> set[ObjectName]:
        """Exact partners: the other member of every pair at ``nid``
        that has ``name`` itself as a member (no representative
        widening)."""
        return {
            pair.other(name)
            for _, pair in self._by_node_name.get((nid, name), ())
        }

    def pair_counts(self) -> PairCounts:
        """Distinct (node, PA) count, how many of those hold CLEAN, and
        the distinct pairs."""
        node_pairs: set[tuple[int, AliasPair]] = set()
        clean: set[tuple[int, AliasPair]] = set()
        for (nid, _, pair), taint in self._facts.items():
            node_pairs.add((nid, pair))
            if taint is CLEAN:
                clean.add((nid, pair))
        return PairCounts(
            len(node_pairs), len(clean), {pair for _, pair in node_pairs}
        )

    # -- updates ---------------------------------------------------------------

    def make_true(
        self, nid: int, assumption: Assumption, pair: AliasPair, clean: bool
    ) -> bool:
        """The paper's ``make_true`` macro extended with the precision
        lattice.  Returns True when the fact was added or upgraded (and
        therefore pushed onto the worklist)."""
        key = (nid, assumption, pair)
        existing = self._facts.get(key)
        if existing is None:
            self._facts[key] = clean
            entry = (assumption, pair)
            self._by_node.setdefault(nid, {})[entry] = None
            self._by_node_name.setdefault((nid, pair.first), {})[entry] = None
            if pair.second != pair.first:
                self._by_node_name.setdefault((nid, pair.second), {})[entry] = None
            self._by_node_base.setdefault((nid, pair.first.base), {})[entry] = None
            if pair.second.base != pair.first.base:
                self._by_node_base.setdefault((nid, pair.second.base), {})[entry] = None
            for assumed in assumption:
                self._by_node_assumed.setdefault((nid, assumed), {})[entry] = None
            self.stats.facts += 1
            self._enqueue(key)
            return True
        if existing is TAINTED and clean is CLEAN:
            self._facts[key] = CLEAN
            self.stats.upgrades += 1
            self._enqueue(key)
            return True
        return False

    def _enqueue(self, key: Fact) -> None:
        """Queue a changed fact, merging with a still-pending entry."""
        if key in self._pending:
            # Already queued: the eventual pop reads the (upgraded)
            # store state, so processing once covers both changes.
            self.stats.dedup_hits += 1
            return
        self._pending.add(key)
        self._worklist.append(key)
        self.stats.worklist_pushes += 1

    def pop(self) -> Optional[Fact]:
        """Next worklist item, or None when drained.

        Entries whose store state was already processed (taint
        unchanged since the last pop of the same fact) are skipped
        rather than returned."""
        while self._worklist:
            key = self._worklist.popleft()
            self._pending.discard(key)
            state = self._facts[key]
            if self._popped_taint.get(key) is state:
                self.stats.stale_skips += 1
                continue
            self._popped_taint[key] = state
            self.stats.worklist_pops += 1
            return key
        # Drained.  The stale-skip map otherwise retains one entry per
        # fact ever popped for the lifetime of the store; nothing can be
        # stale once the queue is empty, so release it here (a later
        # warm-start re-run begins with a clean slate).
        self._popped_taint.clear()
        return None

    def taint_all(self) -> int:
        """Budget post-pass: demote every fact to TAINTED (nothing is
        certified precise on a truncated run) and drop the queue.
        Returns the number of facts demoted."""
        demoted = 0
        for key, clean in self._facts.items():
            if clean is CLEAN:
                self._facts[key] = TAINTED
                demoted += 1
        self._worklist.clear()
        self._pending.clear()
        self._popped_taint.clear()
        return demoted

    def clear_worklist(self) -> None:
        """Drop pending worklist entries without touching the facts.

        Used when a store is rebuilt from a serialized solution for
        query-only use (nothing will ever drain the queue) — the facts,
        indexes and taint states are already final."""
        self._worklist.clear()
        self._pending.clear()
        self._popped_taint.clear()

    @property
    def pending(self) -> int:
        """Worklist length."""
        return len(self._worklist)
