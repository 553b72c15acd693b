"""The column store: the one store of every finished column solution.

The paper's post-pass reads one relation, ``may_alias(n) = { PA | ∃AA.
may_hold[(n, AA), PA] }``.  The kernel keeps its facts as columns:
interning tables for names, pairs and assumptions, an entry table of
(assumption, pair) ids, and one (node, entry, taint) row per fact, plus
a per-node entry list and a per-node name index.  :class:`ColumnStore`
answers every query off exactly those.  It is what the kernel engine's
run returns (over the kernel's own columns and lists, so wrapping reads
no fact and the rest of the kernel is freed), one summary segment per
procedure (:mod:`repro.summaries.segments`), and a solution rebuilt
from a document (:mod:`repro.io`).  The reference engine keeps its own
:class:`~repro.core.store.MayHoldStore`.

This module also holds the ``kernel-packed/1`` payload the result cache
stores: its encoder (:func:`pack_columns`), its lookup-time length
check and its decoder.
"""

from __future__ import annotations

import base64
import sys
from array import array
from itertools import compress
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from ..names.alias_pairs import AliasPair
from ..names.object_names import ObjectName
from .assumptions import Assumption
from .store import PairCounts

if TYPE_CHECKING:
    from .kernel import KernelAnalysis

# Packed-key shift: ids are dense and stay far below 2**32 (the fact
# budget caps total facts long before that).
_SHIFT = 32

#: Layout tag of the columnar cache payload (see :func:`pack_columns`).
PACKED_LAYOUT = "kernel-packed/1"

# 4-byte ints everywhere C int is 32 bits (ids stay below 2**31 — the
# fact budget caps them long before); 'q' is the guaranteed fallback.
_PACK_TYPECODE = "i" if array("i").itemsize == 4 else "q"


def encode_int_column(values) -> dict:
    """One id column → ``{"itemsize", "b64"}`` (signed ints, native byte
    order; the document records width and order so any reader can
    reconstruct).  The kernel's own columns already have the packed
    item type, so their bytes are copied as they are."""
    if not (isinstance(values, array) and values.typecode == _PACK_TYPECODE):
        values = array(_PACK_TYPECODE, values)
    return {
        "itemsize": values.itemsize,
        "b64": base64.b64encode(values).decode("ascii"),
    }


def decode_int_column(column: dict, byteorder: str) -> array:
    """Inverse of :func:`encode_int_column`."""
    itemsize = int(column["itemsize"])
    raw = base64.b64decode(column["b64"])
    if len(raw) % itemsize:
        raise ValueError("packed column length is not a whole item count")
    for typecode in ("i", "l", "q"):
        if array(typecode).itemsize == itemsize:
            out = array(typecode)
            out.frombytes(raw)
            if byteorder != sys.byteorder:
                out.byteswap()
            return out
    # pragma: no cover - no native type of that width on this platform
    step = itemsize
    return array(
        "q",
        (
            int.from_bytes(raw[i : i + step], byteorder, signed=True)
            for i in range(0, len(raw), step)
        ),
    )


class FactColumns(NamedTuple):
    """A store's tables and facts as columns, with the pair and
    assumption tables also as objects: what a :class:`ColumnStore`
    reads, what :meth:`KernelAnalysis.absorb` replays and what
    :func:`pack_columns` encodes.  A live kernel lends its own
    (:meth:`KernelAnalysis.columns`); a packed payload is decoded into
    one by :func:`decode_packed`."""

    names: Sequence[ObjectName]
    pair_first: Sequence[int]
    pair_second: Sequence[int]
    pairs: Sequence[AliasPair]
    aas: Sequence[Assumption]
    aa_pairs: Sequence[Sequence[int]]
    entry_aa: Sequence[int]
    entry_pair: Sequence[int]
    fact_node: Sequence[int]
    fact_entry: Sequence[int]
    taint: bytes | bytearray


def pack_columns(
    columns: FactColumns, fact_node: Optional[Sequence[int]] = None
) -> dict:
    """The ``kernel-packed/1`` payload of ``columns``: what a version-3
    solution document (the result cache's format) and a summary state
    carry.  ``fact_node`` replaces the node column; the summary
    engine's portable state stores stable node tokens there.

    The hot data — one (node, entry) row per fact plus the entry and
    pair id tables — ships as base64 int columns copied straight out of
    the arrays; only the name table (small: ids are shared across every
    pair) is object-encoded.  Serializing scale800's ~480k facts this
    way is ~100× less work than the per-fact dicts of
    :meth:`ColumnStore.facts_json`, and :func:`decode_packed` reads the
    columns back without replaying the analysis."""
    return {
        "layout": PACKED_LAYOUT,
        "byteorder": sys.byteorder,
        "count": len(columns.fact_node),
        "names": [[n.base, list(n.selectors), n.truncated] for n in columns.names],
        "pair_first": encode_int_column(columns.pair_first),
        "pair_second": encode_int_column(columns.pair_second),
        "aas": [list(pair_ids) for pair_ids in columns.aa_pairs],
        "entry_aa": encode_int_column(columns.entry_aa),
        "entry_pair": encode_int_column(columns.entry_pair),
        "fact_node": encode_int_column(
            columns.fact_node if fact_node is None else fact_node
        ),
        "fact_entry": encode_int_column(columns.fact_entry),
        "taint": base64.b64encode(bytes(columns.taint)).decode("ascii"),
    }


def _b64_length(text: str) -> int:
    """The byte length ``text`` decodes to, read off its length and
    padding (ValueError when no base64 encoding has that length)."""
    if len(text) % 4:
        raise ValueError("packed column is not whole base64 quads")
    tail = text[-2:]
    return len(text) // 4 * 3 - (len(tail) - len(tail.rstrip("=")))


def check_packed(packed: dict) -> None:
    """Raise ValueError unless every column of a :func:`pack_columns`
    payload has the length its item size and the payload's counts call
    for.  Nothing is decoded, so a cache hit can be checked at lookup
    and still be decoded once, when it is first read."""
    if packed.get("layout") != PACKED_LAYOUT:
        raise ValueError(f"unknown packed layout {packed.get('layout')!r}")
    count = int(packed["count"])
    if _b64_length(packed["taint"]) != count:
        raise ValueError("packed taint column disagrees with the count")
    lengths = {}
    for name in (
        "pair_first",
        "pair_second",
        "entry_aa",
        "entry_pair",
        "fact_node",
        "fact_entry",
    ):
        column = packed[name]
        itemsize = int(column["itemsize"])
        if itemsize not in (4, 8):
            raise ValueError(f"unsupported packed item size {itemsize}")
        size, rest = divmod(_b64_length(column["b64"]), itemsize)
        if rest:
            raise ValueError("packed column length is not a whole item count")
        lengths[name] = size
    if not (
        lengths["pair_first"] == lengths["pair_second"]
        and lengths["entry_aa"] == lengths["entry_pair"]
        and lengths["fact_node"] == lengths["fact_entry"] == count
    ):
        raise ValueError("packed columns disagree on length")


def check_ids(ids: Sequence[int], bound: int, what: str) -> None:
    """Raise ValueError unless every id in ``ids`` indexes a table of
    ``bound`` items (a negative one would read from the table's end)."""
    if ids and (min(ids) < 0 or max(ids) >= bound):
        raise ValueError(f"{what} id out of range")


def decode_packed(
    packed: dict, node_ids: Optional[Sequence[int]] = None
) -> FactColumns:
    """The columns of a :func:`pack_columns` payload.  With
    ``node_ids`` the node column holds indexes into it (the summary
    engine's portable node tokens, resolved by the caller) and is read
    as the node ids they stand for.  Every id that indexes a table of
    the payload (or ``node_ids``) is range-checked: a payload that does
    not decode raises ValueError."""
    if packed.get("layout") != PACKED_LAYOUT:
        raise ValueError(f"unknown packed layout {packed.get('layout')!r}")
    byteorder = packed["byteorder"]
    names = [
        ObjectName(base, tuple(selectors), bool(truncated))
        for base, selectors, truncated in packed["names"]
    ]
    pair_first = decode_int_column(packed["pair_first"], byteorder)
    pair_second = decode_int_column(packed["pair_second"], byteorder)
    check_ids(pair_first, len(names), "packed name")
    check_ids(pair_second, len(names), "packed name")
    pairs = [
        AliasPair(names[first], names[second])
        for first, second in zip(pair_first, pair_second)
    ]
    aa_pairs = packed["aas"]
    aas = []
    for pair_ids in aa_pairs:
        check_ids(pair_ids, len(pairs), "packed pair")
        aas.append(tuple(pairs[p] for p in pair_ids))
    entry_aa = decode_int_column(packed["entry_aa"], byteorder)
    entry_pair = decode_int_column(packed["entry_pair"], byteorder)
    if len(entry_aa) != len(entry_pair):
        raise ValueError("packed entry columns disagree on length")
    check_ids(entry_aa, len(aas), "packed assumption")
    check_ids(entry_pair, len(pairs), "packed pair")
    fact_node: Sequence[int] = decode_int_column(packed["fact_node"], byteorder)
    if node_ids is not None:
        check_ids(fact_node, len(node_ids), "packed node token")
        fact_node = list(map(node_ids.__getitem__, fact_node))
    fact_entry = decode_int_column(packed["fact_entry"], byteorder)
    check_ids(fact_entry, len(entry_aa), "packed entry")
    columns = FactColumns(
        names=names,
        pair_first=pair_first,
        pair_second=pair_second,
        pairs=pairs,
        aas=aas,
        aa_pairs=aa_pairs,
        entry_aa=entry_aa,
        entry_pair=entry_pair,
        fact_node=fact_node,
        fact_entry=fact_entry,
        taint=base64.b64decode(packed["taint"]),
    )
    count = int(packed["count"])
    if not (
        len(columns.fact_node)
        == len(columns.fact_entry)
        == len(columns.taint)
        == count
    ):
        raise ValueError("packed fact columns disagree on length")
    return columns


def rows_at(columns: FactColumns, nids: Sequence[int]) -> FactColumns:
    """``columns`` with only the rows at the nodes ``nids``."""
    own = bytes(map(set(nids).__contains__, columns.fact_node))
    if all(own):
        return columns
    return columns._replace(
        fact_node=array(_PACK_TYPECODE, compress(columns.fact_node, own)),
        fact_entry=array(_PACK_TYPECODE, compress(columns.fact_entry, own)),
        taint=bytes(compress(columns.taint, own)),
    )


class ColumnStore:
    """Finished facts, read by node position.

    ``columns`` hold only rows at the store's own nodes.  ``nids`` lists
    those nodes in position order, as ids of the frame the rows were
    made in: a whole program's store has every node, each at its own id
    as position; a summary segment has one procedure's nodes.
    ``by_pos`` and ``by_name`` are the entry lists and name index at
    each position, in row order, as the kernel's ``_make_true_entry``
    builds its per-node ones.  ``key`` is the summary entry key a
    segment can be reused under (None elsewhere).  A store is never
    changed once built (:meth:`demoted` makes a new one), so two
    solutions can share it; :meth:`pair_counts` is computed on first
    use and kept."""

    __slots__ = (
        "key",
        "columns",
        "name_ids",
        "nids",
        "by_pos",
        "by_name",
        "_counts",
        "__weakref__",
    )

    def __init__(
        self,
        columns: FactColumns,
        name_ids: dict[ObjectName, int],
        nids: Sequence[int],
        by_pos: Sequence[list[int]],
        by_name: Sequence[dict[int, list[int]]],
        key: Optional[str] = None,
    ) -> None:
        self.key = key
        self.columns = columns
        self.name_ids = name_ids
        self.nids = nids
        self.by_pos = by_pos
        self.by_name = by_name
        self._counts: Optional[PairCounts] = None

    @classmethod
    def of_kernel(
        cls,
        kernel: "KernelAnalysis",
        nids: Optional[Sequence[int]] = None,
        key: Optional[str] = None,
    ) -> "ColumnStore":
        """The store over a kernel's own tables and per-node lists, not
        copies.  Without ``nids`` it covers the whole program and reads
        no fact.  With a procedure's own nodes ``nids`` the rows at any
        other node (a summary kernel's copies of callee entry seeds and
        exit facts) are left out."""
        columns = kernel.columns()
        if nids is None:
            nids = range(len(kernel.icfg.nodes))
        else:
            columns = rows_at(columns, nids)
        return cls(
            columns,
            kernel._name_ids,
            nids,
            [kernel._by_node[nid] for nid in nids],
            [kernel._by_node_name[nid] for nid in nids],
            key,
        )

    @classmethod
    def of_columns(
        cls, columns: FactColumns, nids: Sequence[int], key: Optional[str] = None
    ) -> "ColumnStore":
        """The store of decoded columns whose rows all lie at the nodes
        ``nids`` (:func:`rows_at` leaves the others out).  The
        per-position lists are built in row order."""
        store = cls(
            columns,
            {name: name_id for name_id, name in enumerate(columns.names)},
            nids,
            [[] for _ in nids],
            [{} for _ in nids],
            key,
        )
        pos_of = {nid: pos for pos, nid in enumerate(nids)}
        entry_pair = columns.entry_pair
        first, second = columns.pair_first, columns.pair_second
        for node, eid in zip(columns.fact_node, columns.fact_entry):
            pos = pos_of[node]
            store.by_pos[pos].append(eid)
            index = store.by_name[pos]
            pid = entry_pair[eid]
            index.setdefault(first[pid], []).append(eid)
            if second[pid] != first[pid]:
                index.setdefault(second[pid], []).append(eid)
        return store

    def __len__(self) -> int:
        return len(self.columns.fact_node)

    def pairs_at(self, pos: int) -> set[AliasPair]:
        """may_alias at the node of position ``pos``: the pairs true
        there under any assumption."""
        pairs, entry_pair = self.columns.pairs, self.columns.entry_pair
        return {pairs[entry_pair[e]] for e in self.by_pos[pos]}

    def partners(self, pos: int, name: ObjectName) -> set[ObjectName]:
        """Exact partners of ``name`` at position ``pos``, read as name
        ids off its name-index bucket (no representative widening)."""
        name_id = self.name_ids.get(name)
        bucket = None if name_id is None else self.by_name[pos].get(name_id)
        if not bucket:
            return set()
        columns = self.columns
        first, second = columns.pair_first, columns.pair_second
        names = columns.names
        out = set()
        for pid in {columns.entry_pair[e] for e in bucket}:
            member = first[pid]
            out.add(names[second[pid] if member == name_id else member])
        return out

    def pair_counts(self) -> PairCounts:
        """The aggregates off the fact columns: each fact maps to a
        (pair id, node) key, and only distinct pair ids are decoded.
        They are kept, so the distinct pairs are a frozenset."""
        if self._counts is None:
            columns = self.columns
            entry_pair = columns.entry_pair
            keys = [
                (entry_pair[e] << _SHIFT) | node
                for node, e in zip(columns.fact_node, columns.fact_entry)
            ]
            node_pairs = set(keys)
            pairs = columns.pairs
            self._counts = PairCounts(
                len(node_pairs),
                len(set(compress(keys, columns.taint))),
                frozenset(
                    {pairs[pid] for pid in {key >> _SHIFT for key in node_pairs}}
                ),
            )
        return self._counts

    def _node_of(self, nids: Optional[Sequence[int]]) -> dict[int, int]:
        """Row node id -> the id its position has in ``nids`` (by
        default the store's own)."""
        return dict(zip(self.nids, self.nids if nids is None else nids))

    def facts(
        self, nids: Optional[Sequence[int]] = None
    ) -> Iterator[tuple[tuple, bool]]:
        """Every ``((node, AA, PA), taint)`` item, in row order (the
        kernel's insertion order), each node read as the id its position
        has in ``nids``."""
        node_of = self._node_of(nids)
        columns = self.columns
        aas, pairs = columns.aas, columns.pairs
        entry_aa, entry_pair = columns.entry_aa, columns.entry_pair
        for node, eid, taint in zip(
            columns.fact_node, columns.fact_entry, columns.taint
        ):
            yield (
                (node_of[node], aas[entry_aa[eid]], pairs[entry_pair[eid]]),
                bool(taint),
            )

    def facts_json(
        self,
        nids: Optional[Sequence[int]] = None,
        pair_json: Optional[dict[AliasPair, list]] = None,
    ) -> list[dict]:
        """The per-fact dicts of :func:`repro.io.solution_to_dict`, in
        :meth:`facts` order, with each pair and assumption encoded once
        per id and shared across facts.  ``pair_json`` holds pairs
        already encoded (by the other segments of a summary store) and
        gains this store's."""
        from ..io import pair_to_json

        node_of = self._node_of(nids)
        columns = self.columns
        pairs, aas = columns.pairs, columns.aas
        entry_aa, entry_pair = columns.entry_aa, columns.entry_pair
        if pair_json is None:
            pair_json = {}
        pj_of: list = [None] * len(pairs)
        aa_json: list = [None] * len(aas)
        out: list[dict] = []
        append = out.append
        for node, eid, taint in zip(
            columns.fact_node, columns.fact_entry, columns.taint
        ):
            pid = entry_pair[eid]
            pj = pj_of[pid]
            if pj is None:
                pair = pairs[pid]
                pj = pair_json.get(pair)
                if pj is None:
                    pj = pair_json[pair] = pair_to_json(pair)
                pj_of[pid] = pj
            aid = entry_aa[eid]
            aj = aa_json[aid]
            if aj is None:
                aj = aa_json[aid] = [pair_to_json(a) for a in aas[aid]]
            append(
                {
                    "node": node_of[node],
                    "assume": aj,
                    "pair": pj,
                    "clean": bool(taint),
                }
            )
        return out

    def packed_json(self) -> dict:
        """The ``kernel-packed/1`` payload of a whole program's store
        (what the result cache stores): its columns as they are."""
        return pack_columns(self.columns)

    def own_columns(self, nids: Sequence[int]) -> FactColumns:
        """The columns with each node read as the id its position has
        in ``nids``."""
        node_of = self._node_of(nids)
        return self.columns._replace(
            fact_node=[node_of[node] for node in self.columns.fact_node]
        )

    def demoted(self) -> tuple["ColumnStore", int]:
        """A copy with every fact TAINTED, and how many facts were
        CLEAN.  The copy has no key: a partial solve offers nothing for
        reuse."""
        columns = self.columns
        copy = ColumnStore(
            columns._replace(taint=bytes(len(columns.taint))),
            self.name_ids,
            self.nids,
            self.by_pos,
            self.by_name,
        )
        return copy, columns.taint.count(1)
