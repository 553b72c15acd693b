"""Serialization of alias solutions.

Real toolchains compute aliases once and feed many consumers; this
module exports a :class:`MayAliasSolution` to a JSON-able document and
loads it back into a lightweight, query-only form
(:class:`LoadedSolution`) with the same query surface the client
analyses use.

The format is versioned and intentionally simple::

    {
      "format": "repro-alias-solution",
      "version": 1,
      "k": 3,
      "nodes": [{"id": 0, "proc": "main", "kind": "entry", "label": ...}],
      "facts": [
        {"node": 7,
         "assume": [["g1", ["*"], false], ...pairs...],
         "pair": [[base, selectors, truncated], [base, selectors, truncated]],
         "clean": true},
        ...
      ]
    }

Version 2 (``solution_to_dict(..., include_report=True)``) adds the
run's observability record — ``engine`` counters, ``budget`` outcome,
``phases`` wall times and ``analysis_seconds`` — which is what the
content-addressed result cache (:mod:`repro.cache`) persists so a cache
hit can reproduce the original run's non-timing statistics exactly.
:func:`rebuild_solution` is the full inverse: it reconstructs a
:class:`~repro.core.solution.MayAliasSolution` (assumptions included)
with the entire query surface the clients use.  Both it and
:class:`LoadedSolution` read a document of any version through one
:class:`~repro.core.columns.ColumnStore` (:func:`document_store`).
"""

from __future__ import annotations

import json
from typing import TextIO, Union

from .core.columns import ColumnStore, FactColumns, check_ids, decode_packed
from .core.metrics import BudgetOutcome, EngineReport, PhaseTimer
from .core.solution import MayAliasSolution, _percent_yes
from .frontend.semantics import AnalyzedProgram
from .icfg.graph import ICFG
from .names.alias_pairs import AliasPair, pair_represented
from .names.context import NameContext
from .names.object_names import ObjectName

FORMAT_NAME = "repro-alias-solution"
FORMAT_VERSION = 1
#: Version 2 = version 1 plus the engine/budget/phase report.
FORMAT_VERSION_REPORT = 2
#: Version 3 = version 2 with the facts as packed kernel columns
#: (``"packed"`` replaces ``"facts"``) — the result cache's format.
FORMAT_VERSION_PACKED = 3
_SUPPORTED_VERSIONS = (
    FORMAT_VERSION,
    FORMAT_VERSION_REPORT,
    FORMAT_VERSION_PACKED,
)


def name_to_json(name: ObjectName) -> list:
    """``ObjectName`` → JSON-able ``[base, selectors, truncated]``."""
    return [name.base, list(name.selectors), name.truncated]


def name_from_json(data: list) -> ObjectName:
    """Inverse of :func:`name_to_json`."""
    base, selectors, truncated = data
    return ObjectName(base, tuple(selectors), bool(truncated))


def pair_to_json(pair: AliasPair) -> list:
    """``AliasPair`` → JSON-able pair of name encodings."""
    return [name_to_json(pair.first), name_to_json(pair.second)]


def pair_from_json(data: list) -> AliasPair:
    """Inverse of :func:`pair_to_json`."""
    return AliasPair(name_from_json(data[0]), name_from_json(data[1]))


def solution_to_dict(
    solution: MayAliasSolution, include_report: bool = False, packed: bool = False
) -> dict:
    """Export every may-hold fact plus the node table.

    ``include_report=True`` emits a version-2 document that also
    carries the engine counters, budget outcome, phase timings and
    analysis wall time, so :func:`rebuild_solution` can restore the
    full observability record.

    ``packed=True`` additionally asks for the version-3 columnar
    encoding (``"packed"`` replaces the per-fact ``"facts"`` list) for
    kernel and summary solutions — base64 int columns copied straight
    off the store's arrays, which is what keeps the result cache's
    serialization overhead a fraction of the solve instead of a
    multiple of it.  Reference-engine solutions have no flat columns
    and silently fall back to the per-fact encoding."""
    nodes = [
        {
            "id": node.nid,
            "proc": node.proc,
            "kind": node.kind.value,
            "label": node.label(),
        }
        for node in solution.icfg.nodes
    ]
    pack = getattr(solution.store, "packed_json", None) if packed else None
    if pack is not None:
        document = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION_PACKED,
            "k": solution.k,
            "nodes": nodes,
            "packed": pack(),
        }
        if include_report:
            document["engine"] = solution.engine.as_dict()
            document["budget"] = solution.budget.as_dict()
            document["phases"] = solution.phases.as_dict()
            document["analysis_seconds"] = solution.analysis_seconds
        return document
    # The kernel and summary stores serialize straight off their flat
    # ID columns (pair/assumption fragments encoded once per id, not
    # once per fact); the reference store walks the object graph.  All
    # produce the same dicts in the same (insertion) order.
    fast = getattr(solution.store, "facts_json", None)
    if fast is not None:
        facts = fast()
    else:
        facts = []
        for (nid, assumption, pair), clean in solution.store.facts():
            facts.append(
                {
                    "node": nid,
                    "assume": [pair_to_json(a) for a in assumption],
                    "pair": pair_to_json(pair),
                    "clean": bool(clean),
                }
            )
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION_REPORT if include_report else FORMAT_VERSION,
        "k": solution.k,
        "nodes": nodes,
        "facts": facts,
    }
    if include_report:
        document["engine"] = solution.engine.as_dict()
        document["budget"] = solution.budget.as_dict()
        document["phases"] = solution.phases.as_dict()
        document["analysis_seconds"] = solution.analysis_seconds
    return document


def _intern(ids: dict, table: list, item) -> int:
    found = ids.get(item)
    if found is None:
        found = ids[item] = len(table)
        table.append(item)
    return found


def _fact_list_columns(facts: list) -> FactColumns:
    """The columns of a version-1/2 fact list, its tables interned in
    first-use order.  A fact listed twice keeps one row, CLEAN when
    either copy is."""
    pairs: list = []
    aas: list = []
    entries: list = []
    pair_ids: dict = {}
    aa_ids: dict = {}
    entry_ids: dict = {}
    rows: dict = {}
    fact_node: list[int] = []
    fact_entry: list[int] = []
    taint = bytearray()
    for fact in facts:
        pid = _intern(pair_ids, pairs, pair_from_json(fact["pair"]))
        assumption = tuple(pair_from_json(a) for a in fact["assume"])
        eid = _intern(entry_ids, entries, (_intern(aa_ids, aas, assumption), pid))
        key = (eid, int(fact["node"]))
        row = rows.get(key)
        if row is None:
            rows[key] = len(fact_node)
            fact_node.append(key[1])
            fact_entry.append(eid)
            taint.append(1 if fact["clean"] else 0)
        elif fact["clean"]:
            taint[row] = 1
    aa_pairs = [tuple(_intern(pair_ids, pairs, p) for p in aa) for aa in aas]
    names: list = []
    name_ids: dict = {}
    pair_first = [_intern(name_ids, names, pair.first) for pair in pairs]
    pair_second = [_intern(name_ids, names, pair.second) for pair in pairs]
    return FactColumns(
        names=names,
        pair_first=pair_first,
        pair_second=pair_second,
        pairs=pairs,
        aas=aas,
        aa_pairs=aa_pairs,
        entry_aa=[aa for aa, _ in entries],
        entry_pair=[pid for _, pid in entries],
        fact_node=fact_node,
        fact_entry=fact_entry,
        taint=taint,
    )


def document_store(document: dict) -> ColumnStore:
    """The :class:`~repro.core.columns.ColumnStore` of a solution
    document of any supported version: a version-3 document's decoded
    columns, or a version-1/2 fact list.  Its frame is the document's
    node list, which must number the nodes 0..n-1 in order.  A document
    is outside input, so one that does not decode — or holds a fact at
    a node it does not list — raises ValueError."""
    if document.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document")
    if document.get("version") not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported version {document.get('version')!r} "
            f"(expected one of {_SUPPORTED_VERSIONS})"
        )
    nids = range(len(document["nodes"]))
    if [node["id"] for node in document["nodes"]] != list(nids):
        raise ValueError("document nodes are not numbered 0..n-1 in order")
    if "packed" in document:
        columns = decode_packed(document["packed"])
    else:
        columns = _fact_list_columns(document["facts"])
    check_ids(columns.fact_node, len(nids), "document fact node")
    return ColumnStore.of_columns(columns, nids)


def rebuild_solution(
    document: dict, analyzed: AnalyzedProgram, icfg: ICFG
) -> MayAliasSolution:
    """Reconstruct a full :class:`MayAliasSolution` from a serialized
    document (any version) plus a freshly parsed program.

    The caller supplies ``analyzed``/``icfg`` for the *same* program the
    document was computed from (the cache layer guarantees this by
    keying on the canonical IR hash).  The store is the document's
    column store (:func:`document_store`), assumptions intact, so every
    client query answers exactly as it did on the original run; nothing
    is re-derived and no kernel is built."""
    store = document_store(document)
    if len(store.nids) != len(icfg.nodes):
        raise ValueError("document does not list the program's nodes")
    k = int(document["k"])
    timer = PhaseTimer()
    timer.merge(document.get("phases", {}))
    return MayAliasSolution(
        icfg,
        store,
        NameContext(analyzed.symbols, k),
        k,
        analysis_seconds=float(document.get("analysis_seconds", 0.0)),
        engine=EngineReport.from_dict(document.get("engine", {})),
        phases=timer,
        budget=BudgetOutcome.from_dict(document.get("budget", {})),
    )


def dump_solution(solution: MayAliasSolution, fp: TextIO) -> None:
    """Serialize ``solution`` as JSON to an open file."""
    json.dump(solution_to_dict(solution), fp)


def dumps_solution(solution: MayAliasSolution) -> str:
    """Serialize ``solution`` to a JSON string."""
    return json.dumps(solution_to_dict(solution))


class LoadedSolution:
    """Query-only view over a deserialized solution: its column store
    (:func:`document_store`), read by node id."""

    def __init__(self, document: dict) -> None:
        self.store = document_store(document)
        self.k: int = document["k"]
        self.nodes: dict[int, dict] = {n["id"]: n for n in document["nodes"]}

    def may_alias(self, node: Union[int, object]) -> set[AliasPair]:
        """Alias pairs recorded at ``node``."""
        nid = node if isinstance(node, int) else node.nid
        return self.store.pairs_at(nid) if nid in self.nodes else set()

    def alias_query(self, node: Union[int, object], a: ObjectName, b: ObjectName) -> bool:
        """May ``a`` and ``b`` alias at ``node``?  Honors truncated representatives."""
        nid = node if isinstance(node, int) else node.nid
        if nid not in self.nodes:
            return False
        partners = self.store.partners
        return pair_represented(lambda name: partners(nid, name), a, b)

    def percent_yes(self) -> float:
        """%YES over the loaded (node, pair) facts."""
        return _percent_yes(self.store.pair_counts())

    def node_pair_count(self) -> int:
        """Number of distinct (node, pair) facts loaded."""
        return self.store.pair_counts().node_pairs


def load_solution(fp: TextIO) -> LoadedSolution:
    """Load a serialized solution from an open file."""
    return LoadedSolution(json.load(fp))


def loads_solution(text: str) -> LoadedSolution:
    """Load a serialized solution from a JSON string."""
    return LoadedSolution(json.loads(text))
