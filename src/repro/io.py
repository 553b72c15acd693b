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
:func:`rebuild_solution` is the full inverse: it reconstructs a real
:class:`~repro.core.store.MayHoldStore`-backed
:class:`~repro.core.solution.MayAliasSolution` (assumptions included)
with the entire query surface the clients use, not just the
:class:`LoadedSolution` view.
"""

from __future__ import annotations

import base64
import json
from typing import Optional, TextIO, Union

from .core.metrics import BudgetOutcome, EngineReport, PhaseTimer
from .core.solution import MayAliasSolution
from .core.store import MayHoldStore
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


def facts_json_from_document(document: dict) -> list[dict]:
    """The per-fact dict list of any supported document version.

    Version 1/2 documents carry the list verbatim; version-3 documents
    get their packed columns expanded here (pair/assumption fragments
    decoded once per id and shared, mirroring ``facts_json``).  Readers
    that only *inspect* facts — :class:`LoadedSolution`, the cache
    verifier — go through this instead of ``document["facts"]``."""
    facts = document.get("facts")
    if facts is not None:
        return facts
    from .core.kernel import decode_int_column

    packed = document["packed"]
    byteorder = packed["byteorder"]
    names_json = [
        [base, list(selectors), bool(truncated)]
        for base, selectors, truncated in packed["names"]
    ]
    pair_first = decode_int_column(packed["pair_first"], byteorder)
    pair_second = decode_int_column(packed["pair_second"], byteorder)
    pair_json = [
        [names_json[first], names_json[second]]
        for first, second in zip(pair_first, pair_second)
    ]
    aa_json = [
        [pair_json[p] for p in pair_ids] for pair_ids in packed["aas"]
    ]
    entry_aa = decode_int_column(packed["entry_aa"], byteorder)
    entry_pair = decode_int_column(packed["entry_pair"], byteorder)
    fact_node = decode_int_column(packed["fact_node"], byteorder)
    fact_entry = decode_int_column(packed["fact_entry"], byteorder)
    taint = base64.b64decode(packed["taint"])
    return [
        {
            "node": fact_node[i],
            "assume": aa_json[entry_aa[eid]],
            "pair": pair_json[entry_pair[eid]],
            "clean": bool(taint[i]),
        }
        for i, eid in enumerate(fact_entry)
    ]


def rebuild_solution(
    document: dict, analyzed: AnalyzedProgram, icfg: ICFG
) -> MayAliasSolution:
    """Reconstruct a full :class:`MayAliasSolution` from a serialized
    document (either version) plus a freshly parsed program.

    The caller supplies ``analyzed``/``icfg`` for the *same* program the
    document was computed from (the cache layer guarantees this by
    keying on the canonical IR hash); the store is rebuilt fact by fact
    with assumptions intact, so every client query — ``may_alias``,
    ``at_node_assuming``, ``percent_yes`` — answers exactly as it did on
    the original run."""
    if document.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document")
    if document.get("version") not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported version {document.get('version')!r} "
            f"(expected one of {_SUPPORTED_VERSIONS})"
        )
    k = int(document["k"])
    if "packed" in document:
        # Version 3: bulk-load the columns into a fresh kernel — no
        # per-fact object decoding on the hit path.
        from .core.kernel import KernelAnalysis

        store = KernelAnalysis(analyzed, icfg, k=k).load_packed(
            document["packed"]
        )
    else:
        store = MayHoldStore()
        for fact in document["facts"]:
            assumption = tuple(pair_from_json(a) for a in fact["assume"])
            store.make_true(
                fact["node"],
                assumption,
                pair_from_json(fact["pair"]),
                bool(fact["clean"]),
            )
        # The rebuilt store is query-only: drop the worklist entries
        # that make_true queued (nothing will ever drain them).
        store.clear_worklist()
    engine = EngineReport.from_dict(document.get("engine", {}))
    budget = BudgetOutcome.from_dict(document.get("budget", {}))
    timer = PhaseTimer()
    timer.merge(document.get("phases", {}))
    return MayAliasSolution(
        icfg,
        store,
        NameContext(analyzed.symbols, k),
        k,
        analysis_seconds=float(document.get("analysis_seconds", 0.0)),
        engine=engine,
        phases=timer,
        budget=budget,
    )


def dump_solution(solution: MayAliasSolution, fp: TextIO) -> None:
    """Serialize ``solution`` as JSON to an open file."""
    json.dump(solution_to_dict(solution), fp)


def dumps_solution(solution: MayAliasSolution) -> str:
    """Serialize ``solution`` to a JSON string."""
    return json.dumps(solution_to_dict(solution))


class LoadedSolution:
    """Query-only view over a deserialized solution."""

    def __init__(self, document: dict) -> None:
        if document.get("format") != FORMAT_NAME:
            raise ValueError(f"not a {FORMAT_NAME} document")
        if document.get("version") not in _SUPPORTED_VERSIONS:
            raise ValueError(
                f"unsupported version {document.get('version')!r} "
                f"(expected one of {_SUPPORTED_VERSIONS})"
            )
        self.k: int = document["k"]
        self.nodes: dict[int, dict] = {n["id"]: n for n in document["nodes"]}
        self._pairs_at: dict[int, set[AliasPair]] = {}
        # Per node: name -> the names stored in a pair with it.
        self._partners: dict[int, dict[ObjectName, set[ObjectName]]] = {}
        self._clean: dict[tuple[int, AliasPair], bool] = {}
        for fact in facts_json_from_document(document):
            nid = fact["node"]
            pair = pair_from_json(fact["pair"])
            self._pairs_at.setdefault(nid, set()).add(pair)
            partners = self._partners.setdefault(nid, {})
            partners.setdefault(pair.first, set()).add(pair.second)
            partners.setdefault(pair.second, set()).add(pair.first)
            key = (nid, pair)
            self._clean[key] = self._clean.get(key, False) or fact["clean"]

    def may_alias(self, node: Union[int, object]) -> set[AliasPair]:
        """Alias pairs recorded at ``node``."""
        nid = node if isinstance(node, int) else node.nid
        return set(self._pairs_at.get(nid, ()))

    def alias_query(self, node: Union[int, object], a: ObjectName, b: ObjectName) -> bool:
        """May ``a`` and ``b`` alias at ``node``?  Honors truncated representatives."""
        nid = node if isinstance(node, int) else node.nid
        partners = self._partners.get(nid, {})
        return pair_represented(lambda name: partners.get(name, ()), a, b)

    def percent_yes(self) -> float:
        """%YES over the loaded (node, pair) facts."""
        if not self._clean:
            return 100.0
        yes = sum(1 for clean in self._clean.values() if clean)
        return 100.0 * yes / len(self._clean)

    def node_pair_count(self) -> int:
        """Number of distinct (node, pair) facts loaded."""
        return len(self._clean)


def load_solution(fp: TextIO) -> LoadedSolution:
    """Load a serialized solution from an open file."""
    return LoadedSolution(json.load(fp))


def loads_solution(text: str) -> LoadedSolution:
    """Load a serialized solution from a JSON string."""
    return LoadedSolution(json.loads(text))
