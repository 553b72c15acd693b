"""The index-probing query layer against the scans it replaced.

``alias_query`` probes the store's per-node name index with the
representatives of each queried name, ``names_may_overlap`` reads the
exact partners of each prefix, and the aggregates come from one pass
over the store.  The references below are the scans those replaced:
``_represents`` over every stored pair, the loop over every pair of
``may_alias(at)``, and the aggregates over ``store.facts()``.  Every
answer must match them.  Query draws are seeded per program, so every
run asks the same questions.
"""

from __future__ import annotations

import functools
import random
from pathlib import Path

import pytest

from repro.clients.conflicts import ConflictAnalysis
from repro.core.analysis import analyze_program
from repro.core.columns import ColumnStore
from repro.core.store import CLEAN
from repro.frontend.semantics import analyze, parse_and_analyze
from repro.icfg.builder import IcfgBuilder
from repro.io import dumps_solution, loads_solution, rebuild_solution, solution_to_dict
from repro.lint.engine import make_provider
from repro.names import AliasPair, ObjectName, representatives
from repro.programs import ProgramSpec, generate_program
from repro.programs.fixtures import ALL_FIXTURES

CORPUS = Path(__file__).resolve().parents[3] / "corpus"
ALIAS_QUERIES = 2_000
OVERLAP_QUERIES = 200
PROVIDER_QUERIES = 500


# -- the previous scans, kept as the reference ---------------------------------


def _represents(stored: AliasPair, query: AliasPair) -> bool:
    """Does a stored (possibly truncated) pair represent the queried
    pair?  Paper §3: ``(a, b~)`` represents every ``(a, b+sigma)``; with
    two truncated members each side represents its own extensions."""
    for s_first, s_second in (
        (stored.first, stored.second),
        (stored.second, stored.first),
    ):
        for q_first, q_second in (
            (query.first, query.second),
            (query.second, query.first),
        ):
            first_ok = s_first == q_first or (
                s_first.truncated and s_first.is_prefix(q_first)
            )
            second_ok = s_second == q_second or (
                s_second.truncated and s_second.is_prefix(q_second)
            )
            if first_ok and second_ok:
                return True
    return False


def reference_alias_query(pairs, a: ObjectName, b: ObjectName) -> bool:
    target = AliasPair(a, b)
    return target in pairs or any(_represents(pair, target) for pair in pairs)


def reference_names_may_overlap(provider, alias_query, a, b, at) -> bool:
    if a == b or ConflictAnalysis._contains(a, b):
        return True
    if alias_query(at, a, b):
        return True
    for stored in provider.may_alias(at):
        for x, y in ((stored.first, stored.second), (stored.second, stored.first)):
            for this, other in ((a, b), (b, a)):
                if x.is_prefix(this):
                    image = y.extend(this.suffix_after(x))
                    if image == other or ConflictAnalysis._contains(image, other):
                        return True
    return False


def reference_aggregates(store) -> dict:
    node_pairs: set = set()
    clean: set = set()
    for (nid, _, pair), taint in store.facts():
        node_pairs.add((nid, pair))
        if taint is CLEAN:
            clean.add((nid, pair))
    pairs = {pair for _, pair in node_pairs}
    return {
        "node_alias_count": len(node_pairs),
        "program_aliases": {p for p in pairs if not p.has_nonvisible},
        "program_aliases_all": pairs,
        "percent_yes": (
            max(0.0, min(100.0, 100.0 * len(clean) / len(node_pairs)))
            if node_pairs
            else 100.0
        ),
    }


# -- programs ------------------------------------------------------------------


def _minic(source: str, name: str):
    analyzed = parse_and_analyze(source, name)
    return analyzed, IcfgBuilder(analyzed).build()


def _lowered(filename: str):
    from repro.corpus.stubs import synthesize_stubs
    from repro.frontend.pycparser_bridge import parse_c_lenient

    unit = parse_c_lenient((CORPUS / filename).read_text(), filename)
    synthesize_stubs(unit.program)
    analyzed = analyze(unit.program)
    return analyzed, IcfgBuilder(analyzed).build()


def _program(source: str):
    if source.endswith(".c"):
        return _lowered(source)
    if source.startswith("scale"):
        spec = ProgramSpec.for_target_nodes("scaling", int(source[5:]))
        return _minic(generate_program(spec), source)
    return _minic(ALL_FIXTURES[source], source)


#: label -> (program, k, max_facts, engine, reload through a v3 document)
CASES = {
    **{
        f"{name}-k{k}": (name, k, 2_000_000, "kernel", False)
        for name in ("figure1", "linked_list", "matrix_swap", "expr_tree")
        for k in (1, 3)
    },
    **{
        f"{name}-k1": (name, 1, 200_000, "kernel", False)
        for name in ("bst.c", "queue.c", "strbuf.c")
    },
    "list.c-partial20k": ("list.c", 1, 20_000, "kernel", False),
    "expr_tree-k2-reference": ("expr_tree", 2, 2_000_000, "reference", False),
    "linked_list-k2-loaded": ("linked_list", 2, 2_000_000, "kernel", True),
    "string_table-k3": ("string_table", 3, 2_000_000, "kernel", False),
    "scale240-k3": ("scale240", 3, 2_000_000, "kernel", False),
    "list.c-k1": ("list.c", 1, 200_000, "kernel", False),
}
SLOW = {"string_table-k3", "scale240-k3", "list.c-k1"}
CASE_PARAMS = [
    pytest.param(label, marks=pytest.mark.slow) if label in SLOW else label
    for label in CASES
]
#: Weihl's relation is program-wide and does not depend on k, so it
#: gets one row per program.  Its reference scan walks every pair per
#: query: relations of 10^5 pairs (expr_tree, bst.c) are slow rows.
WEIHL_ROWS = {
    "figure1-k3": False,
    "linked_list-k1": False,
    "matrix_swap-k3": False,
    "queue.c-k1": False,
    "strbuf.c-k1": False,
    "expr_tree-k3": True,
    "bst.c-k1": True,
    "list.c-k1": True,
    "string_table-k3": True,
    "scale240-k3": True,
}
OVERLAP_PARAMS = [
    pytest.param(label, provider, marks=pytest.mark.slow)
    if label in SLOW
    else (label, provider)
    for label in CASES
    for provider in ("lr", "andersen")
] + [
    pytest.param(label, "weihl", marks=pytest.mark.slow)
    if slow
    else (label, "weihl")
    for label, slow in WEIHL_ROWS.items()
]


@functools.lru_cache(maxsize=None)
def solved(label: str):
    source, k, max_facts, engine, reload = CASES[label]
    analyzed, icfg = _program(source)
    solution = analyze_program(
        analyzed, icfg, k=k, max_facts=max_facts, on_budget="partial", engine=engine
    )
    if reload:
        document = solution_to_dict(solution, include_report=True, packed=True)
        assert "packed" in document
        solution = rebuild_solution(document, analyzed, icfg)
    return analyzed, icfg, solution


@pytest.fixture(scope="module", autouse=True)
def _release_solutions():
    yield
    solved.cache_clear()


# -- query draws -----------------------------------------------------------------


def _variants(name: ObjectName, fields: list[str], rng: random.Random):
    """The name, its truncation twin, a truncated prefix, deref and
    field extensions, its parent and absent names."""
    base, sel = name.base, name.selectors
    yield name
    yield ObjectName(base, sel, not name.truncated)
    yield ObjectName(base, sel[: rng.randint(0, len(sel))], True)
    yield ObjectName(base, sel + ("*",))
    yield ObjectName(base, sel + ("*", rng.choice(fields)))
    yield ObjectName(base, sel + (rng.choice(fields),), rng.random() < 0.3)
    if sel:
        yield ObjectName(base, sel[:-1], name.truncated)
    yield ObjectName(base, sel + ("no_such_field",))
    yield ObjectName("no_such_var", sel)


class Draws:
    """Seeded (node, a, b) draws: half from the names stored at the
    node, half from the whole program's name pool."""

    def __init__(self, label: str, solution) -> None:
        self.rng = random.Random(f"query-index:{label}")
        self.nodes = list(solution.icfg.nodes)
        self.local: dict[int, list[ObjectName]] = {}
        names: set[ObjectName] = set()
        for node in self.nodes:
            here: set[ObjectName] = set()
            for pair in solution.may_alias(node):
                here.update(pair)
            self.local[node.nid] = sorted(here, key=str)
            names |= here
        self.fields = sorted(
            {s for n in names for s in n.selectors if s != "*"} or {"f"}
        )
        self.pool = sorted(names, key=str) or [ObjectName("no_such_var")]

    def name(self, nid: int) -> ObjectName:
        local = self.local[nid]
        seed = self.rng.choice(local if local and self.rng.random() < 0.5 else self.pool)
        return self.rng.choice(list(_variants(seed, self.fields, self.rng)))

    def __call__(self, count: int):
        for _ in range(count):
            node = self.rng.choice(self.nodes)
            yield node, self.name(node.nid), self.name(node.nid)


# -- differential tests ----------------------------------------------------------


@pytest.mark.parametrize("label", CASE_PARAMS)
def test_alias_query_matches_scan(label):
    _, _, solution = solved(label)
    draws = Draws(label, solution)
    hits = 0
    for node, a, b in draws(ALIAS_QUERIES):
        expected = reference_alias_query(solution.may_alias(node), a, b)
        assert solution.alias_query(node, a, b) == expected, (node.nid, str(a), str(b))
        hits += expected
    if solution.store:
        assert hits, "no draw hit a stored pair"


@pytest.mark.parametrize("label", CASE_PARAMS)
def test_aggregates_match_fact_scan(label):
    _, icfg, solution = solved(label)
    expected = reference_aggregates(solution.store)
    assert solution.program_aliases() == expected["program_aliases"]
    assert (
        solution.program_aliases(include_nonvisible=True)
        == expected["program_aliases_all"]
    )
    assert solution.percent_yes() == expected["percent_yes"]
    stats = solution.stats()
    assert stats.icfg_nodes == len(icfg)
    assert stats.may_hold_facts == len(list(solution.store.facts()))
    assert stats.node_alias_count == expected["node_alias_count"]
    assert stats.program_alias_count == len(expected["program_aliases"])
    assert stats.percent_yes == expected["percent_yes"]
    assert stats.node_alias_count == sum(1 for _ in solution.node_pairs())


@pytest.mark.parametrize("label,provider", OVERLAP_PARAMS)
def test_names_may_overlap_matches_scan(label, provider):
    analyzed, icfg, lr = solved(label)
    draws = Draws(f"{label}:{provider}", lr)
    solution = lr if provider == "lr" else make_provider(provider, analyzed, icfg, k=lr.k)
    if provider == "andersen":
        alias_query = solution.alias_query  # coarse by design, unchanged
    else:
        def alias_query(at, a, b):
            return reference_alias_query(solution.may_alias(at), a, b)

    conflicts = ConflictAnalysis(solution)
    for node, a, b in draws(OVERLAP_QUERIES):
        expected = reference_names_may_overlap(solution, alias_query, a, b, node)
        assert conflicts.names_may_overlap(a, b, node) == expected, (
            node.nid,
            str(a),
            str(b),
        )


@pytest.mark.parametrize(
    "label,provider,queries",
    [
        # linked_list's 11k-pair relation costs the reference scan ~40 ms
        # a query; its truncated members are what this row is for.
        ("linked_list-k1", "weihl", 150),
        ("queue.c-k1", "weihl", PROVIDER_QUERIES),
        ("linked_list-k3", "loaded", PROVIDER_QUERIES),
        ("expr_tree-k3", "loaded", PROVIDER_QUERIES),
        ("bst.c-k1", "loaded", PROVIDER_QUERIES),
    ],
)
def test_provider_alias_query_matches_scan(label, provider, queries):
    """Weihl's adapter and ``io.LoadedSolution`` apply the same rule
    through their own by-name maps."""
    analyzed, icfg, solution = solved(label)
    if provider == "weihl":
        other = make_provider("weihl", analyzed, icfg, k=solution.k)
    else:
        other = loads_solution(dumps_solution(solution))
    for node, a, b in Draws(f"{label}:{provider}", solution)(queries):
        expected = reference_alias_query(other.may_alias(node.nid), a, b)
        assert other.alias_query(node.nid, a, b) == expected, (
            node.nid,
            str(a),
            str(b),
        )


@pytest.mark.parametrize("label", CASE_PARAMS)
def test_may_alias_names_agrees_with_alias_query(label):
    """``y in may_alias_names(n, r)`` implies ``alias_query(n, r, y)``,
    and every ``y`` that ``alias_query`` accepts has a representative
    in ``may_alias_names(n, r)``."""
    _, _, solution = solved(label)
    draws = Draws(f"{label}:names", solution)
    for node, r, _ in draws(200):
        names = solution.may_alias_names(node, r)
        # A nonvisible name can have thousands of partners at a node of
        # a budget-partial solution: check a sample of them.
        sample = draws.rng.sample(sorted(names, key=str), min(len(names), 20))
        for y in sample:
            assert solution.alias_query(node, r, y), (node.nid, str(r), str(y))
        for y in [draws.name(node.nid) for _ in range(10)] + sample:
            if solution.alias_query(node, r, y):
                assert not names.isdisjoint(representatives(y)), (
                    node.nid,
                    str(r),
                    str(y),
                )


def test_may_alias_names_through_a_truncated_member():
    """linked_list at k=1, node 4 (``push::n->next = push::head``): the
    stored member ``push::n->next~`` stands for ``push::n->next``."""
    _, _, solution = solved("linked_list-k1")
    name = ObjectName("push::n", ("*", "next"))
    names = {str(n): n for n in solution.may_alias_names(4, name)}
    for alias in ("push::head->next", "$nv1", "$nv1->next"):
        assert alias in names
        assert solution.alias_query(4, name, names[alias])


def test_kernel_queries_never_decode_every_fact(monkeypatch):
    """Point queries and aggregates read the column store's name index
    and fact columns, never the object-level fact iterators; the
    aggregates are recounted here, not read from the kept counts."""
    _, icfg, solution = solved("linked_list-k1")
    expected = {
        "stats": solution.stats_dict()["solution"],
        "aliases": solution.program_aliases(),
    }
    draws = list(Draws("no-decode", solution)(300))
    answers = [solution.alias_query(n, a, b) for n, a, b in draws]
    names = [solution.may_alias_names(n, a) for n, a, _ in draws]

    def refuse(*_args, **_kwargs):
        raise AssertionError("query decoded the whole store")

    for method in ("pairs_at", "facts", "facts_json"):
        monkeypatch.setattr(ColumnStore, method, refuse)
    assert isinstance(solution.store, ColumnStore)
    monkeypatch.setattr(solution.store, "_counts", None)
    assert [solution.alias_query(n, a, b) for n, a, b in draws] == answers
    assert [solution.may_alias_names(n, a) for n, a, _ in draws] == names
    assert solution.program_aliases() == expected["aliases"]
    assert solution.stats_dict()["solution"] == expected["stats"]

