"""The summary engine's harvest and barrier against an object-level
reference.

``ProcSolver.harvest`` reads the kernel's id columns and returns each
item as its canonical text; the barrier dedups and sorts those texts and
joins each delta from them.  The reference below decodes every fact at
the entry and exit nodes into objects, encodes each item anew wherever
it is compared, runs the round barrier over those objects and hands
``inject`` the canonical encoding of each delta.  After every drain each
harvest text must equal the canonical encoding of the matching
reference item, and each procedure's ``inputs_digest`` — the per-drain
half of every cache key — must equal the digest the reference schedule
folds.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cache.store import SolutionCache
from repro.core.columns import ColumnStore
from repro.frontend.semantics import parse_and_analyze
from repro.icfg.builder import build_icfg
from repro.io import pair_to_json
from repro.names.object_names import is_nonvisible_based
from repro.programs import ALL_FIXTURES, ProgramSpec, generate_program
from repro.summaries.callgraph import build_call_graph
from repro.summaries.solver import ProcSolver, SummaryAnalysis

CORPUS = Path(__file__).resolve().parents[3] / "corpus"


def _canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _reference_harvest(solver):
    kernel = solver.kernel
    facts = dict(ColumnStore.of_kernel(kernel).facts())
    ctx = kernel.ctx
    seeds = {}
    for callee in solver.callees:
        entry_nid = solver.icfg.entry_of(callee).nid
        pairs = [
            pair_to_json(pair) for (nid, _aa, pair) in facts if nid == entry_nid
        ]
        seeds[callee] = sorted(pairs, key=_canon)
    exits = []
    for (nid, assumption, pair), clean in facts.items():
        if nid != solver.exit_nid or not all(
            is_nonvisible_based(name) or ctx.survives_return(name, solver.proc)
            for name in pair
        ):
            continue
        exits.append(
            [[pair_to_json(p) for p in assumption], pair_to_json(pair), clean]
        )
    exits.sort(key=_canon)
    return {"seeds": seeds, "exits": exits}


def _reference_drains(analyzed, icfg, k):
    """``(proc, inputs digest)`` of every drain of the round schedule,
    with the reference harvest and an object-level barrier."""
    callgraph = build_call_graph(icfg)
    procs = sorted(callgraph.procs, key=callgraph.order_key)
    callers = {
        proc: sorted(p for p in procs if proc in callgraph.edges.get(p, ()))
        for proc in procs
    }
    solvers = {proc: ProcSolver(proc, analyzed, icfg, k, None) for proc in procs}
    digests = {proc: hashlib.sha256(b"init").hexdigest() for proc in procs}
    pending = {proc: {"seeds": [], "mirrors": {}} for proc in procs}
    cold = set(procs)
    seen_seeds = {proc: set() for proc in procs}
    exit_sent = {proc: {} for proc in procs}
    retainted = False
    drains = []
    while True:
        if not pending:
            if retainted:
                return drains
            retainted = True
            for sent in exit_sent.values():
                for key in sent:
                    sent[key] = False
            pending = {
                proc: {"retaint": 1, "seeds": [], "mirrors": {}} for proc in procs
            }
        order = sorted(pending, key=callgraph.order_key)
        harvests = {}
        for proc in order:
            solver = solvers[proc]
            delta = pending[proc]
            digests[proc] = hashlib.sha256(
                f"{digests[proc]}:{_canon(delta)}".encode("utf-8")
            ).hexdigest()
            if proc in cold:
                solver.cold_start()
            solver.inject(_canon(delta))
            assert solver.drain(None)
            harvests[proc] = _reference_harvest(solver)
            drains.append((proc, digests[proc]))
        cold.difference_update(order)
        next_pending = {}
        for proc in order:
            harvest = harvests[proc]
            for callee, pairs in sorted(harvest["seeds"].items()):
                seen = seen_seeds[callee]
                fresh = [pj for pj in pairs if _canon(pj) not in seen]
                if not fresh:
                    continue
                seen.update(_canon(pj) for pj in fresh)
                if callee != proc:
                    next_pending.setdefault(
                        callee, {"seeds": [], "mirrors": {}}
                    )["seeds"].extend(fresh)
            for entry in harvest["exits"]:
                aa_json, pair_json, clean = entry
                key = _canon([aa_json, pair_json])
                previous = exit_sent[proc].get(key)
                if previous is None or (clean and not previous):
                    exit_sent[proc][key] = bool(clean) or bool(previous)
                    for caller in callers[proc]:
                        if caller != proc:
                            delta = next_pending.setdefault(
                                caller, {"seeds": [], "mirrors": {}}
                            )
                            delta["mirrors"].setdefault(proc, []).append(entry)
        for delta in next_pending.values():
            delta["seeds"].sort(key=_canon)
            for facts in delta["mirrors"].values():
                facts.sort(key=_canon)
        pending = next_pending


def _engine_drains(analyzed, icfg, k, monkeypatch):
    """``(proc, inputs digest)`` of every drain of ``SummaryAnalysis``,
    checking each harvest against the reference as it goes."""
    drains = []
    original = ProcSolver.drain

    def checked_drain(self, deadline_remaining):
        ok = original(self, deadline_remaining)
        reference = _reference_harvest(self)
        assert self.harvest() == {
            "seeds": {
                callee: [_canon(pj) for pj in pairs]
                for callee, pairs in reference["seeds"].items()
            },
            "exits": [_canon(entry) for entry in reference["exits"]],
        }
        drains.append((self.proc, self.inputs_digest))
        return ok

    with monkeypatch.context() as patched:
        patched.setattr(ProcSolver, "drain", checked_drain)
        analysis = SummaryAnalysis(analyzed, icfg, k=k)
        analysis.run()
    assert analysis.drains == len(drains)
    return drains


def _assert_matches_reference(analyzed, icfg, k, monkeypatch):
    engine = _engine_drains(analyzed, icfg, k, monkeypatch)
    assert engine == _reference_drains(analyzed, icfg, k)


def _parsed(source):
    analyzed = parse_and_analyze(source)
    return analyzed, build_icfg(analyzed)


# The other fixtures at k=3 take seconds each; they run at k=1.
FIXTURE_ROWS = [
    *((name, 1) for name in sorted(ALL_FIXTURES)),
    ("figure1", 3),
    ("matrix_swap", 3),
]


@pytest.mark.parametrize(
    "name,k", FIXTURE_ROWS, ids=[f"{n}-k{k}" for n, k in FIXTURE_ROWS]
)
def test_fixture_harvests_and_digests_match_reference(name, k, monkeypatch):
    _assert_matches_reference(*_parsed(ALL_FIXTURES[name]), k, monkeypatch)


@pytest.mark.parametrize("seed", [2, 3])
def test_generated_harvests_and_digests_match_reference(seed, monkeypatch):
    source = generate_program(ProgramSpec(f"harvest-seed{seed}", seed=seed))
    _assert_matches_reference(*_parsed(source), 2, monkeypatch)


@pytest.mark.parametrize(
    "filename", ["figure1.c", "queue.c", "strbuf.c", "intern.c", "bst.c"]
)
def test_lowered_c_harvests_and_digests_match_reference(filename, monkeypatch):
    pytest.importorskip("pycparser")
    from repro.corpus.stubs import synthesize_stubs
    from repro.frontend.pycparser_bridge import parse_c_lenient
    from repro.frontend.semantics import analyze
    from repro.icfg.builder import IcfgBuilder

    unit = parse_c_lenient((CORPUS / filename).read_text(), filename)
    synthesize_stubs(unit.program)
    analyzed = analyze(unit.program)
    _assert_matches_reference(
        analyzed, IcfgBuilder(analyzed).build(), 1, monkeypatch
    )


def test_warm_solve_folds_the_cold_digests(tmp_path):
    """A cache hit's harvest texts come straight from its envelope; the
    deltas they feed must fold to the same digests, so every later
    lookup hits."""
    analyzed, icfg = _parsed(
        generate_program(ProgramSpec("harvest-seed2", seed=2))
    )
    cache = SolutionCache(tmp_path)

    def solve():
        analysis = SummaryAnalysis(analyzed, icfg, k=2, cache=cache)
        analysis.run()
        return analysis

    cold = solve()
    warm = solve()
    assert cold.cache_misses == cold.drains and cold.cache_hits == 0
    assert warm.cache_hits == warm.drains == cold.drains
    assert warm.cache_misses == 0
    assert {p: s.inputs_digest for p, s in warm.solvers.items()} == {
        p: s.inputs_digest for p, s in cold.solvers.items()
    }
