"""The summary solver's unit surfaces: portable packed-state tokens,
the inputs digest, the paper-facing ``procedure_summary`` view, cache
replay and kernel lifetime."""

import base64
import gc
import json
import weakref
from array import array

import pytest

import repro.summaries.solver as solver_module
from repro import analyze_source
from repro.cache.store import SolutionCache
from repro.core.columns import ColumnStore
from repro.core.kernel import KernelAnalysis
from repro.core.metrics import strip_timing
from repro.core.solution import MayAliasSolution
from repro.frontend.semantics import parse_and_analyze
from repro.icfg.builder import build_icfg
from repro.io import rebuild_solution, solution_to_dict
from repro.programs import ProgramSpec, generate_program
from repro.summaries.envelope import summary_entry_key
from repro.summaries.solver import (
    _EMPTY_DELTA,
    _RETAINT_DELTA,
    ProcSolver,
    SummaryAnalysis,
    _PoolFailure,
)

SOURCE = """
int *g; int x;
void helper(void) { g = &x; }
int main() { helper(); return 0; }
"""

#: Same program with a statement added to *main* only: every node id
#: shifts, but helper's tokens (and therefore its portable state) must
#: still resolve.
SOURCE_MAIN_EDITED = SOURCE.replace(
    "{ helper(); return 0; }", "{ helper(); g = g; return 0; }"
)


#: A call chain: ``leaf``'s callers drain in several rounds, so a warm
#: solve replays several stored drains per procedure.
CHAIN = """
int *g, *h; int x, y, s;
void leaf(int *p) { g = p; }
void mid(int *q) { leaf(q); h = g; }
void top(void) { int *t; t = &y; mid(t); s = s + 1; }
int main() { top(); mid(&x); return 0; }
"""

#: An edit of ``leaf`` that moves no fact: only ``leaf`` re-drains.
CHAIN_NEUTRAL_EDIT = CHAIN.replace("{ g = p; }", "{ g = p; s = s + 1; }")

#: An edit of ``leaf`` that changes its exit summary: ``mid`` replays
#: its first drains, then goes live from a stored state and re-drains.
CHAIN_ALIASING_EDIT = CHAIN.replace("{ g = p; }", "{ g = p; h = p; }")

#: An edit of ``main`` that moves no fact of another procedure.
CHAIN_MAIN_EDIT = CHAIN.replace("mid(&x); return 0;", "mid(&x); s = 2; return 0;")

#: A globals edit: the environment text changes, and with it every
#: procedure's cache key.
CHAIN_GLOBALS_EDIT = CHAIN.replace("int x, y, s;", "int x, y, s, t;")

#: ``h`` calls ``f`` before its pointer store.  With ``f``'s body
#: removed the call is one node instead of a CALL/RETURN pair, so the
#: store moves to an earlier position of ``h``; ``h``'s text and every
#: signature stay, and only the environment text's list of functions
#: without a body tells the two programs' keys apart.
CALLS_F = (
    "int *g; int y; void f(void) { y = 1; } "
    "void h(void) { int x; f(); g = &x; } "
    "int main(void) { h(); return 0; }"
)
CALLS_F_DECLARED = CALLS_F.replace("void f(void) { y = 1; }", "void f(void);")

#: String literals are globals ``$str0``, ``$str1``, ... numbered across
#: the whole program.  A literal added to ``a`` renumbers ``h``'s under
#: an unchanged text of ``h``; only the environment text's literal table
#: tells the two programs' keys apart.
LITERALS = (
    "char *g; void a(void) { char *p; p = 0; } "
    'void h(void) { g = "x"; } '
    "int main(void) { a(); h(); return 0; }"
)
LITERALS_RENUMBERED = LITERALS.replace("p = 0;", 'p = "y";')


@pytest.fixture(autouse=True)
def _eight_cores(monkeypatch):
    """Solves at ``jobs > 1`` run their worker pool at the requested
    size even on a 1- or 2-core host."""
    monkeypatch.setattr(solver_module, "_cores", lambda: 8)


def _analysis(source, k=2, cache=None, jobs=1):
    analyzed = parse_and_analyze(source)
    icfg = build_icfg(analyzed)
    analysis = SummaryAnalysis(analyzed, icfg, k=k, cache=cache, jobs=jobs)
    analysis.run()
    return analysis


def _solution(source, cache=None, jobs=1, previous=None, max_facts=None):
    """``(analysis, solution)`` of one summary solve at k=2."""
    analyzed = parse_and_analyze(source)
    icfg = build_icfg(analyzed)
    analysis = SummaryAnalysis(
        analyzed,
        icfg,
        k=2,
        max_facts=max_facts,
        cache=cache,
        jobs=jobs,
        previous=previous,
    )
    store = analysis.run()
    solution = MayAliasSolution(
        icfg,
        store,
        analysis.ctx,
        2,
        engine=analysis.engine_report(),
        budget=analysis.budget,
    )
    return analysis, solution


def _assert_same_answers(icfg, store, expected, ordered=True):
    """Every query ``MayAliasSolution`` makes of a store, asked of both."""
    if ordered:
        assert list(store.facts()) == list(expected.facts())
    else:
        assert dict(store.facts()) == dict(expected.facts())
    assert len(store) == len(expected)
    assert store.pair_counts() == expected.pair_counts()
    for node in icfg.nodes:
        pairs = expected.pairs_at(node.nid)
        assert store.pairs_at(node.nid) == pairs
        for name in {member for pair in pairs for member in pair}:
            assert store.partners(node.nid, name) == expected.partners(
                node.nid, name
            )


def _engine_counters(analysis):
    counters = analysis.engine_report().as_dict()
    # Process-wide intern-table gauges, not per-solve counters.
    del counters["interned_names"], counters["interned_pairs"]
    return counters


class TestPortableState:
    def test_round_trip_restores_identical_facts(self):
        analysis = _analysis(SOURCE)
        solver = analysis.solvers["helper"]
        solver.ensure_live()
        before = dict(ColumnStore.of_kernel(solver.kernel).facts())
        portable = solver.state_portable()

        fresh = ProcSolver(
            "helper", analysis.analyzed, analysis.icfg, analysis.k, None
        )
        fresh.adopt_portable(portable)
        fresh.ensure_live()
        assert dict(ColumnStore.of_kernel(fresh.kernel).facts()) == before

    def test_tokens_survive_renumbering_by_an_edit_elsewhere(self):
        # Export helper's state from the original program, import it
        # into the *edited* program (main gained a statement, all node
        # ids moved).  The stable tokens must land the facts on
        # helper's corresponding nodes.
        analysis = _analysis(SOURCE)
        solver = analysis.solvers["helper"]
        solver.ensure_live()
        portable = solver.state_portable()
        by_token = {}
        for (nid, assumption, pair), clean in ColumnStore.of_kernel(
            solver.kernel
        ).facts():
            token = solver._token_of.get(nid)
            if token is not None:
                by_token.setdefault(token, set()).add((assumption, pair, clean))

        edited = parse_and_analyze(SOURCE_MAIN_EDITED)
        edited_icfg = build_icfg(edited)
        fresh = ProcSolver("helper", edited, edited_icfg, 2, None)
        fresh.adopt_portable(portable)
        fresh.ensure_live()
        for (nid, assumption, pair), clean in ColumnStore.of_kernel(
            fresh.kernel
        ).facts():
            token = fresh._token_of.get(nid)
            assert token is not None
            assert (assumption, pair, clean) in by_token[token]

    def test_foreign_byteorder_is_rejected(self):
        analysis = _analysis(SOURCE)
        solver = analysis.solvers["helper"]
        solver.ensure_live()
        portable = solver.state_portable()
        portable["packed"] = dict(portable["packed"])
        portable["packed"]["byteorder"] = (
            "big" if portable["packed"]["byteorder"] == "little" else "little"
        )
        fresh = ProcSolver(
            "helper", analysis.analyzed, analysis.icfg, analysis.k, None
        )
        with pytest.raises(ValueError):
            fresh.adopt_portable(portable)


class TestInputsDigest:
    def test_digest_orders_and_separates_deltas(self):
        analyzed = parse_and_analyze(SOURCE)
        icfg = build_icfg(analyzed)
        a = ProcSolver("helper", analyzed, icfg, 2, None)
        b = ProcSolver("helper", analyzed, icfg, 2, None)
        assert a.inputs_digest == b.inputs_digest
        a.advance_digest(_EMPTY_DELTA)
        assert a.inputs_digest != b.inputs_digest
        b.advance_digest(_EMPTY_DELTA)
        assert a.inputs_digest == b.inputs_digest
        # The *sequence* is keyed, not the accumulated set.
        a.advance_digest(_RETAINT_DELTA)
        b.advance_digest(_EMPTY_DELTA)
        assert a.inputs_digest != b.inputs_digest


class TestProcedureSummary:
    def test_helper_summary_shows_its_exit_facts(self):
        analysis = _analysis(SOURCE)
        summary = analysis.procedure_summary("helper")
        # helper unconditionally establishes (*g, x): it must appear
        # under the empty entry assumption.
        unconditional = summary.get("[]", [])
        rendered = [str(pair) for pair, _clean in unconditional]
        assert any("g" in text and "x" in text for text in rendered)

    def test_every_procedure_has_a_summary(self):
        analysis = _analysis(SOURCE)
        for proc in analysis.callgraph.procs:
            assert isinstance(analysis.procedure_summary(proc), dict)


class TestPoolFallback:
    def test_serial_restart_counts_only_its_own_lookups(self, tmp_path, monkeypatch):
        # A worker failure restarts the whole schedule serially; the
        # restart's per-procedure cache counters must not include the
        # abandoned parallel attempt's lookups.
        analyzed = parse_and_analyze(generate_program(ProgramSpec("s2", seed=2)))
        icfg = build_icfg(analyzed)
        parallel_calls = []
        drain_parallel = SummaryAnalysis._drain_parallel

        def failing_second_call(self, *args):
            parallel_calls.append(len(parallel_calls))
            if len(parallel_calls) == 2:
                raise _PoolFailure("worker died")
            return drain_parallel(self, *args)

        monkeypatch.setattr(SummaryAnalysis, "_drain_parallel", failing_second_call)
        analysis = SummaryAnalysis(
            analyzed,
            icfg,
            k=2,
            jobs=2,
            cache=SolutionCache(tmp_path),
        )
        analysis.run()
        assert len(parallel_calls) == 2
        # The first parallel round's entries hit in the restart.
        assert analysis.cache_hits > 0
        assert analysis.cache_hits + analysis.cache_misses == analysis.drains


class TestCacheReplay:
    def test_stale_token_hit_counts_as_a_miss(self, tmp_path):
        """A stored state naming a node its procedure does not have (a
        position past ``helper``'s last node) is a miss at lookup."""
        cache = SolutionCache(tmp_path)
        cold = _analysis(SOURCE, cache=cache)
        key = summary_entry_key(
            cold._proc_keys["helper"], cold.solvers["helper"].inputs_digest
        )
        path = cache.entry_path(key)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["state"]["packed"]["node_tokens"][0] = ["p", 1000]
        path.write_text(json.dumps(envelope), encoding="utf-8")
        before = cache.counters.snapshot()
        analysis = _analysis(SOURCE, cache=cache)
        counters = cache.counters.since(before)
        assert analysis.cache_hits + analysis.cache_misses == analysis.drains
        assert analysis.cache_miss_procs == {"helper"}
        # The lookup hit a well-formed file that did not rebuild; no
        # file was dropped (the re-drain's put overwrites it).
        assert counters.rebuild_failures == 1
        assert counters.corrupt_dropped == 0

    def test_warm_solve_decodes_each_state_at_most_once(
        self, tmp_path, monkeypatch
    ):
        """A replayed drain installs its stored state without decoding
        it: every packed column the warm solve decodes is decoded inside
        ``decode_packed``, which runs at most once per procedure."""
        cache = SolutionCache(tmp_path)
        _analysis(CHAIN, cache=cache)
        states, decoding, stray = [], [], []
        decode_packed = solver_module.decode_packed
        b64decode = base64.b64decode

        def counted_decode_packed(*args):
            states.append(args[0])
            decoding.append(True)
            try:
                return decode_packed(*args)
            finally:
                decoding.pop()

        def watched_b64decode(*args, **kwargs):
            if not decoding:
                stray.append(args[0])
            return b64decode(*args, **kwargs)

        monkeypatch.setattr(solver_module, "decode_packed", counted_decode_packed)
        monkeypatch.setattr(base64, "b64decode", watched_b64decode)
        analysis = _analysis(CHAIN_ALIASING_EDIT, cache=cache)
        monkeypatch.undo()
        assert analysis.cache_hits > len(analysis.solvers)
        assert stray == []
        assert 0 < len(states) <= len(analysis.solvers)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "source, edited, replays",
        [
            (CHAIN, CHAIN_NEUTRAL_EDIT, True),
            (CHAIN, CHAIN_ALIASING_EDIT, True),
            (LITERALS, LITERALS_RENUMBERED, False),
        ],
        ids=["neutral-edit", "aliasing-edit", "literal-renumbered"],
    )
    def test_warm_solve_after_an_edit_equals_a_cacheless_solve(
        self, tmp_path, source, edited, replays, jobs
    ):
        """A renumbered literal changes the environment text, so no
        drain of the edited program may replay a stored state."""
        cache = SolutionCache(tmp_path)
        _analysis(source, cache=cache, jobs=jobs)
        warm = _analysis(edited, cache=cache, jobs=jobs)
        fresh = _analysis(edited, jobs=jobs)
        assert (warm.cache_hits > 0) == replays
        assert (warm.rounds, warm.drains) == (fresh.rounds, fresh.drains)
        assert list(warm.store.facts()) == list(fresh.store.facts())
        assert _engine_counters(warm) == _engine_counters(fresh)
        for proc in fresh.solvers:
            assert warm.procedure_summary(proc) == fresh.procedure_summary(proc)


class TestSegmentReuse:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "source, edited, rebuilt",
        [
            (CHAIN, CHAIN_NEUTRAL_EDIT, {"leaf"}),
            (CHAIN, CHAIN_MAIN_EDIT, {"main"}),
            (CHAIN, CHAIN_ALIASING_EDIT, None),
            (CHAIN, CHAIN_GLOBALS_EDIT, {"leaf", "mid", "top", "main"}),
            (CALLS_F, CALLS_F_DECLARED, {"h", "main"}),
            (CALLS_F_DECLARED, CALLS_F, {"f", "h", "main"}),
            (LITERALS, LITERALS_RENUMBERED, {"a", "h", "main"}),
        ],
        ids=[
            "first-proc-edit",
            "main-edit",
            "aliasing-edit",
            "globals-edit",
            "body-removed",
            "body-added",
            "literal-renumbered",
        ],
    )
    def test_warm_solve_from_the_previous_solution_equals_fresh_solves(
        self, tmp_path, source, edited, rebuilt, jobs
    ):
        """An edit of ``leaf``, the first procedure, shifts every later
        procedure's node ids; a reused segment must still answer at
        the new ones.  Removing or adding ``f``'s body moves ``h``'s
        nodes under an unchanged text: no segment or stored state of
        ``h`` may be read in the other layout, and no segment of ``h``
        after a literal renumbers its own."""
        cache = SolutionCache(tmp_path)
        _, before = _solution(source, cache=cache, jobs=jobs)
        analysis, warm = _solution(edited, cache=cache, jobs=jobs, previous=before)
        _, fresh = _solution(edited, jobs=jobs)
        icfg = analysis.icfg
        kernel = KernelAnalysis(analysis.analyzed, icfg, k=2)
        kernel_store = kernel.run()

        procs = set(analysis.solvers)
        assert analysis.segments_built + analysis.segments_reused == len(procs)
        if rebuilt is None:
            assert 0 < analysis.segments_reused < len(procs) - 1
        else:
            assert analysis.segments_built == len(rebuilt)
            assert {
                proc
                for proc, segment in warm.store.segments.items()
                if segment is not before.store.segments.get(proc)
            } == rebuilt

        _assert_same_answers(icfg, warm.store, fresh.store)
        _assert_same_answers(icfg, warm.store, kernel_store, ordered=False)
        assert strip_timing(warm.stats_dict()) == strip_timing(fresh.stats_dict())
        kernel_stats = strip_timing(
            MayAliasSolution(icfg, kernel_store, kernel.ctx, 2).stats_dict()
        )
        assert strip_timing(warm.stats_dict())["solution"] == kernel_stats["solution"]

    def test_facts_json_matches_object_level_serialization(self, tmp_path):
        from repro.io import pair_to_json

        cache = SolutionCache(tmp_path)
        _, before = _solution(CHAIN, cache=cache)
        analysis, warm = _solution(CHAIN_NEUTRAL_EDIT, cache=cache, previous=before)
        assert analysis.segments_reused > 0
        assert warm.store.facts_json() == [
            {
                "node": nid,
                "assume": [pair_to_json(a) for a in assumption],
                "pair": pair_to_json(pair),
                "clean": bool(clean),
            }
            for (nid, assumption, pair), clean in warm.store.facts()
        ]

    def test_partial_solve_reuses_and_offers_nothing(self, tmp_path):
        cache = SolutionCache(tmp_path)
        _, before = _solution(CHAIN, cache=cache)
        taints = {
            proc: bytes(segment.columns.taint)
            for proc, segment in before.store.segments.items()
        }
        analysis, partial = _solution(
            CHAIN_NEUTRAL_EDIT, cache=cache, previous=before, max_facts=3
        )
        assert not partial.complete
        assert analysis.segments_reused == 0
        assert partial.budget.demoted_facts > 0
        assert not any(clean for _, clean in partial.store.facts())
        assert all(
            segment.key is None for segment in partial.store.segments.values()
        )
        # The demotion replaced the partial solve's own segments and
        # left the earlier solution's as they were.
        assert {
            proc: bytes(segment.columns.taint)
            for proc, segment in before.store.segments.items()
        } == taints
        analysis, _ = _solution(CHAIN_NEUTRAL_EDIT, cache=cache, previous=partial)
        assert analysis.segments_reused == 0

    def test_packed_payload_rebuilds_to_the_same_facts(self):
        analysis, solution = _solution(CHAIN)
        document = solution_to_dict(solution, packed=True)
        rebuilt = rebuild_solution(document, analysis.analyzed, analysis.icfg)
        _assert_same_answers(analysis.icfg, rebuilt.store, solution.store)


def _cut_fact_entry(packed):
    """Drop 8 base64 characters: the column no longer has a whole
    number of items."""
    column = packed["fact_entry"]
    assert len(column["b64"]) > 8
    column["b64"] = column["b64"][:-8]


def _set_first(packed, name, value):
    """Set the first item of id column ``name``: every length still
    agrees."""
    column = packed[name]
    ids = array("i")
    ids.frombytes(base64.b64decode(column["b64"]))
    ids[0] = value
    column["b64"] = base64.b64encode(ids.tobytes()).decode("ascii")


def _token_out_of_range(packed):
    """Point the first fact at a node token past the token list."""
    _set_first(packed, "fact_node", len(packed["node_tokens"]) + 1000)


def _negative_token(packed):
    """Point the first fact at node token -1, which a list index would
    read as the last token."""
    _set_first(packed, "fact_node", -1)


def _fact_entry_out_of_range(packed):
    """Point the first fact at an entry past the entry table."""
    _set_first(packed, "fact_entry", 1000)


def _entry_aa_out_of_range(packed):
    """Point the first entry at an assumption past the assumption
    table."""
    _set_first(packed, "entry_aa", len(packed["aas"]) + 1000)


class TestCorruptEntry:
    @pytest.mark.parametrize(
        "corrupt",
        [
            _cut_fact_entry,
            _token_out_of_range,
            _negative_token,
            _fact_entry_out_of_range,
            _entry_aa_out_of_range,
        ],
        ids=["cut", "token", "negative-token", "fact-entry", "entry-aa"],
    )
    def test_columns_that_do_not_decode_are_a_miss(self, tmp_path, corrupt):
        """The entry of ``helper``'s last drain, well-formed JSON whose
        columns do not decode: it is counted as a rebuild failure and a
        miss, and the drain is solved again, instead of failing when the
        state is decoded.  A cut column is rejected at lookup; an id out
        of range is found when the state is decoded, and the solve
        starts over with that entry a miss."""
        cache = SolutionCache(tmp_path)
        cold = _analysis(SOURCE, cache=cache)
        key = summary_entry_key(
            cold._proc_keys["helper"], cold.solvers["helper"].inputs_digest
        )
        path = cache.entry_path(key)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        corrupt(envelope["state"]["packed"])
        path.write_text(json.dumps(envelope), encoding="utf-8")
        before = cache.counters.snapshot()
        warm = _analysis(SOURCE, cache=cache)
        counters = cache.counters.since(before)
        fresh = _analysis(SOURCE)
        assert warm.cache_miss_procs == {"helper"}
        assert warm.cache_misses == 1
        assert warm.cache_hits + warm.cache_misses == warm.drains
        assert counters.rebuild_failures == 1
        assert list(warm.store.facts()) == list(fresh.store.facts())
        assert _engine_counters(warm) == _engine_counters(fresh)
        # The drain solved again replaced the entry.
        assert _analysis(SOURCE, cache=cache).cache_misses == 0

    def test_an_entry_that_cannot_be_deleted_is_still_a_miss(
        self, tmp_path, monkeypatch
    ):
        """The solve that finds a state that does not decode reads its
        key as a miss whether or not the entry could be deleted."""
        cache = SolutionCache(tmp_path)
        cold = _analysis(SOURCE, cache=cache)
        key = summary_entry_key(
            cold._proc_keys["helper"], cold.solvers["helper"].inputs_digest
        )
        path = cache.entry_path(key)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        _token_out_of_range(envelope["state"]["packed"])
        path.write_text(json.dumps(envelope), encoding="utf-8")

        def refuse(self, missing_ok=False):
            raise PermissionError(f"cannot delete {self}")

        monkeypatch.setattr(type(path), "unlink", refuse)
        before = cache.counters.snapshot()
        warm = _analysis(SOURCE, cache=cache)
        counters = cache.counters.since(before)
        assert warm.cache_miss_procs == {"helper"}
        assert counters.rebuild_failures == 1
        assert list(warm.store.facts()) == list(_analysis(SOURCE).store.facts())


class TestKernelLifetime:
    def test_dropped_solutions_free_their_kernels_without_a_collection(
        self, monkeypatch
    ):
        # A column store holds its kernel's columns and per-node lists,
        # never the kernel.  So the kernel engine's kernel is freed as
        # soon as analyze_program returns, with the cycle collector off;
        # dropping a summary analysis frees its kernels at once, and a
        # dropped summary solution frees its segments.
        kernels = []
        run = KernelAnalysis.run

        def tracked_run(self):
            kernels.append(weakref.ref(self))
            return run(self)

        monkeypatch.setattr(KernelAnalysis, "run", tracked_run)
        enabled = gc.isenabled()
        gc.disable()
        try:
            solution = analyze_source(SOURCE)
            assert len(kernels) == 1 and kernels[0]() is None
            assert solution.may_alias(solution.icfg.exit_of("main"))
            del solution
            analysis, solution = _solution(SOURCE)
            kernels.extend(
                weakref.ref(solver.kernel)
                for solver in analysis.solvers.values()
                if solver.kernel is not None
            )
            segments = [
                weakref.ref(segment)
                for segment in solution.store.segments.values()
            ]
            del analysis
            assert len(kernels) > 2 and segments
            assert [ref() for ref in kernels] == [None] * len(kernels)
            assert all(ref() is not None for ref in segments)
            del solution
            assert [ref() for ref in segments] == [None] * len(segments)
        finally:
            if enabled:
                gc.enable()
