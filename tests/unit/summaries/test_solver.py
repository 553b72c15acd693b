"""The summary solver's unit surfaces: portable packed-state tokens,
the inputs digest, the paper-facing ``procedure_summary`` view, cache
replay and kernel lifetime."""

import base64
import gc
import weakref

import pytest

import repro.summaries.solver as solver_module
from repro import analyze_source
from repro.cache.store import SolutionCache
from repro.frontend.semantics import parse_and_analyze
from repro.icfg.builder import build_icfg
from repro.programs import ProgramSpec, generate_program
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

#: ``h`` calls ``f``.  With ``f``'s body removed, the environment text
#: (signatures only) and ``h``'s body are unchanged, so ``h``'s first
#: drain has the same key, but its stored state names ``f``'s entry and
#: exit nodes, which no longer exist.
STALE_SOURCE = (
    "int *g; int y; void f(void) { y = 1; } "
    "void h(void) { int x; g = &x; f(); } "
    "int main(void) { h(); return 0; }"
)
STALE_SOURCE_F_DECLARED = STALE_SOURCE.replace(
    "void f(void) { y = 1; }", "void f(void);"
)


def _analysis(source, k=2, cache=None, jobs=1):
    analyzed = parse_and_analyze(source)
    icfg = build_icfg(analyzed)
    analysis = SummaryAnalysis(
        analyzed, icfg, k=k, cache=cache, jobs=jobs, oversubscribe=True
    )
    analysis.run()
    return analysis


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
        before = dict(solver.kernel.store.facts())
        portable = solver.state_portable()

        fresh = ProcSolver(
            "helper", analysis.analyzed, analysis.icfg, analysis.k, None
        )
        fresh.adopt_portable(portable)
        fresh.ensure_live()
        assert dict(fresh.kernel.store.facts()) == before

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
        for (nid, assumption, pair), clean in solver.kernel.store.facts():
            token = solver._token_of.get(nid)
            if token is not None:
                by_token.setdefault(token, set()).add((assumption, pair, clean))

        edited = parse_and_analyze(SOURCE_MAIN_EDITED)
        edited_icfg = build_icfg(edited)
        fresh = ProcSolver("helper", edited, edited_icfg, 2, None)
        fresh.adopt_portable(portable)
        fresh.ensure_live()
        for (nid, assumption, pair), clean in fresh.kernel.store.facts():
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
            oversubscribe=True,
        )
        analysis.run()
        assert len(parallel_calls) == 2
        # The first parallel round's entries hit in the restart.
        assert analysis.cache_hits > 0
        assert analysis.cache_hits + analysis.cache_misses == analysis.drains


class TestCacheReplay:
    def test_stale_token_hit_counts_as_a_miss(self, tmp_path):
        cache = SolutionCache(tmp_path)
        _analysis(STALE_SOURCE, cache=cache)
        before = cache.counters.snapshot()
        analysis = _analysis(STALE_SOURCE_F_DECLARED, cache=cache)
        counters = cache.counters.since(before)
        assert analysis.cache_hits + analysis.cache_misses == analysis.drains
        assert analysis.cache_miss_procs == {"h"}
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
        "edited",
        [CHAIN_NEUTRAL_EDIT, CHAIN_ALIASING_EDIT],
        ids=["neutral-edit", "aliasing-edit"],
    )
    def test_warm_solve_after_an_edit_equals_a_cacheless_solve(
        self, tmp_path, edited, jobs
    ):
        cache = SolutionCache(tmp_path)
        _analysis(CHAIN, cache=cache, jobs=jobs)
        warm = _analysis(edited, cache=cache, jobs=jobs)
        fresh = _analysis(edited, jobs=jobs)
        assert warm.cache_hits > 0
        assert (warm.rounds, warm.drains) == (fresh.rounds, fresh.drains)
        assert list(warm.store.facts()) == list(fresh.store.facts())
        assert _engine_counters(warm) == _engine_counters(fresh)
        for proc in fresh.solvers:
            assert warm.procedure_summary(proc) == fresh.procedure_summary(proc)


class TestKernelLifetime:
    def test_dropped_solutions_free_their_kernels_without_a_collection(self):
        # A kernel's store is a view that points at the kernel, never
        # the reverse, so dropping the last reference frees the kernel
        # at once, with the cycle collector off.
        enabled = gc.isenabled()
        gc.disable()
        try:
            solution = analyze_source(SOURCE)
            kernels = [weakref.ref(solution.store._kernel)]
            del solution
            analysis = _analysis(SOURCE)
            kernels.append(weakref.ref(analysis.store._kernel))
            kernels.extend(
                weakref.ref(solver.kernel)
                for solver in analysis.solvers.values()
                if solver.kernel is not None
            )
            del analysis
            assert len(kernels) > 2
            assert [ref() for ref in kernels] == [None] * len(kernels)
        finally:
            if enabled:
                gc.enable()
