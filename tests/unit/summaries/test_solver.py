"""The summary solver's unit surfaces: portable packed-state tokens,
the inputs digest, and the paper-facing ``procedure_summary`` view."""

import pytest

from repro.cache.store import SolutionCache
from repro.frontend.semantics import parse_and_analyze
from repro.icfg.builder import build_icfg
from repro.programs import ProgramSpec, generate_program
from repro.summaries.solver import ProcSolver, SummaryAnalysis, _PoolFailure

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


def _analysis(source, k=2):
    analyzed = parse_and_analyze(source)
    icfg = build_icfg(analyzed)
    analysis = SummaryAnalysis(analyzed, icfg, k=k)
    analysis.run()
    return analysis


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
        a.advance_digest({"seeds": [], "mirrors": {}})
        assert a.inputs_digest != b.inputs_digest
        b.advance_digest({"seeds": [], "mirrors": {}})
        assert a.inputs_digest == b.inputs_digest
        # The *sequence* is keyed, not the accumulated set.
        a.advance_digest({"retaint": 1, "seeds": [], "mirrors": {}})
        b.advance_digest({"seeds": [], "mirrors": {}})
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
