"""Unit tests for the integer-ID fact kernel (PR 6).

The contract under test: for any program, the kernel's fact set —
pairs, assumptions, taint bits — and every per-node query answer are
identical to the reference engine's (insertion order may differ; the
kernel's directed return join skips the reference's redundant record
rescans).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import analyze_source
from repro.core.analysis import DEFAULT_ENGINE, ENGINES, analyze_program
from repro.core.columns import ColumnStore
from repro.core.kernel import KernelAnalysis
from repro.core.store import CLEAN, TAINTED, MayHoldStore
from repro.core.worklist import MayHoldAnalysis
from repro.frontend.semantics import parse_and_analyze
from repro.icfg.builder import build_icfg
from repro.names import AliasPair, ObjectName
from repro.programs import ALL_FIXTURES

FIGURE1 = ALL_FIXTURES["figure1"]
ROOT = Path(__file__).resolve().parents[3]


def _solve(engine_cls, source, k=3, **kwargs):
    analyzed = parse_and_analyze(source)
    icfg = build_icfg(analyzed)
    analysis = engine_cls(analyzed, icfg, k=k, **kwargs)
    store = analysis.run()
    return analysis, store


def _solve_both(source, k=3, **kwargs):
    _, ref = _solve(MayHoldAnalysis, source, k=k, **kwargs)
    _, ker = _solve(KernelAnalysis, source, k=k, **kwargs)
    return ref, ker


class TestEngineSelection:
    def test_kernel_is_the_default_engine(self):
        assert DEFAULT_ENGINE == "kernel"
        assert set(ENGINES) == {"kernel", "reference", "summary"}

    def test_unknown_engine_rejected(self):
        analyzed = parse_and_analyze(FIGURE1)
        icfg = build_icfg(analyzed)
        with pytest.raises(ValueError, match="engine must be one of"):
            analyze_program(analyzed, icfg, engine="turbo")

    def test_engine_flag_selects_reference(self):
        analyzed = parse_and_analyze(FIGURE1)
        icfg = build_icfg(analyzed)
        solution = analyze_program(analyzed, icfg, engine="reference")
        assert isinstance(solution.store, MayHoldStore)

    def test_analyze_source_default_uses_kernel(self):
        solution = analyze_source(FIGURE1)
        assert isinstance(solution.store, ColumnStore)


class TestEquivalenceSmall:
    @pytest.mark.parametrize("name", ["figure1", "matrix_swap"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fact_sets_taint_and_pairs_match(self, name, k):
        source = ALL_FIXTURES[name]
        ref, ker = _solve_both(source, k=k)
        assert dict(ref.facts()) == dict(ker.facts())
        nids = {nid for (nid, _, _), _ in ref.facts()}
        for nid in nids:
            assert ref.pairs_at(nid) == ker.pairs_at(nid)

    def test_fact_counts_match(self):
        ref, ker = _solve_both(FIGURE1)
        assert len(ref) == len(ker)


class TestKernelStoreQueries:
    """The kernel's finished store holds the reference's facts and
    answers its queries identically; the kernel's own base and
    assumed-pair indexes hold the reference's buckets where kept."""

    def _stores(self):
        ref = _solve(MayHoldAnalysis, FIGURE1)[1]
        kernel, ker = _solve(KernelAnalysis, FIGURE1)
        return ref, ker, kernel

    @staticmethod
    def _decoded(kernel, bucket):
        return {
            (kernel._aas[kernel._entry_aa[e]], kernel._pairs[kernel._entry_pair[e]])
            for e in bucket
        }

    def test_holds_and_is_clean_agree(self):
        ref, ker, _ = self._stores()
        assert dict(ker.facts()) == dict(ref.facts())

    def test_absent_fact_queries(self):
        _, ker, _ = self._stores()
        ghost = AliasPair(ObjectName("nosuch"), ObjectName("other").deref())
        assert all(pair != ghost for (_, _, pair), _ in ker.facts())
        assert ker.partners(0, ghost.first) == set()
        assert ker.partners(0, ghost.second) == set()

    def test_at_node_buckets_agree(self):
        ref, ker, _ = self._stores()
        by_node: dict = {}
        for (nid, assumption, pair), _ in ker.facts():
            by_node.setdefault(nid, set()).add((assumption, pair))
        for node in ker.nids:
            assert set(ref.at_node(node)) == by_node.get(node, set())
            assert ref.pairs_at(node) == ker.pairs_at(node)

    def test_at_node_with_name_and_base_agree(self):
        ref, ker, kernel = self._stores()
        seen = set()
        for (nid, _, pair), _ in ref.facts():
            for name in (pair.first, pair.second):
                if (nid, name) in seen:
                    continue
                seen.add((nid, name))
                assert ref.partners(nid, name) == ker.partners(nid, name)
                base_index = kernel._by_node_base[nid]
                if base_index is not None:
                    assert set(ref.at_node_with_base(nid, name.base)) == (
                        self._decoded(kernel, base_index.get(name.base, ()))
                    )
        assert any(index for index in kernel._by_node_base)

    def test_at_node_assuming_agrees(self):
        ref, _, kernel = self._stores()
        checked = 0
        for (nid, assumption, _), _ in ref.facts():
            assumed_index = kernel._by_node_assumed[nid]
            if assumed_index is None:
                continue
            for assumed in assumption:
                bucket = assumed_index.get(kernel._pair_ids[assumed], ())
                assert set(ref.at_node_assuming(nid, assumed)) == (
                    self._decoded(kernel, bucket)
                )
                checked += 1
        assert checked

    def test_facts_json_matches_object_level_serialization(self):
        from repro.io import pair_to_json

        _, ker, _ = self._stores()
        fast = ker.facts_json()
        slow = [
            {
                "node": nid,
                "assume": [pair_to_json(a) for a in assumption],
                "pair": pair_to_json(pair),
                "clean": bool(clean),
            }
            for (nid, assumption, pair), clean in ker.facts()
        ]
        assert fast == slow


class TestKernelStoreUpdates:
    def test_object_level_make_true_warm_start(self):
        # The summary engine injects mirrored callee exit facts through
        # the kernel's _make_true on interned ids; the fact must be
        # queryable and queued.
        analyzed = parse_and_analyze(FIGURE1)
        icfg = build_icfg(analyzed)
        kernel = KernelAnalysis(analyzed, icfg, k=3)
        pair = AliasPair(ObjectName("g1").deref(), ObjectName("g2"))
        aa_id, pid = kernel._aa_id(()), kernel._pair_id(pair)
        assert kernel._make_true(5, aa_id, pid, 0)
        assert dict(ColumnStore.of_kernel(kernel).facts()) == {(5, (), pair): TAINTED}
        assert len(kernel._worklist) == 1
        # Re-asserting the same taint is a dedup no-op ...
        assert not kernel._make_true(5, aa_id, pid, 0)
        # ... and a CLEAN re-derivation upgrades.
        assert kernel._make_true(5, aa_id, pid, 1)
        assert dict(ColumnStore.of_kernel(kernel).facts()) == {(5, (), pair): CLEAN}

    def test_clear_worklist_drops_pending(self):
        analyzed = parse_and_analyze(FIGURE1)
        icfg = build_icfg(analyzed)
        kernel = KernelAnalysis(analyzed, icfg, k=3)
        pair = AliasPair(ObjectName("g1").deref(), ObjectName("g2"))
        kernel._make_true(3, kernel._aa_id(()), kernel._pair_id(pair), 1)
        assert len(kernel._worklist) == 1
        kernel.clear_worklist()
        assert len(kernel._worklist) == 0
        assert dict(ColumnStore.of_kernel(kernel).facts()) == {(3, (), pair): CLEAN}

    def test_taint_all_demotes_everything(self):
        analyzed = parse_and_analyze(FIGURE1)
        icfg = build_icfg(analyzed)
        kernel = KernelAnalysis(analyzed, icfg, k=3)
        store = kernel.run()
        clean_before = sum(1 for _, clean in store.facts() if clean)
        assert clean_before > 0
        demoted = kernel._taint_all()
        assert demoted == clean_before
        assert all(not clean for _, clean in ColumnStore.of_kernel(kernel).facts())
        assert len(kernel._worklist) == 0


class TestBudgets:
    def test_max_facts_budget_taints_partial_solution(self):
        analyzed = parse_and_analyze(ALL_FIXTURES["linked_list"])
        icfg = build_icfg(analyzed)
        solution = analyze_program(
            analyzed, icfg, max_facts=200, on_budget="partial"
        )
        assert solution.budget.exceeded
        assert solution.budget.reason == "max_facts"
        assert all(not clean for _, clean in solution.store.facts())

    def test_deadline_budget(self):
        analyzed = parse_and_analyze(ALL_FIXTURES["linked_list"])
        icfg = build_icfg(analyzed)
        solution = analyze_program(
            analyzed, icfg, deadline_seconds=0.0, on_budget="partial"
        )
        assert solution.budget.exceeded
        assert solution.budget.reason == "deadline"


class TestEngineReport:
    def test_report_core_counters_match_reference(self):
        # Fact/pop/push counters describe the shared semantics and must
        # agree; the join_* counters measure *effective* work and are
        # allowed to be smaller on the kernel (directed joins).
        ra, _ = _solve(MayHoldAnalysis, FIGURE1)
        ka, _ = _solve(KernelAnalysis, FIGURE1)
        ref = ra.engine_report()
        ker = ka.engine_report()
        assert ref.facts == ker.facts
        assert ker.join_calls <= ref.join_calls
        assert ker.join_fanout <= ref.join_fanout

    def test_solution_report_plumbed_through(self):
        solution = analyze_source(FIGURE1)
        assert solution.engine.facts == len(solution.store)


class TestPerNodeIndexes:
    """The base index is read only by case 3.iii, at a node feeding an
    assignment whose RHS is not opaque; the assumed-pair index only by
    the call-side return join, at a callee's exit.  Each is kept only
    there."""

    def test_indexes_exist_only_where_a_rule_reads_them(self):
        from repro.core.transfer import RhsView
        from repro.icfg.ir import NodeKind
        from repro.programs import ProgramSpec, generate_program

        source = generate_program(ProgramSpec.for_target_nodes("scaling", 240))
        analyzed = parse_and_analyze(source)
        icfg = build_icfg(analyzed)
        kernel = KernelAnalysis(analyzed, icfg, k=3)
        kernel.run()
        feeds_assignment = {
            node.nid
            for node in icfg.nodes
            if any(
                succ.is_pointer_assignment
                and not RhsView.of(succ.stmt.rhs).is_opaque
                for succ in node.succs
            )
        }
        exits = {node.nid for node in icfg.nodes if node.kind is NodeKind.EXIT}
        base_nodes = {nid for nid, index in enumerate(kernel._by_node_base) if index}
        assumed_nodes = {
            nid for nid, index in enumerate(kernel._by_node_assumed) if index
        }
        assert base_nodes and base_nodes <= feeds_assignment
        assert assumed_nodes and assumed_nodes <= exits

    def test_query_only_store_keeps_neither_index(self, monkeypatch):
        from repro.core.columns import decode_packed
        from repro.io import rebuild_solution, solution_to_dict
        from repro.summaries.solver import solve_summary

        analyzed = parse_and_analyze(ALL_FIXTURES["linked_list"])
        icfg = build_icfg(analyzed)
        solution = solve_summary(analyzed, icfg, k=1)
        assert len(solution.store) > 0
        # The summary store packs its segments through a query-only
        # kernel (owned_nodes=frozenset()); replay the payload into one.
        merged = KernelAnalysis(analyzed, icfg, k=1, owned_nodes=frozenset())
        merged.absorb(decode_packed(solution.store.packed_json()))
        merged.clear_worklist()
        assert len(merged.columns().fact_node) == len(solution.store)
        assert not any(merged._by_node_base)
        assert not any(merged._by_node_assumed)

        # A store rebuilt from a packed payload (a cache hit) is a column
        # store, per-position entry lists and name index only, and no
        # kernel is built for it.
        document = solution_to_dict(solution, packed=True)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a rebuild built a kernel")

        monkeypatch.setattr(KernelAnalysis, "__init__", refuse)
        rebuilt = rebuild_solution(document, analyzed, icfg).store
        assert isinstance(rebuilt, ColumnStore)
        assert len(rebuilt) == len(solution.store) > 0
        assert dict(rebuilt.facts()) == dict(solution.store.facts())


class TestLoweredPool:
    """Lowered ``corpus/pool.c`` at k=1: 697 of its return-join slots
    have several members, and the reference engine does not finish it
    in useful time, so its answer is pinned by digest instead."""

    def test_fact_set_and_join_fanout_pinned(self):
        pytest.importorskip("pycparser")
        from repro.corpus.stubs import synthesize_stubs
        from repro.frontend.pycparser_bridge import parse_c_lenient
        from repro.frontend.semantics import analyze
        from repro.icfg.builder import IcfgBuilder
        from repro.io import pair_to_json

        unit = parse_c_lenient((ROOT / "corpus" / "pool.c").read_text(), "pool.c")
        synthesize_stubs(unit.program)
        analyzed = analyze(unit.program)
        icfg = IcfgBuilder(analyzed).build()
        solution = analyze_program(analyzed, icfg, k=1)
        assert solution.complete
        assert len(solution.store) == 56_369
        # sha256 over the sorted (node, AA, PA, taint) rows, AA and PA
        # in their JSON encoding: the benchmark's golden digest.
        rows = sorted(
            (
                nid,
                json.dumps([pair_to_json(p) for p in assumption]),
                json.dumps(pair_to_json(pair)),
                int(bool(clean)),
            )
            for (nid, assumption, pair), clean in solution.store.facts()
        )
        digest = hashlib.sha256()
        for row in rows:
            digest.update(("\t".join(map(str, row)) + "\n").encode("utf-8"))
        assert digest.hexdigest() == (
            "2ea109e42f10bafc2215e24e3796ee34c73958dbee59af9d8929ce5023f8ebb8"
        )
        # Joining each (caller assumption, representative) slot once:
        # 124,627 attempts, against 1,936,500 record by record.
        assert solution.engine.join_fanout < 200_000


def test_import_does_not_load_numpy():
    """The core is stdlib-only (DESIGN.md §3): importing numpy would
    cost every run tens of milliseconds before its first solve."""
    code = "import sys, repro; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True,
    )
    assert result.stdout.strip() == "False"
