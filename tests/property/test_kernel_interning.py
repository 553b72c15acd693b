"""Property tests for the kernel's integer interning and fact columns.

Two layers are exercised: the dense-ID interning of names, pairs and
assumptions (ids are dense, stable and decode back to the interned
object), and the fact columns (add / CLEAN-upgrade / iterate through
the kernel's own methods and indexes, and read back through its
:class:`~repro.core.columns.ColumnStore`, behave exactly like the
reference ``MayHoldStore``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import ColumnStore
from repro.core.kernel import KernelAnalysis
from repro.core.store import MayHoldStore
from repro.frontend.semantics import parse_and_analyze
from repro.icfg.builder import build_icfg
from repro.names import DEREF, AliasPair, ObjectName
from repro.programs import ALL_FIXTURES

bases = st.sampled_from(["p", "q", "g1", "main::l1", "$nv1", "$nv2"])
selectors = st.lists(
    st.sampled_from([DEREF, "next", "f"]), min_size=0, max_size=4
).map(tuple)
names = st.builds(
    lambda b, s, t: ObjectName(b, s, truncated=t),
    bases,
    selectors,
    st.booleans(),
)
pairs = st.builds(AliasPair, names, names).filter(lambda p: not p.is_trivial)
assumptions_ = st.lists(pairs, min_size=0, max_size=2).map(tuple)


def _fresh_kernel():
    analyzed = parse_and_analyze(ALL_FIXTURES["figure1"])
    icfg = build_icfg(analyzed)
    return KernelAnalysis(analyzed, icfg, k=3), icfg


class TestInterning:
    @given(st.lists(names, min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_name_ids_dense_stable_and_decodable(self, name_list):
        kernel, _ = _fresh_kernel()
        start = len(kernel._names)
        ids = [kernel._name_id(n) for n in name_list]
        # Stable: re-interning returns the same id.
        assert ids == [kernel._name_id(n) for n in name_list]
        # Dense: every id indexes the decode table.
        assert all(0 <= i < len(kernel._names) for i in ids)
        assert len(kernel._names) - start == len(set(name_list) - set(kernel._names[:start]))
        # Decodable: the table inverts the id map.
        for n, i in zip(name_list, ids):
            assert kernel._names[i] == n
        # Equal names (and only equal names) share an id.
        for a, ia in zip(name_list, ids):
            for b, ib in zip(name_list, ids):
                assert (ia == ib) == (a == b)

    @given(st.lists(pairs, min_size=1, max_size=15))
    @settings(max_examples=50)
    def test_pair_ids_decode_to_member_columns(self, pair_list):
        kernel, _ = _fresh_kernel()
        for p in pair_list:
            pid = kernel._pair_id(p)
            assert kernel._pairs[pid] == p
            assert kernel._names[kernel._pair_first[pid]] == p.first
            assert kernel._names[kernel._pair_second[pid]] == p.second
            assert kernel._pair_id(p) == pid

    @given(st.lists(assumptions_, min_size=1, max_size=10))
    @settings(max_examples=50)
    def test_assumption_ids_decode_and_index_pairs_dedupe(self, aa_list):
        kernel, _ = _fresh_kernel()
        for aa in aa_list:
            aid = kernel._aa_id(aa)
            assert kernel._aas[aid] == aa
            assert kernel._aa_id(aa) == aid
            decoded = tuple(kernel._pairs[p] for p in kernel._aa_pairs[aid])
            assert decoded == aa
            index_pairs = kernel._aa_index_pairs[aid]
            assert len(index_pairs) == len(set(index_pairs))
            assert set(index_pairs) == set(kernel._aa_pairs[aid])

    def test_empty_assumption_is_id_zero(self):
        kernel, _ = _fresh_kernel()
        assert kernel._aa_id(()) == 0
        assert kernel._aas[0] == ()


# One op = (node offset, assumption, pair, clean).
ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), assumptions_, pairs, st.booleans()),
    min_size=1,
    max_size=40,
)


def _make_true(kernel, nid, assumption, pair, clean) -> bool:
    """The kernel's make_true on objects: intern, then add or upgrade."""
    return kernel._make_true(
        nid, kernel._aa_id(assumption), kernel._pair_id(pair), 1 if clean else 0
    )


def _decoded(kernel, bucket) -> set:
    """The ``(assumption, pair)`` of each entry id in ``bucket``."""
    return {
        (kernel._aas[kernel._entry_aa[e]], kernel._pairs[kernel._entry_pair[e]])
        for e in bucket
    }


class TestFactColumns:
    @given(ops)
    @settings(max_examples=60, deadline=None)
    def test_add_upgrade_iterate_matches_reference_store(self, op_list):
        kernel, icfg = _fresh_kernel()
        reference = MayHoldStore()
        n_nodes = len(icfg.nodes)
        for offset, assumption, pair, clean in op_list:
            nid = offset % n_nodes
            created_ref = reference.make_true(nid, assumption, pair, clean)
            created_ker = _make_true(kernel, nid, assumption, pair, clean)
            assert created_ref == created_ker
        store = ColumnStore.of_kernel(kernel)
        assert dict(reference.facts()) == dict(store.facts())
        assert len(reference) == len(store)
        assert reference.pair_counts() == store.pair_counts()
        for offset, assumption, pair, _ in op_list:
            nid = offset % n_nodes
            assert reference.pairs_at(nid) == store.pairs_at(nid)
            assert set(reference.at_node(nid)) == _decoded(kernel, kernel._by_node[nid])
            base_index = kernel._by_node_base[nid]
            for name in (pair.first, pair.second):
                assert reference.partners(nid, name) == store.partners(nid, name)
                if base_index is not None:
                    assert set(reference.at_node_with_base(nid, name.base)) == (
                        _decoded(kernel, base_index.get(name.base, ()))
                    )
            assumed_index = kernel._by_node_assumed[nid]
            for assumed in assumption:
                if assumed_index is not None:
                    bucket = assumed_index.get(kernel._pair_ids[assumed], ())
                    assert set(reference.at_node_assuming(nid, assumed)) == (
                        _decoded(kernel, bucket)
                    )

    @given(ops)
    @settings(max_examples=40, deadline=None)
    def test_taint_is_upgrade_only(self, op_list):
        # CLEAN is sticky: once a fact is certified it never reverts,
        # whatever later TAINTED re-derivations arrive.
        kernel, icfg = _fresh_kernel()
        n_nodes = len(icfg.nodes)
        ever_clean: set = set()
        for offset, assumption, pair, clean in op_list:
            nid = offset % n_nodes
            _make_true(kernel, nid, assumption, pair, clean)
            if clean:
                ever_clean.add((nid, assumption, pair))
        for fact, clean in ColumnStore.of_kernel(kernel).facts():
            assert clean == (fact in ever_clean)

    @given(ops)
    @settings(max_examples=40, deadline=None)
    def test_bucket_snapshot_stable_during_mutation(self, op_list):
        # Answers are snapshots: a caller that grows a set it got back
        # changes nothing in the store, which two solutions may share.
        kernel, icfg = _fresh_kernel()
        n_nodes = len(icfg.nodes)
        for offset, assumption, pair, clean in op_list:
            _make_true(kernel, offset % n_nodes, assumption, pair, clean)
        store = ColumnStore.of_kernel(kernel)
        nid = op_list[0][0] % n_nodes
        name = op_list[0][2].first
        before = (store.pairs_at(nid), store.partners(nid, name), store.pair_counts())
        extra = AliasPair(
            ObjectName("snapshot$a").deref(), ObjectName("snapshot$b")
        )
        store.pairs_at(nid).add(extra)
        store.partners(nid, name).add(extra.first)
        assert not isinstance(store.pair_counts().pairs, set)
        assert (store.pairs_at(nid), store.partners(nid, name)) == before[:2]
        assert store.pair_counts() == before[2]
        assert extra not in store.pairs_at(nid)

    @given(ops)
    @settings(max_examples=30, deadline=None)
    def test_taint_all_counts_demotions(self, op_list):
        kernel, icfg = _fresh_kernel()
        n_nodes = len(icfg.nodes)
        for offset, assumption, pair, clean in op_list:
            _make_true(kernel, offset % n_nodes, assumption, pair, clean)
        clean_now = sum(1 for _, clean in ColumnStore.of_kernel(kernel).facts() if clean)
        assert kernel._taint_all() == clean_now
        assert all(not clean for _, clean in ColumnStore.of_kernel(kernel).facts())
