"""Unit tests for the may-hold store and its taint lattice."""

from repro.core import CLEAN, TAINTED, MayHoldStore
from repro.core import assumptions
from repro.names import AliasPair, ObjectName


def pair(a="a", b="b"):
    return AliasPair(ObjectName(a).deref(), ObjectName(b))


class TestMakeTrue:
    def test_absent_fact_is_false(self):
        store = MayHoldStore()
        assert not store.holds(0, assumptions.EMPTY, pair())

    def test_insert_and_query(self):
        store = MayHoldStore()
        assert store.make_true(0, assumptions.EMPTY, pair(), CLEAN)
        assert store.holds(0, assumptions.EMPTY, pair())
        assert store.is_clean(0, assumptions.EMPTY, pair())

    def test_duplicate_insert_is_noop(self):
        store = MayHoldStore()
        store.make_true(0, assumptions.EMPTY, pair(), CLEAN)
        assert not store.make_true(0, assumptions.EMPTY, pair(), CLEAN)
        assert len(store) == 1

    def test_tainted_then_clean_upgrades(self):
        store = MayHoldStore()
        store.make_true(0, assumptions.EMPTY, pair(), TAINTED)
        assert not store.is_clean(0, assumptions.EMPTY, pair())
        assert store.make_true(0, assumptions.EMPTY, pair(), CLEAN)
        assert store.is_clean(0, assumptions.EMPTY, pair())
        assert store.stats.upgrades == 1

    def test_clean_never_downgrades(self):
        store = MayHoldStore()
        store.make_true(0, assumptions.EMPTY, pair(), CLEAN)
        assert not store.make_true(0, assumptions.EMPTY, pair(), TAINTED)
        assert store.is_clean(0, assumptions.EMPTY, pair())

    def test_worklist_order(self):
        store = MayHoldStore()
        store.make_true(0, assumptions.EMPTY, pair("a", "b"), CLEAN)
        store.make_true(1, assumptions.EMPTY, pair("c", "d"), CLEAN)
        first = store.pop()
        second = store.pop()
        assert first[0] == 0 and second[0] == 1
        assert store.pop() is None


class TestDedupDiscipline:
    def test_upgrade_while_pending_processes_once(self):
        # A fact added TAINTED and upgraded to CLEAN before its pop is
        # merged into the queued entry: one pop, at the upgraded state.
        store = MayHoldStore()
        store.make_true(0, assumptions.EMPTY, pair(), TAINTED)
        store.make_true(0, assumptions.EMPTY, pair(), CLEAN)
        assert store.stats.worklist_pushes == 1
        assert store.stats.dedup_hits == 1
        fact = store.pop()
        assert fact == (0, assumptions.EMPTY, pair())
        assert store.taint_of(*fact) is CLEAN
        assert store.pop() is None
        assert store.stats.worklist_pops == 1

    def test_upgrade_after_pop_reenqueues(self):
        # An upgrade after the fact left the queue must re-enter it —
        # downstream facts still need the CLEAN propagation.
        store = MayHoldStore()
        store.make_true(0, assumptions.EMPTY, pair(), TAINTED)
        assert store.pop() is not None
        store.make_true(0, assumptions.EMPTY, pair(), CLEAN)
        assert store.pop() == (0, assumptions.EMPTY, pair())
        assert store.stats.worklist_pops == 2
        assert store.stats.stale_skips == 0

    def test_stale_entry_skipped(self):
        # Defensive net: a queue entry whose store state was already
        # processed (same taint as at the last pop) is skipped.
        store = MayHoldStore()
        store.make_true(0, assumptions.EMPTY, pair(), CLEAN)
        assert store.pop() is not None
        store._enqueue((0, assumptions.EMPTY, pair()))
        assert store.pop() is None
        assert store.stats.stale_skips == 1
        assert store.stats.worklist_pops == 1

    def test_taint_all_demotes_and_drains(self):
        store = MayHoldStore()
        store.make_true(0, assumptions.EMPTY, pair("a", "b"), CLEAN)
        store.make_true(1, assumptions.EMPTY, pair("c", "d"), CLEAN)
        store.make_true(2, assumptions.EMPTY, pair("e", "f"), TAINTED)
        demoted = store.taint_all()
        assert demoted == 2  # only the CLEAN facts change state
        assert store.pop() is None
        assert store.pending == 0
        assert all(clean is TAINTED for _, clean in store.facts())
        assert len(store) == 3  # facts survive, only their taint drops


class TestIndexes:
    def test_at_node(self):
        store = MayHoldStore()
        store.make_true(3, assumptions.EMPTY, pair("x", "y"), CLEAN)
        store.make_true(3, assumptions.EMPTY, pair("x", "z"), CLEAN)
        store.make_true(4, assumptions.EMPTY, pair("x", "y"), CLEAN)
        assert len(list(store.at_node(3))) == 2
        assert len(list(store.at_node(4))) == 1
        assert list(store.at_node(99)) == []

    def test_at_node_with_name(self):
        store = MayHoldStore()
        p = AliasPair(ObjectName("x").deref(), ObjectName("y"))
        store.make_true(3, assumptions.EMPTY, p, CLEAN)
        hits = list(store.at_node_with_name(3, ObjectName("y")))
        assert hits == [(assumptions.EMPTY, p)]
        assert list(store.at_node_with_name(3, ObjectName("x"))) == []

    def test_at_node_with_base(self):
        store = MayHoldStore()
        p = AliasPair(ObjectName("x").deref(), ObjectName("y"))
        store.make_true(3, assumptions.EMPTY, p, CLEAN)
        assert list(store.at_node_with_base(3, "x")) == [(assumptions.EMPTY, p)]
        assert list(store.at_node_with_base(3, "y")) == [(assumptions.EMPTY, p)]
        assert list(store.at_node_with_base(3, "z")) == []

    def test_at_node_assuming(self):
        store = MayHoldStore()
        assumed = pair("g", "h")
        aa = assumptions.single(assumed)
        store.make_true(5, aa, pair("x", "y"), CLEAN)
        store.make_true(5, assumptions.EMPTY, pair("x", "y"), CLEAN)
        hits = list(store.at_node_assuming(5, assumed))
        assert hits == [(aa, pair("x", "y"))]

    def test_pairs_at_deduplicates_assumptions(self):
        store = MayHoldStore()
        aa = assumptions.single(pair("g", "h"))
        store.make_true(5, aa, pair("x", "y"), CLEAN)
        store.make_true(5, assumptions.EMPTY, pair("x", "y"), CLEAN)
        assert store.pairs_at(5) == {pair("x", "y")}
