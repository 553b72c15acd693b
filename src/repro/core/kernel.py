"""Integer-ID fact kernel: the fast may-hold engine (ROADMAP item 1).

The reference engine (:mod:`.worklist` + :mod:`.store`) manipulates
interned ``ObjectName``/``AliasPair``/``Assumption`` objects directly;
every propagation step re-runs the §4.5 case analysis — prefix tests,
k-limiting, transplants, extension enumeration — on objects.  This
module keeps the *semantics* (same rules, same emission order, same
precision lattice) but moves the hot loop onto dense integers:

* names, pairs and assumptions are interned to dense ids (extending the
  PR-1 hash-consing one level up),
* an *entry* id packs an ``(assumption, pair)`` combination and a
  *fact* id packs ``(entry, node)``; facts live in parallel
  ``array``/``bytearray`` columns (taint is one byte per fact, the
  worklist is a deque of fact ids, and the stale-skip map of the
  reference store becomes a flat byte array that is reset on drain),
* the per-assignment transfer function is compiled on first use into a
  table keyed by incoming pair id — the paper's case analysis collapses
  to "replay this list of pair-id emission plans, run these dynamic
  probes" (an *emission plan* is the transitive ``_emit`` expansion:
  primary pair, typed extension pairs, cycle-closure pairs, with the
  reference's exact make_true gating),
* call binding, return translation and assumption combination are
  memoized per call site / id tuple.

Equivalence contract (pinned by the PR-6 difftest edge): for any
program, the kernel's fact *set* — pairs, assumptions and taint bits —
and every per-node ``pairs_at`` answer are **identical** to the
reference engine's.  Every rule application mirrors the reference's
control flow, with two deliberate divergences, both in the return
join:

* It is *directed* (see ``_join_slot``): on a call-site pop only the
  popping fact's slot is joined against the callee's exit facts,
  instead of rescanning the whole record-by-exit-fact product.  Every
  skipped pair is a join the reference also performs but whose
  ``make_true`` is an exact no-op; the only observable difference is
  that a return fact can first materialize at the exit fact's own pop
  rather than at an earlier redundant rescan, so fact *insertion
  order* (and the redundant-work counters) may differ between engines
  while sets, taint and answers cannot.
* It joins *slots*, not bind records.  A record is (caller fact,
  represented name), and the fact a join creates at the return node
  depends only on the exit fact, the caller fact's *assumption* and
  the name each nonvisible token stands for (Figure 3, back-bind); the
  caller pair decides nothing but taint.  So the registry groups the
  records of each call site and entry pair into slots by (caller
  assumption, representative), and joins each slot once at the OR of
  its members' taints.  That equals joining every member: each
  member's join creates the same fact at ``exit taint AND member
  taint``, and ``make_true`` keeps the highest taint it is given.  The
  OR is read *live*, each member's call fact at join time, exactly as
  the record join read its own call fact, so a one-member slot
  behaves like the record it replaces (a budget-cut run, whose fact
  set depends on the order of work, stays unchanged).  A member pop
  joins its slot only when the slot is new or its live taint rose
  above the taint of the slot's last member-pop join — otherwise
  every combination it would try was already made at that taint, and
  the exit facts that arrived since joined the slot at their own
  pops.  Exit-side joins always join every slot.

The reference engine remains the executable specification: it runs via
``engine="reference"``; everything else defaults to the kernel (see
:func:`repro.core.analysis.analyze_program`).
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from typing import Iterator, Optional

from ..frontend.semantics import AnalyzedProgram
from ..icfg.graph import ICFG
from ..icfg.ir import CallInfo, Node, NodeKind, PtrAssign
from ..names.alias_pairs import AliasPair, interned_pair_count
from ..names.context import NameContext
from ..names.object_names import (
    DEREF,
    NONVISIBLE_BASES,
    ObjectName,
    interned_name_count,
    is_nonvisible_based,
    k_limit,
)
from . import assumptions
from .assumptions import Assumption
from .bind import BoundAlias, CallBinder
from .columns import _PACK_TYPECODE, _SHIFT, ColumnStore, FactColumns
from .metrics import (
    PHASE_INIT,
    PHASE_POST,
    PHASE_PROPAGATE,
    BudgetOutcome,
    EngineReport,
    PhaseTimer,
)
from .store import StoreStats
from .transfer import RhsView, _prefixes, _transplant_onto

_LOW = (1 << _SHIFT) - 1
_MISSING = object()

# Mirrors worklist._DEADLINE_CHECK_EVERY.
_DEADLINE_CHECK_EVERY = 256


def _slot_taint(slot: list[int], taint: bytearray) -> int:
    """Live taint of a join slot: CLEAN when any member's call fact is
    CLEAN now (a bind_empty member, -1, always is)."""
    for fid in slot[1:]:
        if fid < 0 or taint[fid]:
            return 1
    return 0


class _AssignTable:
    """Static (per-assignment-node) half of the §4.5 case analysis.

    Everything derivable from the statement alone is computed once:
    the k-limited LHS, the RHS view, the intro plan, the probe name ids
    for the approximation-3/4 detectors and the ``_lhs_aliases`` prefix
    walk.  Per-incoming-pair work is memoized in ``pair_memo``.
    """

    __slots__ = (
        "lhs",
        "lhs_id",
        "weak",
        "rhs",
        "rhs_opaque",
        "rhs_base_base",
        "rhs_base_id",
        "intro_plan",
        "lhs_probes",
        "a4_probe_ids",
        "pair_memo",
        "lhs_w_memo",
        "transplant_memo",
        "match_memo",
    )

    def __init__(self, kernel: "KernelAnalysis", stmt: PtrAssign) -> None:
        k = kernel.k
        self.lhs = k_limit(stmt.lhs, k)
        self.lhs_id = kernel._name_id(self.lhs)
        self.weak = stmt.weak or self.lhs.truncated
        self.rhs = RhsView.of(stmt.rhs)
        self.rhs_opaque = self.rhs.is_opaque
        if self.rhs_opaque:
            self.rhs_base_base: Optional[str] = None
            self.rhs_base_id = -1
        else:
            assert self.rhs.base is not None
            self.rhs_base_base = self.rhs.base.base
            self.rhs_base_id = kernel._name_id(self.rhs.base)
        pair = self.rhs.intro_target(self.lhs)
        if pair is None:
            self.intro_plan = None
        else:
            self.intro_plan = kernel._plan(
                kernel._name_id(k_limit(pair.first, k)),
                kernel._name_id(k_limit(pair.second, k)),
            )
        # (exact-name id, suffix transforming the prefix into lhs,
        # exact is the truncated variant) for every probe the reference
        # _lhs_aliases walk makes, in its order.
        probes: list[tuple[int, tuple[str, ...], bool]] = []
        for prefix in _prefixes(self.lhs):
            suffix = self.lhs.suffix_after(prefix)
            for exact in (
                prefix,
                ObjectName(prefix.base, prefix.selectors, truncated=True),
            ):
                probes.append((kernel._name_id(exact), suffix, exact.truncated))
        self.lhs_probes = tuple(probes)
        # Approximation-4 probes use the untruncated prefixes only.
        self.a4_probe_ids = tuple(
            kernel._name_id(p) for p in _prefixes(self.lhs)
        )
        # incoming pair id -> (case1, c2_plans, c2iii, c3) record.
        self.pair_memo: dict[int, tuple] = {}
        # (probe index << _SHIFT | w id) -> w' id for _lhs_aliases.
        self.lhs_w_memo: dict[int, int] = {}
        # (matched member id << _SHIFT | target id) -> transplanted id.
        self.transplant_memo: dict[int, int] = {}
        # pair id -> ((member id, other id), ...) of RHS-matching members.
        self.match_memo: dict[int, tuple] = {}


class _CallTable:
    """Static per-call-site data: binder, paired node ids and the
    memoized bind results in id form."""

    __slots__ = (
        "call_nid",
        "callee",
        "callee_idx",
        "entry_nid",
        "exit_nid",
        "ret_nid",
        "binder",
        "bind_empty",
        "bind_pair_memo",
        "both_inv_memo",
    )

    def __init__(self, kernel: "KernelAnalysis", node: Node) -> None:
        self.call_nid = node.nid
        callee = node.callee or ""
        self.callee = callee
        self.callee_idx = kernel._callee_index(callee)
        self.entry_nid = kernel.icfg.entry_of(callee).nid
        self.exit_nid = kernel.icfg.exit_of(callee).nid
        ret = node.paired_return
        assert ret is not None
        self.ret_nid = ret.nid
        if callee in kernel.analyzed.symbols.functions:
            info = kernel.analyzed.symbols.function(callee)
            assert isinstance(node.stmt, CallInfo)
            self.binder: Optional[CallBinder] = CallBinder(
                kernel.ctx, node.stmt, info
            )
            self.bind_empty = kernel._bound_ids(self.binder.bind_empty())
        else:
            self.binder = None
            self.bind_empty = ()
        # incoming pair id -> ((entry pair id, represents id | -1), ...)
        self.bind_pair_memo: dict[int, tuple] = {}
        # incoming pair id -> Rule 1 applies?
        self.both_inv_memo: dict[int, bool] = {}


class KernelAnalysis:
    """Drop-in replacement for :class:`~repro.core.worklist.MayHoldAnalysis`
    running the worklist over packed integer fact ids."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        icfg: ICFG,
        k: int = 3,
        max_facts: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        timer: Optional[PhaseTimer] = None,
        owned_nodes: Optional[frozenset[int]] = None,
    ) -> None:
        self.analyzed = analyzed
        self.icfg = icfg
        self.k = k
        # Restricted mode (the summary engine's per-procedure kernels):
        # transfer tables, successor edges and initialization cover only
        # the owned nodes.  Facts may still be recorded at foreign nodes
        # (callee entry seeds, mirrored callee exit facts) — they pop as
        # no-ops, except at exit nodes where the owned call sites' return
        # joins run.  ``None`` means the ordinary whole-program kernel.
        self.owned_nodes = owned_nodes
        self.ctx = NameContext(analyzed.symbols, k)
        self.max_facts = max_facts
        self.deadline_seconds = deadline_seconds
        self.timer = timer if timer is not None else PhaseTimer()
        self.budget = BudgetOutcome(
            max_facts=max_facts, deadline_seconds=deadline_seconds
        )
        self.steps = 0
        self.join_calls = 0
        self.join_fanout = 0
        self.stale_bind_records = 0
        self.stats = StoreStats()

        # -- interning layers ----------------------------------------------
        self._names: list[ObjectName] = []
        self._name_ids: dict[ObjectName, int] = {}
        self._name_nv: list[int] = []  # 0 = visible, 1 = $nv1, 2 = $nv2
        self._pairs: list[AliasPair] = []
        self._pair_ids: dict[AliasPair, int] = {}
        self._pair_first = array(_PACK_TYPECODE)
        self._pair_second = array(_PACK_TYPECODE)
        self._aas: list[Assumption] = []
        self._aa_ids: dict[Assumption, int] = {}
        self._aa_pairs: list[tuple[int, ...]] = []
        self._aa_index_pairs: list[tuple[int, ...]] = []  # deduped
        self._aa_has_nv: list[bool] = []
        self._aa_id(assumptions.EMPTY)  # aa id 0 is the empty assumption
        # (aa id << _SHIFT | pair id) -> entry id; entry columns.
        self._entry_ids: dict[int, int] = {}
        self._entry_aa = array(_PACK_TYPECODE)
        self._entry_pair = array(_PACK_TYPECODE)
        # (entry id << _SHIFT | node id) -> fact id; fact columns.
        self._fact_ids: dict[int, int] = {}
        self._fact_node = array(_PACK_TYPECODE)
        self._fact_entry = array(_PACK_TYPECODE)
        self._taint = bytearray()  # 1 = CLEAN, 0 = TAINTED
        self._pending = bytearray()
        # Stale-skip state: 0 = not popped since last drain/reset, else
        # (taint at last pop) + 1.  The reference keeps this as an
        # unbounded dict; here it is one byte per fact, zeroed on drain.
        self._popped = bytearray()
        self._worklist: deque[int] = deque()

        # -- per-node indexes (insertion-ordered, mirroring the
        # reference store's insertion-ordered index dicts) -----------------
        n_nodes = len(icfg.nodes)
        self._by_node: list[list[int]] = [[] for _ in range(n_nodes)]
        self._by_node_name: list[dict[int, list[int]]] = [
            {} for _ in range(n_nodes)
        ]
        # One rule reads each of these two, so they are kept only at the
        # nodes where it reads them (chosen with the dispatch tables
        # below) and are None elsewhere.
        self._by_node_base: list[Optional[dict[str, list[int]]]] = [
            None
        ] * n_nodes
        self._by_node_assumed: list[Optional[dict[int, list[int]]]] = [
            None
        ] * n_nodes

        # -- memo tables ----------------------------------------------------
        # (a id << _SHIFT | b id) -> emission plan (ordered arguments:
        # extension enumeration is argument-order sensitive).
        self._plan_memo: dict[int, Optional[tuple]] = {}
        # pair id -> aa id of the single-pair assumption.
        self._single_aa_memo: dict[int, int] = {}
        # pair id -> pair id with tokens renumbered.
        self._normalize_memo: dict[int, int] = {}
        self._second_form_memo: dict[int, int] = {}
        # (aa1, aa2, name a, name b) -> None | (aa id, pair id | -1).
        self._combine_memo: dict[tuple, Optional[tuple[int, int]]] = {}
        # (callee idx, exit pair id, sub1, sub2) -> None | (m1, m2, pid).
        self._translate_memo: dict[tuple, Optional[tuple[int, int, int]]] = {}
        # (u id << _SHIFT | v id) -> is_prefix_with_deref(u, v).
        self._ipd_memo: dict[int, bool] = {}
        self._callee_ids: dict[str, int] = {}
        # The back-bind registry: (call nid << _SHIFT | entry pair id)
        # -> {caller aa << _SHIFT | represents + 1: join slot}, slots in
        # first-registration order.  A slot is a list [joined-at taint
        # | -1, member call-fact ids...]; a bind_empty member is -1 (see
        # _join_slot).
        self._registry: dict[int, dict[int, list[int]]] = {}
        # Per fact, 1 once its bindings are registered, so a re-pop (a
        # taint upgrade) registers nothing again.  Grown on demand.
        self._registered = bytearray()

        # -- per-node dispatch tables --------------------------------------
        self._node_tag = bytearray(n_nodes)  # 0 other, 1 call, 2 exit
        self._assign_tables: dict[int, _AssignTable] = {}
        self._call_tables: dict[int, _CallTable] = {}
        self._exit_calls: dict[int, tuple[_CallTable, ...]] = {}
        owned = owned_nodes
        for node in icfg.nodes:
            if owned is not None and node.nid not in owned:
                continue
            if node.is_pointer_assignment:
                assert isinstance(node.stmt, PtrAssign)
                self._assign_tables[node.nid] = _AssignTable(self, node.stmt)
        for node in icfg.nodes:
            if owned is not None and node.nid not in owned:
                continue
            if node.kind is NodeKind.CALL and node.callee in icfg.procs:
                self._node_tag[node.nid] = 1
                self._call_tables[node.nid] = _CallTable(self, node)
        for node in icfg.nodes:
            if node.kind is NodeKind.EXIT:
                # Every exit node gets tag 2 and an (often empty) call
                # list even in restricted mode: a mirrored callee exit
                # fact must dispatch to the return joins of exactly the
                # *owned* call sites, and the owned procedure's own exit
                # joins into foreign callers nowhere — its exit table is
                # harvested by the summary coordinator instead.
                self._node_tag[node.nid] = 2
                calls = []
                for ret in node.succs:
                    call = ret.paired_call
                    assert call is not None
                    table = self._call_tables.get(call.nid)
                    if table is not None:
                        calls.append(table)
                    else:
                        assert owned is not None
                self._exit_calls[node.nid] = tuple(calls)
        self._succs: list[tuple[tuple[int, Optional[_AssignTable]], ...]] = [
            ()
        ] * n_nodes
        for node in icfg.nodes:
            if owned is not None and node.nid not in owned:
                continue
            self._succs[node.nid] = tuple(
                (succ.nid, self._assign_tables.get(succ.nid))
                for succ in node.succs
            )
        # Case 3.iii reads the base index at the node it pops from, when
        # that node feeds an assignment whose RHS is not opaque.  The
        # call-side return join reads the assumed-pair index at the exit
        # of each owned call site's callee.
        for nid, succs in enumerate(self._succs):
            if self._node_tag[nid] == 0 and any(
                table is not None and not table.rhs_opaque
                for _succ, table in succs
            ):
                self._by_node_base[nid] = {}
        for ct in self._call_tables.values():
            self._by_node_assumed[ct.exit_nid] = {}

    def columns(self) -> FactColumns:
        """This kernel's own tables and fact columns, not copies: absorb
        them into another kernel, never into this one."""
        return FactColumns(
            self._names,
            self._pair_first,
            self._pair_second,
            self._pairs,
            self._aas,
            self._aa_pairs,
            self._entry_aa,
            self._entry_pair,
            self._fact_node,
            self._fact_entry,
            self._taint,
        )

    # -- interning ----------------------------------------------------------

    def _name_id(self, name: ObjectName) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self._names)
            self._name_ids[name] = nid
            self._names.append(name)
            base = name.base
            self._name_nv.append(
                1
                if base == NONVISIBLE_BASES[0]
                else 2
                if base == NONVISIBLE_BASES[1]
                else 0
            )
        return nid

    def _pair_id(self, pair: AliasPair) -> int:
        pid = self._pair_ids.get(pair)
        if pid is None:
            pid = len(self._pairs)
            self._pair_ids[pair] = pid
            self._pairs.append(pair)
            self._pair_first.append(self._name_id(pair.first))
            self._pair_second.append(self._name_id(pair.second))
        return pid

    def _aa_id(self, assumption: Assumption) -> int:
        aid = self._aa_ids.get(assumption)
        if aid is None:
            aid = len(self._aas)
            self._aa_ids[assumption] = aid
            self._aas.append(assumption)
            pair_ids = tuple(self._pair_id(p) for p in assumption)
            self._aa_pairs.append(pair_ids)
            self._aa_index_pairs.append(tuple(dict.fromkeys(pair_ids)))
            self._aa_has_nv.append(assumptions.has_nonvisible(assumption))
        return aid

    def _single_aa(self, pid: int) -> int:
        aid = self._single_aa_memo.get(pid)
        if aid is None:
            aid = self._aa_id(assumptions.single(self._pairs[pid]))
            self._single_aa_memo[pid] = aid
        return aid

    def _callee_index(self, callee: str) -> int:
        idx = self._callee_ids.get(callee)
        if idx is None:
            idx = len(self._callee_ids)
            self._callee_ids[callee] = idx
        return idx

    # -- the store core ------------------------------------------------------

    def _make_true(self, nid: int, aa_id: int, pid: int, clean: int) -> bool:
        ekey = (aa_id << _SHIFT) | pid
        eid = self._entry_ids.get(ekey)
        if eid is None:
            eid = len(self._entry_aa)
            self._entry_ids[ekey] = eid
            self._entry_aa.append(aa_id)
            self._entry_pair.append(pid)
        return self._make_true_entry(nid, eid, clean)

    def _make_true_entry(self, nid: int, eid: int, clean: int) -> bool:
        fkey = (eid << _SHIFT) | nid
        fid = self._fact_ids.get(fkey)
        if fid is None:
            fid = len(self._fact_node)
            self._fact_ids[fkey] = fid
            self._fact_node.append(nid)
            self._fact_entry.append(eid)
            self._taint.append(1 if clean else 0)
            self._pending.append(1)
            self._popped.append(0)
            pid = self._entry_pair[eid]
            self._by_node[nid].append(eid)
            first = self._pair_first[pid]
            second = self._pair_second[pid]
            by_name = self._by_node_name[nid]
            bucket = by_name.get(first)
            if bucket is None:
                by_name[first] = [eid]
            else:
                bucket.append(eid)
            if second != first:
                bucket = by_name.get(second)
                if bucket is None:
                    by_name[second] = [eid]
                else:
                    bucket.append(eid)
            by_base = self._by_node_base[nid]
            if by_base is not None:
                first_base = self._names[first].base
                second_base = self._names[second].base
                bucket = by_base.get(first_base)
                if bucket is None:
                    by_base[first_base] = [eid]
                else:
                    bucket.append(eid)
                if second_base != first_base:
                    bucket = by_base.get(second_base)
                    if bucket is None:
                        by_base[second_base] = [eid]
                    else:
                        bucket.append(eid)
            by_assumed = self._by_node_assumed[nid]
            if by_assumed is not None:
                for ap in self._aa_index_pairs[self._entry_aa[eid]]:
                    bucket = by_assumed.get(ap)
                    if bucket is None:
                        by_assumed[ap] = [eid]
                    else:
                        bucket.append(eid)
            stats = self.stats
            stats.facts += 1
            self._worklist.append(fid)
            stats.worklist_pushes += 1
            return True
        if clean and not self._taint[fid]:
            self._taint[fid] = 1
            stats = self.stats
            stats.upgrades += 1
            if self._pending[fid]:
                stats.dedup_hits += 1
            else:
                self._pending[fid] = 1
                self._worklist.append(fid)
                stats.worklist_pushes += 1
            return True
        return False

    def _taint_entry_at(self, nid: int, eid: int) -> int:
        """Taint of an existing fact (KeyError when absent, mirroring
        the reference ``taint_of``)."""
        return self._taint[self._fact_ids[(eid << _SHIFT) | nid]]

    def _taint_all(self) -> int:
        taint = self._taint
        demoted = taint.count(1)
        self._taint = bytearray(len(taint))
        self.clear_worklist()
        self._reset_slot_joins()
        return demoted

    def clear_worklist(self) -> None:
        """Drop every queued fact without touching the facts."""
        self._worklist.clear()
        self._pending = bytearray(len(self._pending))
        self._popped = bytearray(len(self._popped))

    # -- emission plans ------------------------------------------------------

    def _plan(self, a_id: int, b_id: int) -> Optional[tuple]:
        """The transitive ``_emit`` expansion for the name pair
        ``(a, b)``: None when the pair is trivial, else ``(primary pair
        id, extension pair ids, cycle-closure entries)``.  Keyed on the
        *ordered* name ids — extension enumeration drives from the
        first usable argument, so order matters."""
        key = (a_id << _SHIFT) | b_id
        plan = self._plan_memo.get(key, _MISSING)
        if plan is not _MISSING:
            return plan  # type: ignore[return-value]
        a = self._names[a_id]
        b = self._names[b_id]
        pair = AliasPair(a, b)
        if pair.is_trivial:
            plan = None
        else:
            plan = (
                self._pair_id(pair),
                tuple(
                    self._pair_id(p) for p in self.ctx.extension_pairs(a, b)
                ),
                self._closure_plan(a, b),
            )
        self._plan_memo[key] = plan
        return plan

    def _closure_plan(
        self, a: ObjectName, b: ObjectName
    ) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Mirrors ``AssignTransfer._emit_cycle_closure``: the pairwise
        closure of a same-base prefix cycle, each pair with its own
        extension set (gated on its own make_true at replay time)."""
        if a.base != b.base or a.truncated or b.truncated:
            return ()
        if b.is_prefix(a) and len(b.selectors) < len(a.selectors):
            short, long = b, a
        elif a.is_prefix(b) and len(a.selectors) < len(b.selectors):
            short, long = a, b
        else:
            return ()
        gamma = long.suffix_after(short)
        if DEREF not in gamma:
            return ()
        chain: list[ObjectName] = []
        current = short
        for _ in range(self.k + 2):
            limited = k_limit(current, self.k)
            chain.append(limited)
            if limited.truncated:
                break
            current = current.extend(gamma)
        out: list[tuple[int, tuple[int, ...]]] = []
        for i, first in enumerate(chain):
            for second in chain[i + 1 :]:
                pair = AliasPair(first, second)
                if pair.is_trivial:
                    continue
                out.append(
                    (
                        self._pair_id(pair),
                        tuple(
                            self._pair_id(p)
                            for p in self.ctx.extension_pairs(first, second)
                        ),
                    )
                )
        return tuple(out)

    def _run_plan(self, succ: int, aa_id: int, plan: tuple, clean: int) -> None:
        # Unconditional, mirroring ``AssignTransfer._emit``: gating the
        # extension/closure pairs on the primary being *new* made the
        # fact set arrival-order-dependent (the primary can first land
        # via a return join or case-1 preservation, which carry no
        # extensions).  Replaying the whole plan every time keeps the
        # transfer's output a pure function of the popped fact.
        primary, extensions, closure = plan
        self._make_true(succ, aa_id, primary, clean)
        for pid in extensions:
            self._make_true(succ, aa_id, pid, clean)
        for pid, exts in closure:
            self._make_true(succ, aa_id, pid, clean)
            for ext in exts:
                self._make_true(succ, aa_id, ext, clean)

    # -- driver --------------------------------------------------------------

    def run(self) -> ColumnStore:
        """Solve and return the finished facts as a :class:`ColumnStore`
        over this kernel's own columns and per-node lists.  The store
        never points back at the kernel, so the rest of the kernel's
        working state is freed with the kernel (DESIGN.md §5b)."""
        with self.timer.phase(PHASE_INIT):
            self._initialize()
        with self.timer.phase(PHASE_PROPAGATE):
            self._drain()
            if not self.budget.exceeded:
                self._retaint()
        if self.budget.exceeded:
            with self.timer.phase(PHASE_POST):
                self.budget.demoted_facts = self._taint_all()
        return ColumnStore.of_kernel(self)

    def absorb(self, columns: FactColumns) -> None:
        """Replay another store's fact rows into this kernel through
        :meth:`_make_true_entry`.

        The summary engine uses it to restore a per-procedure kernel
        between drains (facts replay in stored order, so every per-node
        index — and therefore all future behavior — matches the
        never-packed kernel exactly) and to pack its segments as one
        whole-program payload.  Counter
        side effects are the caller's problem: replay bumps
        ``stats.facts``/pushes like a live run would, so a restore that
        wants continuous-run counters must snapshot and reinstate them."""
        pair_map = array("q", map(self._pair_id, columns.pairs))
        aa_map = array("q", map(self._aa_id, columns.aas))
        entry_map = array("q")
        for aa_idx, pair_idx in zip(columns.entry_aa, columns.entry_pair):
            ekey = (aa_map[aa_idx] << _SHIFT) | pair_map[pair_idx]
            eid = self._entry_ids.get(ekey)
            if eid is None:
                eid = len(self._entry_aa)
                self._entry_ids[ekey] = eid
                self._entry_aa.append(aa_map[aa_idx])
                self._entry_pair.append(pair_map[pair_idx])
            entry_map.append(eid)
        fact_node = columns.fact_node
        fact_entry = columns.fact_entry
        taint = columns.taint
        make_true_entry = self._make_true_entry
        for i in range(len(fact_node)):
            make_true_entry(fact_node[i], entry_map[fact_entry[i]], taint[i])

    def replay_registrations(self) -> None:
        """Rebuild the back-bind registry of a restored store exactly as
        the live run built it.

        A live run registers every call site's ``bind_empty`` members
        during ``_initialize`` (in ICFG node order) and then each
        call-node fact at its *first pop*.  First pops occur in
        fact-insertion order, and registry keys are per ``(call node,
        entry pair)``, so replaying each call node's ``_by_node`` bucket
        in insertion order reproduces every per-key slot sequence and
        every slot's members — which is all the join iteration order can
        observe.  Every slot starts unjoined, as at the start of any
        drain."""
        for ct in self._call_tables.values():
            if ct.binder is None:
                continue
            for entry_pid, rep in ct.bind_empty:
                self._register(ct, entry_pid, 0, rep, -1)
        for ct in self._call_tables.values():
            if ct.binder is None:
                continue
            for eid in self._by_node[ct.call_nid]:
                bound = self._bound(ct, self._entry_pair[eid])
                if not bound:
                    continue
                fid = self._call_fact(ct, eid)
                self._first_registration(fid)
                aa_id = self._entry_aa[eid]
                for entry_pid, rep in bound:
                    self._register(ct, entry_pid, aa_id, rep, fid)

    def _initialize(self) -> None:
        owned = self.owned_nodes
        for node in self.icfg.nodes:
            if owned is not None and node.nid not in owned:
                continue
            if node.is_pointer_assignment:
                table = self._assign_tables[node.nid]
                if table.intro_plan is not None:
                    self._run_plan(node.nid, 0, table.intro_plan, 1)
            elif node.kind is NodeKind.CALL and node.callee in self.icfg.procs:
                ct = self._call_tables[node.nid]
                if ct.binder is None:
                    continue
                for entry_pid, rep in ct.bind_empty:
                    self._register(ct, entry_pid, 0, rep, -1)
                    self._make_true(
                        ct.entry_nid, self._single_aa(entry_pid), entry_pid, 1
                    )

    def _retaint(self) -> None:
        """Second pass: recompute every CLEAN bit against the *frozen*
        fact set.

        The paper's approximation-3/4 probes read the store at pop
        time, so a first-pass CLEAN means "no rebinding alias had been
        derived yet when this fact popped" — a property of the worklist
        schedule, not of the solution.  Once the fact set has converged
        the probes are constants, every taint rule is monotone (CLEAN
        only ever upgrades, and an upgrade re-queues the fact so each
        rule re-fires), and re-deriving taint from the unconditional
        CLEAN sources reaches a *unique* fixpoint: the facts certifiable
        precise over the complete relation, independent of processing
        order.  That is what lets the summary engine's very different
        schedule — and the reference engine's — agree bit for bit."""
        self._taint_all()
        self._reseed_clean()
        self._drain()

    def _reseed_clean(self) -> None:
        """Re-emit the unconditionally-CLEAN sources over an existing
        fact set: assignment introductions (Figure 2) and the entry
        seeds call binding produced.  Entry nodes receive facts *only*
        from bind seeds — which are CLEAN by rule regardless of the
        call fact's taint — so re-certifying everything recorded at a
        called entry restores exactly the seed set."""
        owned = self.owned_nodes
        seen_entries: set[int] = set()
        for node in self.icfg.nodes:
            if owned is not None and node.nid not in owned:
                continue
            if node.is_pointer_assignment:
                table = self._assign_tables[node.nid]
                if table.intro_plan is not None:
                    self._run_plan(node.nid, 0, table.intro_plan, 1)
            elif node.kind is NodeKind.CALL and node.callee in self.icfg.procs:
                ct = self._call_tables[node.nid]
                if ct.binder is None:
                    continue
                entry_nid = ct.entry_nid
                if entry_nid in seen_entries:
                    continue
                seen_entries.add(entry_nid)
                for eid in self._by_node[entry_nid]:
                    self._make_true_entry(entry_nid, eid, 1)

    def _bound_ids(
        self, bound_aliases: tuple[BoundAlias, ...]
    ) -> tuple[tuple[int, int], ...]:
        """Distinct ``(entry pair id, represents id | -1)`` of a binder
        result, in binding order."""
        return tuple(
            dict.fromkeys(
                (
                    self._pair_id(b.entry_pair),
                    -1 if b.represents is None else self._name_id(b.represents),
                )
                for b in bound_aliases
            )
        )

    def _bound(self, ct: _CallTable, pid: int) -> tuple[tuple[int, int], ...]:
        bound = ct.bind_pair_memo.get(pid)
        if bound is None:
            assert ct.binder is not None
            bound = self._bound_ids(ct.binder.bind_pair(self._pairs[pid]))
            ct.bind_pair_memo[pid] = bound
        return bound

    def _call_fact(self, ct: _CallTable, eid: int) -> int:
        """Fact id of entry ``eid`` at ``ct``'s call node, which the
        node's bucket lists.  Facts are never retracted, so a miss means
        the store's indexes disagree and the registry would hold a
        stale record."""
        fid = self._fact_ids.get((eid << _SHIFT) | ct.call_nid)
        if fid is None:
            self.stale_bind_records += 1
            raise AssertionError(
                f"stale BindRecord at call n{ct.call_nid}: "
                f"{self._pairs[self._entry_pair[eid]]} under "
                f"{self._aas[self._entry_aa[eid]]}"
            )
        return fid

    def _register(
        self, ct: _CallTable, entry_pid: int, caller_aa: int, rep: int, member: int
    ) -> list[int]:
        """Add a member (a call-fact id, or -1 for a bind_empty binding)
        to its join slot and return the slot.  Callers register each
        binding once."""
        key = (ct.call_nid << _SHIFT) | entry_pid
        slots = self._registry.get(key)
        if slots is None:
            slots = self._registry[key] = {}
        slot_key = (caller_aa << _SHIFT) | (rep + 1)
        slot = slots.get(slot_key)
        if slot is None:
            slots[slot_key] = slot = [-1, member]
        else:
            slot.append(member)
        return slot

    def _first_registration(self, fid: int) -> bool:
        """Mark call fact ``fid`` registered; False when it already was."""
        registered = self._registered
        if fid >= len(registered):
            registered.extend(bytes(len(self._fact_node) - len(registered)))
        if registered[fid]:
            return False
        registered[fid] = 1
        return True

    def _reset_slot_joins(self) -> None:
        for slots in self._registry.values():
            for slot in slots.values():
                slot[0] = -1

    def registry_counts(self) -> tuple[int, int, int]:
        """``(keys, join slots, records)`` of the back-bind registry.  A
        record is one slot member, so records exceed slots exactly when
        some slot has several members."""
        slots = [
            slot for by_key in self._registry.values() for slot in by_key.values()
        ]
        return (
            len(self._registry),
            len(slots),
            sum(len(slot) - 1 for slot in slots),
        )

    def _drain(self) -> None:
        deadline_at: Optional[float] = None
        if self.deadline_seconds is not None:
            deadline_at = time.perf_counter() + self.deadline_seconds
        worklist = self._worklist
        pending = self._pending
        taint = self._taint
        popped = self._popped
        stats = self.stats
        fact_node = self._fact_node
        fact_entry = self._fact_entry
        node_tag = self._node_tag
        fact_ids = self._fact_ids
        max_facts = self.max_facts
        process_other = self._process_other
        process_call = self._process_call
        process_exit = self._process_exit
        steps = self.steps
        while worklist:
            fid = worklist.popleft()
            pending[fid] = 0
            state = taint[fid]
            if popped[fid] == state + 1:
                stats.stale_skips += 1
                continue
            popped[fid] = state + 1
            stats.worklist_pops += 1
            steps += 1
            if max_facts is not None and len(fact_ids) > max_facts:
                self.steps = steps
                self.budget.exceeded = True
                self.budget.reason = "max_facts"
                return
            if (
                deadline_at is not None
                and steps % _DEADLINE_CHECK_EVERY == 0
                and time.perf_counter() > deadline_at
            ):
                self.steps = steps
                self.budget.exceeded = True
                self.budget.reason = "deadline"
                return
            nid = fact_node[fid]
            tag = node_tag[nid]
            if tag == 0:
                process_other(nid, fact_entry[fid], state)
            elif tag == 1:
                process_call(nid, fid, state)
            else:
                process_exit(nid, fact_entry[fid], state)
        self.steps = steps
        # Drained: every queued fact has been processed at its recorded
        # taint, so the stale-skip bytes have done their job — reset
        # them (the reference clears its map here too; a later
        # warm-start re-run begins with a clean slate).  The slots'
        # joined-at marks go with them, so a packed-and-restored kernel,
        # whose slots replay unjoined, drains exactly like a live one.
        self._popped = bytearray(len(self._popped))
        self._reset_slot_joins()

    def engine_report(self) -> EngineReport:
        stats = self.stats
        registry_keys, _, registry_records = self.registry_counts()
        return EngineReport(
            facts=stats.facts,
            worklist_pushes=stats.worklist_pushes,
            worklist_pops=stats.worklist_pops,
            dedup_hits=stats.dedup_hits,
            stale_skips=stats.stale_skips,
            upgrades=stats.upgrades,
            join_calls=self.join_calls,
            join_fanout=self.join_fanout,
            stale_bind_records=self.stale_bind_records,
            registry_keys=registry_keys,
            registry_records=registry_records,
            interned_names=interned_name_count(),
            interned_pairs=interned_pair_count(),
        )

    # -- per-kind rules -------------------------------------------------------

    def _process_other(self, nid: int, eid: int, clean: int) -> None:
        for succ_nid, table in self._succs[nid]:
            if table is None:
                self._make_true_entry(succ_nid, eid, clean)
            else:
                self._apply(table, nid, succ_nid, eid, clean)

    def _process_call(self, nid: int, fid: int, clean: int) -> None:
        ct = self._call_tables[nid]
        assert ct.binder is not None
        eid = self._fact_entry[fid]
        aa_id = self._entry_aa[eid]
        pid = self._entry_pair[eid]
        # Rule 1: the callee is in the scope of neither member.
        both_inv = ct.both_inv_memo.get(pid)
        if both_inv is None:
            both_inv = ct.binder.both_invisible(self._pairs[pid])
            ct.both_inv_memo[pid] = both_inv
        if both_inv:
            self._make_true_entry(ct.ret_nid, eid, clean)
        bound = self._bound(ct, pid)
        if not bound:
            return
        first_pop = self._first_registration(fid)
        call_base = ct.call_nid << _SHIFT
        by_assumed = self._by_node_assumed[ct.exit_nid]
        for entry_pid, rep in bound:
            self._make_true(
                ct.entry_nid, self._single_aa(entry_pid), entry_pid, 1
            )
            if first_pop:
                slot = self._register(ct, entry_pid, aa_id, rep, fid)
            else:
                slot = self._registry[call_base | entry_pid][
                    (aa_id << _SHIFT) | (rep + 1)
                ]
            # Directed reverse matching over both nonvisible token
            # forms: of the slot-by-exit-fact product the reference
            # engine rescans here (record by record), only pairs
            # involving THIS fact's slot can create a fact or move a
            # taint bit, and only when the slot is new or its live
            # taint rose since a member pop last joined it — every
            # other pair was joined when its own trigger popped, and a
            # repeat join is an exact no-op on store and worklist.
            live = _slot_taint(slot, self._taint)
            if live <= slot[0]:
                continue
            slot[0] = live
            bucket = by_assumed.get(entry_pid)
            if bucket:
                self._join_slot(ct, entry_pid, aa_id, rep, live, bucket)
            second = self._second_form(entry_pid)
            if second != entry_pid:
                bucket = by_assumed.get(second)
                if bucket:
                    self._join_slot(ct, entry_pid, aa_id, rep, live, bucket)

    def _process_exit(self, nid: int, eid: int, clean: int) -> None:
        for ct in self._exit_calls[nid]:
            self._join_return(ct, eid, clean)

    def _second_form(self, pid: int) -> int:
        second = self._second_form_memo.get(pid)
        if second is None:
            second = self._pair_id(
                assumptions.second_token_form(self._pairs[pid])
            )
            self._second_form_memo[pid] = second
        return second

    def _normalize(self, pid: int) -> int:
        normalized = self._normalize_memo.get(pid)
        if normalized is None:
            normalized = self._pair_id(
                assumptions.normalize_tokens(self._pairs[pid])
            )
            self._normalize_memo[pid] = normalized
        return normalized

    # -- the return join ------------------------------------------------------

    def _slots(self, key: int) -> list[tuple[int, int, int]]:
        """``(caller aa, represents | -1, live taint)`` of every join
        slot under one registry key, in first-registration order."""
        slots = self._registry.get(key)
        if not slots:
            return []
        taint = self._taint
        return [
            (slot_key >> _SHIFT, (slot_key & _LOW) - 1, _slot_taint(slot, taint))
            for slot_key, slot in slots.items()
        ]

    def _join_slot(
        self,
        ct: _CallTable,
        key_pid: int,
        aa_id: int,
        rep: int,
        live: int,
        bucket: list,
    ) -> None:
        """Join one call-site slot (new, or its live taint risen) against
        the exit facts of one assumed-pair bucket (the call-side
        direction of the reverse match; :meth:`_join_return` is the
        exit-side)."""
        entry_aa = self._entry_aa
        entry_pair = self._entry_pair
        aa_pairs = self._aa_pairs
        fact_ids = self._fact_ids
        taint = self._taint
        exit_nid = ct.exit_nid
        call_base = ct.call_nid << _SHIFT
        join_one = self._join_one
        # Joins write only the return node, so partner slot taints hold
        # for the whole scan.
        partners_of: dict[int, list[tuple[int, int, int]]] = {}
        for exit_eid in tuple(bucket):
            self.join_calls += 1
            assumed = aa_pairs[entry_aa[exit_eid]]
            exit_pid = entry_pair[exit_eid]
            clean = live & taint[fact_ids[(exit_eid << _SHIFT) | exit_nid]]
            if len(assumed) == 1:
                # A single-assumption fact in the second-token-form
                # bucket resolves its slots under that *other* key;
                # our slot is not among them (and those joins already
                # ran), so only the exact-key match is live.
                if assumed[0] == key_pid:
                    join_one(ct, exit_pid, clean, aa_id, rep)
                continue
            n1 = self._normalize(assumed[0])
            n2 = self._normalize(assumed[1])
            if n1 == key_pid:
                partners = partners_of.get(n2)
                if partners is None:
                    partners = partners_of[n2] = self._slots(call_base | n2)
                for p_aa, p_rep, p_live in partners:
                    join_one(
                        ct, exit_pid, clean & p_live, aa_id, rep, p_aa, p_rep
                    )
            if n2 == key_pid:
                partners = partners_of.get(n1)
                if partners is None:
                    partners = partners_of[n1] = self._slots(call_base | n1)
                for p_aa, p_rep, p_live in partners:
                    join_one(
                        ct, exit_pid, clean & p_live, p_aa, p_rep, aa_id, rep
                    )

    def _join_return(self, ct: _CallTable, exit_eid: int, exit_taint: int) -> None:
        self.join_calls += 1
        exit_pid = self._entry_pair[exit_eid]
        assumed = self._aa_pairs[self._entry_aa[exit_eid]]
        if not assumed:
            translated = self._translate(ct, exit_pid, -1, -1)
            if translated is not None:
                self._make_true(ct.ret_nid, 0, translated[2], exit_taint)
            return
        call_base = ct.call_nid << _SHIFT
        if len(assumed) == 1:
            for aa, rep, live in self._slots(call_base | assumed[0]):
                self._join_one(ct, exit_pid, exit_taint & live, aa, rep)
            return
        slots2 = self._slots(call_base | self._normalize(assumed[1]))
        if not slots2:
            return
        for aa1, rep1, live1 in self._slots(
            call_base | self._normalize(assumed[0])
        ):
            taint1 = exit_taint & live1
            for aa2, rep2, live2 in slots2:
                self._join_one(
                    ct, exit_pid, taint1 & live2, aa1, rep1, aa2, rep2
                )

    def _join_one(
        self,
        ct: _CallTable,
        exit_pid: int,
        taint: int,
        aa1: int,
        rep1: int,
        aa2: int = -1,
        rep2: int = -1,
    ) -> None:
        """Instantiate one exit pair at one slot, or at a slot pair when
        ``aa2 >= 0`` (slot 1 binds ``$nv1``, slot 2 ``$nv2``), with the
        already-combined taint."""
        self.join_fanout += 1
        translated = self._translate(ct, exit_pid, rep1, rep2)
        if translated is None:
            return
        m1, m2, translated_pid = translated
        if aa2 < 0:
            self._make_true(ct.ret_nid, aa1, translated_pid, taint)
            return
        # Two slots: the two-assumption caller-side fact case (the
        # tokens re-form one level up).  The translation succeeded, so
        # each token of the exit pair had its slot's representative:
        # $nv1 is slot 1's, $nv2 slot 2's.
        name_nv = self._name_nv
        first_nv = name_nv[self._pair_first[exit_pid]]
        second_nv = name_nv[self._pair_second[exit_pid]]
        if (
            first_nv
            and second_nv
            and first_nv != second_nv
            and name_nv[m1]
            and name_nv[m2]
        ):
            aa_first, aa_second = (aa1, aa2) if first_nv == 1 else (aa2, aa1)
            if (
                self._aa_has_nv[aa_first]
                and self._aa_has_nv[aa_second]
                and aa_first != aa_second
            ):
                combined = self._combine(aa_first, aa_second, m1, m2)
                if combined is not None:
                    combined_aa, combined_pid = combined
                    if combined_pid >= 0:
                        self._make_true(
                            ct.ret_nid, combined_aa, combined_pid, taint
                        )
                    return
        chosen = aa1 if self._aa_has_nv[aa1] or not self._aa_has_nv[aa2] else aa2
        self._make_true(ct.ret_nid, chosen, translated_pid, taint)

    def _combine(
        self, aa1: int, aa2: int, name_a: int, name_b: int
    ) -> Optional[tuple[int, int]]:
        """Memoized ``assumptions.combine(aa1, aa2, (name_a,),
        (name_b,))`` with the renamed names re-paired: None when not
        representable, else ``(aa id, renamed pair id | -1 if
        trivial)``.  ``AliasPair`` canonicalizes, so the re-pairing is
        insensitive to which renamed name is passed first."""
        key = (aa1, aa2, name_a, name_b)
        cached = self._combine_memo.get(key, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        combined = assumptions.combine(
            self._aas[aa1],
            self._aas[aa2],
            (self._names[name_a],),
            (self._names[name_b],),
        )
        if combined is None:
            result = None
        else:
            aa, (renamed_a,), (renamed_b,) = combined
            renamed = AliasPair(renamed_a, renamed_b)
            result = (
                self._aa_id(aa),
                -1 if renamed.is_trivial else self._pair_id(renamed),
            )
        self._combine_memo[key] = result
        return result

    def _translate(
        self, ct: _CallTable, exit_pid: int, sub1: int, sub2: int
    ) -> Optional[tuple[int, int, int]]:
        """Memoized back-translation of a callee-side pair: None when a
        member cannot be named in the caller (or the result is
        trivial), else ``(member1 id, member2 id, pair id)`` in
        ``(pair.first, pair.second)`` order."""
        key = (ct.callee_idx, exit_pid, sub1, sub2)
        cached = self._translate_memo.get(key, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        result = self._translate_uncached(ct, exit_pid, sub1, sub2)
        self._translate_memo[key] = result
        return result

    def _translate_uncached(
        self, ct: _CallTable, exit_pid: int, sub1: int, sub2: int
    ) -> Optional[tuple[int, int, int]]:
        pair = self._pairs[exit_pid]
        k = self.k
        members: list[ObjectName] = []
        for name in pair:
            if is_nonvisible_based(name):
                rep = sub1 if name.base == NONVISIBLE_BASES[0] else sub2
                if rep < 0:
                    return None
                mapped = self._names[rep].extend(name.selectors)
                if name.truncated and not mapped.truncated:
                    mapped = ObjectName(
                        mapped.base, mapped.selectors, truncated=True
                    )
                members.append(k_limit(mapped, k))
            elif self.ctx.survives_return(name, ct.callee):
                members.append(name)
            else:
                return None
        result = AliasPair(members[0], members[1])
        if result.is_trivial:
            return None
        return (
            self._name_id(members[0]),
            self._name_id(members[1]),
            self._pair_id(result),
        )

    # -- the assignment transfer ----------------------------------------------

    def _apply(
        self, table: _AssignTable, nid: int, succ: int, eid: int, clean: int
    ) -> None:
        pid = self._entry_pair[eid]
        record = table.pair_memo.get(pid)
        if record is None:
            record = self._build_assign_record(table, pid)
            table.pair_memo[pid] = record
        case1, c2_plans, c2iii, c3 = record
        aa_id = self._entry_aa[eid]

        # Case 1: preservation (with the approximation-3 probe).
        if case1:
            taint = clean
            if taint and self._rebinding_alias_exists(nid, table, pid):
                taint = 0
            self._make_true_entry(succ, eid, taint)

        # Case 2: the three direct transplant emissions.
        for plan in c2_plans:
            self._run_plan(succ, aa_id, plan, clean)

        # Case 2.iii: pair with known aliases of (prefixes of) the LHS.
        for member_id, other_id in c2iii:
            for other_eid, w_prime_id in self._iter_lhs_aliases(table, nid):
                new_first = self._transplant(table, member_id, w_prime_id)
                self._pairwise(
                    succ, nid, aa_id, pid, clean, other_eid, new_first, other_id
                )

        # Case 3: effects of an alias of (a prefix of) the LHS.
        for w_prime_id, plan_3ii, plan_3i in c3:
            if plan_3ii is not None:
                self._run_plan(succ, aa_id, plan_3ii, clean)
            if plan_3i is not None:
                taint = clean
                if taint and self._second_lhs_alias_exists(nid, table, pid):
                    taint = 0  # approximation 4
                self._run_plan(succ, aa_id, plan_3i, taint)
            if not table.rhs_opaque:
                # Case 3.iii: the other half of 2.iii.
                bucket = self._by_node_base[nid].get(table.rhs_base_base)
                if bucket:
                    entry_aa = self._entry_aa
                    entry_pair = self._entry_pair
                    for other_eid in tuple(bucket):
                        if other_eid == eid:
                            continue  # the F1 == F2 pairing ran in 2.iii
                        pid2 = entry_pair[other_eid]
                        for member2, other2 in self._match_members(
                            table, pid2
                        ):
                            new_first = self._transplant(
                                table, member2, w_prime_id
                            )
                            self._pairwise(
                                succ,
                                nid,
                                entry_aa[other_eid],
                                pid2,
                                self._taint_entry_at(nid, other_eid),
                                eid,
                                new_first,
                                other2,
                            )

    def _build_assign_record(self, table: _AssignTable, pid: int) -> tuple:
        """Compile the incoming-pair-dependent part of §4.5 into a
        replayable record ``(case1, c2_plans, c2iii, c3)``."""
        k = self.k
        pair = self._pairs[pid]
        y, z = pair.first, pair.second
        y_id = self._pair_first[pid]
        z_id = self._pair_second[pid]
        lhs = table.lhs
        rhs = table.rhs

        case1 = table.weak or not (lhs.is_prefix(y) or lhs.is_prefix(z))

        c2_plans: list[tuple] = []
        c2iii: list[tuple[int, int]] = []
        if not table.rhs_opaque:
            suffix_y = rhs.match(y)
            suffix_z = rhs.match(z)
            if suffix_y is not None and not lhs.is_prefix(z):
                ny = k_limit(rhs.transplant(lhs, suffix_y, y), k)
                plan = self._plan(self._name_id(ny), z_id)
                if plan is not None:
                    c2_plans.append(plan)
            if suffix_z is not None and not lhs.is_prefix(y):
                nz = k_limit(rhs.transplant(lhs, suffix_z, z), k)
                plan = self._plan(y_id, self._name_id(nz))
                if plan is not None:
                    c2_plans.append(plan)
            if suffix_y is not None and suffix_z is not None:
                ny = k_limit(rhs.transplant(lhs, suffix_y, y), k)
                nz = k_limit(rhs.transplant(lhs, suffix_z, z), k)
                plan = self._plan(self._name_id(ny), self._name_id(nz))
                if plan is not None:
                    c2_plans.append(plan)
            if suffix_y is not None:
                c2iii.append((y_id, z_id))
            if suffix_z is not None:
                c2iii.append((z_id, y_id))

        c3: list[tuple] = []
        for member, other in ((y, z), (z, y)):
            if not member.is_prefix(lhs):
                continue
            w_prime = k_limit(other.extend(lhs.suffix_after(member)), k)
            if member.truncated and not w_prime.truncated:
                w_prime = ObjectName(
                    w_prime.base, w_prime.selectors, truncated=True
                )
            w_prime_id = self._name_id(w_prime)
            plan_3ii = self._plan(table.lhs_id, w_prime_id)
            plan_3i = None
            if not table.rhs_opaque:
                base = rhs.base
                assert base is not None
                if not (w_prime.is_prefix(base) or lhs.is_prefix(base)):
                    new_first = k_limit(w_prime.deref(), k)
                    new_second = (
                        k_limit(base, k)
                        if rhs.address_of
                        else k_limit(base.deref(), k)
                    )
                    # A None (trivial) plan needs no approximation-4
                    # probe either: the reference's probe is a pure
                    # read and its _emit would discard the pair anyway.
                    plan_3i = self._plan(
                        self._name_id(new_first), self._name_id(new_second)
                    )
            c3.append((w_prime_id, plan_3ii, plan_3i))

        return (case1, tuple(c2_plans), tuple(c2iii), tuple(c3))

    def _iter_lhs_aliases(
        self, table: _AssignTable, nid: int
    ) -> Iterator[tuple[int, int]]:
        """Mirror of ``AssignTransfer._lhs_aliases`` over ids: yields
        ``(entry id, w' id)`` for facts whose pair contains a (possibly
        truncated) prefix of the LHS.  A generator, like the reference —
        each bucket is snapshotted at its own iteration time."""
        by_name = self._by_node_name[nid]
        entry_pair = self._entry_pair
        pair_first = self._pair_first
        pair_second = self._pair_second
        memo = table.lhs_w_memo
        k = self.k
        for probe_pos, (probe_id, suffix, probe_truncated) in enumerate(
            table.lhs_probes
        ):
            bucket = by_name.get(probe_id)
            if not bucket:
                continue
            for other_eid in tuple(bucket):
                pid2 = entry_pair[other_eid]
                first = pair_first[pid2]
                w_id = pair_second[pid2] if first == probe_id else first
                memo_key = (probe_pos << _SHIFT) | w_id
                w_prime_id = memo.get(memo_key)
                if w_prime_id is None:
                    w_prime = k_limit(self._names[w_id].extend(suffix), k)
                    if probe_truncated and not w_prime.truncated:
                        w_prime = ObjectName(
                            w_prime.base, w_prime.selectors, truncated=True
                        )
                    w_prime_id = self._name_id(w_prime)
                    memo[memo_key] = w_prime_id
                yield other_eid, w_prime_id

    def _transplant(self, table: _AssignTable, member_id: int, w_id: int) -> int:
        """Memoized ``k_limit(_transplant_onto(w, match(member), ...))``
        — the 2.iii/3.iii transplanted-name computation."""
        key = (member_id << _SHIFT) | w_id
        result = table.transplant_memo.get(key)
        if result is None:
            member = self._names[member_id]
            suffix = table.rhs.match(member)
            assert suffix is not None
            result = self._name_id(
                k_limit(
                    _transplant_onto(
                        self._names[w_id], suffix, table.rhs.address_of, member
                    ),
                    self.k,
                )
            )
            table.transplant_memo[key] = result
        return result

    def _match_members(self, table: _AssignTable, pid: int) -> tuple:
        """Memoized RHS-matching members of a pair, as ``(member id,
        other id)`` tuples in (first, second) order."""
        result = table.match_memo.get(pid)
        if result is None:
            first = self._pair_first[pid]
            second = self._pair_second[pid]
            out: list[tuple[int, int]] = []
            if table.rhs.match(self._names[first]) is not None:
                out.append((first, second))
            if second != first and table.rhs.match(self._names[second]) is not None:
                out.append((second, first))
            result = tuple(out)
            table.match_memo[pid] = result
        return result

    def _pairwise(
        self,
        succ: int,
        nid: int,
        aa1: int,
        pid1: int,
        clean1: int,
        secondary_eid: int,
        new_first: int,
        new_second: int,
    ) -> None:
        """Mirror of ``AssignTransfer._pairwise``: combine the primary
        fact ``(aa1, pid1)`` with the secondary fact ``secondary_eid``
        (an existing entry at ``nid``) into the new pair."""
        aa2 = self._entry_aa[secondary_eid]
        pid2 = self._entry_pair[secondary_eid]
        clean2 = self._taint[
            self._fact_ids[(secondary_eid << _SHIFT) | nid]
        ]
        same_fact = aa1 == aa2 and pid1 == pid2
        clean = 1 if (clean1 and clean2 and same_fact) else 0  # approx 2
        plan = self._plan(new_first, new_second)
        if plan is None:
            return
        if aa1 == aa2:
            self._run_plan(succ, aa1, plan, clean)
            return
        name_nv = self._name_nv
        if (
            name_nv[new_first]
            and name_nv[new_second]
            and self._aa_has_nv[aa1]
            and self._aa_has_nv[aa2]
        ):
            # new_second derives from the primary fact (owns aa1's
            # token); new_first from the secondary fact (aa2's token).
            combined = self._combine(aa1, aa2, new_second, new_first)
            if combined is not None:
                combined_aa, combined_pid = combined
                if combined_pid >= 0:
                    self._make_true(succ, combined_aa, combined_pid, clean)
                return
        chosen = aa1 if self._aa_has_nv[aa1] or not self._aa_has_nv[aa2] else aa2
        self._run_plan(succ, chosen, plan, clean)

    def _rebinding_alias_exists(
        self, nid: int, table: _AssignTable, pid: int
    ) -> bool:
        """Approximation-3 detector over ids (pure read)."""
        bucket = self._by_node_name[nid].get(table.lhs_id)
        if not bucket:
            return False
        lhs_id = table.lhs_id
        entry_pair = self._entry_pair
        pair_first = self._pair_first
        pair_second = self._pair_second
        y_id = self._pair_first[pid]
        z_id = self._pair_second[pid]
        for other_eid in bucket:
            pid2 = entry_pair[other_eid]
            first = pair_first[pid2]
            u = pair_second[pid2] if first == lhs_id else first
            if self._ipd(u, y_id) or self._ipd(u, z_id):
                return True
        return False

    def _second_lhs_alias_exists(
        self, nid: int, table: _AssignTable, pid: int
    ) -> bool:
        """Approximation-4 detector over ids (pure read)."""
        by_name = self._by_node_name[nid]
        entry_pair = self._entry_pair
        pair_first = self._pair_first
        pair_second = self._pair_second
        rhs_base_id = table.rhs_base_id
        for probe_id in table.a4_probe_ids:
            bucket = by_name.get(probe_id)
            if not bucket:
                continue
            for other_eid in bucket:
                pid2 = entry_pair[other_eid]
                if pid2 == pid:
                    continue
                first = pair_first[pid2]
                u = pair_second[pid2] if first == probe_id else first
                if self._ipd(u, rhs_base_id):
                    return True
        return False

    def _ipd(self, u_id: int, v_id: int) -> bool:
        """Memoized ``is_prefix_with_deref`` (paper footnote 9)."""
        key = (u_id << _SHIFT) | v_id
        result = self._ipd_memo.get(key)
        if result is None:
            result = self._names[u_id].is_prefix_with_deref(self._names[v_id])
            self._ipd_memo[key] = result
        return result
