"""The bottom-up summary engine: per-procedure restricted kernels.

Decomposition
=============

Every fact the whole-program kernel creates at a node of procedure P is
derived from (a) P's own initialization seeds, (b) the entry seeds
callers bind at P's entry — always ``(single(pair), pair, CLEAN)`` —
and (c) the exit facts of P's callees joined at P's call sites.  Entry
nodes receive *only* bind seeds and exit facts are produced only inside
their own procedure, so the per-procedure solution is fully determined
by two small surfaces: the *set* of entry pairs seeded at P's entry and
the *tables* of callee exit facts.  ``SummaryAnalysis`` exploits that:

* one :class:`ProcSolver` per procedure holds a kernel restricted to
  that procedure's nodes (``owned_nodes``) over the shared ICFG;
* a caller's kernel records the callee entry seeds its call transfer
  produces (they land at the foreign entry node and pop as no-ops);
  the coordinator *harvests* them and injects the fresh ones into the
  callee's kernel;
* a callee's exit table (filtered to pairs that can survive a return)
  is harvested and *mirrored* into each caller's kernel at the callee's
  exit node, where the kernel's ordinary directed return join
  instantiates the summary at every registered call record — the exact
  code path the whole-program engine runs, so instantiation is
  correct by construction;
* rounds repeat until no new seeds or exit facts appear.  Procedures
  are processed bottom-up by call-graph SCC condensation
  (:mod:`repro.summaries.callgraph`): after the acyclic part of the
  call graph settles — typically one wave per condensation depth —
  only procedures inside a cycle keep iterating.

Determinism
===========

Rounds are strict barriers: every drain in a round sees exactly the
deltas accumulated at the previous round's end, deltas are injected in
canonical (sorted-JSON) order, and harvests are diffed in a fixed
procedure order — so solutions and per-procedure counters are
byte-identical for any job count.  Worker transport is stateless
(packed state out, packed state + harvest back), and a packed/restored
kernel is behaviorally identical to one that never left the process:
``absorb`` replays facts in insertion order (rebuilding every per-node
index), ``replay_registrations`` rebuilds the bind registry in
live-run order, and counters are reinstated from the snapshot.

Taint
=====

Fact sets are pinned identical to the kernel engine (the monotone
fixpoint is schedule-independent).  CLEAN/TAINTED bits additionally
depend on the paper's approximation-3/4 probes, which read the store
at pop time — so every engine finishes with a *retaint* pass that
recomputes taint against the frozen fact set (see
:meth:`~repro.core.kernel.KernelAnalysis._retaint`).  Here that pass
is distributed: once the fact rounds converge, every kernel demotes
and re-seeds its local CLEAN sources in one ``retaint`` round, and
further rounds mirror only CLEAN upgrades of callee exits until taint
reaches its own unique fixpoint.  The corpus equivalence sweep pins
the result equal to the kernel engine (``summary_eq_kernel``), the
same way the kernel is pinned to the reference engine.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from operator import itemgetter
from typing import Optional, Sequence

from ..core.kernel import (
    KernelAnalysis,
    KernelStore,
    decode_int_column,
    decode_packed,
    encode_int_column,
)
from ..core.metrics import (
    PHASE_INIT,
    PHASE_POST,
    PHASE_PROPAGATE,
    BudgetOutcome,
    EngineReport,
    PhaseTimer,
)
from ..core.store import StoreStats
from ..frontend.semantics import AnalyzedProgram, parse_and_analyze
from ..icfg.builder import build_icfg
from ..icfg.graph import ICFG
from ..icfg.ir import NodeKind
from ..io import pair_from_json, pair_to_json
from ..names.context import NameContext
from ..names.object_names import is_nonvisible_based
from .callgraph import CallGraph, build_call_graph
from .envelope import (
    SUMMARY_ENTRY_SCHEMA,
    load_summary_envelope,
    make_summary_envelope,
    proc_environment_text,
    proc_program_texts,
    summary_entry_key,
    summary_proc_key,
)


#: Canonical JSON text: sorted keys, no spaces.
_canon = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_by_text = itemgetter(0)


def _exit_key(entry_text: str) -> str:
    """An exit entry's canonical text without its clean bit — one key
    per (assumption, pair) of the exit table."""
    return entry_text[: entry_text.rindex(",")]


def _with_texts(harvest: dict) -> dict:
    """A harvest whose seed pairs and exit entries each come paired with
    their canonical text, ``(text, item)`` — the form the barrier sorts
    and dedups by.  :meth:`ProcSolver.harvest_with_texts` builds it
    straight from a live kernel; this encodes a harvest that arrived as
    JSON (a cache hit)."""
    return {
        "seeds": {
            callee: [(_canon(pj), pj) for pj in pairs]
            for callee, pairs in harvest["seeds"].items()
        },
        "exits": [(_canon(entry), entry) for entry in harvest["exits"]],
    }


def _without_texts(harvest: dict) -> dict:
    """The plain harvest (what the cache stores) of a :func:`_with_texts`
    one."""
    return {
        "seeds": {
            callee: [pj for _text, pj in items]
            for callee, items in harvest["seeds"].items()
        },
        "exits": [entry for _text, entry in harvest["exits"]],
    }


#: Counter fields snapshotted into packed state so a restored kernel
#: reports continuous-run numbers.
_COUNTER_FIELDS = (
    "facts",
    "worklist_pushes",
    "worklist_pops",
    "dedup_hits",
    "stale_skips",
    "upgrades",
)


def _counters_of(kernel: KernelAnalysis) -> dict:
    out = {name: getattr(kernel.stats, name) for name in _COUNTER_FIELDS}
    out["join_calls"] = kernel.join_calls
    out["join_fanout"] = kernel.join_fanout
    out["stale_bind_records"] = kernel.stale_bind_records
    out["steps"] = kernel.steps
    out["registry_keys"], _, out["registry_records"] = kernel.registry_counts()
    return out


def _restore_counters(kernel: KernelAnalysis, counters: dict) -> None:
    for name in _COUNTER_FIELDS:
        setattr(kernel.stats, name, int(counters[name]))
    kernel.join_calls = int(counters["join_calls"])
    kernel.join_fanout = int(counters["join_fanout"])
    kernel.stale_bind_records = int(counters["stale_bind_records"])
    kernel.steps = int(counters["steps"])


class _PoolFailure(RuntimeError):
    """A worker process died or misbehaved; the coordinator falls back
    to the (identical-result) serial schedule."""


class ProcSolver:
    """One procedure's restricted kernel plus its summary surfaces."""

    def __init__(
        self,
        proc: str,
        analyzed: AnalyzedProgram,
        icfg: ICFG,
        k: int,
        max_facts: Optional[int],
    ) -> None:
        graph = icfg.procs[proc]
        self.proc = proc
        self.analyzed = analyzed
        self.icfg = icfg
        self.k = k
        self.max_facts = max_facts
        self.owned = frozenset(node.nid for node in graph.nodes)
        self.entry_nid = graph.entry.nid
        self.exit_nid = graph.exit.nid
        self.callees = tuple(
            sorted(
                {
                    node.callee
                    for node in graph.nodes
                    if node.kind is NodeKind.CALL
                    and node.callee is not None
                    and node.callee in icfg.procs
                }
            )
        )
        # Stable node tokens for cache-portable packed states: owned
        # nodes by position in the procedure's node list, foreign nodes
        # (callee entries/exits) by callee name.  Node *ids* shift when
        # any earlier function is edited; these tokens do not.
        self._token_of: dict[int, tuple] = {
            node.nid: ("p", position)
            for position, node in enumerate(graph.nodes)
        }
        for callee in self.callees:
            self._token_of.setdefault(
                icfg.entry_of(callee).nid, ("entry", callee)
            )
            self._token_of.setdefault(
                icfg.exit_of(callee).nid, ("exit", callee)
            )
        self._nid_of = {
            tuple(token): nid for nid, token in self._token_of.items()
        }
        # Exactly one of (kernel, state) is set once started; both are
        # None before the cold round reaches this procedure.
        self.kernel: Optional[KernelAnalysis] = None
        self.state: Optional[dict] = None
        # Per pair id of ``_json_kernel``: its canonical text and JSON
        # form, and whether the exit table keeps it.  Ids are per
        # kernel, so a new kernel starts these over.
        self._json_kernel: Optional[KernelAnalysis] = None
        self._pair_json: dict[int, tuple[str, list]] = {}
        self._exit_keeps: dict[int, bool] = {}
        # Running digest of every injected delta, in order — the
        # per-drain half of the cache key.
        self.inputs_digest = hashlib.sha256(b"init").hexdigest()

    # -- kernel lifecycle ---------------------------------------------------

    def _new_kernel(self) -> KernelAnalysis:
        return KernelAnalysis(
            self.analyzed,
            self.icfg,
            k=self.k,
            max_facts=self.max_facts,
            owned_nodes=self.owned,
        )

    def cold_start(self) -> None:
        self.kernel = self._new_kernel()
        self.kernel._initialize()
        self.state = None

    def ensure_live(self) -> None:
        """Restore a live kernel from packed state (exact: facts replay
        in insertion order, the registry replays in live-run order, and
        counters come back from the snapshot)."""
        if self.kernel is not None:
            return
        assert self.state is not None
        kernel = self._new_kernel()
        kernel.absorb(decode_packed(self.state["packed"]))
        kernel.store.clear_worklist()
        kernel.replay_registrations()
        _restore_counters(kernel, self.state["stats"])
        self.kernel = kernel
        self.state = None

    def pack(self) -> dict:
        assert self.kernel is not None
        return {
            "packed": self.kernel.store.packed_json(),
            "stats": _counters_of(self.kernel),
        }

    def drop_live(self) -> None:
        """Pack and release the live kernel (parallel transport keeps
        procedure state packed between rounds)."""
        if self.kernel is not None:
            self.state = self.pack()
            self.kernel = None

    def counters(self) -> Optional[dict]:
        if self.kernel is not None:
            return _counters_of(self.kernel)
        if self.state is not None:
            return dict(self.state["stats"])
        return None

    def fact_count(self) -> int:
        if self.kernel is not None:
            return len(self.kernel.store)
        if self.state is not None:
            return int(self.state["packed"]["count"])
        return 0

    # -- inject / drain / harvest ------------------------------------------

    def advance_digest(self, delta: dict) -> str:
        """Fold one canonical input delta into the running digest."""
        self.inputs_digest = hashlib.sha256(
            f"{self.inputs_digest}:{_canon(delta)}".encode("utf-8")
        ).hexdigest()
        return self.inputs_digest

    def inject(self, delta: dict) -> None:
        """Apply one delta: entry-seed pairs at this procedure's entry
        and mirrored callee exit facts, in canonical (sorted) order —
        the same order :meth:`advance_digest` hashed.

        A ``retaint`` delta instead starts this kernel's half of the
        global retaint pass (see :meth:`KernelAnalysis._retaint`):
        demote everything, re-certify the local unconditionally-CLEAN
        sources — assignment intros, the seeds this kernel bound at its
        callees' entries, and the coordinator-injected seeds at its own
        entry — and let the following drain recompute taint against the
        frozen fact set.  Interprocedural CLEAN flow (callee exit
        taint) arrives through the ordinary mirror deltas of the
        following rounds."""
        kernel = self.kernel
        assert kernel is not None
        if delta.get("retaint"):
            kernel._taint_all()
            kernel._reseed_clean()
            # This procedure's own entry facts are coordinator-injected
            # bind seeds — CLEAN by rule, like every other entry's.
            for eid in kernel._by_node[self.entry_nid]:
                kernel._make_true_entry(self.entry_nid, eid, 1)
        for pair_json in delta.get("seeds", ()):
            pid = kernel._pair_id(pair_from_json(pair_json))
            kernel._make_true(
                self.entry_nid, kernel._single_aa(pid), pid, 1
            )
        mirrors = delta.get("mirrors", {})
        for callee in sorted(mirrors):
            exit_nid = self.icfg.exit_of(callee).nid
            for aa_json, pair_json, clean in mirrors[callee]:
                assumption = tuple(pair_from_json(p) for p in aa_json)
                kernel.store.make_true(
                    exit_nid,
                    assumption,
                    pair_from_json(pair_json),
                    bool(clean),
                )

    def drain(self, deadline_remaining: Optional[float]) -> bool:
        """Run the restricted worklist to its local fixpoint.  Returns
        False when a budget tripped (the kernel's ``budget`` says why)."""
        kernel = self.kernel
        assert kernel is not None
        kernel.deadline_seconds = deadline_remaining
        kernel._drain()
        return not kernel.budget.exceeded

    def harvest(self) -> dict:
        """The procedure's current summary surface, canonically ordered:

        * ``seeds`` — per callee, the entry pairs this kernel has
          recorded at the callee's entry node;
        * ``exits`` — this procedure's conditional exit summary, the
          ``(assumption, pair, clean)`` table at its exit node filtered
          to pairs whose members can be named after a return (globals,
          return slots, or nonvisible-based names awaiting
          substitution).  Dropped pairs can never translate at any call
          site, so the filter changes nothing downstream — it only
          keeps mirrors small and cache keys stable under edits that
          touch purely local aliasing.
        """
        return _without_texts(self.harvest_with_texts())

    def harvest_with_texts(self) -> dict:
        """:meth:`harvest` with each item paired with its canonical text
        (see :func:`_with_texts`), read off the kernel's id columns: one
        JSON fragment per pair id, and taint by fact id."""
        kernel = self.kernel
        assert kernel is not None
        if self._json_kernel is not kernel:
            self._json_kernel = kernel
            self._pair_json = {}
            self._exit_keeps = {}
        by_node = kernel._by_node
        entry_pair = kernel._entry_pair
        fragment = self._fragment
        seeds: dict[str, list] = {}
        for callee in self.callees:
            items = [
                fragment(entry_pair[eid])
                for eid in by_node[self.icfg.entry_of(callee).nid]
            ]
            items.sort(key=_by_text)
            seeds[callee] = items
        entry_aa = kernel._entry_aa
        aa_pairs = kernel._aa_pairs
        keeps = self._exit_keeps
        exit_nid = self.exit_nid
        exits = []
        for eid in by_node[exit_nid]:
            pid = entry_pair[eid]
            keep = keeps.get(pid)
            if keep is None:
                keep = keeps[pid] = self._survives_return(pid)
            if not keep:
                continue
            pair_text, pair_json = fragment(pid)
            assumed = [fragment(p) for p in aa_pairs[entry_aa[eid]]]
            clean = bool(kernel._taint_entry_at(exit_nid, eid))
            aa_text = ",".join([t for t, _j in assumed])
            text = f"[[{aa_text}],{pair_text},{'true' if clean else 'false'}]"
            exits.append((text, [[j for _t, j in assumed], pair_json, clean]))
        exits.sort(key=_by_text)
        return {"seeds": seeds, "exits": exits}

    def _fragment(self, pid: int) -> tuple[str, list]:
        """Pair id -> (canonical text, JSON form), memoized per kernel."""
        out = self._pair_json.get(pid)
        if out is None:
            assert self.kernel is not None
            pair_json = pair_to_json(self.kernel._pairs[pid])
            out = self._pair_json[pid] = (_canon(pair_json), pair_json)
        return out

    def _survives_return(self, pid: int) -> bool:
        assert self.kernel is not None
        ctx = self.kernel.ctx
        return all(
            is_nonvisible_based(name) or ctx.survives_return(name, self.proc)
            for name in self.kernel._pairs[pid]
        )

    # -- cache-portable state ----------------------------------------------

    def state_portable(self) -> dict:
        """Packed state with node ids replaced by stable tokens (see
        ``_token_of``) so cache entries survive edits to *other*
        procedures, which renumber every node.  Tokens are numbered in
        order of first appearance in the node column."""
        if self.kernel is not None:
            tokens, column = self._node_tokens(self.kernel._fact_node)
            packed = self.kernel.store.packed_json(fact_node=column)
            stats = _counters_of(self.kernel)
        else:
            assert self.state is not None
            packed = dict(self.state["packed"])
            tokens, column = self._node_tokens(
                decode_int_column(packed["fact_node"], packed["byteorder"])
            )
            packed["fact_node"] = encode_int_column(column)
            stats = dict(self.state["stats"])
        packed["node_tokens"] = tokens
        return {"packed": packed, "stats": stats}

    def _node_tokens(self, fact_node: Sequence[int]) -> tuple[list, list]:
        """``(tokens, token-id column)`` for a node-id column."""
        tid_of = {nid: tid for tid, nid in enumerate(dict.fromkeys(fact_node))}
        tokens = [list(self._token_of[nid]) for nid in tid_of]
        return tokens, [tid_of[nid] for nid in fact_node]

    def adopt_portable(self, state: dict) -> None:
        """Install a cache-loaded portable state (inverse of
        :meth:`state_portable`), dropping any live kernel."""
        packed = dict(state["packed"])
        byteorder = packed["byteorder"]
        if byteorder != sys.byteorder:
            # The remapped fact_node column below is re-encoded in
            # native order; mixing orders within one payload would
            # corrupt it.  Cross-endian cache sharing is a miss.
            raise ValueError("foreign byteorder")
        tokens = packed.pop("node_tokens")
        nid_by_tid = [
            self._nid_of[(token[0], token[1])] for token in tokens
        ]
        fact_node = decode_int_column(packed["fact_node"], byteorder)
        packed["fact_node"] = encode_int_column(
            [nid_by_tid[tid] for tid in fact_node]
        )
        self.kernel = None
        self.state = {"packed": packed, "stats": dict(state["stats"])}


# -- worker-side transport ----------------------------------------------------

#: Per-worker-process memo: parsing is amortized across rounds because
#: the coordinator reuses one pool for the whole solve.
_WORKER_PROGRAMS: dict = {}


def _worker_program(source: str, k: int):
    key = (hashlib.sha256(source.encode("utf-8")).hexdigest(), k)
    cached = _WORKER_PROGRAMS.get(key)
    if cached is None:
        analyzed = parse_and_analyze(source)
        icfg = build_icfg(analyzed)
        _WORKER_PROGRAMS.clear()
        _WORKER_PROGRAMS[key] = cached = (analyzed, icfg)
    return cached


def _worker_drain(payload: tuple) -> dict:
    """Stateless per-round task: restore (or cold-start) one procedure,
    inject its delta, drain, and return packed state + harvest."""
    (source, k, proc, cold, state, delta, max_facts, remaining) = payload
    analyzed, icfg = _worker_program(source, k)
    solver = ProcSolver(proc, analyzed, icfg, k, max_facts)
    if cold:
        solver.cold_start()
    else:
        solver.state = state
        solver.ensure_live()
    solver.inject(delta)
    ok = solver.drain(remaining)
    kernel = solver.kernel
    assert kernel is not None
    return {
        "proc": proc,
        "ok": ok,
        "reason": kernel.budget.reason,
        "state": solver.pack(),
        "harvest": solver.harvest_with_texts()
        if ok
        else {"seeds": {}, "exits": []},
    }


class SummaryAnalysis:
    """Drop-in analysis backend (``engine="summary"``): bottom-up
    procedure summaries over per-procedure restricted kernels, merged
    into one whole-program :class:`KernelStore` at the end."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        icfg: ICFG,
        k: int = 3,
        max_facts: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        timer: Optional[PhaseTimer] = None,
        jobs: int = 1,
        cache=None,
        oversubscribe: bool = False,
    ) -> None:
        self.analyzed = analyzed
        self.icfg = icfg
        self.k = k
        self.max_facts = max_facts
        self.deadline_seconds = deadline_seconds
        self.timer = timer if timer is not None else PhaseTimer()
        self.jobs = jobs
        self.cache = cache
        self.source: Optional[str] = None
        self.oversubscribe = oversubscribe
        self.ctx = NameContext(analyzed.symbols, k)
        self.budget = BudgetOutcome(
            max_facts=max_facts, deadline_seconds=deadline_seconds
        )
        self.callgraph: CallGraph = build_call_graph(icfg)
        self.rounds = 0
        self.drains = 0
        self.cache_hits = 0
        self.cache_misses = 0
        # Which procedures ever hit/missed the per-procedure cache this
        # run — the serve layer's invalidation-scoping metric reads
        # these (a post-edit solve is "scoped" when every miss belongs
        # to an edited procedure).
        self.cache_hit_procs: set[str] = set()
        self.cache_miss_procs: set[str] = set()
        self.solvers: dict[str, ProcSolver] = {}
        self._proc_keys: dict[str, str] = {}
        self._callers_of: dict[str, tuple[str, ...]] = {}
        self._pool = None
        self._pool_jobs = 0

    # -- public surface (analyze_program-compatible) -------------------------

    def run(self) -> KernelStore:
        with self.timer.phase(PHASE_INIT):
            self._setup()
        deadline_at = (
            None
            if self.deadline_seconds is None
            else time.perf_counter() + self.deadline_seconds
        )
        with self.timer.phase(PHASE_PROPAGATE):
            try:
                self._solve_rounds(deadline_at, parallel_ok=True)
            except _PoolFailure:
                # A worker died.  Determinism over throughput: restart
                # the whole schedule serially in-process — same rounds,
                # same deltas, byte-identical result.
                self._setup()
                self.budget = BudgetOutcome(
                    max_facts=self.max_facts,
                    deadline_seconds=self.deadline_seconds,
                )
                self._solve_rounds(deadline_at, parallel_ok=False)
            finally:
                self._shutdown_pool()
        with self.timer.phase(PHASE_POST):
            store = self._merge()
            if self.budget.exceeded:
                self.budget.demoted_facts = store.taint_all()
        self.store = store
        return store

    def engine_report(self) -> EngineReport:
        from ..names.alias_pairs import interned_pair_count
        from ..names.object_names import interned_name_count

        report = EngineReport()
        for proc in sorted(self.solvers):
            counters = self.solvers[proc].counters()
            if counters is None:
                continue
            report.add(
                EngineReport(
                    **{
                        name: int(counters[name])
                        for name in (
                            *_COUNTER_FIELDS,
                            "join_calls",
                            "join_fanout",
                            "stale_bind_records",
                            "registry_keys",
                            "registry_records",
                        )
                    }
                )
            )
        # Intern tables are process-global gauges, same as the other
        # engines report them.
        report.interned_names = interned_name_count()
        report.interned_pairs = interned_pair_count()
        return report

    def procedure_summary(self, proc: str) -> dict:
        """The paper-facing view of one procedure's summary: entry
        assumption (canonical JSON) -> list of ``[exit pair, clean]``.
        Conditional facts group under the entry pairs they assume; the
        unconditional part groups under ``[]``."""
        solver = self.solvers[proc]
        solver.ensure_live()
        grouped: dict[str, list] = {}
        for aa_json, pair_json, clean in solver.harvest()["exits"]:
            grouped.setdefault(_canon(aa_json), []).append(
                [pair_json, bool(clean)]
            )
        return grouped

    # -- schedule -------------------------------------------------------------

    def _setup(self) -> None:
        self.rounds = 0
        self.drains = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_hit_procs = set()
        self.cache_miss_procs = set()
        self.solvers = {
            proc: ProcSolver(
                proc, self.analyzed, self.icfg, self.k, self.max_facts
            )
            for proc in self.callgraph.procs
        }
        self._callers_of = {proc: () for proc in self.callgraph.procs}
        callers: dict[str, list[str]] = {
            proc: [] for proc in self.callgraph.procs
        }
        for proc, callees in self.callgraph.edges.items():
            for callee in callees:
                callers[callee].append(proc)
        self._callers_of = {
            proc: tuple(sorted(named)) for proc, named in callers.items()
        }
        if self.cache is not None and not self._proc_keys:
            env_text = proc_environment_text(self.analyzed)
            texts = proc_program_texts(self.analyzed)
            self._proc_keys = {
                proc: summary_proc_key(env_text, texts[proc], self.k)
                for proc in self.callgraph.procs
                if proc in texts
            }

    def _empty_delta(self) -> dict:
        return {"seeds": [], "mirrors": {}}

    def _solve_rounds(
        self, deadline_at: Optional[float], parallel_ok: bool
    ) -> None:
        order_key = self.callgraph.order_key
        pending: dict[str, dict] = {
            proc: self._empty_delta()
            for proc in sorted(self.callgraph.procs, key=order_key)
        }
        cold = set(pending)
        seen_seeds: dict[str, set[str]] = {
            proc: set() for proc in self.callgraph.procs
        }
        exit_sent: dict[str, dict[str, bool]] = {
            proc: {} for proc in self.callgraph.procs
        }
        retainted = False
        while True:
            if not pending:
                if retainted:
                    break
                # Fact fixpoint reached.  Start the global retaint pass
                # (the distributed form of the single-kernel second
                # pass): every kernel demotes and re-seeds its local
                # CLEAN sources, exit broadcast state forgets which
                # clean bits were sent — facts stay known, so the
                # following rounds carry only CLEAN *upgrades* of
                # mirrored exits until taint reaches its own (unique,
                # schedule-independent) fixpoint.
                retainted = True
                for sent in exit_sent.values():
                    for key in sent:
                        sent[key] = False
                pending = {
                    proc: {"retaint": 1, "seeds": [], "mirrors": {}}
                    for proc in sorted(self.callgraph.procs, key=order_key)
                }
            remaining: Optional[float] = None
            if deadline_at is not None:
                remaining = deadline_at - time.perf_counter()
                if remaining <= 0:
                    self.budget.exceeded = True
                    self.budget.reason = "deadline"
                    return
            order = sorted(pending, key=order_key)
            harvests = self._drain_batch(
                order, pending, cold, remaining, parallel_ok
            )
            cold.difference_update(order)
            if self.budget.exceeded:
                return
            if self.max_facts is not None:
                total = sum(
                    solver.fact_count() for solver in self.solvers.values()
                )
                if total > self.max_facts:
                    self.budget.exceeded = True
                    self.budget.reason = "max_facts"
                    return
            # Barrier: diff every harvest against what has already been
            # broadcast, in fixed order, to build the next round.  Items
            # travel with their canonical texts, which the seen-sets
            # hold and the deltas sort by.
            next_pending: dict[str, dict] = {}

            def delta_for(proc: str) -> dict:
                delta = next_pending.get(proc)
                if delta is None:
                    delta = next_pending[proc] = self._empty_delta()
                return delta

            for proc in order:
                harvest = harvests[proc]
                for callee, items in sorted(harvest["seeds"].items()):
                    seen = seen_seeds[callee]
                    fresh = [item for item in items if item[0] not in seen]
                    if not fresh:
                        continue
                    seen.update(text for text, _pj in fresh)
                    if callee != proc:
                        # A self-recursive call's seeds are already
                        # facts in this very kernel.
                        delta_for(callee)["seeds"].extend(fresh)
                sent = exit_sent[proc]
                for item in harvest["exits"]:
                    clean = item[1][2]
                    key = _exit_key(item[0])
                    previous = sent.get(key)
                    if previous is None or (clean and not previous):
                        sent[key] = bool(clean) or bool(previous)
                        for caller in self._callers_of[proc]:
                            if caller == proc:
                                continue
                            delta_for(caller)["mirrors"].setdefault(
                                proc, []
                            ).append(item)
            for delta in next_pending.values():
                delta["seeds"] = [
                    pj for _text, pj in sorted(delta["seeds"], key=_by_text)
                ]
                for callee, items in delta["mirrors"].items():
                    delta["mirrors"][callee] = [
                        entry for _text, entry in sorted(items, key=_by_text)
                    ]
            pending = next_pending
            self.rounds += 1

    def _drain_batch(
        self,
        order: list[str],
        deltas: dict[str, dict],
        cold: set[str],
        remaining: Optional[float],
        parallel_ok: bool,
    ) -> dict[str, dict]:
        """Drain every pending procedure against its delta; returns the
        per-procedure harvests.  Cache lookups and stores happen here,
        coordinator-side only."""
        harvests: dict[str, dict] = {}
        to_solve: list[str] = []
        keys: dict[str, str] = {}
        for proc in order:
            solver = self.solvers[proc]
            digest = solver.advance_digest(deltas[proc])
            proc_key = self._proc_keys.get(proc)
            if self.cache is None or proc_key is None:
                to_solve.append(proc)
                continue
            key = summary_entry_key(proc_key, digest)
            keys[proc] = key
            envelope = self.cache.get(
                key, schema=SUMMARY_ENTRY_SCHEMA, payload_key="state"
            )
            loaded = (
                None if envelope is None else load_summary_envelope(envelope)
            )
            if loaded is not None:
                state, harvest = loaded
                try:
                    solver.adopt_portable(state)
                except (KeyError, IndexError, TypeError, ValueError):
                    # A stale token (the callee set changed) — treat as
                    # a miss; the entry will be overwritten below.
                    self.cache.counters.corrupt_dropped += 1
                    to_solve.append(proc)
                    self.cache_miss_procs.add(proc)
                    continue
                harvests[proc] = _with_texts(harvest)
                self.drains += 1
                self.cache_hits += 1
                self.cache_hit_procs.add(proc)
                continue
            to_solve.append(proc)
            self.cache_misses += 1
            self.cache_miss_procs.add(proc)

        if to_solve:
            use_workers = parallel_ok and self._effective_jobs(
                len(to_solve)
            ) > 1
            if use_workers:
                results = self._drain_parallel(
                    to_solve, deltas, cold, remaining
                )
            else:
                results = self._drain_serial(
                    to_solve, deltas, cold, remaining
                )
            for proc in to_solve:
                result = results.get(proc)
                if result is None:
                    continue
                harvests[proc] = result["harvest"]
                self.drains += 1
                if not result["ok"]:
                    self.budget.exceeded = True
                    self.budget.reason = result["reason"]
                    return harvests
                key = keys.get(proc)
                if key is not None:
                    solver = self.solvers[proc]
                    self.cache.put(
                        key,
                        make_summary_envelope(
                            key,
                            proc,
                            self._proc_keys[proc],
                            solver.inputs_digest,
                            solver.state_portable(),
                            _without_texts(result["harvest"]),
                        ),
                    )
        return harvests

    def _drain_serial(
        self,
        procs: list[str],
        deltas: dict[str, dict],
        cold: set[str],
        remaining: Optional[float],
    ) -> dict[str, dict]:
        results: dict[str, dict] = {}
        for proc in procs:
            solver = self.solvers[proc]
            if proc in cold:
                solver.cold_start()
            else:
                solver.ensure_live()
            solver.inject(deltas[proc])
            ok = solver.drain(remaining)
            kernel = solver.kernel
            assert kernel is not None
            results[proc] = {
                "ok": ok,
                "reason": kernel.budget.reason,
                "harvest": solver.harvest_with_texts()
                if ok
                else {"seeds": {}, "exits": []},
            }
            if not ok:
                break
        return results

    # -- parallel transport ---------------------------------------------------

    def _effective_jobs(self, pending: int) -> int:
        if self.jobs <= 1:
            return 1
        jobs = min(self.jobs, pending)
        if self.oversubscribe:
            return jobs
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            cores = os.cpu_count() or 1
        # Workers beyond the core count cannot help a CPU-bound drain;
        # they only add serialization and memory traffic.
        return max(1, min(jobs, cores))

    def _ensure_pool(self, jobs: int):
        if self._pool is not None and self._pool_jobs >= jobs:
            return self._pool
        self._shutdown_pool()
        from concurrent.futures import ProcessPoolExecutor

        from ..parallel.driver import _preferred_context

        self._pool = ProcessPoolExecutor(
            max_workers=jobs, mp_context=_preferred_context()
        )
        self._pool_jobs = jobs
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_jobs = 0

    def _worker_source(self) -> str:
        if self.source is None:
            # The canonical re-print parses back to an identical ICFG
            # (the cache's verify path already relies on node-id
            # stability under print -> parse).
            from ..cache.keys import canonical_program_text

            self.source = canonical_program_text(self.analyzed)
        return self.source

    def _drain_parallel(
        self,
        procs: list[str],
        deltas: dict[str, dict],
        cold: set[str],
        remaining: Optional[float],
    ) -> dict[str, dict]:
        source = self._worker_source()
        payloads = []
        for proc in procs:
            solver = self.solvers[proc]
            is_cold = proc in cold
            if not is_cold:
                solver.drop_live()
            payloads.append(
                (
                    source,
                    self.k,
                    proc,
                    is_cold,
                    None if is_cold else solver.state,
                    deltas[proc],
                    self.max_facts,
                    remaining,
                )
            )
        pool = self._ensure_pool(self._effective_jobs(len(procs)))
        try:
            outcomes = list(pool.map(_worker_drain, payloads))
        except Exception as exc:
            raise _PoolFailure(str(exc)) from exc
        results: dict[str, dict] = {}
        for outcome in outcomes:
            proc = outcome["proc"]
            solver = self.solvers[proc]
            solver.kernel = None
            solver.state = outcome["state"]
            results[proc] = outcome
            if not outcome["ok"]:
                break
        return results

    # -- merge ----------------------------------------------------------------

    def _merge(self) -> KernelStore:
        """One whole-program store: each procedure's facts — filtered
        to its own nodes, dropping mirror copies — replayed in bottom-up
        procedure order, straight from a live kernel's columns.
        ``owned_nodes=frozenset()`` skips all transfer-table
        construction and the two rule-only indexes: the merged kernel is
        a query-only store."""
        merged = KernelAnalysis(
            self.analyzed,
            self.icfg,
            k=self.k,
            owned_nodes=frozenset(),
        )
        totals = StoreStats()
        for proc in sorted(self.solvers, key=self.callgraph.order_key):
            solver = self.solvers[proc]
            if solver.kernel is not None:
                columns = solver.kernel.store.columns()
            elif solver.state is not None:
                # Packed by a worker, or adopted from the cache.
                columns = decode_packed(solver.state["packed"])
            else:
                continue
            merged.absorb(columns, keep_nids=solver.owned)
            counters = solver.counters()
            assert counters is not None
            for name in _COUNTER_FIELDS:
                setattr(
                    totals, name, getattr(totals, name) + int(counters[name])
                )
        merged.store.clear_worklist()
        # The replay bumped the merge kernel's counters; report the
        # schedule's true aggregate instead.
        merged.stats = totals
        self.ctx = merged.ctx
        return merged.store


def solve_summary(
    analyzed: AnalyzedProgram,
    icfg: ICFG,
    k: int,
    jobs: int = 1,
    max_facts: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
    on_budget: str = "partial",
    timer: Optional[PhaseTimer] = None,
    cache=None,
    oversubscribe: bool = False,
):
    """Solve one program with the summary engine and wrap the result in
    a :class:`~repro.core.solution.MayAliasSolution` (the same assembly
    :func:`~repro.core.analysis.analyze_program` performs)."""
    from ..core.analysis import BudgetExceeded
    from ..core.solution import MayAliasSolution

    if timer is None:
        timer = PhaseTimer()
    start = time.perf_counter()
    analysis = SummaryAnalysis(
        analyzed,
        icfg,
        k=k,
        max_facts=max_facts,
        deadline_seconds=deadline_seconds,
        timer=timer,
        jobs=jobs,
        cache=cache,
        oversubscribe=oversubscribe,
    )
    store = analysis.run()
    elapsed = time.perf_counter() - start
    solution = MayAliasSolution(
        icfg,
        store,
        analysis.ctx,
        k,
        analysis_seconds=elapsed,
        engine=analysis.engine_report(),
        phases=timer,
        budget=analysis.budget,
    )
    if analysis.budget.exceeded and on_budget == "raise":
        limit = (
            f"max_facts={max_facts}"
            if analysis.budget.reason == "max_facts"
            else f"deadline={deadline_seconds}s"
        )
        raise BudgetExceeded(
            f"analysis exceeded {limit} ({len(store)} facts; "
            "partial all-tainted solution attached)",
            solution,
        )
    return solution
