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
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from ..core.columns import (
    ColumnStore,
    FactColumns,
    check_packed,
    decode_packed,
    pack_columns,
    rows_at,
)
from ..core.kernel import KernelAnalysis
from ..core.metrics import (
    PHASE_INIT,
    PHASE_POST,
    PHASE_PROPAGATE,
    BudgetOutcome,
    EngineReport,
    PhaseTimer,
)
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
from .segments import SegmentStore

if TYPE_CHECKING:
    from ..core.solution import MayAliasSolution


#: Canonical JSON text: sorted keys, no spaces.
_canon = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: The two deltas that carry no items: a cold drain's, and the one that
#: starts the retaint pass.
_EMPTY_DELTA = _canon({"seeds": [], "mirrors": {}})
_RETAINT_DELTA = _canon({"retaint": 1, "seeds": [], "mirrors": {}})


def _delta_text(seeds: list[str], mirrors: dict[str, list[str]]) -> str:
    """``_canon({"seeds": seeds, "mirrors": mirrors})`` with every item
    already a canonical text: the items are sorted and joined, never
    decoded."""
    mirrored = ",".join(
        f"{_canon(callee)}:[{','.join(sorted(mirrors[callee]))}]"
        for callee in sorted(mirrors)
    )
    return f'{{"mirrors":{{{mirrored}}},"seeds":[{",".join(sorted(seeds))}]}}'


def _split_exit(entry_text: str) -> tuple[str, bool]:
    """An exit entry's canonical text split at its clean bit: the key
    left of it (one per (assumption, pair) of the exit table) and the
    bit."""
    cut = entry_text.rindex(",")
    return entry_text[:cut], entry_text[cut + 1] == "t"


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


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class _PoolFailure(RuntimeError):
    """A worker process died or misbehaved; the coordinator falls back
    to the (identical-result) serial schedule."""


class _CorruptState(RuntimeError):
    """A state adopted from the cache passed the lookup checks but does
    not decode (a column value is out of range); ``key`` is its entry."""

    def __init__(self, key: str) -> None:
        super().__init__(f"summary entry {key} does not decode")
        self.key = key


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
        #: The procedure's own node ids, in position order.
        self.nids = tuple(node.nid for node in graph.nodes)
        self.owned = frozenset(self.nids)
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
            nid: ("p", position) for position, nid in enumerate(self.nids)
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
        # The last state adopted from the cache, with its entry key.
        self._adopted: Optional[tuple[dict, str]] = None
        # Per pair id of ``_json_kernel``: its canonical text, and
        # whether the exit table keeps it.  Ids are per kernel, so a new
        # kernel starts these over.
        self._json_kernel: Optional[KernelAnalysis] = None
        self._pair_text: dict[int, str] = {}
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
        kernel.absorb(self.packed_columns())
        kernel.clear_worklist()
        kernel.replay_registrations()
        _restore_counters(kernel, self.state["stats"])
        self.kernel = kernel
        self.state = None

    def drop_live(self) -> None:
        """Pack and release the live kernel (parallel transport keeps
        procedure state packed between rounds)."""
        if self.kernel is not None:
            self.state = self.state_portable()
            self.kernel = None

    def counters(self) -> Optional[dict]:
        if self.kernel is not None:
            return _counters_of(self.kernel)
        if self.state is not None:
            return dict(self.state["stats"])
        return None

    def fact_count(self) -> int:
        if self.kernel is not None:
            return len(self.kernel._fact_node)
        if self.state is not None:
            return int(self.state["packed"]["count"])
        return 0

    # -- inject / drain / harvest ------------------------------------------

    def advance_digest(self, delta_text: str) -> str:
        """Fold one input delta, as its canonical text, into the running
        digest."""
        self.inputs_digest = hashlib.sha256(
            f"{self.inputs_digest}:{delta_text}".encode("utf-8")
        ).hexdigest()
        return self.inputs_digest

    def inject(self, delta_text: str) -> None:
        """Apply one delta, given as its canonical text: entry-seed pairs
        at this procedure's entry and mirrored callee exit facts, in
        canonical (sorted) order — the text :meth:`advance_digest`
        hashed.  This is the one place a delta is decoded.

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
        delta = json.loads(delta_text)
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
                aa_id = kernel._aa_id(tuple(pair_from_json(p) for p in aa_json))
                kernel._make_true(
                    exit_nid,
                    aa_id,
                    kernel._pair_id(pair_from_json(pair_json)),
                    1 if clean else 0,
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
        """The procedure's current summary surface, each item as its
        canonical JSON text, in sorted order:

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

        The texts are read off the kernel's id columns: one fragment per
        pair id, and taint by fact id.  The barrier dedups and sorts
        them, deltas are joined from them, and the cache stores them.
        """
        kernel = self.kernel
        assert kernel is not None
        if self._json_kernel is not kernel:
            self._json_kernel = kernel
            self._pair_text = {}
            self._exit_keeps = {}
        by_node = kernel._by_node
        entry_pair = kernel._entry_pair
        fragment = self._fragment
        seeds: dict[str, list[str]] = {}
        for callee in self.callees:
            seeds[callee] = sorted(
                [
                    fragment(entry_pair[eid])
                    for eid in by_node[self.icfg.entry_of(callee).nid]
                ]
            )
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
            aa_text = ",".join([fragment(p) for p in aa_pairs[entry_aa[eid]]])
            clean = "true" if kernel._taint_entry_at(exit_nid, eid) else "false"
            exits.append(f"[[{aa_text}],{fragment(pid)},{clean}]")
        exits.sort()
        return {"seeds": seeds, "exits": exits}

    def _fragment(self, pid: int) -> str:
        """Pair id -> canonical text, memoized per kernel."""
        text = self._pair_text.get(pid)
        if text is None:
            assert self.kernel is not None
            text = self._pair_text[pid] = _canon(
                pair_to_json(self.kernel._pairs[pid])
            )
        return text

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
        order of first appearance in the node column.  This is the only
        packed form: workers send it back, the cache stores it, and a
        procedure that is not live holds it as is."""
        if self.kernel is None:
            assert self.state is not None
            return self.state
        tokens, column = self._node_tokens(self.kernel._fact_node)
        packed = pack_columns(self.kernel.columns(), column)
        packed["node_tokens"] = tokens
        return {"packed": packed, "stats": _counters_of(self.kernel)}

    def _node_tokens(self, fact_node: Sequence[int]) -> tuple[list, list]:
        """``(tokens, token-id column)`` for a node-id column."""
        tid_of = {nid: tid for tid, nid in enumerate(dict.fromkeys(fact_node))}
        tokens = [list(self._token_of[nid]) for nid in tid_of]
        return tokens, [tid_of[nid] for nid in fact_node]

    def _node_ids(self, tokens: list) -> list[int]:
        """The node id of each stored token (KeyError when one does
        not resolve in this program)."""
        return [self._nid_of[(token[0], token[1])] for token in tokens]

    def adopt_portable(self, state: dict, key: Optional[str] = None) -> None:
        """Install a portable state loaded from cache entry ``key`` as it
        is, dropping any live kernel.  Its node tokens are resolved and
        its column lengths checked here, so a stale or corrupt state
        raises before anything is installed; its columns are decoded
        only when the procedure goes live or its segment is built
        (:meth:`packed_columns`)."""
        packed = state["packed"]
        if packed["byteorder"] != sys.byteorder:
            # Summary entries are shared only between hosts of one byte
            # order: a foreign one is a miss, like a stale token.
            raise ValueError("foreign byteorder")
        check_packed(packed)
        self._node_ids(packed["node_tokens"])
        self.kernel = None
        self.state = state
        self._adopted = None if key is None else (state, key)

    def packed_columns(self) -> FactColumns:
        """The held packed state's columns, each node token read as the
        node id it stands for in this program.  A state adopted from the
        cache that does not decode raises :class:`_CorruptState`."""
        assert self.state is not None
        packed = self.state["packed"]
        try:
            return decode_packed(packed, self._node_ids(packed["node_tokens"]))
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            adopted = self._adopted
            if adopted is None or adopted[0] is not self.state:
                raise
            raise _CorruptState(adopted[1]) from exc

    def segment(self, key: Optional[str]) -> Optional[ColumnStore]:
        """This procedure's facts at its own nodes, from its live kernel
        or its held packed state (None before it started), tagged with
        ``key``."""
        if self.kernel is not None:
            return ColumnStore.of_kernel(self.kernel, self.nids, key)
        if self.state is not None:
            columns = rows_at(self.packed_columns(), self.nids)
            return ColumnStore.of_columns(columns, self.nids, key)
        return None


def _replay(solver: ProcSolver, key: str, envelope: dict) -> Optional[dict]:
    """Install the stored state of cache hit ``key`` into ``solver`` and
    return its stored harvest, or None when the envelope does not
    rebuild."""
    loaded = load_summary_envelope(envelope)
    if loaded is None:
        return None
    state, harvest = loaded
    try:
        solver.adopt_portable(state, key)
    except (KeyError, IndexError, TypeError, ValueError):
        return None
    return harvest


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
        "state": solver.state_portable(),
        "harvest": solver.harvest()
        if ok
        else {"seeds": {}, "exits": []},
    }


class SummaryAnalysis:
    """Drop-in analysis backend (``engine="summary"``): bottom-up
    procedure summaries over per-procedure restricted kernels, read as
    one whole-program :class:`~.segments.SegmentStore` at the end.

    ``previous`` is an earlier complete summary solution (serve passes
    the document's current one): a procedure whose last drain has the
    summary entry key of one of its segments reuses that segment
    instead of building its own.  Keys exist only with a ``cache``."""

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
        previous: Optional["MayAliasSolution"] = None,
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
        self.previous = previous
        self.segments_reused = 0
        self.segments_built = 0
        self.solvers: dict[str, ProcSolver] = {}
        self._texts: Optional[tuple[str, dict[str, str]]] = None
        self._proc_keys: dict[str, str] = {}
        # Entry keys whose stored state failed to decode: misses for
        # the rest of this analysis, whatever the cache holds.
        self._corrupt_keys: set[str] = set()
        self._callers_of: dict[str, tuple[str, ...]] = {}
        self._pool = None
        self._pool_jobs = 0

    # -- public surface (analyze_program-compatible) -------------------------

    def run(self) -> SegmentStore:
        deadline_at = (
            None
            if self.deadline_seconds is None
            else time.perf_counter() + self.deadline_seconds
        )
        while True:
            try:
                store = self._solve(deadline_at)
                break
            except _CorruptState as corrupt:
                # A stored state passed the lookup checks but does not
                # decode.  Solve again with its key a miss: that drain
                # is solved and stored anew.  Dropping the entry is
                # best effort; the miss does not depend on it.
                assert self.cache is not None
                self.cache.counters.rebuild_failures += 1
                self._corrupt_keys.add(corrupt.key)
                try:
                    self.cache.entry_path(corrupt.key).unlink(missing_ok=True)
                except OSError:
                    pass
        self.store = store
        return store

    def _solve(self, deadline_at: Optional[float]) -> SegmentStore:
        with self.timer.phase(PHASE_INIT):
            self._setup()
        with self.timer.phase(PHASE_PROPAGATE):
            try:
                self._solve_rounds(deadline_at, parallel_ok=True)
            except _PoolFailure:
                # A worker died.  Determinism over throughput: restart
                # the whole schedule serially in-process — same rounds,
                # same deltas, byte-identical result.
                self._setup()
                self._solve_rounds(deadline_at, parallel_ok=False)
            finally:
                self._shutdown_pool()
        with self.timer.phase(PHASE_POST):
            store = self._segment_store()
            if self.budget.exceeded:
                self.budget.demoted_facts = store.taint_all()
        return store

    def program_texts(self) -> tuple[str, dict[str, str]]:
        """The declaration environment text and each procedure's
        canonical text (:mod:`.envelope`), computed once."""
        if self._texts is None:
            self._texts = (
                proc_environment_text(self.analyzed, self.icfg),
                proc_program_texts(self.analyzed),
            )
        return self._texts

    @property
    def proc_keys(self) -> Mapping[str, str]:
        """Each procedure's summary key (the digest of the environment
        text, its own text and k), read-only; empty without a cache."""
        return MappingProxyType(self._proc_keys)

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
        for text in solver.harvest()["exits"]:
            aa_json, pair_json, clean = json.loads(text)
            grouped.setdefault(_canon(aa_json), []).append([pair_json, clean])
        return grouped

    # -- schedule -------------------------------------------------------------

    def _setup(self) -> None:
        self.budget = BudgetOutcome(
            max_facts=self.max_facts, deadline_seconds=self.deadline_seconds
        )
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
            env_text, texts = self.program_texts()
            self._proc_keys = {
                proc: summary_proc_key(env_text, texts[proc], self.k)
                for proc in self.callgraph.procs
                if proc in texts
            }

    def _solve_rounds(
        self, deadline_at: Optional[float], parallel_ok: bool
    ) -> None:
        order_key = self.callgraph.order_key
        # proc -> the canonical text of the delta its next drain injects.
        pending: dict[str, str] = {
            proc: _EMPTY_DELTA
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
                    proc: _RETAINT_DELTA
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
            # are canonical texts: the seen-sets hold them, and each
            # delta is joined from them, sorted.
            next_pending: dict[str, tuple[list[str], dict[str, list[str]]]] = {}

            def delta_for(proc: str) -> tuple[list[str], dict[str, list[str]]]:
                delta = next_pending.get(proc)
                if delta is None:
                    delta = next_pending[proc] = ([], {})
                return delta

            for proc in order:
                harvest = harvests[proc]
                for callee, texts in sorted(harvest["seeds"].items()):
                    seen = seen_seeds[callee]
                    fresh = [text for text in texts if text not in seen]
                    if not fresh:
                        continue
                    seen.update(fresh)
                    if callee != proc:
                        # A self-recursive call's seeds are already
                        # facts in this very kernel.
                        delta_for(callee)[0].extend(fresh)
                sent = exit_sent[proc]
                for text in harvest["exits"]:
                    key, clean = _split_exit(text)
                    previous = sent.get(key)
                    if previous is None or (clean and not previous):
                        sent[key] = clean or bool(previous)
                        for caller in self._callers_of[proc]:
                            if caller == proc:
                                continue
                            delta_for(caller)[1].setdefault(proc, []).append(
                                text
                            )
            pending = {
                proc: _delta_text(seeds, mirrors)
                for proc, (seeds, mirrors) in next_pending.items()
            }
            self.rounds += 1

    def _drain_batch(
        self,
        order: list[str],
        deltas: dict[str, str],
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
            envelope = (
                None
                if key in self._corrupt_keys
                else self.cache.get(
                    key, schema=SUMMARY_ENTRY_SCHEMA, payload_key="state"
                )
            )
            if envelope is not None:
                harvest = _replay(solver, key, envelope)
                if harvest is not None:
                    harvests[proc] = harvest
                    self.drains += 1
                    self.cache_hits += 1
                    self.cache_hit_procs.add(proc)
                    continue
                # The lookup hit but its entry does not rebuild: a
                # node token that does not resolve, columns that do not
                # fit their counts or a malformed envelope.  The drain
                # is a miss, and its put below overwrites the entry.
                self.cache.counters.rebuild_failures += 1
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
                            result["harvest"],
                        ),
                    )
        return harvests

    def _drain_serial(
        self,
        procs: list[str],
        deltas: dict[str, str],
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
                "harvest": solver.harvest()
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
        # Workers beyond the core count cannot help a CPU-bound drain;
        # they only add serialization and memory traffic.
        return max(1, min(self.jobs, pending, _cores()))

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
        deltas: dict[str, str],
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

    # -- the whole-program store ----------------------------------------------

    def _segment_store(self) -> SegmentStore:
        """Each procedure's segment, in bottom-up order.  A procedure
        whose last drain has the key of a segment ``previous`` offers
        reuses it: the cache trusts that key to fix the procedure's
        state, so the segment holds exactly the facts a new one would.
        A budget-partial solve reuses nothing and keys nothing, so it
        offers nothing for reuse either."""
        self.segments_reused = self.segments_built = 0
        partial = self.budget.exceeded
        previous = self.previous
        offered: dict[str, ColumnStore] = (
            previous.store.segments
            if previous is not None and isinstance(previous.store, SegmentStore)
            else {}
        )
        segments: dict[str, ColumnStore] = {}
        for proc in sorted(self.solvers, key=self.callgraph.order_key):
            solver = self.solvers[proc]
            proc_key = self._proc_keys.get(proc)
            key = (
                None
                if partial or proc_key is None
                else summary_entry_key(proc_key, solver.inputs_digest)
            )
            segment = offered.get(proc)
            if key is not None and segment is not None and segment.key == key:
                self.segments_reused += 1
            else:
                segment = solver.segment(key)
                if segment is None:
                    continue
                self.segments_built += 1
            segments[proc] = segment
        return SegmentStore(self.analyzed, self.icfg, self.k, segments)


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
):
    """Solve one program with the summary engine and wrap the result in
    a :class:`~repro.core.solution.MayAliasSolution` (the same assembly
    :func:`~repro.core.analysis.analyze_program` performs)."""
    from ..core.analysis import finish_solution

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
    )
    return finish_solution(analysis, analysis.run(), start, on_budget)
