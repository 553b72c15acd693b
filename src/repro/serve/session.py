"""The daemon's resident state: documents, solutions, invalidation.

One :class:`ServeSession` holds every open document — source text,
parsed program, ICFG, and the current may-alias solution — and is the
single implementation both wire surfaces (JSON-RPC and HTTP) call
into.  Three properties carry the design:

* **Staleness safety.**  Every document carries a monotonically
  increasing version; a delta (``upsert``) replaces the text and bumps
  the version in one atomic tuple write.  ``ensure_solved`` loops
  *solve → compare versions* until the solution it produced is tagged
  with the document's current version — so a delta that arrives while
  a solve is in flight simply forces another solve, and a query is
  never answered from a pre-edit solution (pinned by the staleness
  test suite against fresh batch solves of the same final text).
* **Scoped invalidation.**  Solves run the summary engine
  (:mod:`repro.summaries`) against a shared
  :class:`~repro.cache.store.SolutionCache`, so the unit of
  re-computation after an edit is one procedure: unchanged procedures
  replay their ``repro-summary-entry/2`` envelopes, and only
  procedures whose text (or input deltas) changed re-solve.  A
  procedure counts as edited when its summary key — the digest of the
  environment text, its own text and k — differs from the previous
  solve's, and a post-edit solve is *scoped* when every cache miss
  belongs to an edited procedure — the CI gate holds that ratio at
  >= 90%.
* **One solver lane.**  Sessions are not internally locked; the daemon
  serializes all solving work through a single executor lane (see
  :mod:`repro.serve.daemon`), while deltas land on the event loop.
  The version loop above is what makes that race benign.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from ..core.analysis import finish_solution
from ..core.metrics import EngineReport
from ..core.solution import MayAliasSolution
from ..frontend.diagnostics import MiniCError
from ..icfg.ir import Node
from ..lint.engine import LintInput, run_lint
from ..lint.findings import LintReport
from ..names.object_names import ObjectName
from ..summaries.solver import SummaryAnalysis
from .metrics import ServeMetrics


class QueryError(ValueError):
    """A malformed query (unknown document, unparsable expression)."""


def parse_object_name(expr: str) -> ObjectName:
    """Parse a query expression — ``p``, ``*p``, ``**p``, ``p->next``,
    ``g.f`` and combinations — into an :class:`ObjectName`.

    This is deliberately the tiny slice of C expression syntax object
    names can denote; anything else raises :class:`QueryError`."""
    text = expr.strip()
    derefs = 0
    while text.startswith("*"):
        derefs += 1
        text = text[1:].lstrip()
    if not text or not (text[0].isalpha() or text[0] == "_"):
        raise QueryError(f"unparsable expression {expr!r}")
    index = 1
    while index < len(text) and (text[index].isalnum() or text[index] == "_"):
        index += 1
    name = ObjectName.variable(text[:index])
    rest = text[index:].strip()
    while rest:
        if rest.startswith("->"):
            rest = rest[2:].lstrip()
            name = name.deref()
        elif rest.startswith("."):
            rest = rest[1:].lstrip()
        else:
            raise QueryError(f"unparsable expression {expr!r}")
        index = 0
        while index < len(rest) and (rest[index].isalnum() or rest[index] == "_"):
            index += 1
        if index == 0:
            raise QueryError(f"unparsable expression {expr!r}")
        name = name.field(rest[:index])
        rest = rest[index:].strip()
    for _ in range(derefs):
        name = name.deref()
    return name


@dataclass
class Document:
    """One resident program."""

    path: str
    #: ``(version, text)`` — replaced atomically on every delta so a
    #: concurrent solver snapshot always sees a consistent pair.
    state: tuple[int, str]
    solved_version: int = -1
    input: Optional[LintInput] = None
    solution: Optional[MayAliasSolution] = None
    parse_error: Optional[str] = None
    #: The last solve's per-procedure summary keys.
    proc_keys: Optional[Mapping[str, str]] = None
    lint_version: int = -1
    lint_report: Optional[LintReport] = None
    #: Serve-specific detail of the last solve (invalidation scope).
    last_solve: dict = field(default_factory=dict)

    @property
    def version(self) -> int:
        return self.state[0]

    @property
    def text(self) -> str:
        return self.state[1]


class ServeSession:
    """Resident documents plus the solving/query/lint surface."""

    def __init__(
        self,
        k: int = 3,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        max_facts: Optional[int] = 2_000_000,
        deadline_seconds: Optional[float] = None,
        metrics: Optional[ServeMetrics] = None,
    ) -> None:
        from ..cache.store import SolutionCache

        self.k = k
        self.jobs = jobs
        self.max_facts = max_facts
        self.deadline_seconds = deadline_seconds
        self.metrics = metrics if metrics is not None else ServeMetrics()
        if cache_dir is None:
            # Incrementality is the daemon's point: default to a
            # private per-process cache rather than none at all.
            cache_dir = tempfile.mkdtemp(prefix="repro-serve-cache-")
        self.cache_dir = cache_dir
        self.cache = SolutionCache(cache_dir)
        self.documents: dict[str, Document] = {}
        #: Test hook: called as ``hook(path, snapshot_version)`` after a
        #: solve has snapshotted its input text but before the solution
        #: is installed — the staleness suite uses it to land a delta
        #: mid-solve deterministically.
        self._midsolve_hook: Optional[Callable[[str, int], None]] = None

    # -- document lifecycle --------------------------------------------------

    def upsert(self, path: str, text: str) -> str:
        """Open or replace one document's full text.  Returns
        ``"opened"``, ``"changed"`` or ``"unchanged"``."""
        doc = self.documents.get(path)
        if doc is None:
            self.documents[path] = Document(path=path, state=(0, text))
            self.metrics.edits_total += 1
            return "opened"
        if doc.text == text:
            self.metrics.noop_changes += 1
            return "unchanged"
        doc.state = (doc.version + 1, text)
        self.metrics.edits_total += 1
        return "changed"

    def close(self, path: str) -> bool:
        """Forget one document; True when it was resident."""
        removed = self.documents.pop(path, None)
        if removed is not None:
            self.metrics.documents_closed += 1
        return removed is not None

    def document(self, path: str) -> Document:
        doc = self.documents.get(path)
        if doc is None:
            raise QueryError(f"unknown document {path!r}")
        return doc

    # -- solving -------------------------------------------------------------

    def ensure_solved(self, path: str) -> Document:
        """Bring ``path``'s solution up to its current version.

        Loops until the installed solution's version matches the
        document's version at loop-check time, so a delta landing
        mid-solve triggers another pass instead of leaving a stale
        answer installed.  Raises :class:`MiniCError` when the current
        text does not parse (the parse error is also recorded on the
        document, tagged with the version it applies to)."""
        doc = self.document(path)
        attempts = 0
        while True:
            version, text = doc.state
            if doc.solved_version == version:
                if doc.parse_error is not None:
                    raise MiniCError(doc.parse_error)
                return doc
            if attempts:
                self.metrics.stale_retries_total += 1
            attempts += 1
            try:
                self._solve_snapshot(doc, version, text)
            except MiniCError:
                if doc.version == version:
                    raise
                # The broken snapshot was superseded mid-solve; loop
                # around and solve the delta that replaced it.

    def _solve_snapshot(self, doc: Document, version: int, text: str) -> None:
        """Solve one (version, text) snapshot and install the result."""
        started = time.perf_counter()
        try:
            lint_input = LintInput.from_source(text, filename=doc.path)
        except MiniCError as err:
            if self._midsolve_hook is not None:
                self._midsolve_hook(doc.path, version)
            doc.parse_error = str(err)
            doc.solution = None
            doc.input = None
            doc.proc_keys = None
            doc.solved_version = version
            doc.last_solve = {"status": "parse_error", "version": version}
            raise
        if self._midsolve_hook is not None:
            self._midsolve_hook(doc.path, version)

        analyzed, icfg = lint_input.analyzed, lint_input.icfg
        analysis = SummaryAnalysis(
            analyzed,
            icfg,
            k=self.k,
            max_facts=self.max_facts,
            deadline_seconds=self.deadline_seconds,
            jobs=self.jobs,
            cache=self.cache,
            previous=doc.solution,
        )
        solution = finish_solution(analysis, analysis.run(), started)
        self._record_invalidation(doc, version, analysis)

        doc.parse_error = None
        doc.input = lint_input
        doc.solution = solution
        doc.proc_keys = analysis.proc_keys
        doc.solved_version = version

    def _record_invalidation(
        self, doc: Document, version: int, analysis: SummaryAnalysis
    ) -> None:
        metrics = self.metrics
        metrics.solves_total += 1
        miss_procs = set(analysis.cache_miss_procs)
        hit_procs = set(analysis.cache_hit_procs)
        keys = analysis.proc_keys
        detail: dict = {
            "status": "ok",
            "version": version,
            "procs_total": len(keys),
            "resolved_procs": sorted(miss_procs),
            "replayed_procs": len(hit_procs),
            "rounds": analysis.rounds,
            "cache_hits": analysis.cache_hits,
            "cache_misses": analysis.cache_misses,
            "segments_reused": analysis.segments_reused,
            "segments_built": analysis.segments_built,
        }
        previous = doc.proc_keys
        if previous is not None:
            # An environment edit (globals, signatures, types, string
            # literals) rekeys every procedure, so it edits them all.
            edited = {
                proc
                for proc in set(previous) | set(keys)
                if previous.get(proc) != keys.get(proc)
            }
            scoped = miss_procs <= edited
            metrics.post_edit_solves += 1
            if scoped:
                metrics.scoped_post_edit_solves += 1
            metrics.post_edit_segments_reused += analysis.segments_reused
            metrics.post_edit_segments_built += analysis.segments_built
            detail["edited_procs"] = sorted(edited)
            detail["scoped"] = scoped
        metrics.invalidated_procs_total += len(miss_procs)
        metrics.replayed_procs_total += len(hit_procs)
        doc.last_solve = detail

    # -- queries -------------------------------------------------------------

    def nodes_at_line(self, doc: Document, line: int) -> list[Node]:
        """ICFG nodes whose source span covers ``line`` (dummy spans —
        synthetic nodes with no source anchor — never match)."""
        assert doc.input is not None
        out = []
        for node in doc.input.icfg.nodes:
            span = node.span
            if span.end.offset == 0 and span.start.offset == 0:
                continue
            if span.start.line <= line <= span.end.line:
                out.append(node)
        return out

    def query(
        self,
        path: str,
        line: int,
        a: Optional[str] = None,
        b: Optional[str] = None,
    ) -> dict:
        """Answer one point query against the *current* text.

        With ``a`` and ``b``: may the two expressions alias at any node
        on ``line``?  Without them: every alias pair holding on that
        line.  Always solves through :meth:`ensure_solved` first, so
        the answer reflects the latest delta."""
        doc = self.ensure_solved(path)
        assert doc.solution is not None
        self.metrics.queries_total += 1
        nodes = self.nodes_at_line(doc, line)
        result: dict = {
            "path": path,
            "version": doc.solved_version,
            "line": line,
            "matched_nodes": len(nodes),
            "complete": doc.solution.complete,
        }
        if a is not None or b is not None:
            if a is None or b is None:
                raise QueryError("queries need either both of a/b or neither")
            name_a = parse_object_name(a)
            name_b = parse_object_name(b)
            if not nodes:
                result["may_alias"] = None
            else:
                result["may_alias"] = any(
                    doc.solution.alias_query(node, name_a, name_b)
                    for node in nodes
                )
            return result
        pairs: set[str] = set()
        for node in nodes:
            pairs.update(str(pair) for pair in doc.solution.may_alias(node))
        result["pairs"] = sorted(pairs)
        return result

    # -- lint ----------------------------------------------------------------

    def lint(self, path: str) -> LintReport:
        """Lint the current text, reusing the resident solution (and
        memoizing the report per solved version)."""
        doc = self.ensure_solved(path)
        if doc.lint_version == doc.solved_version and doc.lint_report is not None:
            return doc.lint_report
        assert doc.input is not None and doc.solution is not None
        report = run_lint(
            doc.input,
            k=self.k,
            max_facts=self.max_facts,
            filename=doc.path,
            solution=doc.solution,
        )
        doc.lint_version = doc.solved_version
        doc.lint_report = report
        self.metrics.lint_runs_total += 1
        return report

    # -- reporting -----------------------------------------------------------

    def analyze_result(self, path: str) -> dict:
        """The per-document ``analyze`` response body: ``repro-stats/1``
        plus the serve-specific invalidation detail."""
        doc = self.ensure_solved(path)
        assert doc.solution is not None
        return {
            "path": path,
            "status": "ok",
            "version": doc.solved_version,
            "stats": doc.solution.stats_dict(),
            "serve": dict(doc.last_solve),
        }

    def stats_dict(self) -> dict:
        """The ``repro-serve-stats/1`` document for ``GET /metrics``."""
        reports = [
            doc.solution.engine
            for doc in self.documents.values()
            if doc.solution is not None
        ]
        engine = EngineReport.aggregate(reports).as_dict() if reports else None
        return self.metrics.stats_dict(
            resident_programs=len(self.documents),
            cache=self.cache.counters.as_dict(),
            engine=engine,
        )
