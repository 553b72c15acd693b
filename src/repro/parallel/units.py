"""The per-file units of ``repro analyze``, ``repro lint`` and
``repro difftest --replay`` — each command's one code path for a file,
whether it runs alone (in-process) or in a sweep.

Each worker takes one plain-dict payload (everything a fresh process
needs: source text, the command's options, the cache directory) and
returns a plain dict — no engine objects cross the process boundary,
so the workers run identically under ``fork`` and ``spawn`` and under
the serial ``jobs=1`` path of :func:`repro.parallel.run_sharded`.  A
file the analysis refuses comes back as an explicit rejection result
(see :func:`_rejected`), so one bad file in a sweep never aborts the
others.

Cache handles are opened per worker: concurrent writers are safe
because :class:`repro.cache.SolutionCache` lands entries via atomic
rename, and each worker's hit/miss counters come back in its result
for the parent to aggregate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..cache.store import open_cache
from ..core.metrics import PHASE_ICFG, PHASE_PARSE, PhaseTimer
from ..frontend.diagnostics import MiniCError
from ..frontend.semantics import parse_and_analyze
from ..icfg.builder import build_icfg

if TYPE_CHECKING:
    from ..baselines.weihl import WeihlResult
    from ..icfg.graph import ICFG


def _rejected(payload: dict, err: Exception) -> dict:
    """The result for a file the analysis refused: ``parse_error`` for
    the front end's error, whose message starts with the file name, or
    ``error`` for an overflow (a ``RuntimeError``: lint's fact budget,
    Weihl's closure bound), labelled with the file in a sweep.  Both
    carry only the message, so nothing unpicklable (a
    ``BudgetExceeded`` holds its partial solution) leaves a worker."""
    if isinstance(err, MiniCError):
        return {"parse_error": str(err)}
    label = f"{payload['path']}: " if payload["sweep"] else ""
    return {"error": f"{label}{err}"}


#: The ``analyze`` options that need a solution next to ``--dot``.
_SOLUTION_FLAGS = ("json", "stats_json", "per_node", "program_aliases", "weihl")


def analyze_file_unit(payload: dict) -> dict:
    """Analyze one MiniC source: parse and ICFG build (timed), ``--dot``,
    the cached solve, ``--weihl`` and ``--json``.  The result carries
    the DOT text, the stderr lines and the rendered text — the full
    report for a lone file, one summary line in a sweep.  ``rendered``
    is None when nothing follows the graph: a plain ``--dot`` run, or a
    ``--json`` file that could not be written (``status`` 2)."""
    from ..cache.solve import solve_with_cache

    path = payload["path"]
    timer = PhaseTimer()
    messages: list[str] = []
    result: dict = {"path": path, "dot": None, "messages": messages}
    try:
        with timer.phase(PHASE_PARSE):
            analyzed = parse_and_analyze(payload["source"], path)
        with timer.phase(PHASE_ICFG):
            icfg = build_icfg(analyzed)
        if payload["dot"]:
            from ..icfg.dot import to_dot

            result["dot"] = to_dot(icfg)
            if not any(payload[flag] for flag in _SOLUTION_FLAGS):
                # Plain --dot stays pipeable into graphviz: graph only,
                # no solve, no summary.
                return {**result, "rendered": None, "status": 0}
        cache = open_cache(payload["cache_dir"])
        solution, cache_status = solve_with_cache(
            analyzed,
            icfg,
            k=payload["k"],
            max_facts=payload["max_facts"],
            deadline_seconds=payload["deadline_seconds"],
            on_budget="partial",
            cache=cache,
            timer=timer,
            engine=payload["engine"],
            jobs=payload["jobs"],
        )
        weihl = None
        if payload["weihl"]:
            from ..baselines.weihl import weihl_aliases

            weihl = weihl_aliases(analyzed, icfg, k=payload["k"], materialize=False)
    except (MiniCError, RuntimeError) as err:
        return _rejected(payload, err)

    messages.extend(str(diag) for diag in analyzed.diagnostics)
    if not solution.complete:
        label = f"{path}: " if payload["sweep"] else ""
        messages.append(
            f"error: {label}analysis exceeded its {solution.budget.reason} "
            "budget; reporting the partial, all-tainted solution"
        )
    if payload["json"]:
        from ..io import dump_solution

        try:
            with open(payload["json"], "w") as handle:
                dump_solution(solution, handle)
        except OSError as err:
            messages.append(f"error: {err}")
            return {**result, "rendered": None, "status": 2}
        messages.append(f"solution written to {payload['json']}")

    stats = solution.stats_dict()
    if payload["sweep"]:
        rendered = _summary_line(path, stats, cache_status)
    else:
        rendered = _report(solution, stats, weihl, icfg, payload)
    return {
        **result,
        "rendered": rendered,
        "status": 0 if solution.complete else 1,
        "stats": stats,
        "entry": {"cache": cache_status, **stats},
        "cache_counters": cache.counters.as_dict() if cache else None,
    }


def _summary_line(path: str, stats: dict, cache_status: str) -> str:
    """One sweep line: the solution aggregates of ``repro-stats/1``."""
    solution = stats["solution"]
    cache_note = f"  [cache {cache_status}]" if cache_status != "off" else ""
    return (
        f"{path}: nodes={solution['icfg_nodes']} "
        f"facts={solution['may_hold_facts']} "
        f"aliases={solution['program_alias_count']} "
        f"%YES={solution['percent_yes']:.1f} "
        f"time={solution['analysis_seconds']:.3f}s{cache_note}"
    )


def _report(
    solution: Any, stats: dict, weihl: WeihlResult | None, icfg: ICFG, payload: dict
) -> str:
    """The full text report for a lone file: the summary block of its
    stats document, then the listings its flags ask for."""
    totals, engine = stats["solution"], stats["engine"]
    lines = [
        f"ICFG nodes:       {totals['icfg_nodes']}",
        f"may-hold facts:   {totals['may_hold_facts']}",
        f"(node, alias):    {totals['node_alias_count']}",
        f"program aliases:  {totals['program_alias_count']}",
        f"%YES_{payload['k']}:           {totals['percent_yes']:.1f}",
        f"analysis time:    {totals['analysis_seconds']:.3f}s",
        f"worklist:         {engine['worklist_pops']} pops / "
        f"{engine['worklist_pushes']} pushes / {engine['dedup_hits']} dedup hits",
    ]
    if weihl is not None:
        ratio = weihl.alias_count / max(1, totals["program_alias_count"])
        lines.append(f"Weihl aliases:    {weihl.alias_count}  ({ratio:.1f}x ours)")
    if payload["program_aliases"]:
        lines.append("\nprogram aliases:")
        lines.extend(
            f"  {pair}" for pair in sorted(str(p) for p in solution.program_aliases())
        )
    if payload["per_node"]:
        lines.append("\nper-node may-aliases:")
        for node in icfg.nodes:
            pairs = sorted(str(p) for p in solution.may_alias(node))
            if pairs:
                lines.append(f"  n{node.nid} [{node.label()}]:")
                lines.extend(f"    {pair}" for pair in pairs)
    return "\n".join(lines)


def lint_file_unit(payload: dict) -> dict:
    """Lint one MiniC source: the per-file unit of ``repro lint``.  The
    report is rendered *in the worker* (text or SARIF) so the parent
    only prints strings in unit order."""
    from ..lint import render_sarif, render_text, run_lint, stats_dict

    path = payload["path"]
    cache = open_cache(payload["cache_dir"])
    try:
        report = run_lint(
            payload["source"],
            provider=payload["provider"],
            compare_with="weihl" if payload["compare_weihl"] else None,
            k=payload["k"],
            max_facts=payload["max_facts"],
            filename=path,
            cache=cache,
        )
    except (MiniCError, RuntimeError) as err:
        return _rejected(payload, err)
    if payload["format"] == "sarif":
        rendered = render_sarif(report, filename=path)
    else:
        rendered = render_text(report, show_witnesses=not payload["no_witnesses"])
    stats = stats_dict(report)
    return {
        "path": path,
        "rendered": rendered,
        "fails": _fails(report, payload["fail_on"]),
        "stats": stats,
        "entry": stats,
        "cache_counters": cache.counters.as_dict() if cache else None,
    }


def _fails(report: Any, fail_on: str) -> bool:
    """Does ``report`` reach the ``--fail-on`` threshold?  ``definite``
    counts every-path findings of any severity; ``never`` never fails."""
    from ..lint.findings import SEVERITIES

    if fail_on == "never":
        return False
    if fail_on == "definite":
        return report.definite_count() > 0
    worst = report.max_severity()
    return worst is not None and SEVERITIES.index(worst) <= SEVERITIES.index(fail_on)


def difftest_replay_unit(payload: dict) -> dict:
    """Difftest one corpus file: the per-file unit of
    ``repro difftest --replay``."""
    from ..difftest.harness import difftest_source

    verdict = difftest_source(
        payload["source"],
        payload["config"],
        name=payload["path"],
        cache=open_cache(payload["cache_dir"]),
    )
    return {"path": payload["path"], "verdict": verdict}
