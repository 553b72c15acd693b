"""The corpus runner: real C files -> ``repro-corpus/1`` report.

Each file is one shard unit under :func:`repro.parallel.run_sharded`:
read -> lenient-lower (coverage ledger) -> auto-stub -> analyze ->
solve with the kernel engine (through :class:`SolutionCache` when a
cache directory is given) -> Weihl baseline -> lint -> SARIF.  Files
that fail to parse or type-check become explicit ``parse_error`` /
``semantic_error`` entries — a bad file never aborts the sweep.

The report is the real-code Table 1: per-file LR vs Weihl resolved
alias counts (untruncated pairs, the representation-independent
number), the precision ratio, coverage ledger percentages and wall
times, plus aggregate totals over the complete files (budget-partial
files are listed apart) and pooled cache counters.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional

CORPUS_SCHEMA = "repro-corpus/1"


def _pycparser_parse_errors() -> tuple:
    """pycparser's ParseError moved between versions (plyparser in
    2.x, c_parser in 3.x); collect whichever exist."""
    errors = []
    for module in ("pycparser.plyparser", "pycparser.c_parser"):
        try:
            mod = __import__(module, fromlist=["ParseError"])
        except ImportError:
            continue
        err = getattr(mod, "ParseError", None)
        if isinstance(err, type):
            errors.append(err)
    return tuple(errors)


def corpus_file_unit(payload: dict) -> dict:
    """Analyze one real C translation unit end to end (picklable)."""
    from ..baselines.weihl import weihl_aliases
    from ..cache.solve import solve_with_cache
    from ..cache.store import open_cache
    from ..frontend.diagnostics import MiniCError
    from ..frontend.pycparser_bridge import parse_c_lenient
    from ..frontend.semantics import analyze
    from ..icfg.builder import IcfgBuilder
    from ..lint import render_sarif, run_lint
    from ..lint.engine import LintInput

    parse_errors = _pycparser_parse_errors()

    path = payload["path"]
    k = payload["k"]
    started = time.perf_counter()

    def failed(status: str, error: Exception, **extra) -> dict:
        return {
            "path": path,
            "status": status,
            "error": str(error),
            "seconds": round(time.perf_counter() - started, 4),
            **extra,
        }

    try:
        unit = parse_c_lenient(payload["source"], path)
    except (*parse_errors, MiniCError) as err:
        return failed("parse_error", err)

    stubs = synthesis = None
    try:
        from .stubs import synthesize_stubs

        synthesis = synthesize_stubs(unit.program)
        stubs = synthesis.as_dict()
        analyzed = analyze(unit.program)
        builder = IcfgBuilder(analyzed)
        icfg = builder.build()
    except MiniCError as err:
        return failed(
            "semantic_error", err, ledger=unit.ledger.as_dict(), stubs=stubs
        )

    cache = open_cache(payload.get("cache_dir"))
    solution, cache_status = solve_with_cache(
        analyzed,
        icfg,
        k=k,
        max_facts=payload.get("max_facts"),
        deadline_seconds=payload.get("deadline_seconds"),
        on_budget="partial",
        cache=cache,
    )

    lr_pairs = solution.program_aliases()
    lr_untruncated = sum(
        1
        for pair in lr_pairs
        if not pair.first.truncated and not pair.second.truncated
    )
    weihl = weihl_aliases(analyzed, icfg, k=k)
    ratio = weihl.alias_count_untruncated / max(1, lr_untruncated)

    report = run_lint(
        LintInput(analyzed, builder, icfg),
        provider="lr",
        k=k,
        filename=path,
        solution=solution,
        cache=cache,
    )
    sarif = render_sarif(report, filename=path)

    return {
        "path": path,
        "status": "ok",
        "seconds": round(time.perf_counter() - started, 4),
        "ledger": unit.ledger.as_dict(),
        "stubs": stubs,
        "cache": cache_status,
        "cache_counters": cache.counters.as_dict() if cache else None,
        "solution": {
            "complete": solution.complete,
            "icfg_nodes": len(icfg.nodes),
            "may_hold_facts": len(solution.store),
            "percent_yes": round(solution.percent_yes(), 2),
        },
        "precision": {
            "lr_program_aliases": len(lr_pairs),
            "lr_untruncated": lr_untruncated,
            "weihl_untruncated": weihl.alias_count_untruncated,
            "weihl_total": weihl.alias_count,
            "ratio_weihl_over_lr": round(ratio, 3),
        },
        "lint": {
            "findings": len(report.findings),
            "max_severity": report.max_severity(),
        },
        "sarif": sarif,
        "diagnostics": [str(d) for d in analyzed.diagnostics],
    }


def discover_corpus(root) -> list[Path]:
    """All ``.c`` files under ``root`` (a directory), or ``root``
    itself when it is a file, sorted for deterministic shard order."""
    root = Path(root)
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*.c") if p.is_file())


def _aggregate(files: list[dict], wall_seconds: float) -> dict:
    ok = [f for f in files if f.get("status") == "ok"]
    # A budget-partial LR count is only a lower bound, so the alias
    # totals and their ratio are taken over complete files alone; the
    # partial ones are listed by path instead.
    complete = [f for f in ok if f["solution"]["complete"]]
    partial = [f["path"] for f in ok if not f["solution"]["complete"]]
    lr_total = sum(f["precision"]["lr_untruncated"] for f in complete)
    weihl_total = sum(f["precision"]["weihl_untruncated"] for f in complete)
    coverage = [f["ledger"]["coverage_percent"] for f in ok]
    hits = sum(
        (f.get("cache_counters") or {}).get("hits", 0) for f in files
    )
    misses = sum(
        (f.get("cache_counters") or {}).get("misses", 0) for f in files
    )
    return {
        "files_total": len(files),
        "files_ok": len(ok),
        "files_partial": len(partial),
        "partial_files": partial,
        "parse_errors": sum(1 for f in files if f.get("status") == "parse_error"),
        "semantic_errors": sum(
            1 for f in files if f.get("status") == "semantic_error"
        ),
        "shard_failures": sum(
            1 for f in files if str(f.get("status", "")).startswith("shard_")
        ),
        "stubs_synthesized": sum(
            len((f.get("stubs") or {}).get("stubbed", ())) for f in ok
        ),
        "lr_untruncated_total": lr_total,
        "weihl_untruncated_total": weihl_total,
        "ratio_weihl_over_lr": round(weihl_total / max(1, lr_total), 3),
        "mean_coverage_percent": round(
            sum(coverage) / len(coverage), 2
        )
        if coverage
        else None,
        "lint_findings": sum(f["lint"]["findings"] for f in ok),
        "cache": {"hits": hits, "misses": misses},
        "wall_seconds": round(wall_seconds, 4),
    }


def run_corpus(
    paths: list,
    k: int = 1,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    max_facts: Optional[int] = 200_000,
    deadline_seconds: Optional[float] = 10.0,
    timeout: Optional[float] = None,
) -> dict:
    """Analyze every file in ``paths`` and build the corpus report.

    ``paths`` may mix files and directories; directories are expanded
    via :func:`discover_corpus`.  Per-file SARIF documents ride along
    in each file entry under ``"sarif"`` (the CLI strips them into
    separate files when ``--out`` is given).
    """
    from ..parallel.driver import run_sharded

    expanded: list[Path] = []
    for p in paths:
        expanded.extend(discover_corpus(p))
    payloads = []
    for path in expanded:
        payloads.append(
            {
                "path": str(path),
                "source": Path(path).read_text(),
                "k": k,
                "max_facts": max_facts,
                "deadline_seconds": deadline_seconds,
                "cache_dir": cache_dir,
            }
        )
    started = time.perf_counter()
    outcomes = run_sharded(corpus_file_unit, payloads, jobs=jobs, timeout=timeout)
    files = []
    for payload, outcome in zip(payloads, outcomes):
        if outcome.ok:
            files.append(outcome.value)
        else:
            files.append(
                {
                    "path": payload["path"],
                    "status": f"shard_{outcome.status}",
                    "error": outcome.error,
                    "seconds": round(outcome.seconds or 0.0, 4),
                }
            )
    return {
        "schema": CORPUS_SCHEMA,
        "k": k,
        "jobs": jobs,
        "engine": "kernel",
        "files": files,
        "aggregate": _aggregate(files, time.perf_counter() - started),
    }
