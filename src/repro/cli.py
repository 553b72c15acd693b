"""Command-line interface: ``repro analyze [options] file.c ...``,
``repro lint [options] file.c ...``, ``repro difftest [options]``,
``repro corpus run <dir>``, ``repro cache {stats,verify,clear}`` and
``repro serve [--port N | --stdio]``.

``analyze`` (the leading subcommand word is optional, so the
historical ``repro-aliases file.c`` spelling keeps working) analyzes a
MiniC source file and prints per-node may-aliases, program aliases, or
a summary — a small faithful analogue of the paper's prototype tool.
``--stats-json`` dumps the full ``repro-stats/1`` document (phase wall
times, engine counters, budget outcome); ``--max-facts`` and
``--deadline-seconds`` bound the run, and an exceeded budget reports
the partial, all-tainted solution instead of discarding the work.

``lint`` runs the alias-aware pointer-bug detectors
(:mod:`repro.lint`) — text or SARIF 2.1.0 output, a ``repro-lint/1``
stats document, optional Weihl provenance comparison
(``--compare-weihl``), and a ``--self-check`` smoke mode for CI.

``difftest`` differential-tests the engine against the executable
oracles and baselines (see ``docs/TESTING.md``): generator-drawn
programs by default, or ``--replay file.c ...`` for corpus entries.
A soundness violation prints a readable diff report, shrinks the
program, persists it under the corpus directory, and exits with
status 3 (distinct from the usual error statuses).

``corpus run`` sweeps *real* C translation units (lenient lowering,
coverage ledger, auto-stubbed externals — :mod:`repro.corpus`) and
prints a per-file LR-vs-Weihl precision report; ``--out DIR`` writes
per-file SARIF plus the full ``repro-corpus/1`` report.json.

``analyze``, ``lint`` and ``difftest`` all accept ``--jobs N`` (shard
the work across a process pool via :mod:`repro.parallel`; results
merge in deterministic unit order, and a crashed or timed-out shard
degrades to a partial outcome instead of hanging the run) and
``--cache-dir DIR`` (reload unchanged programs from the
content-addressed result cache, :mod:`repro.cache`, instead of
re-solving).  ``analyze`` and ``lint`` accept multiple files and then
print one summary per file plus an aggregated multi-file stats
document.  ``repro cache`` administers a cache directory: ``stats``
prints the ``repro-cache/1`` document, ``verify`` re-solves a sample
of entries and diffs them against the stored solutions (exit 1 on any
drift), and ``clear`` deletes the entries.

``serve`` runs the incremental analysis daemon (:mod:`repro.serve`):
programs stay resident, full-text deltas invalidate only the
procedures they touch (per-procedure summary cache), and queries are
answered from memory over HTTP batch and/or LSP-style JSON-RPC
surfaces.  ``--stats-json`` flushes the final ``repro-serve-stats/1``
document on shutdown — including a SIGTERM shutdown, through the same
emission path every other subcommand uses.  See ``docs/SERVE.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .baselines.weihl import weihl_aliases
from .core.metrics import PHASE_ICFG, PHASE_PARSE, PhaseTimer
from .frontend.diagnostics import MiniCError
from .frontend.semantics import parse_and_analyze
from .icfg.builder import build_icfg
from .icfg.dot import to_dot


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-aliases",
        description=(
            "Interprocedural may-alias analysis for MiniC "
            "(Landi & Ryder, PLDI 1992)"
        ),
    )
    parser.add_argument(
        "file",
        nargs="+",
        help=(
            "MiniC source file(s) ('-' for stdin); several files run "
            "as a sweep (see --jobs)"
        ),
    )
    parser.add_argument(
        "-k",
        type=int,
        default=3,
        help="k-limit for object names (default 3, as in the paper)",
    )
    parser.add_argument(
        "--per-node",
        action="store_true",
        help="print may-aliases at every ICFG node",
    )
    parser.add_argument(
        "--program-aliases",
        action="store_true",
        help="print the program-alias set (Table 1 style)",
    )
    parser.add_argument(
        "--weihl",
        action="store_true",
        help="also run the Weihl [Wei80] baseline and report its count",
    )
    parser.add_argument(
        "--must",
        action="store_true",
        help=(
            "also run the must-alias under-approximation (repro.must) "
            "and report the [must, may] precision interval; adds "
            "'must' and 'interval' blocks to --stats-json"
        ),
    )
    parser.add_argument(
        "--dot",
        action="store_true",
        help="print the ICFG in Graphviz DOT format and exit",
    )
    parser.add_argument(
        "--max-facts",
        type=int,
        default=5_000_000,
        help=(
            "fact budget; an exceeded budget reports the partial "
            "all-tainted solution and exits 1"
        ),
    )
    parser.add_argument(
        "--deadline-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for propagation (same semantics as --max-facts)",
    )
    parser.add_argument(
        "--engine",
        choices=("kernel", "reference", "summary"),
        default="kernel",
        help=(
            "solver backend: the integer-ID kernel (default), the "
            "object-graph reference engine, or the bottom-up "
            "procedure-summary solver (parallelizes within one "
            "program via --jobs; caches per procedure via "
            "--cache-dir); all three produce identical solutions "
            "(the difftest suite pins the equivalences)"
        ),
    )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        help=(
            "write phase timings + engine counters as JSON "
            "(repro-stats/1 schema; '-' for stdout)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="export the full solution as JSON (see repro.io)",
    )
    add_parallel_arguments(parser)
    return parser


def add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--jobs`` / ``--cache-dir`` pair shared by every sweeping
    subcommand (see docs/PARALLEL.md)."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for sweeps (and, for a single analyze "
            "target, parallel per-procedure drains with --engine "
            "summary); results merge in deterministic unit order, so "
            "every N prints the same report (default 1)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "content-addressed result cache: solved solutions are "
            "keyed by canonical IR + k + engine config and reloaded "
            "instead of re-solved (see 'repro cache --help')"
        ),
    )


#: Exit status for a confirmed soundness violation found by
#: ``repro difftest`` — distinct from 1 (analysis/user error) and
#: 2 (I/O error) so CI can tell "the engine is unsound" apart from
#: "the invocation was wrong".
EXIT_SOUNDNESS_VIOLATION = 3

#: Exit status for ``repro lint`` when findings at or above the
#: ``--fail-on`` severity exist (the lint analogue of a compiler
#: reporting errors; distinct from crash statuses).
EXIT_LINT_FINDINGS = 4


def emit_stats_json(payload, destination: str, label: str = "stats") -> int:
    """Write a stats document to ``destination`` (``-`` = stdout).

    The one shared emission path for every ``--stats-json``-shaped
    flag — including the serve daemon's shutdown flush, so a SIGTERM
    still lands the document on disk.  ``payload`` may be a dict or a
    pre-serialized string.  Returns 0 on success, 2 on an I/O error
    (already reported on stderr).
    """
    if isinstance(payload, str):
        document = payload
    else:
        document = json.dumps(payload, indent=2, sort_keys=True)
    if destination == "-":
        print(document)
        return 0
    try:
        with open(destination, "w") as handle:
            handle.write(document + "\n")
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"{label} written to {destination}", file=sys.stderr)
    return 0


def build_lint_parser() -> argparse.ArgumentParser:
    """Argparse definition for ``repro lint``."""
    parser = argparse.ArgumentParser(
        prog="repro-aliases lint",
        description=(
            "Alias-aware pointer-bug detection for MiniC: uninitialized "
            "pointer uses, escaping stack addresses, null dereferences, "
            "dead stores and statement conflicts"
        ),
    )
    parser.add_argument(
        "file",
        nargs="*",
        help=(
            "MiniC source file(s) ('-' for stdin; optional with "
            "--self-check); several files run as a sweep (see --jobs)"
        ),
    )
    parser.add_argument(
        "-k", type=int, default=3, help="k-limit for object names (default 3)"
    )
    parser.add_argument(
        "--provider",
        choices=("lr", "weihl", "andersen"),
        default="lr",
        help="alias provider backing the detectors (default lr)",
    )
    parser.add_argument(
        "--compare-weihl",
        action="store_true",
        help=(
            "also lint under the flow-insensitive Weihl baseline and tag "
            "each finding with whether Weihl flags it too"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="output format (default text; sarif emits SARIF 2.1.0)",
    )
    parser.add_argument(
        "--no-witnesses",
        action="store_true",
        help="text format: omit witness alias pairs",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "note", "definite", "never"),
        default="error",
        help=(
            "minimum severity that makes the exit status non-zero "
            "(default error); 'definite' fails only on every-path "
            "findings regardless of severity (implies --must); "
            "'never' always exits 0"
        ),
    )
    parser.add_argument(
        "--must",
        action="store_true",
        help=(
            "pair the may provider with the must-alias "
            "under-approximation so detectors can upgrade findings "
            "from 'possible' to 'definite' (every-path)"
        ),
    )
    parser.add_argument(
        "--max-facts",
        type=int,
        default=2_000_000,
        help="fact budget for the alias analysis",
    )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        help="write finding counts as JSON (repro-lint/1; '-' for stdout)",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="print the detector catalog and exit",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help=(
            "lint the bundled fixture programs under every provider and "
            "verify structural invariants (CI smoke target)"
        ),
    )
    add_parallel_arguments(parser)
    return parser


def lint_main(argv: list[str]) -> int:
    """``repro lint``: run the pointer-bug detectors on one file."""
    from .lint import (
        render_sarif,
        render_text,
        rule_help,
        run_lint,
        self_check,
        stats_dict,
    )
    from .lint.findings import SEVERITIES

    args = build_lint_parser().parse_args(argv)
    if args.rules:
        print(rule_help())
        return 0
    if args.self_check:
        problems = self_check()
        if problems:
            for problem in problems:
                print(f"self-check: {problem}", file=sys.stderr)
            return 1
        print("lint self-check: OK")
        return 0
    if not args.file:
        print("error: a source file is required (or --self-check)", file=sys.stderr)
        return 2

    if len(args.file) > 1:
        return _lint_sweep(args)

    file = args.file[0]
    if file == "-":
        source = sys.stdin.read()
        filename = "<stdin>"
    else:
        try:
            with open(file) as handle:
                source = handle.read()
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        filename = file

    cache = None
    if args.cache_dir:
        from .cache.store import SolutionCache

        cache = SolutionCache(args.cache_dir)
    must = args.must or args.fail_on == "definite"
    try:
        report = run_lint(
            source,
            provider=args.provider,
            compare_with="weihl" if args.compare_weihl else None,
            k=args.k,
            max_facts=args.max_facts,
            filename=filename,
            cache=cache,
            must=must,
        )
    except MiniCError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if args.format == "sarif":
        print(render_sarif(report, filename=filename))
    else:
        print(render_text(report, show_witnesses=not args.no_witnesses))

    if args.stats_json:
        code = emit_stats_json(stats_dict(report), args.stats_json)
        if code:
            return code

    if args.fail_on == "definite":
        if report.definite_count():
            return EXIT_LINT_FINDINGS
    elif args.fail_on != "never":
        threshold = SEVERITIES.index(args.fail_on)
        worst = report.max_severity()
        if worst is not None and SEVERITIES.index(worst) <= threshold:
            return EXIT_LINT_FINDINGS
    return 0


def _lint_sweep(args) -> int:
    """Multi-file ``repro lint``: one sharded unit per file, reports
    printed in argument order, one aggregated stats document."""
    from .lint.findings import SEVERITIES
    from .parallel import run_sharded
    from .parallel.units import lint_file_unit

    payloads = []
    for path in args.file:
        try:
            with open(path) as handle:
                source = handle.read()
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        payloads.append(
            {
                "path": path,
                "source": source,
                "k": args.k,
                "max_facts": args.max_facts,
                "provider": args.provider,
                "compare_with": "weihl" if args.compare_weihl else None,
                "format": args.format,
                "show_witnesses": not args.no_witnesses,
                "cache_dir": args.cache_dir,
                "must": args.must or args.fail_on == "definite",
            }
        )

    outcomes = run_sharded(lint_file_unit, payloads, jobs=args.jobs)
    worst: Optional[str] = None
    failed_shards = 0
    parse_errors = 0
    definite_total = 0
    files_stats = []
    cache_totals: dict[str, int] = {}
    for payload, outcome in zip(payloads, outcomes):
        if not outcome.ok:
            failed_shards += 1
            print(
                f"error: {payload['path']}: shard {outcome.status}: "
                f"{outcome.error}",
                file=sys.stderr,
            )
            files_stats.append(
                {"file": payload["path"], "shard": outcome.as_dict()}
            )
            continue
        result = outcome.value
        if "parse_error" in result:
            parse_errors += 1
            print(
                f"error: {result['path']}: {result['parse_error']}",
                file=sys.stderr,
            )
            files_stats.append(
                {"file": result["path"], "parse_error": result["parse_error"]}
            )
            continue
        print(f"== {result['path']} ==")
        print(result["rendered"])
        files_stats.append({"file": result["path"], **result["stats"]})
        for key, value in (result.get("cache_counters") or {}).items():
            cache_totals[key] = cache_totals.get(key, 0) + value
        definite_total += result.get("definite", 0)
        severity = result["max_severity"]
        if severity is not None and (
            worst is None or SEVERITIES.index(severity) < SEVERITIES.index(worst)
        ):
            worst = severity

    if args.stats_json:
        code = emit_stats_json(
            {
                "schema": "repro-lint-multi/1",
                "files": files_stats,
                "jobs": args.jobs,
                "failed_shards": failed_shards,
                "parse_errors": parse_errors,
                "cache": cache_totals or None,
            },
            args.stats_json,
        )
        if code:
            return code

    if failed_shards or parse_errors:
        return 1
    if args.fail_on == "definite":
        if definite_total:
            return EXIT_LINT_FINDINGS
    elif args.fail_on != "never" and worst is not None:
        if SEVERITIES.index(worst) <= SEVERITIES.index(args.fail_on):
            return EXIT_LINT_FINDINGS
    return 0


def build_difftest_parser() -> argparse.ArgumentParser:
    """Argparse definition for ``repro difftest``."""
    parser = argparse.ArgumentParser(
        prog="repro-aliases difftest",
        description=(
            "Differential-test the Landi/Ryder engine against the "
            "dynamic and exact alias oracles and baseline analyses"
        ),
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=50,
        help="number of generator-drawn programs to test (default 50)",
    )
    parser.add_argument(
        "--seed-start",
        type=int,
        default=1,
        help="first generator seed (default 1)",
    )
    parser.add_argument(
        "-k", type=int, default=2, help="k-limit under test (default 2)"
    )
    parser.add_argument(
        "--draws",
        type=int,
        default=8,
        help="input draws per program for the dynamic oracle (default 8)",
    )
    parser.add_argument(
        "--max-facts",
        type=int,
        default=600_000,
        help="fact budget; exceeding it degrades to the taint-invariant check",
    )
    parser.add_argument(
        "--deadline-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-program wall-clock budget (same degradation as --max-facts)",
    )
    parser.add_argument(
        "--replay",
        nargs="+",
        metavar="FILE",
        help="difftest these MiniC files (e.g. corpus entries) instead of "
        "generated programs",
    )
    parser.add_argument(
        "--no-must-check",
        action="store_true",
        help=(
            "skip the must-alias checks (must_subset_lr containment "
            "and the per-path dynamic must oracle)"
        ),
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="on violation, report without shrinking/persisting",
    )
    parser.add_argument(
        "--corpus-dir",
        default="tests/corpus",
        help="where shrunk counterexamples are persisted (default tests/corpus)",
    )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        help="write suite statistics as JSON (repro-difftest/1; '-' for stdout)",
    )
    add_parallel_arguments(parser)
    return parser


def difftest_main(argv: list[str]) -> int:
    """``repro difftest``: run the differential harness; exit 3 on a
    soundness violation (with a readable report, never a traceback)."""
    from pathlib import Path

    from .difftest import (
        DifftestConfig,
        difftest_source,
        persist_counterexample,
        run_difftest_suite,
        shrink_source,
        violation_predicate,
    )
    from .difftest.harness import SuiteResult

    args = build_difftest_parser().parse_args(argv)
    config = DifftestConfig(
        k=args.k,
        draws=args.draws,
        max_facts=args.max_facts,
        deadline_seconds=args.deadline_seconds,
        run_must_check=not args.no_must_check,
    )

    if args.replay:
        sources = []
        for path in args.replay:
            try:
                sources.append((path, Path(path).read_text()))
            except OSError as err:
                print(f"error: {err}", file=sys.stderr)
                return 2
        suite = SuiteResult()
        if args.jobs > 1 and len(sources) > 1:
            from .difftest.harness import degraded_verdict
            from .parallel import run_sharded
            from .parallel.units import difftest_replay_unit

            payloads = [
                {
                    "path": path,
                    "source": source,
                    "config": config,
                    "cache_dir": args.cache_dir,
                }
                for path, source in sources
            ]
            outcomes = run_sharded(difftest_replay_unit, payloads, jobs=args.jobs)
            for (path, source), outcome in zip(sources, outcomes):
                if outcome.ok:
                    verdict = outcome.value["verdict"]
                else:
                    verdict = degraded_verdict(
                        path, source, config.k, outcome.as_dict()
                    )
                suite.verdicts.append(verdict)
                suite.seconds += verdict.seconds
        else:
            cache = None
            if args.cache_dir:
                from .cache.store import SolutionCache

                cache = SolutionCache(args.cache_dir)
            for path, source in sources:
                try:
                    verdict = difftest_source(source, config, name=path, cache=cache)
                except MiniCError as err:
                    print(f"error: {path}: {err}", file=sys.stderr)
                    return 1
                suite.verdicts.append(verdict)
                suite.seconds += verdict.seconds
    else:
        seeds = range(args.seed_start, args.seed_start + args.seeds)
        suite = run_difftest_suite(
            seeds, config, jobs=args.jobs, cache_dir=args.cache_dir
        )

    stats = {
        "schema": "repro-difftest/1",
        "config": {
            "k": config.k,
            "draws": config.draws,
            "max_facts": config.max_facts,
            "deadline_seconds": config.deadline_seconds,
            "jobs": args.jobs,
            "cache_dir": args.cache_dir,
        },
        "suite": suite.stats_dict(),
        "failures": [v.as_dict() for v in suite.failures],
    }

    shrunk_path = None
    if not suite.ok:
        failure = suite.failures[0]
        print(failure.report())
        if not args.no_shrink:
            failed_checks = [c.name for c in failure.violating_checks]
            print(
                f"shrinking {failure.name} "
                f"(preserving: {', '.join(failed_checks)}) ...",
                file=sys.stderr,
            )
            try:
                shrunk = shrink_source(
                    failure.source,
                    violation_predicate(config, failed_checks),
                )
            except ValueError:
                print("shrink: violation did not reproduce", file=sys.stderr)
            else:
                shrunk_path = persist_counterexample(
                    shrunk.source,
                    Path(args.corpus_dir),
                    failure.name,
                    metadata={
                        "checks": failed_checks,
                        "k": config.k,
                        "lines": shrunk.lines,
                        "shrunk_from_lines": shrunk.original_lines,
                    },
                    note=f"Found by repro difftest; checks: {failed_checks}",
                )
                stats["shrunk"] = {
                    "path": str(shrunk_path),
                    "lines": shrunk.lines,
                    "from_lines": shrunk.original_lines,
                    "tests_run": shrunk.tests_run,
                }
                print(
                    f"shrunk to {shrunk.lines} lines "
                    f"(from {shrunk.original_lines}); saved to {shrunk_path}"
                )

    if args.stats_json:
        code = emit_stats_json(stats, args.stats_json)
        if code:
            return code

    summary = suite.stats_dict()
    print(
        f"difftest: {summary['programs']} programs, "
        f"{summary['failures']} violations, "
        f"{summary['partial_solutions']} partial (budget), "
        f"{summary['seconds']:.1f}s"
    )
    return EXIT_SOUNDNESS_VIOLATION if not suite.ok else 0


def build_corpus_parser() -> argparse.ArgumentParser:
    """Argparse definition for ``repro corpus``."""
    parser = argparse.ArgumentParser(
        prog="repro-aliases corpus",
        description=(
            "Analyze a corpus of real C translation units: lenient "
            "lowering with a per-file coverage ledger, conservative "
            "auto-stubs for unresolved externals, the LR engine vs the "
            "Weihl baseline per file, lint findings as SARIF, and a "
            "repro-corpus/1 precision report (the real-code Table 1)"
        ),
    )
    parser.add_argument(
        "action",
        choices=("run",),
        help="run: analyze every .c file under the given paths",
    )
    parser.add_argument(
        "path",
        nargs="+",
        help="corpus directories (searched recursively for *.c) or C files",
    )
    parser.add_argument(
        "-k",
        type=int,
        default=1,
        help=(
            "k-limit for object names (default 1 — the paper's Table 1 "
            "uses 1-limiting; real TUs get expensive fast above it)"
        ),
    )
    parser.add_argument(
        "--max-facts",
        type=int,
        default=200_000,
        help=(
            "per-file fact budget; an exceeded budget reports the "
            "partial solution with complete=false (default 200000)"
        ),
    )
    parser.add_argument(
        "--deadline-seconds",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-file wall-clock budget (same semantics as --max-facts)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard per-shard timeout; a killed shard degrades to a "
        "shard_timeout entry instead of hanging the sweep",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        help=(
            "write per-file SARIF documents and the full report.json "
            "into this directory"
        ),
    )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        help="write the repro-corpus/1 report as JSON ('-' for stdout)",
    )
    add_parallel_arguments(parser)
    return parser


def corpus_main(argv: list[str]) -> int:
    """``repro corpus run``: sweep real C files into a precision report."""
    from pathlib import Path

    from .corpus import run_corpus

    args = build_corpus_parser().parse_args(argv)
    for path in args.path:
        if not Path(path).exists():
            print(f"error: {path}: no such file or directory", file=sys.stderr)
            return 2
    report = run_corpus(
        args.path,
        k=args.k,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        max_facts=args.max_facts,
        deadline_seconds=args.deadline_seconds,
        timeout=args.timeout,
    )

    outdir = None
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
    for entry in report["files"]:
        sarif = entry.pop("sarif", None)
        if sarif is None or outdir is None:
            continue
        name = entry["path"].replace("\\", "/").strip("/").replace("/", "__")
        sarif_path = outdir / (name + ".sarif")
        try:
            sarif_path.write_text(sarif + "\n")
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        entry["sarif_file"] = str(sarif_path)

    for entry in report["files"]:
        status = entry["status"]
        if status != "ok":
            print(f"{entry['path']}: {status}: {entry.get('error')}")
            continue
        precision = entry["precision"]
        note = "" if entry["solution"]["complete"] else "  [partial]"
        print(
            f"{entry['path']}: ok lr={precision['lr_untruncated']} "
            f"weihl={precision['weihl_untruncated']} "
            f"ratio={precision['ratio_weihl_over_lr']:.2f}x "
            f"coverage={entry['ledger']['coverage_percent']:.1f}% "
            f"stubs={len((entry.get('stubs') or {}).get('stubbed', ()))} "
            f"time={entry['seconds']:.2f}s{note}"
        )

    agg = report["aggregate"]
    print(
        f"corpus: {agg['files_ok']}/{agg['files_total']} files ok "
        f"({agg['parse_errors']} parse errors, "
        f"{agg['semantic_errors']} semantic errors, "
        f"{agg['shard_failures']} shard failures, "
        f"{agg['files_partial']} partial), "
        f"LR {agg['lr_untruncated_total']} vs Weihl "
        f"{agg['weihl_untruncated_total']} aliases over complete files "
        f"({agg['ratio_weihl_over_lr']:.2f}x), "
        f"mean coverage {agg['mean_coverage_percent']}%, "
        f"{agg['wall_seconds']:.1f}s"
    )
    if agg["partial_files"]:
        print(
            "partial, left out of the alias totals: "
            + ", ".join(agg["partial_files"])
        )

    document = json.dumps(report, indent=2, sort_keys=True)
    if outdir is not None:
        try:
            (outdir / "report.json").write_text(document + "\n")
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        print(f"report written to {outdir / 'report.json'}", file=sys.stderr)
    if args.stats_json:
        code = emit_stats_json(document, args.stats_json)
        if code:
            return code

    return 0 if agg["files_ok"] == agg["files_total"] else 1


def build_cache_parser() -> argparse.ArgumentParser:
    """Argparse definition for ``repro cache``."""
    parser = argparse.ArgumentParser(
        prog="repro-aliases cache",
        description=(
            "Inspect and maintain a content-addressed solution cache "
            "(see docs/PARALLEL.md)"
        ),
    )
    parser.add_argument(
        "action",
        choices=("stats", "clear", "verify"),
        help=(
            "stats: print the repro-cache/1 document; clear: delete "
            "every entry; verify: re-solve stored entries from their "
            "embedded canonical program and diff the solutions"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="cache directory (the same value passed to the sweeps)",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="verify: bound how many entries are re-solved (default all)",
    )
    return parser


def cache_main(argv: list[str]) -> int:
    """``repro cache``: stats / clear / verify for one cache directory."""
    from .cache.solve import verify_cache
    from .cache.store import SolutionCache

    args = build_cache_parser().parse_args(argv)
    cache = SolutionCache(args.cache_dir)
    if args.action == "stats":
        print(json.dumps(cache.stats_dict(), indent=2, sort_keys=True))
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cache cleared: {removed} entries removed")
        return 0
    checked, problems = verify_cache(cache, sample=args.sample)
    for problem in problems:
        print(f"verify: {problem}", file=sys.stderr)
    print(
        f"cache verify: {checked} entries re-solved, "
        f"{len(problems)} problems"
    )
    return 1 if problems else 0


def _analyze_sweep(args) -> int:
    """Multi-file ``repro analyze``: one sharded unit per file, a
    one-line summary per file, one aggregated stats document."""
    from .core.metrics import EngineReport
    from .parallel import run_sharded
    from .parallel.units import analyze_file_unit

    for flag, name in (
        (args.dot, "--dot"),
        (args.per_node, "--per-node"),
        (args.program_aliases, "--program-aliases"),
        (args.weihl, "--weihl"),
        (args.json, "--json"),
    ):
        if flag:
            print(f"error: {name} requires a single input file", file=sys.stderr)
            return 2

    payloads = []
    for path in args.file:
        if path == "-":
            print("error: '-' (stdin) requires a single input file", file=sys.stderr)
            return 2
        try:
            with open(path) as handle:
                source = handle.read()
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        payloads.append(
            {
                "path": path,
                "source": source,
                "k": args.k,
                "max_facts": args.max_facts,
                "deadline_seconds": args.deadline_seconds,
                "cache_dir": args.cache_dir,
                "must": args.must,
            }
        )

    outcomes = run_sharded(analyze_file_unit, payloads, jobs=args.jobs)
    files_stats = []
    reports = []
    cache_totals: dict[str, int] = {}
    failed = 0
    parse_errors = 0
    incomplete = 0
    for payload, outcome in zip(payloads, outcomes):
        if not outcome.ok:
            failed += 1
            print(
                f"error: {payload['path']}: shard {outcome.status}: "
                f"{outcome.error}",
                file=sys.stderr,
            )
            files_stats.append({"file": payload["path"], "shard": outcome.as_dict()})
            continue
        result = outcome.value
        if "parse_error" in result:
            parse_errors += 1
            print(
                f"error: {result['path']}: {result['parse_error']}",
                file=sys.stderr,
            )
            files_stats.append(
                {"file": result["path"], "parse_error": result["parse_error"]}
            )
            continue
        for diag in result["diagnostics"]:
            print(diag, file=sys.stderr)
        stats = result["stats"]
        solution = stats["solution"]
        cache_note = (
            f"  [cache {result['cache']}]" if result["cache"] != "off" else ""
        )
        interval = stats.get("interval")
        must_note = (
            f" must={interval['must_node_pairs']} width={interval['width']}"
            if interval
            else ""
        )
        print(
            f"{result['path']}: nodes={solution['icfg_nodes']} "
            f"facts={solution['may_hold_facts']} "
            f"aliases={solution['program_alias_count']} "
            f"%YES={solution['percent_yes']:.1f} "
            f"time={solution['analysis_seconds']:.3f}s"
            f"{must_note}{cache_note}"
        )
        if not result["complete"]:
            incomplete += 1
            print(
                f"error: {result['path']}: analysis exceeded its "
                f"{stats['budget']['reason']} budget; partial, all-tainted "
                "solution reported",
                file=sys.stderr,
            )
        files_stats.append({"file": result["path"], "cache": result["cache"], **stats})
        reports.append(EngineReport.from_dict(stats["engine"]))
        for key, value in (result.get("cache_counters") or {}).items():
            cache_totals[key] = cache_totals.get(key, 0) + value

    if args.stats_json:
        code = emit_stats_json(
            {
                "schema": "repro-stats-multi/1",
                "jobs": args.jobs,
                "files": files_stats,
                "engine": EngineReport.aggregate(reports).as_dict(),
                "cache": cache_totals or None,
                "failed_shards": failed,
                "parse_errors": parse_errors,
            },
            args.stats_json,
        )
        if code:
            return code

    return 1 if (failed or parse_errors or incomplete) else 0


def build_serve_parser() -> argparse.ArgumentParser:
    """Argparse definition for ``repro serve``."""
    parser = argparse.ArgumentParser(
        prog="repro-aliases serve",
        description=(
            "Long-lived incremental alias-analysis daemon: programs "
            "stay resident, edits invalidate only the procedures they "
            "touch (summary-engine per-procedure cache), and queries "
            "are answered from memory.  Surfaces: HTTP batch "
            "(--port; /v1/analyze, /v1/query, /v1/lint, /healthz, "
            "/metrics) and LSP-style JSON-RPC on stdio (--stdio).  "
            "See docs/SERVE.md."
        ),
    )
    parser.add_argument(
        "-k", "--k", type=int, default=3, dest="k",
        help="k-limit for object names (default 3)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="HTTP bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help=(
            "serve HTTP on this port (0 = ephemeral; the bound address "
            "is announced on stderr)"
        ),
    )
    parser.add_argument(
        "--stdio",
        action="store_true",
        help="speak LSP-style JSON-RPC on stdin/stdout",
    )
    parser.add_argument(
        "--max-facts",
        type=int,
        default=2_000_000,
        help="per-solve fact budget (default 2000000)",
    )
    parser.add_argument(
        "--deadline-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-solve wall-clock budget",
    )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        help=(
            "flush the final repro-serve-stats/1 document here on "
            "shutdown — including SIGTERM ('-' for stdout)"
        ),
    )
    add_parallel_arguments(parser)
    return parser


def serve_main(argv: list[str]) -> int:
    """``repro serve``: run the incremental daemon until signalled."""
    args = build_serve_parser().parse_args(argv)
    if args.port is None and not args.stdio:
        print("error: serve needs --port and/or --stdio", file=sys.stderr)
        return 2

    from .serve.daemon import run_serve

    flush_status = 0

    def flush_stats(stats: dict) -> None:
        # The shared emission path (satellite of the serve PR): a
        # SIGTERM'd daemon reports exactly like a clean exit.
        nonlocal flush_status
        if args.stats_json:
            flush_status = emit_stats_json(stats, args.stats_json)

    status = run_serve(
        k=args.k,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        max_facts=args.max_facts,
        deadline_seconds=args.deadline_seconds,
        host=args.host,
        port=args.port,
        stdio=args.stdio,
        on_stats=flush_stats,
    )
    return status or flush_status


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point; returns a process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "difftest":
        return difftest_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "corpus":
        return corpus_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "analyze":
        argv = argv[1:]
    args = build_parser().parse_args(argv)
    if len(args.file) > 1:
        return _analyze_sweep(args)
    file = args.file[0]
    if file == "-":
        source = sys.stdin.read()
        filename = "<stdin>"
    else:
        try:
            with open(file) as handle:
                source = handle.read()
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        filename = file
    timer = PhaseTimer()
    try:
        with timer.phase(PHASE_PARSE):
            analyzed = parse_and_analyze(source, filename)
        with timer.phase(PHASE_ICFG):
            icfg = build_icfg(analyzed)
        if args.dot:
            print(to_dot(icfg))
            wants_solution = (
                args.json
                or args.stats_json
                or args.per_node
                or args.program_aliases
                or args.weihl
            )
            if not wants_solution:
                # Plain --dot stays pipeable into graphviz: graph only,
                # no solve, no summary.
                return 0
        from .cache.solve import solve_with_cache

        cache = None
        if args.cache_dir:
            from .cache.store import SolutionCache

            cache = SolutionCache(args.cache_dir)
        solution, _status = solve_with_cache(
            analyzed,
            icfg,
            k=args.k,
            max_facts=args.max_facts,
            deadline_seconds=args.deadline_seconds,
            on_budget="partial",
            cache=cache,
            timer=timer,
            engine=args.engine,
            jobs=args.jobs,
        )
    except MiniCError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if args.must:
        from .must import IntervalSolution, solve_must_with_cache

        must_cache = None
        if args.cache_dir:
            from .cache.store import SolutionCache

            must_cache = SolutionCache(args.cache_dir)
        must_solution, _must_status = solve_must_with_cache(
            analyzed, icfg, k=args.k, cache=must_cache
        )
        solution = IntervalSolution(solution, must_solution)

    for diag in analyzed.diagnostics:
        print(diag, file=sys.stderr)

    if not solution.complete:
        print(
            f"error: analysis exceeded its {solution.budget.reason} budget; "
            "reporting the partial, all-tainted solution",
            file=sys.stderr,
        )

    if args.json:
        from .io import dump_solution

        try:
            with open(args.json, "w") as handle:
                dump_solution(solution, handle)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        print(f"solution written to {args.json}", file=sys.stderr)

    if args.stats_json:
        code = emit_stats_json(solution.stats_dict(), args.stats_json)
        if code:
            return code

    stats = solution.stats()
    print(f"ICFG nodes:       {stats.icfg_nodes}")
    print(f"may-hold facts:   {stats.may_hold_facts}")
    print(f"(node, alias):    {stats.node_alias_count}")
    print(f"program aliases:  {stats.program_alias_count}")
    print(f"%YES_{args.k}:           {stats.percent_yes:.1f}")
    print(f"analysis time:    {stats.analysis_seconds:.3f}s")
    print(
        f"worklist:         {stats.engine.worklist_pops} pops / "
        f"{stats.engine.worklist_pushes} pushes / "
        f"{stats.engine.dedup_hits} dedup hits"
    )

    if args.must:
        must_total = solution.must.total_pairs()
        may_total = sum(len(solution.may_alias(n)) for n in icfg.nodes)
        print(
            f"must pairs:       {must_total} "
            f"(classes={solution.must.total_classes()}, "
            f"time={solution.must.analysis_seconds:.3f}s)"
        )
        print(
            f"interval width:   {may_total - must_total} "
            f"(may {may_total} - must {must_total})"
        )

    if args.weihl:
        weihl = weihl_aliases(analyzed, icfg, k=args.k, materialize=False)
        ratio = weihl.alias_count / max(1, stats.program_alias_count)
        print(f"Weihl aliases:    {weihl.alias_count}  ({ratio:.1f}x ours)")

    if args.program_aliases:
        print("\nprogram aliases:")
        for pair in sorted(str(p) for p in solution.program_aliases()):
            print(f"  {pair}")

    if args.per_node:
        print("\nper-node may-aliases:")
        for node in icfg.nodes:
            pairs = sorted(str(p) for p in solution.may_alias(node))
            must_pairs = (
                sorted(str(p) for p in solution.must_pairs(node))
                if args.must
                else []
            )
            if pairs or must_pairs:
                print(f"  n{node.nid} [{node.label()}]:")
                for pair in pairs:
                    print(f"    {pair}")
                for pair in must_pairs:
                    print(f"    must: {pair}")
    return 1 if not solution.complete else 0


if __name__ == "__main__":
    raise SystemExit(main())
