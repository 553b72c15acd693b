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
status 3 (distinct from the usual error statuses); a replay file that
does not parse, or a shard that errors, crashes or times out (its
verdict degraded, all checks skipped), exits 1.

``corpus run`` sweeps *real* C translation units (lenient lowering,
coverage ledger, auto-stubbed externals — :mod:`repro.corpus`) and
prints a per-file LR-vs-Weihl precision report; ``--out DIR`` writes
per-file SARIF plus the full ``repro-corpus/1`` report.json.

``analyze``, ``lint`` and ``difftest --replay`` run every file through
one per-file unit (:mod:`repro.parallel.units`).  Several files are
sharded over ``--jobs N`` worker processes (:mod:`repro.parallel`),
each engine at jobs 1, and merge in argument order, so every N prints
the same report; one file runs in-process, and ``analyze`` hands N to
its engine.  ``--engine`` applies to every file of a sweep.  ``-``
reads stdin and is accepted only as the sole input.  Several files
print one summary per file plus an aggregated multi-file stats
document.
``--cache-dir DIR`` reloads unchanged programs from the
content-addressed result cache (:mod:`repro.cache`) instead of
re-solving.  ``repro cache`` administers a cache directory: ``stats``
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
from typing import Callable, Optional


def add_shared_arguments(
    parser: argparse.ArgumentParser,
    *,
    k: int,
    max_facts: int,
    on_budget: str,
    stats: str,
    deadline: bool = True,
    deadline_seconds: Optional[float] = None,
    k_alias: bool = False,
) -> None:
    """Declare the flags the analysis commands share: ``-k``,
    ``--max-facts``, ``--deadline-seconds`` (unless ``deadline`` is
    false), ``--stats-json``, ``--jobs`` and ``--cache-dir``.  Each
    command passes its own defaults; ``on_budget`` says what an
    exceeded budget does, ``stats`` names the stats document."""
    parser.add_argument(
        *(("-k", "--k") if k_alias else ("-k",)),
        type=int,
        default=k,
        dest="k",
        help="k-limit for object names (default %(default)s)",
    )
    parser.add_argument(
        "--max-facts",
        type=int,
        default=max_facts,
        help=f"fact budget per program (default %(default)s); {on_budget}",
    )
    if deadline:
        parser.add_argument(
            "--deadline-seconds",
            type=float,
            default=deadline_seconds,
            metavar="SECONDS",
            help=(
                "wall-clock budget per program (default %(default)s; "
                "same semantics as --max-facts)"
            ),
        )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        help=f"write {stats} as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default %(default)s); see docs/PARALLEL.md",
    )
    add_cache_dir_argument(parser)


def add_cache_dir_argument(
    parser: argparse.ArgumentParser, required: bool = False
) -> None:
    """``--cache-dir``: optional on the analysis commands, required by
    ``repro cache`` (see docs/PARALLEL.md)."""
    parser.add_argument(
        "--cache-dir",
        required=required,
        metavar="DIR",
        help=(
            "content-addressed result cache: solved solutions are "
            "keyed by canonical IR + k + engine config and reloaded "
            "instead of re-solved (see 'repro cache --help')"
        ),
    )


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
            "MiniC source file(s) ('-' for stdin, alone); several files "
            "run as a sweep (see --jobs)"
        ),
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
        "--dot",
        action="store_true",
        help="print the ICFG in Graphviz DOT format and exit",
    )
    parser.add_argument(
        "--engine",
        choices=("kernel", "reference", "summary"),
        default="kernel",
        help=(
            "solver backend for every file: the integer-ID kernel "
            "(default), the object-graph reference engine, or the "
            "bottom-up procedure-summary solver (parallelizes within "
            "one program via --jobs; caches per procedure via "
            "--cache-dir); all three produce identical solutions "
            "(the difftest suite pins the equivalences)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="export the full solution as JSON (see repro.io)",
    )
    add_shared_arguments(
        parser,
        k=3,
        max_facts=5_000_000,
        on_budget=(
            "an exceeded budget reports the partial all-tainted "
            "solution and exits 1"
        ),
        stats=(
            "phase timings + engine counters (repro-stats/1; "
            "repro-stats-multi/1 for several files)"
        ),
    )
    return parser


#: Exit status for a confirmed soundness violation found by
#: ``repro difftest`` — distinct from 1 (analysis/user error) and
#: 2 (I/O error) so CI can tell "the engine is unsound" apart from
#: "the invocation was wrong".
EXIT_SOUNDNESS_VIOLATION = 3

#: Exit status for ``repro lint`` when findings at or above the
#: ``--fail-on`` severity exist (the lint analogue of a compiler
#: reporting errors; distinct from crash statuses).
EXIT_LINT_FINDINGS = 4


def emit_stats_json(payload, destination: Optional[str]) -> int:
    """Write a stats document to ``destination`` (``-`` = stdout; None,
    the flag's default, writes nothing).

    The one shared emission path for every ``--stats-json``-shaped
    flag — including the serve daemon's shutdown flush, so a SIGTERM
    still lands the document on disk.  ``payload`` may be a dict or a
    pre-serialized string.  Returns 0 on success, 2 on an I/O error
    (already reported on stderr).
    """
    if destination is None:
        return 0
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
    print(f"stats written to {destination}", file=sys.stderr)
    return 0


def read_inputs(paths: list[str]) -> Optional[list[tuple[str, str]]]:
    """``(name, source)`` per input path, in argument order.  ``-``
    reads stdin (named ``<stdin>``) and is accepted only as the sole
    input.  On a problem, reports it on stderr and returns None (the
    caller exits 2)."""
    if "-" in paths and len(paths) > 1:
        print("error: '-' (stdin) requires a single input file", file=sys.stderr)
        return None
    if paths == ["-"]:
        return [("<stdin>", sys.stdin.read())]
    inputs = []
    for path in paths:
        try:
            with open(path) as handle:
                inputs.append((path, handle.read()))
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return None
    return inputs


def run_files(
    unit: Callable[[dict], dict],
    args: argparse.Namespace,
    inputs: list[tuple[str, str]],
    show: Callable[[dict], None],
) -> tuple[list[dict], dict]:
    """Run ``unit`` once per input and report the outcomes in argument
    order — the one sweep driver of ``analyze`` and ``lint``.

    Each payload is the parsed options plus the file; one file runs
    in-process with ``--jobs`` in its payload (``analyze`` hands it to
    the engine), several are sharded over ``--jobs`` workers with each
    engine at jobs 1.  A
    shard failure or a rejected file (``parse_error`` or ``error``)
    becomes a stderr line naming the file and a ``files`` entry; every
    other result goes to ``show``.  Returns the results shown — fewer
    than the inputs when a file failed — and the multi-file stats
    block: per-file entries, failure counts and the summed cache
    counters."""
    from .parallel import run_sharded

    sweep = len(inputs) > 1
    options = {key: value for key, value in vars(args).items() if key != "file"}
    payloads = [
        {
            **options,
            "path": path,
            "source": source,
            "sweep": sweep,
            "jobs": 1 if sweep else args.jobs,
        }
        for path, source in inputs
    ]
    results, files, cache = [], [], {}
    failed = parse_errors = 0
    for payload, outcome in zip(payloads, run_sharded(unit, payloads, jobs=args.jobs)):
        path = payload["path"]
        if not outcome.ok:
            failed += 1
            print(
                f"error: {path}: shard {outcome.status}: {outcome.error}",
                file=sys.stderr,
            )
            files.append({"file": path, "shard": outcome.as_dict()})
            continue
        result = outcome.value
        rejection = result.get("parse_error", result.get("error"))
        if rejection is not None:
            parse_errors += "parse_error" in result
            print(f"error: {rejection}", file=sys.stderr)
            files.append({"file": path, **result})
            continue
        show(result)
        results.append(result)
        if "entry" in result:
            files.append({"file": path, **result["entry"]})
        for key, value in (result.get("cache_counters") or {}).items():
            cache[key] = cache.get(key, 0) + value
    return results, {
        "files": files,
        "jobs": args.jobs,
        "failed_shards": failed,
        "parse_errors": parse_errors,
        "cache": cache or None,
    }


def analyze_main(argv: list[str]) -> int:
    """``repro analyze``: one file prints the full report; several
    print one summary line each plus a ``repro-stats-multi/1``
    document."""
    from .parallel.units import analyze_file_unit

    args = build_parser().parse_args(argv)
    sweep = len(args.file) > 1
    if sweep:
        for name in ("dot", "per_node", "program_aliases", "weihl", "json"):
            if getattr(args, name):
                flag = "--" + name.replace("_", "-")
                print(f"error: {flag} requires a single input file", file=sys.stderr)
                return 2
    inputs = read_inputs(args.file)
    if inputs is None:
        return 2

    def show(result: dict) -> None:
        if result["dot"] is not None:
            print(result["dot"])
        for line in result["messages"]:
            print(line, file=sys.stderr)
        if sweep:
            print(result["rendered"])

    results, block = run_files(analyze_file_unit, args, inputs, show)
    if sweep:
        from .core.metrics import EngineReport

        engine = EngineReport.aggregate(
            EngineReport.from_dict(result["stats"]["engine"]) for result in results
        ).as_dict()
        document = {"schema": "repro-stats-multi/1", **block, "engine": engine}
    elif not results:
        return 1
    elif results[0]["rendered"] is None:
        return results[0]["status"]
    else:
        document = results[0]["stats"]
    code = emit_stats_json(document, args.stats_json)
    if code:
        return code
    if not sweep:
        print(results[0]["rendered"])
    failed = len(results) < len(inputs)
    return 1 if failed or any(result["status"] for result in results) else 0


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
            "MiniC source file(s) ('-' for stdin, alone; optional with "
            "--self-check); several files run as a sweep (see --jobs)"
        ),
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
            "findings regardless of severity; 'never' always exits 0"
        ),
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
    add_shared_arguments(
        parser,
        k=3,
        max_facts=2_000_000,
        on_budget="an exceeded budget is an error (exit 1)",
        stats="finding counts (repro-lint/1; repro-lint-multi/1 for several files)",
        deadline=False,
    )
    return parser


def lint_main(argv: list[str]) -> int:
    """``repro lint``: run the pointer-bug detectors on each file."""
    from .lint import rule_help, self_check
    from .parallel.units import lint_file_unit

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
    inputs = read_inputs(args.file)
    if inputs is None:
        return 2
    sweep = len(inputs) > 1

    def show(result: dict) -> None:
        if sweep:
            print(f"== {result['path']} ==")
        print(result["rendered"])

    results, block = run_files(lint_file_unit, args, inputs, show)
    if not (sweep or results):
        return 1
    multi = {"schema": "repro-lint-multi/1", **block}
    code = emit_stats_json(multi if sweep else results[0]["stats"], args.stats_json)
    if code:
        return code
    if len(results) < len(inputs):
        return 1
    return EXIT_LINT_FINDINGS if any(result["fails"] for result in results) else 0


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
        "--draws",
        type=int,
        default=8,
        help="input draws per program for the dynamic oracle (default 8)",
    )
    parser.add_argument(
        "--replay",
        nargs="+",
        metavar="FILE",
        help="difftest these MiniC files (e.g. corpus entries) instead of "
        "generated programs",
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
    add_shared_arguments(
        parser,
        k=2,
        max_facts=600_000,
        on_budget="exceeding it degrades to the taint-invariant check",
        stats="suite statistics (repro-difftest/1)",
    )
    return parser


def difftest_main(argv: list[str]) -> int:
    """``repro difftest``: run the differential harness; exit 3 on a
    soundness violation (with a readable report, never a traceback),
    1 on a degraded verdict (a shard that raised — a replay file that
    does not parse — crashed or timed out)."""
    from pathlib import Path

    from .difftest import (
        DifftestConfig,
        persist_counterexample,
        run_difftest_suite,
        shrink_source,
        violation_predicate,
    )
    from .difftest.harness import SuiteResult, degraded_verdict

    args = build_difftest_parser().parse_args(argv)
    config = DifftestConfig(
        k=args.k,
        draws=args.draws,
        max_facts=args.max_facts,
        deadline_seconds=args.deadline_seconds,
    )

    if args.replay:
        from .parallel import run_sharded
        from .parallel.units import difftest_replay_unit

        inputs = read_inputs(args.replay)
        if inputs is None:
            return 2
        payloads = [
            dict(path=path, source=source, config=config, cache_dir=args.cache_dir)
            for path, source in inputs
        ]
        outcomes = run_sharded(difftest_replay_unit, payloads, jobs=args.jobs)
        suite = SuiteResult()
        for (path, source), outcome in zip(inputs, outcomes):
            if outcome.ok:
                verdict = outcome.value["verdict"]
            else:
                print(
                    f"error: {path}: shard {outcome.status}: {outcome.error}",
                    file=sys.stderr,
                )
                verdict = degraded_verdict(path, source, config.k, outcome.as_dict())
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
    if not suite.ok:
        return EXIT_SOUNDNESS_VIOLATION
    return 1 if suite.degraded else 0


def build_corpus_parser() -> argparse.ArgumentParser:
    """Argparse definition for ``repro corpus``."""
    parser = argparse.ArgumentParser(
        prog="repro-aliases corpus",
        description=(
            "Analyze a corpus of real C translation units: lenient "
            "lowering with a per-file coverage ledger, conservative "
            "auto-stubs for unresolved externals, the LR engine vs the "
            "Weihl baseline per file, lint findings as SARIF, and a "
            "repro-corpus/1 precision report (the real-code Table 1; "
            "k defaults to the paper's 1-limiting, since real TUs get "
            "expensive fast above it)"
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
    add_shared_arguments(
        parser,
        k=1,
        max_facts=200_000,
        on_budget="an exceeded budget reports the partial solution with complete=false",
        stats="the repro-corpus/1 report",
        deadline_seconds=10.0,
    )
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
    add_cache_dir_argument(parser, required=True)
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
    add_shared_arguments(
        parser,
        k=3,
        max_facts=2_000_000,
        on_budget="an exceeded budget keeps the partial, all-tainted solution",
        stats=(
            "the final repro-serve-stats/1 document on shutdown, "
            "including SIGTERM"
        ),
        k_alias=True,
    )
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
    commands = {
        "analyze": analyze_main,
        "cache": cache_main,
        "corpus": corpus_main,
        "difftest": difftest_main,
        "lint": lint_main,
        "serve": serve_main,
    }
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return analyze_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
