"""One timed pass of the ``batch`` or ``corpus`` workload.

The driver starts this script in a fresh interpreter for every pass, which
is what a command-line user pays and keeps every pass on the same starting
heap.  It prints one JSON document on stdout:

* ``setup_s``: from the driver spawning this interpreter to the first
  timed operation (imports plus program generation or reading);
* ``rows``: per program, the timed seconds from source text to solution,
  fact and pop counts, completeness and the fact-set digest;
* ``query_s``: per program, timings of ``alias_query`` point queries
  answered from its solution, the way ``repro serve`` answers them;
* ``failures``: every check that failed, with its reason.

Digests, queries and the dynamic-oracle check run outside the timed
region.  With ``--trace 1`` the layers' entry points are wrapped (see
``tracer.py``) and their per-layer totals ride along under ``trace``.

Usage::

    python3 perfbench/passes.py --workload batch --seed 1 --spawned-at T
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time

from common import ROOT, WORK, fact_rows, load_golden, rows_digest, use_source

BATCH_K = 3
BATCH_MAX_FACTS = 2_000_000
CORPUS_K = 1
CORPUS_MAX_FACTS = 200_000
QUERIES_PER_PROGRAM = 300
ORACLE_DRAWS = 3
#: Small complete programs checked against the dynamic alias oracle.
BATCH_ORACLE = ("scale240", "aon64")
#: At k=1 the oracle reports pairs missing on intern.c and pool.c (both
#: pass at k=2), and the interpreter cannot run strbuf.c's character
#: literals, so the corpus check uses the three files it can run cleanly.
CORPUS_ORACLE = ("bst.c", "figure1.c", "queue.c")
TINY_CORPUS = ("figure1.c", "queue.c")


def batch_programs(tiny: bool) -> list[tuple[str, str]]:
    from repro.programs import ProgramSpec, generate_program
    from repro.programs.allornone import all_or_none

    if tiny:
        return [
            ("scale60", generate_program(ProgramSpec.for_target_nodes("scaling", 60))),
            ("aon6_seeded", all_or_none(6, seed_alias=True)),
            ("aon6", all_or_none(6)),
        ]
    return [
        ("scale240", generate_program(ProgramSpec.for_target_nodes("scaling", 240))),
        ("scale800", generate_program(ProgramSpec.for_target_nodes("scaling", 800))),
        ("aon64_seeded", all_or_none(64, seed_alias=True)),
        ("aon64", all_or_none(64)),
    ]


def corpus_programs(tiny: bool) -> list[tuple[str, str]]:
    files = sorted((ROOT / "corpus").glob("*.c"))
    if tiny:
        files = [f for f in files if f.name in TINY_CORPUS]
    return [(f.name, f.read_text()) for f in files]


def solve_batch(name: str, source: str):
    """Source text to solution, as ``repro analyze`` does it."""
    from repro.core import analysis
    from repro.frontend import semantics
    from repro.icfg import builder

    analyzed = semantics.parse_and_analyze(source, name)
    icfg = builder.build_icfg(analyzed)
    return analysis.analyze_program(
        analyzed,
        icfg,
        k=BATCH_K,
        max_facts=BATCH_MAX_FACTS,
        on_budget="partial",
    )


class SolutionTap:
    """Keeps the solution ``corpus_file_unit`` solves, which its report
    does not carry, so it can be digested after the timed region."""

    def __init__(self) -> None:
        from repro.cache import solve

        self.original = solve.solve_with_cache
        self.solution = None

        def tapped(*args, **kwargs):
            result = self.original(*args, **kwargs)
            self.solution = result[0]
            return result

        solve.solve_with_cache = tapped

    def take(self):
        solution, self.solution = self.solution, None
        return solution


def solve_corpus(name: str, source: str, tap: SolutionTap):
    """One file through the corpus runner's unit: lower, stub, solve,
    Weihl baseline, lint, SARIF."""
    from repro.corpus.runner import corpus_file_unit

    report = corpus_file_unit(
        {
            "path": name,
            "source": source,
            "k": CORPUS_K,
            "max_facts": CORPUS_MAX_FACTS,
            "deadline_seconds": None,
            "cache_dir": None,
        }
    )
    if report.get("status") != "ok":
        raise RuntimeError(f"{report.get('status')}: {report.get('error')}")
    return tap.take()


def point_queries(solution, rng: random.Random) -> list[float]:
    """Point queries the way ``repro serve`` answers them: two names at
    every node on one line.  Lines are drawn from the lines nodes sit on.
    Only ``alias_query`` is timed; the nodes of each line are found
    beforehand.  Unlike ``ServeSession.nodes_at_line`` this does not skip
    nodes without source offsets: lowered C carries lines but no offsets."""
    nodes = [node for node in solution.icfg.nodes if node.span.start.line >= 1]
    on_line: dict[int, list] = {}
    for node in nodes:
        for line in range(node.span.start.line, node.span.end.line + 1):
            on_line.setdefault(line, []).append(node)
    pool = set()
    for node in rng.sample(nodes, min(24, len(nodes))):
        for pair in solution.may_alias(node):
            pool.add(pair.first)
            pool.add(pair.second)
    names = sorted(pool, key=str)
    if not names:
        return []
    timings = []
    for _ in range(QUERIES_PER_PROGRAM):
        targets = on_line[rng.choice(nodes).span.start.line]
        a, b = rng.choice(names), rng.choice(names)
        started = time.perf_counter()
        any(solution.alias_query(node, a, b) for node in targets)
        timings.append(time.perf_counter() - started)
    return timings


def oracle_failures(workload: str, programs: dict, seed: int) -> tuple[int, list[dict]]:
    """dynamic ⊆ LR on the small complete programs; the workload seed
    drives the oracle's input draws.
    Returns (programs checked, failures)."""
    from repro.oracle import check_dynamic_oracle, collect_dynamic_oracle

    failures = []
    names = BATCH_ORACLE if workload == "batch" else CORPUS_ORACLE
    names = [name for name in names if name in programs]
    for name in names:
        if workload == "batch":
            from repro.frontend.semantics import parse_and_analyze

            analyzed = parse_and_analyze(programs[name], name)
            k, max_facts = BATCH_K, BATCH_MAX_FACTS
        else:
            from repro.corpus.stubs import synthesize_stubs
            from repro.frontend.pycparser_bridge import parse_c_lenient
            from repro.frontend.semantics import analyze

            unit = parse_c_lenient(programs[name], name)
            synthesize_stubs(unit.program)
            analyzed = analyze(unit.program)
            k, max_facts = CORPUS_K, CORPUS_MAX_FACTS
        from repro.core.analysis import analyze_program
        from repro.icfg.builder import IcfgBuilder

        builder = IcfgBuilder(analyzed)
        icfg = builder.build()
        solution = analyze_program(analyzed, icfg, k=k, max_facts=max_facts)
        oracle = collect_dynamic_oracle(
            analyzed, builder, icfg, draws=ORACLE_DRAWS, seed=seed, max_derefs=k + 1
        )
        report = check_dynamic_oracle(oracle, solution, max_violations=3)
        if not report.ok:
            failures.append(
                {
                    "program": name,
                    "reason": "dynamic oracle pair missing from LR solution",
                    "detail": [str(v) for v in report.violations],
                }
            )
    return len(names), failures


def check_row(row: dict, golden: dict) -> list[dict]:
    expected = golden.get(row["program"])
    if expected is None:
        return [{"program": row["program"], "reason": "no golden entry"}]
    failures = []
    for key in ("digest", "facts", "complete"):
        if row[key] != expected[key]:
            failures.append(
                {
                    "program": row["program"],
                    "reason": f"{key} mismatch",
                    "expected": expected[key],
                    "got": row[key],
                }
            )
    return failures


def run_oracle(args: argparse.Namespace) -> dict:
    use_source()
    programs = (batch_programs if args.workload == "batch" else corpus_programs)(
        args.tiny
    )
    checked, failures = oracle_failures(args.workload, dict(programs), args.seed)
    return {"attempted": checked, "failures": failures}


def run_pass(args: argparse.Namespace) -> dict:
    use_source()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    tap = SolutionTap() if args.workload == "corpus" else None
    programs = (batch_programs if args.workload == "batch" else corpus_programs)(
        args.tiny
    )
    golden_key = ("tiny-" if args.tiny else "") + args.workload
    golden = {} if args.record else load_golden()[golden_key]
    gc.collect()

    first = time.monotonic()
    rows, failures = [], []
    queries: dict[str, list[float]] = {}
    for index, (name, source) in enumerate(programs):
        if tracer is not None:
            tracer.request = index
            tracer.active = True
        started = time.perf_counter()
        cpu_started = time.process_time()
        try:
            if args.workload == "batch":
                solution = solve_batch(name, source)
            else:
                solution = solve_corpus(name, source, tap)
        except Exception as err:  # noqa: BLE001 - a program error is a failed operation
            solution = None
            failures.append({"program": name, "reason": f"{type(err).__name__}: {err}"})
        seconds = time.perf_counter() - started
        cpu_seconds = time.process_time() - cpu_started
        if tracer is not None:
            tracer.active = False
        if solution is None:
            rows.append({"program": name, "seconds": seconds, "error": True})
            continue
        report = solution.engine
        fact_list = fact_rows(solution)
        if args.flip_fact and index == 0 and fact_list:
            nid, a, p, taint = fact_list[0]
            fact_list[0] = (nid, a, p, 1 - taint)
        row = {
            "program": name,
            "seconds": seconds,
            "cpu_s": cpu_seconds,
            "facts": len(fact_list),
            "pops": report.worklist_pops,
            "complete": solution.complete,
            "digest": rows_digest(fact_list),
        }
        del fact_list
        rows.append(row)
        if not args.record:
            failures.extend(check_row(row, golden))
        # The same queries for every seed, so every run times the same work.
        rng = random.Random(f"queries:{name}")
        queries[name] = point_queries(solution, rng)
        del solution
        gc.collect()
    result = {
        "setup_s": first - args.spawned_at,
        "sweep_s": sum(row["seconds"] for row in rows),
        "rows": rows,
        "query_s": queries,
        "failures": failures,
        "attempted": len(rows) + sum(map(len, queries.values())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        path = WORK / f"trace-{args.workload}-{args.seed}-{args.index}.json"
        tracer.dump(path)
        result["trace"] = tracer.document()
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=("batch", "corpus"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0, help="pass number")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() when the driver spawned this pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--oracle", action="store_true",
                        help="run only the dynamic-oracle check")
    parser.add_argument("--record", action="store_true",
                        help="skip golden checks (to print fresh digests)")
    parser.add_argument("--flip-fact", action="store_true",
                        help="flip one fact's taint before digesting (negative self-test)")
    return parser


def main() -> int:
    args = build_parser().parse_args()
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    json.dump((run_oracle if args.oracle else run_pass)(args), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
