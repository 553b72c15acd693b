"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``batch``: cold ``repro analyze``-style kernel solves at k=3 of scale240,
  scale800 and Figure 4's ``all_or_none(64)`` seeded and unseeded;
* ``corpus``: the corpus runner's per-file unit over ``corpus/*.c`` at k=1
  with ``max_facts=200000``, no cache and no deadline;
* ``serve``: a ``repro serve`` daemon driven over HTTP in an open loop.

``batch`` and ``corpus`` passes each run in a fresh interpreter
(``passes.py``); the driver repeats them until ``--seconds`` is used up and
reports medians.  With ``--trace 0`` the last line of standard output is a
JSON object holding every end-to-end metric; with ``--trace 1`` the layers'
entry points are wrapped (``tracer.py``) and it holds every per-layer
metric instead.  Lines before it give the report stamp, per-program rows
and the failure ledger; the whole report is also written under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import signal
import statistics
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    ROOT,
    WORK,
    child_env,
    require_source,
    stamp,
    typical,
)

CHILD_TIMEOUT_S = 170.0


def load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


def run_child(command: list[str], deadline: float) -> dict:
    """Run one benchmark child and decode the JSON on its last line."""
    timeout = max(5.0, deadline - time.monotonic())
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-20:])
        raise RuntimeError(f"{command[1]} exited {done.returncode}:\n{tail}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- batch and corpus ------------------------------------------------------------


def run_passes(args: argparse.Namespace, deadline: float) -> dict:
    """Repeat fresh-interpreter passes until ``--seconds`` is used up."""
    base = [
        sys.executable,
        str(BENCH_DIR / "passes.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    passes = []
    started = time.monotonic()
    while True:
        command = base + [
            "--index",
            str(len(passes)),
            "--trace",
            str(args.trace),
            "--spawned-at",
            repr(time.monotonic()),
        ]
        passes.append(run_child(command, deadline))
        if time.monotonic() - started >= args.seconds:
            break
    oracle = run_child(base + ["--oracle"], deadline)

    rows = collections.defaultdict(list)
    query_ms = collections.defaultdict(list)
    for p in passes:
        for row in p["rows"]:
            rows[row["program"]].append(row)
        for name, timings in p["query_s"].items():
            query_ms[name].extend(1000.0 * s for s in timings)
    program_ms = {
        name: [1000.0 * r["seconds"] for r in runs] for name, runs in rows.items()
    }
    first_rows = passes[0]["rows"]
    sweep_s = statistics.median([p["sweep_s"] for p in passes])
    metrics = {
        "setup_s": statistics.median([p["setup_s"] for p in passes]),
        "sweep_s": sweep_s,
        "complete_ratio": sum(1 for r in first_rows if r.get("complete")) / len(first_rows),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "edit_p50_ms": typical(program_ms),
    }
    layers = {}
    if args.trace:
        from tracer import layer_metrics

        layers = layer_metrics([p["trace"] for p in passes], per=len(passes))
        layers["solution.query_p50_ms"] = typical(query_ms)
        layers["trace.sweep_s"] = sweep_s
        layers["trace.edit_p50_ms"] = metrics["edit_p50_ms"]
        layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / sweep_s
    failures = [f for p in passes for f in p["failures"]] + oracle["failures"]
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": sum(p["attempted"] for p in passes) + oracle["attempted"],
        "failures": failures,
        "detail": {
            "passes": [
                {
                    "setup_s": p["setup_s"],
                    "sweep_s": p["sweep_s"],
                    "cpu_s": sum(row.get("cpu_s", 0.0) for row in p["rows"]),
                }
                for p in passes
            ],
            "programs": [
                {
                    "program": name,
                    "seconds": statistics.median([r["seconds"] for r in runs]),
                    "query_ms": statistics.median(query_ms[name]) if query_ms[name] else None,
                    "facts": runs[0].get("facts"),
                    "pops": runs[0].get("pops"),
                    "complete": runs[0].get("complete"),
                }
                for name, runs in rows.items()
            ],
            "samples": {
                "edit": sum(map(len, program_ms.values())),
                "query": sum(map(len, query_ms.values())),
            },
        },
    }


# -- output ----------------------------------------------------------------------


def emit(args: argparse.Namespace, outcome: dict) -> dict:
    """Fill the metric set BENCHMARK.json names and build the last line."""
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = outcome["layers"] if args.trace else outcome["metrics"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values and not args.trace:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        # A layer that does not run on this workload reports 0.
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": entry["unit"]}
    failed = len(outcome["failures"])
    return {
        "correct": failed == 0,
        "attempted": max(1, outcome["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=("batch", "corpus", "serve"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float,
                        help="serve: scheduled requests per second (required)")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: small programs, short runs")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workload == "serve" and args.rate is None:
        parser.error("--rate is required for the serve workload")
    require_source()
    # Turn SIGTERM into SystemExit so that a pass child is killed and the
    # serve daemon stopped on the way out, as on any other error.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: BENCHMARK.json not found at the checkout root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    if args.workload == "serve":
        import serve_load

        outcome = serve_load.run(args, deadline)
    else:
        outcome = run_passes(args, deadline)
    result = emit(args, outcome)
    report = {
        "stamp": stamp(args.workload, args.seed, bool(args.trace)),
        "detail": outcome["detail"],
        "failures": outcome["failures"],
        "result": result,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print("stamp " + json.dumps(report["stamp"], sort_keys=True))
    for row in outcome["detail"].get("programs", []):
        print("program " + json.dumps(row, sort_keys=True))
    for failure in outcome["failures"]:
        print("FAILED " + json.dumps(failure, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
