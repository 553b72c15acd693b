"""Self-test of the benchmark at tiny sizes (about a minute in all).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from common import BENCH_DIR, ROOT, child_env, fact_rows, rows_digest, use_source
from tracer import self_times

use_source()


def run_bench(*args: str, timeout: float = 170.0) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return done.returncode, done.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


#: Per-layer metrics that must read non-zero on each workload, one or more
#: per layer that runs there, so a wrapper that stops catching its entry
#: point fails the test instead of reading 0.
LAYERS_RUN = {
    "batch": (
        "frontend.parse_s", "icfg.build_s", "icfg.nodes", "kernel.solve_s",
        "kernel.facts", "kernel.pops", "solution.query_p50_ms", "runtime.gc_s",
        "trace.spans",
    ),
    "corpus": (
        "frontend.lower_s", "icfg.build_s", "icfg.nodes", "kernel.solve_s",
        "kernel.facts", "kernel.pops", "solution.query_p50_ms", "weihl.s", "lint.s",
        "lint.findings", "runtime.gc_s", "trace.spans",
    ),
    "serve": (
        "frontend.parse_s", "icfg.build_s", "summaries.solve_s",
        "summaries.rounds", "summaries.proc_hits", "cache.get_s", "cache.put_s",
        "cache.hits", "cache.puts", "lint.s", "serve.solve_ms", "serve.stats_ms",
        "serve.query_exec_ms", "serve.lint_exec_ms", "serve.lane_busy_ratio",
        "serve.replayed_procs", "loadgen.query_p50_ms", "loadgen.lint_p50_ms",
        "trace.spans",
    ),
}


@pytest.mark.parametrize("workload", ["batch", "corpus", "serve"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_reports_every_metric(workload, trace):
    spec = load_spec()
    # The command's own arguments (the serve rate) come from BENCHMARK.json.
    code, stdout = run_bench(
        *spec["command"][2:], "--workload", workload, "--seed", "3",
        "--seconds", "4", "--trace", str(trace), "--tiny",
    )
    assert code == 0
    result = last_json(stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {entry["name"] for entry in spec[kind]}
    if trace:
        zero = [n for n in LAYERS_RUN[workload] if not result["metrics"][n]["value"] > 0]
        assert zero == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_flipped_fact_fails_the_digest_check():
    command = [
        sys.executable, str(BENCH_DIR / "passes.py"), "--workload", "batch",
        "--seed", "3", "--tiny", "--spawned-at", repr(time.monotonic()),
    ]
    clean = json.loads(subprocess.run(
        command, cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True
    ).stdout)
    flipped = json.loads(subprocess.run(
        command + ["--flip-fact"], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, check=True,
    ).stdout)
    assert clean["failures"] == []
    assert [f["reason"] for f in flipped["failures"]] == ["digest mismatch"]
    assert flipped["attempted"] == clean["attempted"]


def test_digest_is_order_free_and_sees_taint():
    from repro import analyze_source
    from repro.programs.fixtures import FIGURE1

    rows = fact_rows(analyze_source(FIGURE1))
    assert rows_digest(rows) == rows_digest(list(reversed(rows)))
    assert rows_digest(rows) == rows_digest(fact_rows(analyze_source(FIGURE1)))
    nid, a, p, taint = rows[0]
    assert rows_digest([(nid, a, p, 1 - taint), *rows[1:]]) != rows_digest(rows)


def test_self_time_subtracts_children():
    spans = [
        (1, "kernel.solve", 0.0, 10.0, 0, 0),
        (2, "icfg.build", 1.0, 3.0, 1, 0),
        (3, "frontend.parse", 4.0, 5.0, 1, 0),
        (4, "icfg.build", 11.0, 12.0, 0, 1),
    ]
    assert self_times(spans) == {
        "kernel.solve": 7.0,
        "icfg.build": 3.0,
        "frontend.parse": 1.0,
    }


def test_fails_without_the_analyser(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
