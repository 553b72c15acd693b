"""The ``serve`` workload: a ``repro serve`` daemon driven in an open loop.

1. Boot the daemon (``--jobs 1 --k 3``, a fresh cache each time) and
   analyze every document cold after each boot.  Boot again until
   ``--seconds`` is used up, and at least ``MIN_BOOTS`` times.
   ``setup_s`` takes the median boot (spawn until it announces its port);
   ``sweep_s`` the median cold open of all documents.
2. On the last daemon, replay a schedule at ``--rate`` requests a second
   for ``--seconds``, in loadgen's query:edit:lint mix.  Each request class
   arrives evenly spaced at its share of the rate; the arrival times are
   the same for every seed, and the seed picks what each request targets
   (document order, query lines and names).  One connection sends the
   edits (every edit appends a statement to ``zz_probe``); the other sends
   point queries and lint requests.  Each request is timed from when it
   was due, so time spent behind a busy connection or the daemon's single
   solver lane counts.  ``edit_p50_ms`` is each document's median, then
   the geometric mean over documents; ``loadgen.query_p50_ms`` is the
   median of all queries.
3. Check every response, then check that each resident solution answers
   every line exactly as a fresh kernel solve of the final text does.

With ``--trace 1`` a single daemon boots, through ``tracer.py``, and the
per-layer metrics come from its spans.
"""

from __future__ import annotations

import argparse
import collections
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import BENCH_DIR, WORK, child_env, typical, use_source

DOC_SEED = 1992
DOC_COUNT = 3
K = 3
MAX_FACTS = 2_000_000
#: The daemon's backstop; a solve that trips it is a failed operation.
DEADLINE_S = 60.0
#: A 2-4 s cold open swings by a third from one boot to the next on a
#: shared host, so ``sweep_s`` needs several; five to seven fit in a 20 s run.
MIN_BOOTS = 3
#: Where in its interval each request class arrives.  The mix is
#: loadgen's ``OP_WEIGHTS`` (query:edit:lint = 6:3:1), so two queries and
#: a third of a lint fall in every edit interval.  Edits arrive at 0.1 of
#: their interval and queries at 0 and 0.5 of it.  Edits and lints go to
#: the documents in turn from the first, so the edit intervals cycle
#: through the documents and each lint arrives 0.75 into the second
#: document's interval, after its short edit.  Only the first (largest)
#: document's edit still runs when its mid-interval query arrives.
OFFSETS = {"query": 0.0, "edit": 0.1, "lint": 1.75 / 3}
REQUEST_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro serve --port 0`` process and its announced address."""

    def __init__(self, cache_dir: str, trace_out: str | None) -> None:
        serve_args = [
            "serve", "--port", "0", "--jobs", "1", "--k", str(K),
            "--max-facts", str(MAX_FACTS),
            "--deadline-seconds", str(DEADLINE_S),
            "--cache-dir", cache_dir,
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            command = [sys.executable, str(BENCH_DIR / "tracer.py"),
                       "--out", trace_out, "--", *serve_args]
        spawned = time.monotonic()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
        self.log: collections.deque = collections.deque(maxlen=40)
        self.host, self.port = self._await_address()
        self.boot_s = time.monotonic() - spawned
        # Keep draining stderr so the daemon never blocks on a full pipe.
        self._drain = threading.Thread(target=self._read_log, daemon=True)
        self._drain.start()

    def _await_address(self) -> tuple[str, int]:
        import re

        assert self.process.stderr is not None
        for line in self.process.stderr:
            self.log.append(line)
            match = re.search(r"listening on http://([\d.]+):(\d+)", line)
            if match:
                return match.group(1), int(match.group(2))
        self.process.wait(timeout=10)
        raise RuntimeError("daemon exited before listening:\n" + "".join(self.log))

    def _read_log(self) -> None:
        assert self.process.stderr is not None
        for line in self.process.stderr:
            self.log.append(line)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        self._drain.join(timeout=10)


class Ledger:
    """Attempted operations and the reason for every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []
        self._lock = threading.Lock()

    def record(self, op: str, reason: str | None, **detail) -> bool:
        with self._lock:
            self.attempted += 1
            if reason is not None:
                self.failures.append({"op": op, "reason": reason, **detail})
        return reason is None


def analyze_problem(status: int, body: dict, version: int | None) -> str | None:
    """Why an analyze response is wrong, or None."""
    if status != 200:
        return f"HTTP {status}" if status else "protocol error"
    files = body.get("files") or [{}]
    entry = files[0]
    if entry.get("status") != "ok":
        return f"analyze status {entry.get('status')}: {entry.get('error')}"
    if version is not None and entry.get("version") != version:
        return f"version {entry.get('version')}, expected {version}"
    budget = (entry.get("stats") or {}).get("budget") or {}
    if budget.get("exceeded"):
        return f"budget tripped: {budget.get('reason')}"
    return None


def open_documents(client, docs: list[dict], ledger: Ledger) -> float:
    """Cold first analyze of every document; returns the summed seconds."""
    total = 0.0
    for doc in docs:
        status, body, wall = client.request(
            "POST", "/v1/analyze", {"files": [{"path": doc["path"], "text": doc["text"]}]}
        )
        total += wall
        ledger.record("open", analyze_problem(status, body, 0), path=doc["path"])
    return total


def make_schedule(seed: int, rate: float, seconds: float, docs: list[dict]) -> dict:
    """The open-loop schedule, split by connection.  Its timing and the
    order of edits and lints are the same for every seed, so every run
    meets the same collisions; the seed picks each query's document, line
    and names."""
    from repro.serve.loadgen import OP_WEIGHTS

    rng = random.Random(seed)
    total = sum(weight for _, weight in OP_WEIGHTS)
    timed = []
    for kind, weight in OP_WEIGHTS:
        interval = total / (rate * weight)
        slot = 0
        while (slot + OFFSETS[kind]) * interval < seconds:
            timed.append(((slot + OFFSETS[kind]) * interval, kind))
            slot += 1
    timed.sort()
    edit_next = lint_next = 0
    edits_done = [0] * len(docs)
    editor, reader = [], []
    for at, kind in timed:
        if kind == "edit":
            index, edit_next = edit_next, (edit_next + 1) % len(docs)
            edits_done[index] += 1
            editor.append({"at": at, "kind": kind, "doc": index, "version": edits_done[index]})
        elif kind == "lint":
            index, lint_next = lint_next, (lint_next + 1) % len(docs)
            reader.append({"at": at, "kind": kind, "doc": index})
        else:
            index = rng.randrange(len(docs))
            doc = docs[index]
            reader.append({
                "at": at,
                "kind": kind,
                "doc": index,
                "line": rng.randint(1, doc["lines"]),
                "a": rng.choice(doc["names"]),
                "b": rng.choice(doc["names"]),
            })
    return {"editor": editor, "reader": reader, "edits": edits_done}


def drive(client, ops: list[dict], docs: list[dict], t0: float, ledger: Ledger,
          samples: dict, stop_at: float) -> None:
    """Send ``ops`` on one connection, each at its due time or as soon as
    the connection is free; time each from its due time."""
    from repro.serve.loadgen import probe_text

    for op in ops:
        due = t0 + op["at"]
        now = time.perf_counter()
        if now > stop_at:
            ledger.record(op["kind"], "not sent before the run's time limit")
            continue
        if now < due:
            time.sleep(due - now)
        sent = time.perf_counter()
        doc = docs[op["doc"]]
        if op["kind"] == "edit":
            text = doc["base"] + probe_text(op["version"])
            status, body, _ = client.request(
                "POST", "/v1/analyze", {"files": [{"path": doc["path"], "text": text}]}
            )
            problem = analyze_problem(status, body, op["version"])
        elif op["kind"] == "lint":
            status, body, _ = client.request("POST", "/v1/lint", {"path": doc["path"]})
            problem = None if status == 200 and isinstance(body.get("findings"), list) else (
                f"lint HTTP {status}")
        else:
            query = {"path": doc["path"], "line": op["line"], "a": op["a"], "b": op["b"]}
            status, body, _ = client.request("POST", "/v1/query", {"queries": [query]})
            answers = body.get("answers") or [{}]
            problem = None if status == 200 and "may_alias" in answers[0] else (
                f"query HTTP {status}")
        done = time.perf_counter()
        if ledger.record(op["kind"], problem, path=doc["path"]):
            samples[op["kind"]].append((doc["path"], done - due))
        samples["late"].append((doc["path"], sent - due))


def line_pairs(solution, icfg, line: int) -> list[str]:
    """What ``ServeSession.query`` answers for a line with no names."""
    pairs: set[str] = set()
    for node in icfg.nodes:
        span = node.span
        if span.end.offset == 0 and span.start.offset == 0:
            continue
        if span.start.line <= line <= span.end.line:
            pairs.update(str(pair) for pair in solution.may_alias(node))
    return sorted(pairs)


def check_resident(client, docs: list[dict], edits: list[int], ledger: Ledger) -> int:
    """Every resident solution must answer every line exactly like a fresh
    kernel solve of the final text.  Returns how many were complete."""
    from repro.core.analysis import analyze_program
    from repro.frontend.semantics import parse_and_analyze
    from repro.icfg.builder import build_icfg
    from repro.serve.loadgen import probe_text

    complete = 0
    for doc, count in zip(docs, edits):
        text = doc["base"] + probe_text(count)
        status, body, _ = client.request("POST", "/v1/analyze", {"files": [{"path": doc["path"]}]})
        problem = analyze_problem(status, body, count)
        if problem is None:
            complete += 1
        analyzed = parse_and_analyze(text, doc["path"])
        icfg = build_icfg(analyzed)
        fresh = analyze_program(analyzed, icfg, k=K, max_facts=MAX_FACTS)
        lines = range(1, text.count("\n") + 1)
        status, answer, _ = client.request(
            "POST", "/v1/query",
            {"queries": [{"path": doc["path"], "line": line} for line in lines]},
        )
        resident = [entry.get("pairs") for entry in answer.get("answers") or []]
        expected = [line_pairs(fresh, icfg, line) for line in lines]
        if problem is None and (status != 200 or resident != expected):
            differing = [
                line for line, got, want in zip(lines, resident, expected) if got != want
            ]
            problem = f"resident answers differ from a fresh solve on lines {differing[:5]}"
        ledger.record("final-check", problem, path=doc["path"])
    return complete


def serve_counters(client) -> dict:
    status, body, _ = client.request("GET", "/metrics")
    if status != 200:
        return {}
    session = dict(body.get("session") or {})
    session["queue_depth_peak"] = (body.get("requests") or {}).get("queue_depth_peak", 0)
    return session


def run(args: argparse.Namespace, deadline: float) -> dict:
    use_source()
    started = time.monotonic()
    from repro.serve.loadgen import LoadClient, make_corpus

    docs = make_corpus(DOC_SEED, DOC_COUNT)
    if args.tiny:
        docs = make_corpus(DOC_SEED, 1, n_functions=3)
    client_setup = time.monotonic() - started
    ledger = Ledger()
    schedule = make_schedule(args.seed, args.rate, args.seconds, docs)

    run_dir = WORK / f"serve-{os.getpid()}"
    boots, opens = [], []
    daemon = None
    trace_out = str(run_dir / "spans.json") if args.trace else None
    cache_dir = run_dir / "cache-0"
    booting = time.monotonic()
    try:
        while True:
            cache_dir = run_dir / f"cache-{len(opens)}"
            daemon = Daemon(str(cache_dir), trace_out)
            boots.append(daemon.boot_s)
            opener = LoadClient(daemon.host, daemon.port, timeout=REQUEST_TIMEOUT_S)
            opens.append(open_documents(opener, docs, ledger))
            opener.close()
            if trace_out is not None or (
                len(opens) >= MIN_BOOTS and time.monotonic() - booting >= args.seconds
            ):
                break
            daemon.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)

        editor = LoadClient(daemon.host, daemon.port, timeout=REQUEST_TIMEOUT_S)
        reader = LoadClient(daemon.host, daemon.port, timeout=REQUEST_TIMEOUT_S)
        before = serve_counters(reader)
        samples = {"edit": [], "query": [], "lint": [], "late": []}
        t0 = time.perf_counter() + 0.05
        stop_at = t0 + (deadline - time.monotonic()) - 30.0
        threads = [
            threading.Thread(target=drive, args=(client, ops, docs, t0, ledger, samples, stop_at))
            for client, ops in ((editor, schedule["editor"]), (reader, schedule["reader"]))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = serve_counters(reader)
        complete = check_resident(reader, docs, schedule["edits"], ledger)
        editor.close()
        reader.close()
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
        # A traced run keeps its spans file for serve_layers below.
        shutil.rmtree(cache_dir if trace_out else run_dir, ignore_errors=True)

    from repro.serve.metrics import percentile

    ms = {kind: [1000.0 * s for _, s in values] for kind, values in samples.items()}

    def per_doc(kind: str) -> dict:
        out = collections.defaultdict(list)
        for path, s in samples[kind]:
            out[path].append(1000.0 * s)
        return out

    metrics = {
        "setup_s": client_setup + statistics.median(boots),
        "sweep_s": statistics.median(opens),
        "complete_ratio": complete / len(docs),
        "peak_rss_mb": peak_rss_mb,
        "edit_p50_ms": typical(per_doc("edit")),
    }
    layers = {}
    if trace_out is not None:
        scheduled = len(schedule["editor"]) + len(schedule["reader"])
        layers = serve_layers(trace_out, len(docs), scheduled, args.seconds, before, after)
        layers["trace.sweep_s"] = opens[-1]
        layers["trace.edit_p50_ms"] = metrics["edit_p50_ms"]
    # A run holds too few requests of each class for a p90 with ten
    # samples beyond it, so the tails are reported here and not bounded.
    # So is the query median: a 2 ms round trip moves with the host's
    # wake-up delays by more than any bound allows.  It is taken over all
    # queries because a query costs about the same on every document,
    # while the seed decides how many of one document's queries wait
    # behind an edit.
    layers["loadgen.query_p50_ms"] = statistics.median(ms["query"])
    layers["loadgen.late_p99_ms"] = percentile(ms["late"], 0.99)
    layers["loadgen.query_p90_ms"] = percentile(ms["query"], 0.9)
    layers["loadgen.query_p99_ms"] = percentile(ms["query"], 0.99)
    layers["loadgen.edit_p90_ms"] = percentile(ms["edit"], 0.9)
    layers["loadgen.lint_p50_ms"] = percentile(ms["lint"], 0.5) or 0.0
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "detail": {
            "rate": args.rate,
            "client_setup_s": client_setup,
            "boots_s": boots,
            "opens_s": opens,
            "edits_per_doc": schedule["edits"],
            "latencies_ms": ms,
        },
    }


def serve_layers(trace_out: str, opened: int, scheduled: int, seconds: float,
                 before: dict, after: dict) -> dict:
    """Per-layer metrics from the traced daemon, over the scheduled
    requests only (the daemon numbers requests as they arrive; the first
    ``opened`` are the cold opens)."""
    import json

    from repro.serve.metrics import percentile

    from tracer import lane_busy, layer_metrics, serve_latencies

    with open(trace_out) as handle:
        doc = json.load(handle)

    def in_loop(rid: int) -> bool:
        return opened < rid <= opened + scheduled

    spans = [span for span in doc["spans"] if in_loop(span[5])]
    layers = layer_metrics([doc], keep=in_loop)
    lat = {kind: [1000.0 * s for s in values] for kind, values in serve_latencies(spans).items()}
    waits = [1000.0 * s for rid, s in doc["waits"] if in_loop(rid)]
    layers.update({
        "serve.solve_ms": percentile(lat["solve"], 0.5) or 0.0,
        "serve.stats_ms": percentile(lat["stats"], 0.5) or 0.0,
        "serve.query_exec_ms": percentile(lat["query"], 0.5) or 0.0,
        "serve.lint_exec_ms": percentile(lat["lint"], 0.5) or 0.0,
        "serve.wait_p50_ms": percentile(waits, 0.5) or 0.0,
        "serve.wait_p90_ms": percentile(waits, 0.9) or 0.0,
        "serve.lane_busy_ratio": lane_busy(spans) / seconds,
        "trace.overhead_ratio": layers["trace.overhead_s"] / max(lane_busy(spans), 1e-9),
    })

    def delta(key: str) -> float:
        return (after.get(key) or 0) - (before.get(key) or 0)

    layers["serve.invalidated_procs"] = delta("invalidated_procs_total")
    layers["serve.replayed_procs"] = delta("replayed_procs_total")
    layers["serve.stale_retries"] = delta("stale_retries_total")
    layers["serve.edit_scoped_ratio"] = after.get("edit_scoped_ratio") or 0.0
    layers["serve.queue_depth_peak"] = after.get("queue_depth_peak", 0)
    return layers
