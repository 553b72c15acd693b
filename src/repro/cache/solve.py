"""Cache-aware solving: the bridge between the engine and the store.

``solve_with_cache`` is what the sweep drivers call instead of
:func:`repro.core.analysis.analyze_program`.  On a hit the solution is
rebuilt from the envelope (full store, assumptions, original engine
counters — so warm-run statistics match the cold run byte-for-byte
modulo wall-clock fields); on a miss the engine runs and, when the
solution is complete, the envelope is persisted.  Partial (budget-
truncated) solutions are returned to the caller but never cached:
their content depends on the budget and on timing.

``verify_cache`` re-solves a sample of stored entries from the
canonical program text embedded in each envelope and diffs the facts —
the ``repro cache verify`` subcommand.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from ..core.analysis import analyze_program
from ..core.metrics import PhaseTimer
from ..core.solution import MayAliasSolution
from ..frontend.semantics import AnalyzedProgram, parse_and_analyze
from ..icfg.builder import build_icfg
from ..icfg.graph import ICFG
from ..io import document_store, rebuild_solution, solution_to_dict
from .keys import (
    ENGINE_CODE_VERSION,
    canonical_program_text,
    engine_config_dict,
    entry_key,
)
from .store import CACHE_ENTRY_SCHEMA, SolutionCache

#: Lookup outcomes reported by :func:`solve_with_cache`.
STATUS_OFF = "off"
STATUS_HIT = "hit"
STATUS_MISS = "miss"
STATUS_UNCACHEABLE = "uncacheable"  # solved, but partial: not stored


def make_envelope(
    key: str,
    program_text: str,
    ir_hash: str,
    k: int,
    engine_config: dict,
    solution: MayAliasSolution,
) -> dict:
    """The JSON envelope one cache entry stores.

    Kernel solutions persist as version-3 packed-column documents
    (serialized off the flat arrays, rebuilt by bulk load); reference
    solutions keep the per-fact version-2 encoding."""
    return {
        "schema": CACHE_ENTRY_SCHEMA,
        "key": key,
        "inputs": {
            "ir_hash": ir_hash,
            "k": k,
            "engine": dict(engine_config),
            "code_version": ENGINE_CODE_VERSION,
        },
        "program": program_text,
        "solution": solution_to_dict(solution, include_report=True, packed=True),
    }


def _solve(
    analyzed: AnalyzedProgram,
    icfg: ICFG,
    k: int,
    max_facts: Optional[int],
    deadline_seconds: Optional[float],
    on_budget: str,
    timer: Optional[PhaseTimer],
    engine: str,
    jobs: int,
    cache: Optional[SolutionCache],
) -> MayAliasSolution:
    """One fresh solve.  The summary engine threads ``jobs`` and the
    cache through — its per-procedure envelopes share the store with
    the whole-program entries, so an outer (whole-program) miss still
    replays every procedure whose body and inputs are unchanged."""
    if engine == "summary":
        from ..summaries.solver import solve_summary

        return solve_summary(
            analyzed,
            icfg,
            k=k,
            jobs=jobs,
            max_facts=max_facts,
            deadline_seconds=deadline_seconds,
            on_budget=on_budget,
            timer=timer,
            cache=cache,
        )
    return analyze_program(
        analyzed,
        icfg,
        k=k,
        max_facts=max_facts,
        deadline_seconds=deadline_seconds,
        on_budget=on_budget,
        timer=timer,
        engine=engine,
    )


def solve_with_cache(
    analyzed: AnalyzedProgram,
    icfg: ICFG,
    k: int,
    max_facts: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
    on_budget: str = "partial",
    cache: Optional[SolutionCache] = None,
    timer: Optional[PhaseTimer] = None,
    engine: str = "kernel",
    jobs: int = 1,
) -> tuple[MayAliasSolution, str]:
    """Solve (or reload) the may-alias solution for one program.

    Returns ``(solution, status)`` with status one of ``"off"``,
    ``"hit"``, ``"miss"`` or ``"uncacheable"``."""
    if cache is None:
        solution = _solve(
            analyzed,
            icfg,
            k,
            max_facts,
            deadline_seconds,
            on_budget,
            timer,
            engine,
            jobs,
            None,
        )
        return solution, STATUS_OFF

    text = canonical_program_text(analyzed)
    ir_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()
    config = engine_config_dict(max_facts=max_facts, engine=engine)
    key = entry_key(ir_hash, k, config)

    envelope = cache.get(key)
    if envelope is not None:
        try:
            solution = rebuild_solution(envelope["solution"], analyzed, icfg)
            return solution, STATUS_HIT
        except (KeyError, ValueError, TypeError):
            # Schema drift inside an otherwise well-formed envelope:
            # drop it and fall through to a fresh solve.  The lookup
            # stays counted as the hit it was; the failure gets its own
            # counter instead of the old hits/misses rewrite, which
            # made rates unauditable (a rolled-back hit was
            # indistinguishable from a plain miss).
            cache.counters.corrupt_dropped += 1
            cache.counters.rebuild_failures += 1
            try:
                cache.entry_path(key).unlink()
            except OSError:
                pass

    solution = _solve(
        analyzed,
        icfg,
        k,
        max_facts,
        deadline_seconds,
        on_budget,
        timer,
        engine,
        jobs,
        cache,
    )
    if not solution.complete:
        return solution, STATUS_UNCACHEABLE
    cache.put(key, make_envelope(key, text, ir_hash, k, config, solution))
    return solution, STATUS_MISS


def verify_cache(
    cache: SolutionCache, sample: Optional[int] = None
) -> tuple[int, list[str]]:
    """Re-solve a sample of cached entries and diff against the stored
    solutions.  Returns ``(entries_checked, problems)`` — an empty
    problem list means every checked entry reproduces exactly.

    Entries are taken in deterministic (sorted-path) order; ``sample``
    bounds how many are re-solved (None = all)."""
    problems: list[str] = []
    checked = 0
    for path in cache.iter_paths():
        if sample is not None and checked >= sample:
            break
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            problems.append(f"{path.name}: unreadable entry")
            checked += 1
            continue
        if (
            isinstance(envelope, dict)
            and envelope.get("schema") != CACHE_ENTRY_SCHEMA
        ):
            # Per-procedure summary envelopes (repro-summary-entry/2)
            # share the store but are not self-contained programs; the
            # summary engine's own warm-vs-cold equivalence tests cover
            # them.
            continue
        try:
            program = envelope["program"]
            inputs = envelope["inputs"]
            stored = envelope["solution"]
            k = int(inputs["k"])
            engine = inputs["engine"]
        except (KeyError, TypeError, ValueError):
            problems.append(f"{path.name}: malformed envelope")
            checked += 1
            continue
        checked += 1
        if inputs.get("code_version") != ENGINE_CODE_VERSION:
            problems.append(
                f"{path.name}: stale code version "
                f"{inputs.get('code_version')!r} (current {ENGINE_CODE_VERSION!r})"
            )
            continue
        try:
            analyzed = parse_and_analyze(program)
            icfg = build_icfg(analyzed)
            fresh = analyze_program(
                analyzed,
                icfg,
                k=k,
                max_facts=engine.get("max_facts"),
                on_budget="partial",
                engine=engine.get("engine", "kernel"),
            )
        except Exception as exc:
            problems.append(f"{path.name}: re-solve failed: {exc}")
            continue
        if not fresh.complete:
            problems.append(f"{path.name}: re-solve hit its budget")
            continue
        try:
            stored_facts = dict(document_store(stored).facts())
        except (KeyError, TypeError, ValueError):
            problems.append(f"{path.name}: malformed stored solution")
            continue
        fresh_facts = dict(fresh.store.facts())
        if stored_facts != fresh_facts:
            missing = len(stored_facts.items() - fresh_facts.items())
            extra = len(fresh_facts.items() - stored_facts.items())
            problems.append(
                f"{path.name}: solution drift — {missing} stored facts "
                f"not re-derived, {extra} new facts"
            )
    return checked, problems

