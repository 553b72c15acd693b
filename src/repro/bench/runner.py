"""Measurement helpers shared by the benchmark files."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from ..baselines.andersen import andersen_aliases
from ..baselines.weihl import weihl_aliases
from ..core.analysis import analyze_program
from ..core.solution import MayAliasSolution
from ..frontend.semantics import parse_and_analyze
from ..icfg.builder import build_icfg


@dataclass(slots=True)
class Measurement:
    """One program measured with the Landi/Ryder analysis and the
    baselines, in the units the paper reports (plus the engine's
    worklist-discipline counters)."""

    name: str
    source_lines: int
    icfg_nodes: int
    lr_program_aliases: int          # untruncated pairs (comparable)
    lr_program_aliases_all: int      # including truncated representatives
    lr_node_aliases: int
    lr_seconds: float
    percent_yes: float
    worklist_pops: int = 0
    worklist_pushes: int = 0
    dedup_hits: int = 0
    upgrades: int = 0
    join_fanout: int = 0
    weihl_aliases: Optional[int] = None          # untruncated pairs
    weihl_aliases_all: Optional[int] = None      # incl. representatives
    weihl_seconds: Optional[float] = None
    andersen_aliases: Optional[int] = None       # variable-level pairs
    andersen_seconds: Optional[float] = None

    @property
    def weihl_ratio(self) -> Optional[float]:
        """Weihl count over LR count (None when Weihl was skipped).

        Clamped to a finite value: a zero-alias program (both counts 0)
        reports 1.0 — the baseline found exactly as little as we did —
        and a zero LR count under a nonzero Weihl count reports the
        Weihl count itself rather than ``inf``."""
        if self.weihl_aliases is None:
            return None
        if self.lr_program_aliases <= 0:
            return 1.0 if self.weihl_aliases <= 0 else float(self.weihl_aliases)
        ratio = self.weihl_aliases / self.lr_program_aliases
        return ratio if math.isfinite(ratio) else 0.0


def clamp_percent(value: float) -> float:
    """Force a percentage into [0, 100] and map non-finite inputs
    (the 0/0 cases on empty programs) to 100.0 — an empty alias set is
    vacuously precise."""
    if not math.isfinite(value):
        return 100.0
    return max(0.0, min(100.0, value))


def measure(
    name: str,
    source: str,
    k: int = 3,
    run_weihl: bool = True,
    run_andersen: bool = False,
    max_facts: Optional[int] = 3_000_000,
) -> Measurement:
    """Analyze ``source`` with every requested analysis."""
    analyzed = parse_and_analyze(source)
    icfg = build_icfg(analyzed)
    start = time.perf_counter()
    solution = analyze_program(analyzed, icfg, k=k, max_facts=max_facts)
    lr_seconds = time.perf_counter() - start
    stats = solution.stats()
    program_pairs = solution.program_aliases()
    untruncated = sum(
        1
        for pair in program_pairs
        if not pair.first.truncated and not pair.second.truncated
    )
    result = Measurement(
        name=name,
        source_lines=len(source.splitlines()),
        icfg_nodes=stats.icfg_nodes,
        lr_program_aliases=untruncated,
        lr_program_aliases_all=stats.program_alias_count,
        lr_node_aliases=stats.node_alias_count,
        lr_seconds=lr_seconds,
        percent_yes=clamp_percent(stats.percent_yes),
        worklist_pops=stats.engine.worklist_pops,
        worklist_pushes=stats.engine.worklist_pushes,
        dedup_hits=stats.engine.dedup_hits,
        upgrades=stats.engine.upgrades,
        join_fanout=stats.engine.join_fanout,
    )
    if run_weihl:
        weihl = weihl_aliases(analyzed, icfg, k=k, materialize=False)
        result.weihl_aliases = weihl.alias_count_untruncated
        result.weihl_aliases_all = weihl.alias_count
        result.weihl_seconds = weihl.closure_seconds
    if run_andersen:
        andersen = andersen_aliases(analyzed, icfg)
        result.andersen_aliases = len(andersen.aliases)
        result.andersen_seconds = andersen.total_seconds
    return result


def analyze_counts(source: str, k: int = 3, max_facts: Optional[int] = 3_000_000) -> MayAliasSolution:
    """Analysis only (used by the tighter timing loops)."""
    analyzed = parse_and_analyze(source)
    icfg = build_icfg(analyzed)
    return analyze_program(analyzed, icfg, k=k, max_facts=max_facts)
