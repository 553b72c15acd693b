"""Top-level driver: source text → may-alias solution.

This is the primary public API of the library::

    from repro import analyze_source

    solution = analyze_source(open("prog.c").read(), k=3)
    pairs = solution.may_alias(node)

Budgets: ``max_facts`` bounds the may-hold relation's size and
``deadline_seconds`` bounds propagation wall time.  When either is
exceeded the engine stops, demotes every fact to TAINTED, and the
driver raises :class:`BudgetExceeded` — a ``RuntimeError`` carrying the
partial solution on its ``solution`` attribute.  Pass
``on_budget="partial"`` to get the partial solution returned instead of
raised (check ``solution.budget.exceeded``).  Either way the partial
store is a *subset* of the full run's facts with nothing certified
precise; treat it as a progress report, not as a sound may-alias set.
"""

from __future__ import annotations

import time
from typing import Optional

from ..frontend.semantics import AnalyzedProgram, parse_and_analyze
from ..icfg.builder import IcfgBuilder
from ..icfg.graph import ICFG
from .kernel import KernelAnalysis
from .metrics import PHASE_ICFG, PHASE_PARSE, PhaseTimer
from .solution import MayAliasSolution
from .worklist import MayHoldAnalysis

DEFAULT_K = 3  # the paper's Table 2 uses k = 3

# Engine backends.  "kernel" is the integer-ID fast path
# (:mod:`repro.core.kernel`); "reference" is the object-graph engine
# (:mod:`repro.core.worklist`) kept as the executable specification;
# "summary" is the bottom-up procedure-summary solver
# (:mod:`repro.summaries.solver`), the only engine that parallelizes
# *within* one program.  All three produce identical solutions (fact
# set, assumptions and taint bits included) — the difftest lattice
# pins the equivalences (``kernel_eq_reference``,
# ``summary_eq_kernel``).
ENGINES = ("kernel", "reference", "summary")
DEFAULT_ENGINE = "kernel"


class BudgetExceeded(RuntimeError):
    """The analysis hit its fact or wall-clock budget.

    ``solution`` holds the partial result: every fact found so far,
    all demoted to TAINTED.  ``reason`` is ``"max_facts"`` or
    ``"deadline"``.  Subclasses ``RuntimeError`` so pre-budget callers
    that caught the old bare error keep working.
    """

    def __init__(self, message: str, solution: MayAliasSolution) -> None:
        super().__init__(message)
        self.solution = solution
        self.reason = solution.budget.reason


def finish_solution(
    analysis, store, started: float, on_budget: str = "partial"
) -> MayAliasSolution:
    """Wrap the finished ``analysis`` of any engine, whose run returned
    ``store`` and began at ``started`` (a ``time.perf_counter()``
    reading), in a :class:`MayAliasSolution`.  With ``on_budget="raise"``
    a budget-partial run raises :class:`BudgetExceeded` instead."""
    budget = analysis.budget
    solution = MayAliasSolution(
        analysis.icfg,
        store,
        analysis.ctx,
        analysis.k,
        analysis_seconds=time.perf_counter() - started,
        engine=analysis.engine_report(),
        phases=analysis.timer,
        budget=budget,
    )
    if budget.exceeded and on_budget == "raise":
        limit = (
            f"max_facts={budget.max_facts}"
            if budget.reason == "max_facts"
            else f"deadline={budget.deadline_seconds}s"
        )
        raise BudgetExceeded(
            f"analysis exceeded {limit} ({len(store)} facts; "
            "partial all-tainted solution attached)",
            solution,
        )
    return solution


def analyze_program(
    analyzed: AnalyzedProgram,
    icfg: Optional[ICFG] = None,
    k: int = DEFAULT_K,
    max_facts: Optional[int] = None,
    entry_proc: str = "main",
    deadline_seconds: Optional[float] = None,
    on_budget: str = "raise",
    timer: Optional[PhaseTimer] = None,
    engine: str = DEFAULT_ENGINE,
) -> MayAliasSolution:
    """Run the Landi/Ryder conditional may-alias algorithm."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if on_budget not in ("raise", "partial"):
        raise ValueError(f"on_budget must be 'raise' or 'partial', got {on_budget!r}")
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if timer is None:
        timer = PhaseTimer()
    if icfg is None:
        with timer.phase(PHASE_ICFG):
            icfg = IcfgBuilder(analyzed, entry_proc).build()
    if engine == "summary":
        from ..summaries.solver import solve_summary

        return solve_summary(
            analyzed,
            icfg,
            k=k,
            max_facts=max_facts,
            deadline_seconds=deadline_seconds,
            on_budget=on_budget,
            timer=timer,
        )
    engine_cls = MayHoldAnalysis if engine == "reference" else KernelAnalysis
    start = time.perf_counter()
    analysis = engine_cls(
        analyzed,
        icfg,
        k=k,
        max_facts=max_facts,
        deadline_seconds=deadline_seconds,
        timer=timer,
    )
    return finish_solution(analysis, analysis.run(), start, on_budget)


def analyze_source(
    source: str,
    k: int = DEFAULT_K,
    filename: str = "<input>",
    max_facts: Optional[int] = None,
    entry_proc: str = "main",
    deadline_seconds: Optional[float] = None,
    on_budget: str = "raise",
    timer: Optional[PhaseTimer] = None,
    engine: str = DEFAULT_ENGINE,
) -> MayAliasSolution:
    """Parse, check, lower and analyze MiniC ``source``."""
    if timer is None:
        timer = PhaseTimer()
    with timer.phase(PHASE_PARSE):
        analyzed = parse_and_analyze(source, filename)
    return analyze_program(
        analyzed,
        k=k,
        max_facts=max_facts,
        entry_proc=entry_proc,
        deadline_seconds=deadline_seconds,
        on_budget=on_budget,
        timer=timer,
        engine=engine,
    )
