"""The generic sharded process-pool driver.

Design constraints (see docs/PARALLEL.md):

* **Deterministic merge order.**  Results are returned in unit order,
  not completion order; every consumer that folds shard results into a
  stats document therefore produces identical output for any job count.
* **Isolation, never a hang.**  A worker that raises returns a
  structured ``"error"`` outcome.  A worker that *dies* (segfault,
  ``os._exit``, OOM-kill) breaks the pool; the driver collects every
  completed result, restarts the pool a bounded number of times for the
  units still outstanding, and finally degrades unrecovered units to
  ``"crashed"`` outcomes — the sweep-level analogue of the engine's
  budget degradation (PR 1): partial, clearly marked, never wedged.
* **Bounded wall clock.**  An optional global ``timeout`` marks
  still-running units ``"timeout"`` and force-terminates the pool's
  processes rather than waiting on them.

Workers must be module-level callables (picklable) taking one unit and
returning a picklable value.  ``jobs <= 1`` runs everything in-process
with identical outcome semantics, which is also what keeps single-job
and multi-job runs byte-comparable.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

STATUS_OK = "ok"
STATUS_ERROR = "error"  # worker raised; exception captured
STATUS_CRASHED = "crashed"  # worker process died; pool restarts exhausted
STATUS_TIMEOUT = "timeout"  # global deadline expired before completion


@dataclass(slots=True)
class ShardOutcome:
    """What happened to one unit of a sharded run."""

    index: int
    status: str
    value: Any = None
    error: str = ""
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "status": self.status,
            "error": self.error,
            "seconds": round(self.seconds, 4),
        }


def _preferred_context() -> multiprocessing.context.BaseContext:
    """``fork`` when the platform offers it (cheap, inherits the intern
    tables), ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_serial(
    worker: Callable[[Any], Any], units: Sequence[Any]
) -> list[ShardOutcome]:
    outcomes: list[ShardOutcome] = []
    for index, unit in enumerate(units):
        started = time.perf_counter()
        try:
            value = worker(unit)
        except Exception as exc:
            outcomes.append(
                ShardOutcome(
                    index,
                    STATUS_ERROR,
                    error=f"{type(exc).__name__}: {exc}",
                    seconds=time.perf_counter() - started,
                )
            )
        else:
            outcomes.append(
                ShardOutcome(
                    index,
                    STATUS_OK,
                    value=value,
                    seconds=time.perf_counter() - started,
                )
            )
    return outcomes


@dataclass(slots=True)
class _PoolState:
    """Book-keeping for one executor generation."""

    executor: ProcessPoolExecutor
    futures: dict[Future, int] = field(default_factory=dict)


def _terminate_pool(executor: ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting on wedged workers.  The workers
    are read first: ``shutdown`` forgets them (CPython sets
    ``_processes`` to None), and a wedged one would otherwise outlive
    the run and hold up the interpreter's exit."""
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass


def run_sharded(
    worker: Callable[[Any], Any],
    units: Sequence[Any],
    jobs: int = 1,
    timeout: Optional[float] = None,
    max_pool_restarts: int = 2,
) -> list[ShardOutcome]:
    """Run ``worker`` over every unit, ``jobs`` processes at a time.

    Returns one :class:`ShardOutcome` per unit, **in unit order**.
    ``timeout`` is a global wall-clock bound over the whole run."""
    if jobs <= 1 or len(units) <= 1:
        return _run_serial(worker, units)

    outcomes: dict[int, ShardOutcome] = {}
    started_at = time.perf_counter()
    deadline = None if timeout is None else started_at + timeout
    pending = list(range(len(units)))
    restarts = 0
    context = _preferred_context()

    while pending:
        executor = ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)), mp_context=context
        )
        state = _PoolState(executor)
        submit_started = {}
        broken = False
        for index in pending:
            try:
                future = executor.submit(worker, units[index])
            except BrokenProcessPool:
                # A unit already submitted crashed the pool before we
                # finished submitting; the rest stay pending and the
                # restart logic below picks them up.
                broken = True
                break
            state.futures[future] = index
            submit_started[index] = time.perf_counter()
        try:
            not_done = set(state.futures)
            while not_done:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                done, not_done = concurrent.futures.wait(
                    not_done, timeout=remaining, return_when=FIRST_COMPLETED
                )
                if not done and deadline is not None:
                    break  # timed out with nothing newly finished
                for future in done:
                    index = state.futures[future]
                    seconds = time.perf_counter() - submit_started[index]
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken = True
                    except Exception as exc:
                        outcomes[index] = ShardOutcome(
                            index,
                            STATUS_ERROR,
                            error=f"{type(exc).__name__}: {exc}",
                            seconds=seconds,
                        )
                    else:
                        outcomes[index] = ShardOutcome(
                            index, STATUS_OK, value=value, seconds=seconds
                        )
                if broken:
                    break
        finally:
            if broken or (
                deadline is not None and time.perf_counter() >= deadline
            ):
                _terminate_pool(executor)
            else:
                executor.shutdown(wait=True, cancel_futures=True)

        pending = [i for i in range(len(units)) if i not in outcomes]
        if not pending:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            for index in pending:
                outcomes[index] = ShardOutcome(
                    index,
                    STATUS_TIMEOUT,
                    error=f"global deadline of {timeout}s expired",
                    seconds=time.perf_counter() - started_at,
                )
            break
        if broken:
            restarts += 1
            if restarts > max_pool_restarts:
                # Shared pools keep breaking: fall back to one
                # single-worker pool per unit so a poisoned unit can
                # only take itself down, not its neighbours.
                for index in pending:
                    remaining = (
                        None
                        if deadline is None
                        else max(0.0, deadline - time.perf_counter())
                    )
                    outcomes[index] = _run_isolated(
                        worker, units[index], index, context, remaining
                    )
                break
        # Loop re-submits the still-pending units on a fresh pool.

    return [outcomes[index] for index in range(len(units))]


def _run_isolated(
    worker: Callable[[Any], Any],
    unit: Any,
    index: int,
    context: multiprocessing.context.BaseContext,
    timeout: Optional[float],
) -> ShardOutcome:
    """Last-resort execution of one unit in its own throwaway pool."""
    started = time.perf_counter()
    executor = ProcessPoolExecutor(max_workers=1, mp_context=context)
    try:
        try:
            future = executor.submit(worker, unit)
        except BrokenProcessPool:
            return ShardOutcome(
                index,
                STATUS_CRASHED,
                error="worker process died (isolated rerun)",
                seconds=time.perf_counter() - started,
            )
        try:
            value = future.result(timeout=timeout)
        except BrokenProcessPool:
            return ShardOutcome(
                index,
                STATUS_CRASHED,
                error="worker process died (isolated rerun)",
                seconds=time.perf_counter() - started,
            )
        except concurrent.futures.TimeoutError:
            _terminate_pool(executor)
            return ShardOutcome(
                index,
                STATUS_TIMEOUT,
                error="global deadline expired (isolated rerun)",
                seconds=time.perf_counter() - started,
            )
        except Exception as exc:
            return ShardOutcome(
                index,
                STATUS_ERROR,
                error=f"{type(exc).__name__}: {exc}",
                seconds=time.perf_counter() - started,
            )
        return ShardOutcome(
            index, STATUS_OK, value=value, seconds=time.perf_counter() - started
        )
    finally:
        _terminate_pool(executor)
