"""The sharded process-pool driver: ordering, isolation, deadlines.

Workers are module-level so they pickle under both ``fork`` and
``spawn``.  The crash worker kills its process with ``os._exit`` — the
hard case a plain exception handler can't see.
"""

import multiprocessing
import os
import time

import pytest

from repro.parallel import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    run_sharded,
)

pytestmark = pytest.mark.parallel


def double(x):
    return x * 2


def fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


def crash_on_two(x):
    if x == 2:
        os._exit(42)
    return x


def sleep_on_one(x):
    if x == 1:
        time.sleep(30)
    return x


class TestOrderingAndErrors:
    def test_results_come_back_in_unit_order(self):
        outcomes = run_sharded(double, [3, 1, 2], jobs=2)
        assert [o.value for o in outcomes] == [6, 2, 4]
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.ok for o in outcomes)

    def test_worker_exception_degrades_only_that_unit(self):
        outcomes = run_sharded(fail_on_three, [1, 2, 3, 4], jobs=2)
        assert [o.status for o in outcomes] == [
            STATUS_OK,
            STATUS_OK,
            STATUS_ERROR,
            STATUS_OK,
        ]
        assert "boom" in outcomes[2].error
        assert outcomes[2].value is None

    def test_serial_path_has_identical_semantics(self):
        parallel = run_sharded(fail_on_three, [1, 2, 3, 4], jobs=2)
        serial = run_sharded(fail_on_three, [1, 2, 3, 4], jobs=1)
        assert [(o.status, o.value) for o in serial] == [
            (o.status, o.value) for o in parallel
        ]

    def test_empty_and_single_unit(self):
        assert run_sharded(double, [], jobs=4) == []
        (only,) = run_sharded(double, [21], jobs=4)
        assert only.ok and only.value == 42

    def test_outcome_as_dict_is_json_shaped(self):
        (outcome,) = run_sharded(fail_on_three, [3], jobs=1)
        doc = outcome.as_dict()
        assert doc["status"] == STATUS_ERROR
        assert doc["index"] == 0
        assert isinstance(doc["seconds"], float)


class TestCrashIsolation:
    def test_dead_worker_degrades_only_its_unit(self):
        outcomes = run_sharded(
            crash_on_two, [1, 2, 3, 4], jobs=2, max_pool_restarts=1
        )
        statuses = [o.status for o in outcomes]
        assert statuses[1] == STATUS_CRASHED
        assert statuses[0] == STATUS_OK
        assert statuses[2] == STATUS_OK
        assert statuses[3] == STATUS_OK
        assert [o.value for o in outcomes if o.ok] == [1, 3, 4]


class TestGlobalDeadline:
    def test_deadline_degrades_the_slow_unit_without_hanging(self):
        before = set(multiprocessing.active_children())
        started = time.perf_counter()
        outcomes = run_sharded(sleep_on_one, [0, 1, 2], jobs=2, timeout=3.0)
        elapsed = time.perf_counter() - started
        assert elapsed < 20, "driver must not wait out the sleeping worker"
        assert outcomes[1].status == STATUS_TIMEOUT
        done = [o for o in outcomes if o.ok]
        assert all(o.value in (0, 2) for o in done)
        # The force-terminate reaches the wedged worker: no pool worker
        # outlives the run by more than a few seconds.
        settle_at = time.perf_counter() + 5.0
        while time.perf_counter() < settle_at:
            workers = set(multiprocessing.active_children()) - before
            if not workers:
                break
            time.sleep(0.1)
        assert not workers, f"pool workers still alive: {workers}"
