"""Lifecycle and safety of the persistent worker pool.

Equivalence of pool-executed pipelines lives in
``test_parallel_equivalence.py``; this module covers the pool's own
contract: ordered results, exception shipping, crash detection (a dead
worker must raise, not hang), idempotent shutdown, broadcast-installed
worker state, and counter folding.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import obs
from repro.parallel import PoolClosed, WorkerCrashed, WorkerPool
from repro.parallel.pool import _OP_STOP


# Pool tasks are pickled by reference, so they must be module-level.


def _square(x: int) -> int:
    return x * x


def _fail_on_two(x: int) -> int:
    if x == 2:
        raise ValueError("boom on two")
    return x


def _fail_on_two_while_three_runs(x: int) -> int:
    if x == 2:
        raise ValueError("boom on two")
    if x == 3:
        time.sleep(0.3)  # still in flight when task 2's error arrives
    return x


def _die(x: int) -> int:  # pragma: no cover - runs in a worker
    os._exit(13)


def _count(x: int) -> int:
    obs.add("pooltest.count", x)
    obs.add("pooltest.half", 0.5)
    return x


#: Worker-local slot written by a broadcast, read by later tasks.
_INSTALLED = None


def _install(value):  # pragma: no cover - runs in workers
    global _INSTALLED
    _INSTALLED = value  # reprolint: disable=REP009 -- post-fork, worker-local install
    return True


def _read_installed(_):  # pragma: no cover - runs in workers
    return _INSTALLED


class TestRunBatch:
    def test_results_in_submission_order(self):
        with WorkerPool(3) as pool:
            assert pool.run_batch(_square, list(range(20))) == [
                i * i for i in range(20)
            ]

    def test_more_workers_than_tasks(self):
        with WorkerPool(4) as pool:
            assert pool.run_batch(_square, [3]) == [9]

    def test_empty_batch(self):
        with WorkerPool(2) as pool:
            assert pool.run_batch(_square, []) == []

    def test_pool_reused_across_batches(self):
        # The whole point: one fork, many stages.
        with WorkerPool(2) as pool:
            first = pool.run_batch(_square, [1, 2, 3])
            second = pool.run_batch(_square, [4, 5, 6])
        assert first == [1, 4, 9]
        assert second == [16, 25, 36]

    def test_labels_must_match_payloads(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError):
                pool.run_batch(_square, [1, 2], labels=["only-one"])

    def test_task_exception_reaches_parent(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="boom on two"):
                pool.run_batch(_fail_on_two, [0, 1, 2, 3])
            # A failing *task* does not kill its worker; the pool
            # stays usable for the caller to decide what to do.
            assert not pool.closed
            assert pool.run_batch(_square, [5]) == [25]

    def test_failed_batch_leaves_no_stale_results(self):
        # Regression: a failing task raised while a sibling task was
        # still running, whose result then sat in its worker's pipe and
        # was read as a result of the next batch.
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="boom on two"):
                pool.run_batch(_fail_on_two_while_three_runs, [0, 1, 2, 3])
            assert pool.run_batch(_square, [5, 6]) == [25, 36]


class TestCrashSafety:
    def test_dead_worker_raises_instead_of_hanging(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(WorkerCrashed, match="died"):
                pool.run_batch(_die, [1, 2])
            # A crash poisons the pool: it cannot be trusted further.
            assert pool.closed
            with pytest.raises(PoolClosed):
                pool.run_batch(_square, [1])
        finally:
            pool.close()

    def test_crash_during_broadcast_raises(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(WorkerCrashed):
                pool.broadcast(_die, None)
            assert pool.closed
        finally:
            pool.close()


class TestShutdown:
    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.close()
        pool.close()
        pool.close()
        assert pool.closed

    def test_use_after_close_raises(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(PoolClosed):
            pool.run_batch(_square, [1])
        with pytest.raises(PoolClosed):
            pool.broadcast(_install, 1)

    def test_context_manager_closes(self):
        with WorkerPool(2) as pool:
            assert not pool.closed
        assert pool.closed

    def test_workers_are_reaped(self):
        pool = WorkerPool(2)
        processes = list(pool._workers)
        pool.close()
        assert all(not p.is_alive() for p in processes)

    def test_minimum_width(self):
        with pytest.raises(ValueError):
            WorkerPool(1)

    def test_stop_opcode_is_distinct(self):
        # The stop opcode shares the task pipe; a clash with the task
        # opcode would shut workers down mid-batch.
        assert _OP_STOP != "task"


class TestBroadcast:
    def test_broadcast_installs_worker_local_state(self):
        with WorkerPool(2) as pool:
            acks = pool.broadcast(_install, {"payload": 42})
            assert acks == [True, True]
            # Every worker sees the installed state in later tasks.
            seen = pool.run_batch(_read_installed, [None] * 6)
            assert seen == [{"payload": 42}] * 6
        # The parent's module global never changed (worker-local).
        assert _INSTALLED is None


class TestCounterFolding:
    def test_pool_counters_match_serial(self):
        payloads = list(range(1, 7))
        serial = obs.Tracer()
        with obs.activate(serial):
            for value in payloads:
                _count(value)
        pooled = obs.Tracer()
        with obs.activate(pooled):
            # The pool inherits the active tracer at fork time, like
            # collectors inherit the world.
            with WorkerPool(3) as pool:
                pool.run_batch(_count, payloads)
        for name in ("pooltest.count", "pooltest.half"):
            s = serial.metrics.counter(name)
            p = pooled.metrics.counter(name)
            assert s == p
            assert type(s) is type(p)  # ints stay ints across the fork

    def test_worker_stats_recorded(self):
        tracer = obs.Tracer()
        with obs.activate(tracer):
            with WorkerPool(2) as pool:
                pool.run_batch(_square, list(range(8)))
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["fanout.tasks"] == 8
        assert counters["worker.0.tasks"] >= 1
