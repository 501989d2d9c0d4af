"""Unit tests for the shared resilience layer: budgets, pool, faults."""

import time

import pytest

from repro.errors import DischargeTimeout, ResilienceError, WorkerCrashError
from repro.resilience import (
    DECIDED,
    GARBAGE,
    HANG,
    INTERRUPT,
    KILL,
    TIMEOUT,
    UNDECIDED_STATUSES,
    UNKNOWN,
    Budget,
    PoolStats,
    parse_fault_spec,
    resolve_jobs,
    run_tasks,
)
from repro.resilience.pool import WorkerPool


class TestBudget:
    def test_empty_budget_is_falsy(self):
        assert not Budget()
        assert Budget(timeout_seconds=1.0)
        assert Budget(max_conflicts=100)

    def test_clock_expiry(self):
        clock = Budget(timeout_seconds=0.0).start()
        assert clock.expired()
        assert clock.degraded_status() == TIMEOUT
        roomy = Budget(timeout_seconds=60.0).start()
        assert not roomy.expired()

    def test_solve_args(self):
        clock = Budget(timeout_seconds=60.0, max_conflicts=500).start()
        args = clock.solve_args()
        assert args["max_conflicts"] == 500
        assert args["deadline"] > time.perf_counter()
        assert Budget().start().solve_args() == {}

    def test_conflict_only_budget_degrades_to_unknown(self):
        clock = Budget(max_conflicts=10).start()
        assert not clock.expired()
        assert clock.degraded_status() == UNKNOWN

    def test_status_vocabulary(self):
        assert DECIDED not in UNDECIDED_STATUSES
        assert TIMEOUT in UNDECIDED_STATUSES
        assert UNKNOWN in UNDECIDED_STATUSES


class TestResolveJobs:
    def test_convention(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-3) >= 1
        assert resolve_jobs(None) >= 1


def _double(x):
    return x * 2


class TestRunTasksInline:
    def test_plain_map(self):
        out = run_tasks([1, 2, 3], _double, _double, 1, {})
        assert out == [2, 4, 6]

    def test_transient_faults_are_retried(self):
        plan = parse_fault_spec("kill:0,hang:2,soft")
        stats = PoolStats()
        out = run_tasks([1, 2, 3], _double, _double, 1, {},
                        fault_plan=plan, stats=stats)
        assert out == [2, 4, 6]
        assert stats.worker_crashes == 1
        assert stats.timeouts == 1
        assert stats.retries == 2

    def test_persistent_fault_propagates(self):
        plan = parse_fault_spec("hang:1,attempts=99")
        with pytest.raises(DischargeTimeout):
            run_tasks([1, 2], _double, _double, 1, {},
                      fault_plan=plan, max_retries=2, retry_backoff=0.001)

    def test_persistent_crash_propagates(self):
        plan = parse_fault_spec("kill:0,attempts=99,soft")
        with pytest.raises(WorkerCrashError):
            run_tasks([1], _double, _double, 1, {},
                      fault_plan=plan, max_retries=1, retry_backoff=0.001)

    def test_garbage_is_rejected_and_retried(self):
        plan = parse_fault_spec("garbage:1")
        stats = PoolStats()
        out = run_tasks([1, 2, 3], _double, _double, 1, {},
                        fault_plan=plan, stats=stats, retry_backoff=0.001)
        assert out == [2, 4, 6]
        assert stats.garbage_results == 1

    def test_persistent_garbage_raises_resilience_error(self):
        plan = parse_fault_spec("garbage:0,attempts=99")
        with pytest.raises(ResilienceError):
            run_tasks([1], _double, _double, 1, {},
                      fault_plan=plan, max_retries=1, retry_backoff=0.001)

    def test_validation_hook(self):
        with pytest.raises(ResilienceError):
            run_tasks([1], _double, _double, 1, {},
                      validate=lambda r: r > 100, max_retries=0)

    def test_interrupt_fires_before_the_item(self):
        plan = parse_fault_spec("interrupt:2")
        delivered = []
        with pytest.raises(KeyboardInterrupt):
            run_tasks([1, 2, 3, 4], _double, _double, 1, {},
                      fault_plan=plan,
                      on_result=lambda i, r: delivered.append((i, r)))
        assert delivered == [(0, 2), (1, 4)]

    def test_on_result_sees_index_order(self):
        seen = []
        run_tasks([5, 6], _double, _double, 1, {},
                  on_result=lambda i, r: seen.append(i))
        assert seen == [0, 1]


class TestFaultPlan:
    def test_fault_for_attempts(self):
        plan = parse_fault_spec("kill:3,attempts=2")
        assert plan.fault_for(3, 0) == KILL
        assert plan.fault_for(3, 1) == KILL
        assert plan.fault_for(3, 2) is None
        assert plan.fault_for(4, 0) is None

    def test_sites(self):
        plan = parse_fault_spec("kill:1,hang:2,garbage:3,interrupt:4")
        assert {site for site in range(10)
                if plan.fault_for(site, 0)} == {1, 2, 3, 4}


class TestParseFaultSpec:
    def test_empty_is_none(self):
        assert parse_fault_spec("") is None
        assert parse_fault_spec("   ") is None

    def test_full_spec(self):
        plan = parse_fault_spec(
            "kill:0,hang:3,garbage:2,interrupt:5,attempts=2,soft")
        assert [plan.fault_for(site, 1) for site in range(6)] == \
            [KILL, None, GARBAGE, HANG, None, INTERRUPT]
        assert plan.fault_for(0, 2) is None
        assert plan.soft is True

    def test_bad_kind_raises(self):
        with pytest.raises(ResilienceError):
            parse_fault_spec("explode:1")

    def test_bad_index_raises(self):
        with pytest.raises(ResilienceError):
            parse_fault_spec("kill:xyz")

    def test_kind_constants_round_trip(self):
        plan = parse_fault_spec("hang:7")
        assert plan.fault_for(7, 0) == HANG
        assert parse_fault_spec("interrupt:1").fault_for(1, 0) == INTERRUPT
        assert parse_fault_spec("garbage:1").fault_for(1, 0) == GARBAGE


class TestPoolRebuilds:
    def test_hard_crash_rebuild_is_counted(self):
        # A real worker death (os._exit) breaks the ProcessPoolExecutor;
        # the wave retry must rebuild it and say so in the stats.
        plan = parse_fault_spec("kill:0")
        stats = PoolStats()
        out = run_tasks([1, 2], _double, _double, 2, {},
                        fault_plan=plan, stats=stats, retry_backoff=0.001)
        assert out == [2, 4]
        assert stats.pool_rebuilds >= 1
        assert "pool rebuild(s)" in stats.summary()

    def test_serial_crashes_never_rebuild(self):
        plan = parse_fault_spec("kill:0,soft")
        stats = PoolStats()
        run_tasks([1, 2], _double, _double, 1, {},
                  fault_plan=plan, stats=stats, retry_backoff=0.001)
        assert stats.pool_rebuilds == 0

    def test_serial_hard_crashes_are_raised_not_fatal(self):
        # A hard kill kills pool workers only: inline, in this process,
        # the crash raises, is retried, and the map completes.
        plan = parse_fault_spec("kill:0")
        stats = PoolStats()
        out = run_tasks([1, 2], _double, _double, 1, {},
                        fault_plan=plan, stats=stats, retry_backoff=0.001)
        assert out == [2, 4]
        assert stats.worker_crashes == 1
        assert stats.retries == 1
        assert stats.pool_rebuilds == 0

    def test_clean_pool_run_has_no_rebuilds(self):
        stats = PoolStats()
        out = run_tasks([1, 2, 3], _double, _double, 2, {}, stats=stats)
        assert out == [2, 4, 6]
        assert stats.pool_rebuilds == 0
        assert "0 pool rebuild(s)" in stats.summary()


def _pid(_item):
    import os
    return os.getpid()


class TestWorkerPoolPersistence:
    def test_maps_share_one_executor(self):
        import multiprocessing
        with WorkerPool(2, {}) as pool:
            first = pool.map([1, 2, 3, 4], _pid, _pid)
            executor = pool.executor
            workers = set(executor._processes)
            second = pool.map([5, 6, 7, 8], _pid, _pid, first_index=4)
            # the same executor and the same two worker processes
            assert pool.executor is executor
            assert set(executor._processes) == workers
            assert len(workers) == 2
            assert set(first) <= workers and set(second) <= workers
        assert pool.stats.pool_rebuilds == 0
        assert pool.stats.pool_tasks == 8
        assert pool.executor is None
        assert multiprocessing.active_children() == []

    def test_first_index_keys_the_fault_plan(self):
        plan = parse_fault_spec("kill:5,soft")
        pool = WorkerPool(1, {}, fault_plan=plan, retry_backoff=0.0)
        assert pool.map([1, 2], _double, _double) == [2, 4]
        assert pool.stats.worker_crashes == 0
        assert pool.map([3, 4], _double, _double, first_index=4) == [6, 8]
        assert pool.stats.worker_crashes == 1
