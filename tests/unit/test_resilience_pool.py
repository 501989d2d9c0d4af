"""Unit tests for the shared resilience layer: budgets, pool, faults."""

import time

import pytest

from repro.errors import CheckError, DischargeTimeout, ResilienceError, \
    WorkerCrashError
from repro.resilience import (
    CRASH,
    DECIDED,
    GARBAGE,
    HANG,
    INTERRUPT,
    TIMEOUT,
    UNDECIDED_STATUSES,
    UNKNOWN,
    Budget,
    FaultPlan,
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
        plan = FaultPlan(crashes=frozenset({0}), hangs=frozenset({2}),
                         hard_crashes=False)
        stats = PoolStats()
        out = run_tasks([1, 2, 3], _double, _double, 1, {},
                        fault_plan=plan, stats=stats)
        assert out == [2, 4, 6]
        assert stats.worker_crashes == 1
        assert stats.timeouts == 1
        assert stats.retries == 2

    def test_persistent_fault_propagates(self):
        plan = FaultPlan(hangs=frozenset({1}), attempts=99)
        with pytest.raises(DischargeTimeout):
            run_tasks([1, 2], _double, _double, 1, {},
                      fault_plan=plan, max_retries=2, retry_backoff=0.001)

    def test_persistent_crash_propagates(self):
        plan = FaultPlan(crashes=frozenset({0}), attempts=99,
                         hard_crashes=False)
        with pytest.raises(WorkerCrashError):
            run_tasks([1], _double, _double, 1, {},
                      fault_plan=plan, max_retries=1, retry_backoff=0.001)

    def test_garbage_is_rejected_and_retried(self):
        plan = FaultPlan(garbage=frozenset({1}))
        stats = PoolStats()
        out = run_tasks([1, 2, 3], _double, _double, 1, {},
                        fault_plan=plan, stats=stats, retry_backoff=0.001)
        assert out == [2, 4, 6]
        assert stats.garbage_results == 1

    def test_persistent_garbage_raises_resilience_error(self):
        plan = FaultPlan(garbage=frozenset({0}), attempts=99)
        with pytest.raises(ResilienceError):
            run_tasks([1], _double, _double, 1, {},
                      fault_plan=plan, max_retries=1, retry_backoff=0.001)

    def test_validation_hook(self):
        with pytest.raises(ResilienceError):
            run_tasks([1], _double, _double, 1, {},
                      validate=lambda r: r > 100, max_retries=0)

    def test_interrupt_fires_before_the_item(self):
        plan = FaultPlan(interrupts=frozenset({2}))
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
        plan = FaultPlan(crashes=frozenset({3}), attempts=2)
        assert plan.fault_for(3, 0) == CRASH
        assert plan.fault_for(3, 1) == CRASH
        assert plan.fault_for(3, 2) is None
        assert plan.fault_for(4, 0) is None

    def test_sites(self):
        plan = FaultPlan(crashes=frozenset({1}), hangs=frozenset({2}),
                         garbage=frozenset({3}), interrupts=frozenset({4}))
        assert plan.sites() == frozenset({1, 2, 3, 4})


class TestParseFaultSpec:
    def test_empty_is_none(self):
        assert parse_fault_spec("") is None
        assert parse_fault_spec("   ") is None

    def test_full_spec(self):
        plan = parse_fault_spec(
            "crash:0,hang:3,garbage:2,interrupt:5,attempts=2,soft")
        assert plan.crashes == frozenset({0})
        assert plan.hangs == frozenset({3})
        assert plan.garbage == frozenset({2})
        assert plan.interrupts == frozenset({5})
        assert plan.attempts == 2
        assert plan.hard_crashes is False

    def test_bad_kind_raises(self):
        with pytest.raises(CheckError):
            parse_fault_spec("explode:1")

    def test_bad_index_raises(self):
        with pytest.raises(CheckError):
            parse_fault_spec("crash:xyz")

    def test_bad_attempts_raises(self):
        with pytest.raises(CheckError):
            parse_fault_spec("attempts=often")

    def test_kind_constants_round_trip(self):
        plan = parse_fault_spec("hang:7")
        assert plan.fault_for(7, 0) == HANG
        assert parse_fault_spec("interrupt:1").fault_for(1, 0) == INTERRUPT
        assert parse_fault_spec("garbage:1").fault_for(1, 0) == GARBAGE


class TestPoolRebuilds:
    def test_hard_crash_rebuild_is_counted(self):
        # A real worker death (os._exit) breaks the ProcessPoolExecutor;
        # the wave retry must rebuild it and say so in the stats.
        plan = FaultPlan(crashes=frozenset({0}), hard_crashes=True)
        stats = PoolStats()
        out = run_tasks([1, 2], _double, _double, 2, {},
                        fault_plan=plan, stats=stats, retry_backoff=0.001)
        assert out == [2, 4]
        assert stats.pool_rebuilds >= 1
        assert "pool rebuild(s)" in stats.summary()

    def test_serial_crashes_never_rebuild(self):
        plan = FaultPlan(crashes=frozenset({0}), hard_crashes=False)
        stats = PoolStats()
        run_tasks([1, 2], _double, _double, 1, {},
                  fault_plan=plan, stats=stats, retry_backoff=0.001)
        assert stats.pool_rebuilds == 0

    def test_serial_hard_crashes_are_raised_not_fatal(self):
        # hard_crashes kills pool workers only: inline, in this process,
        # the crash raises, is retried, and the map completes.
        plan = FaultPlan(crashes=frozenset({0}), hard_crashes=True)
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
        plan = FaultPlan(crashes=frozenset({5}), hard_crashes=False)
        pool = WorkerPool(1, {}, fault_plan=plan, retry_backoff=0.0)
        assert pool.map([1, 2], _double, _double) == [2, 4]
        assert pool.stats.worker_crashes == 0
        assert pool.map([3, 4], _double, _double, first_index=4) == [6, 8]
        assert pool.stats.worker_crashes == 1
