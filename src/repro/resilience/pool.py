"""Worker-pool lifecycle with crash/hang recovery and inline fallback.

This is the repo's one process pool.  The SVA discharge scheduler
(:mod:`repro.formal.scheduler`) holds one :class:`WorkerPool` across
every batch and round of a synthesis run; the Check layer's suite runs
and sweeps map over a one-shot pool through :func:`run_tasks`.  The
(picklable) shared state crosses the process boundary once per worker
via the pool initializer, per-task payloads are just the items, and
results are consumed in item order so ``jobs=N`` output is identical
to ``jobs=1``.

Fault tolerance: a dead worker (``BrokenProcessPool``), a hung task
(watchdog timeout on the future), a simulated timeout
(:class:`repro.errors.DischargeTimeout`), or an invalid result never
aborts the run — the task is retried in bounded waves with exponential
backoff on a rebuilt executor, and after ``max_retries`` failures it
runs inline in the parent process.  Real task errors (``CheckError``
etc.) are *not* swallowed; they re-raise exactly as the serial path
would.

Fault injection has one site, too: a
:class:`repro.resilience.faults.FaultPlan` attached to the pool fires
in :func:`_worker_entry`, keyed by the task's index (``first_index``
plus the item's position) and attempt.  Kills, hangs and garbage run
at the task site — in the worker, or inline in the parent, where a
kill raises :class:`repro.errors.WorkerCrashError` instead of killing
the process — and interrupts are raised in the parent at the exact
point the task's result would be consumed.
``KeyboardInterrupt`` — real or injected — hard-kills the executor
before propagating, so a Ctrl-C never leaves orphaned workers behind;
results already delivered to ``on_result`` (e.g. a journal) survive the
interrupt.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, TypeVar)

from ..errors import DischargeTimeout, ResilienceError, WorkerCrashError
from .backoff import BackoffSchedule
from .faults import GARBAGE, HANG, INTERRUPT, KILL, FaultPlan

Item = TypeVar("Item")
Result = TypeVar("Result")

#: pool-infrastructure failures that trigger retry / inline fallback
_POOL_FAILURES = (BrokenProcessPool, BrokenExecutor, OSError)
#: task-raised exceptions that mark one task as failed-but-retryable
_RETRYABLE = (DischargeTimeout, WorkerCrashError)
#: marker a worker returns for an injected garbage result
GARBAGE_RESULT = "__repro-garbage-result__"

# Worker-process state installed once by the pool initializer.
_WORKER_STATE: Dict[str, object] = {}


def resolve_jobs(jobs: Optional[int]) -> int:
    """The repo-wide jobs convention: ``jobs<=0`` (or ``None``) means
    all cores, ``1`` means serial/inline, ``N>1`` means N workers."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def worker_state() -> Dict[str, object]:
    """The per-process state dict (filled by the pool initializer)."""
    return _WORKER_STATE


def _pool_initializer(state: Dict[str, object]) -> None:
    """Install ``state`` as this worker's :func:`worker_state`."""
    # Workers must not inherit the parent CLI's signal handlers: pool
    # teardown SIGTERMs them, and an inherited SIGTERM→KeyboardInterrupt
    # handler would spray tracebacks instead of dying quietly.  The
    # parent owns interrupt handling; workers just terminate.
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    _WORKER_STATE.clear()
    _WORKER_STATE.update(state)
    _WORKER_STATE["in_worker"] = True


def _worker_entry(task, item, index: int, attempt: int,
                  plan: Optional[FaultPlan]):
    """Run one task (in a worker or inline), executing any planned
    fault first."""
    fault = plan.fault_for(index, attempt) if plan is not None else None
    if fault == KILL:
        if not plan.soft and _WORKER_STATE.get("in_worker"):
            os._exit(43)  # hard death: parent sees BrokenProcessPool
        raise WorkerCrashError(
            f"injected kill at task {index} attempt {attempt}")
    if fault == HANG:
        raise DischargeTimeout(
            f"injected hang at task {index} attempt {attempt}")
    if fault == GARBAGE:
        return GARBAGE_RESULT
    # INTERRUPT is a parent-side fault: the worker computes normally and
    # the parent raises before consuming the result.  SLOW is honoured
    # by the serve fleet only.
    return task(item)


@dataclass
class PoolStats:
    """Fault/recovery counters for one :func:`run_tasks` call or one
    :class:`WorkerPool`'s lifetime (or an object shared across them)."""

    jobs: int = 1
    tasks: int = 0            # items executed (pool or inline)
    pool_tasks: int = 0       # submissions that crossed the process boundary
    retries: int = 0          # re-submissions after a recoverable failure
    worker_crashes: int = 0   # dead workers / broken pools observed
    timeouts: int = 0         # watchdog or simulated task timeouts
    garbage_results: int = 0  # invalid results rejected by validation
    inline_fallbacks: int = 0  # tasks that fell back to the parent
    pool_rebuilds: int = 0    # fresh pools built after a kill (backoff paid)

    def faults_observed(self) -> int:
        return self.worker_crashes + self.timeouts + self.garbage_results

    def summary(self) -> str:
        return (f"pool: jobs={self.jobs}, {self.tasks} task(s) "
                f"({self.pool_tasks} pooled); faults: "
                f"{self.worker_crashes} crash(es), {self.timeouts} "
                f"timeout(s), {self.garbage_results} garbage; "
                f"{self.retries} retried, {self.inline_fallbacks} inline "
                f"fallback(s), {self.pool_rebuilds} pool rebuild(s)")


def run_tasks(items: Sequence[Item], task: Callable[[Item], Result],
              inline: Callable[[Item], Result], jobs: int,
              state: Dict[str, object], *,
              watchdog_seconds: Optional[float] = None,
              max_retries: int = 3,
              retry_backoff: float = 0.05,
              fault_plan: Optional[FaultPlan] = None,
              validate: Optional[Callable[[Result], bool]] = None,
              on_result: Optional[Callable[[int, Result], None]] = None,
              stats: Optional[PoolStats] = None) -> List[Result]:
    """Map ``task`` over ``items`` deterministically, surviving faults,
    on a one-shot :class:`WorkerPool` of at most ``len(items)`` workers
    (see :meth:`WorkerPool.map`)."""
    jobs = resolve_jobs(jobs)
    stats = stats if stats is not None else PoolStats()
    stats.jobs = max(stats.jobs, jobs)
    with WorkerPool(min(jobs, len(items)), state,
                    watchdog_seconds=watchdog_seconds,
                    max_retries=max_retries, retry_backoff=retry_backoff,
                    fault_plan=fault_plan, stats=stats) as pool:
        return pool.map(items, task, inline, validate=validate,
                        on_result=on_result)


class _Map(NamedTuple):
    """One :meth:`WorkerPool.map` call's inputs."""

    items: Sequence
    task: Callable
    inline: Callable
    first_index: int
    validate: Optional[Callable]
    finish: Callable[[int, object], None]


class WorkerPool:
    """A process pool that owns one executor for its whole lifetime.

    ``task`` functions run in workers against :func:`worker_state`,
    filled once per worker from ``state``.  The executor is built on
    the first pooled :meth:`map` and reused by every later one; a crash
    or hang kills it, and the next submission rebuilds it after a
    capped backoff.  ``jobs<=1`` never builds one.  The pool is a
    context manager; :meth:`close` shuts the executor down.
    """

    def __init__(self, jobs: int, state: Dict[str, object], *,
                 watchdog_seconds: Optional[float] = None,
                 max_retries: int = 3,
                 retry_backoff: float = 0.05,
                 fault_plan: Optional[FaultPlan] = None,
                 stats: Optional[PoolStats] = None):
        self.jobs = jobs
        self.state = state
        self.watchdog_seconds = watchdog_seconds
        self.max_retries = max(0, max_retries)
        self.plan = fault_plan
        self.stats = stats if stats is not None else PoolStats()
        self.schedule = BackoffSchedule(base=retry_backoff)
        #: the live executor, or None (not built yet, killed, or closed)
        self.executor: Optional[ProcessPoolExecutor] = None
        self._executor_was_killed = False
        self._consecutive_rebuilds = 0

    def map(self, items: Sequence[Item], task: Callable[[Item], Result],
            inline: Callable[[Item], Result], first_index: int = 0,
            validate: Optional[Callable[[Result], bool]] = None,
            on_result: Optional[Callable[[int, Result], None]] = None
            ) -> List[Result]:
        """Map ``task`` over ``items``; results are in item order.

        ``inline`` computes the same result in the parent: it is the
        path for ``jobs<=1`` or a single item, and the last-resort
        fallback when the pool keeps failing.  Item ``i`` is fault-plan
        task ``first_index + i``.  ``validate`` rejects malformed
        results (they are retried like crashes); ``on_result`` fires
        once per item as its result is finalized — under an interrupt,
        results already delivered are the checkpointed prefix.
        """
        results: List[Optional[Result]] = [None] * len(items)

        def finish(index: int, result: Result) -> None:
            results[index] = result
            self.stats.tasks += 1
            if on_result is not None:
                on_result(index, result)

        call = _Map(items, task, inline, first_index, validate, finish)
        try:
            if self.jobs <= 1 or len(items) <= 1:
                for index, item in enumerate(items):
                    self._maybe_interrupt(first_index + index, 0)
                    finish(index, self._run_inline(call, index, 0))
            else:
                self._run_pool(call)
        except KeyboardInterrupt:
            self._kill_pool()
            raise
        return results

    def _valid(self, call: _Map, result) -> bool:
        if isinstance(result, str) and result == GARBAGE_RESULT:
            return False
        return call.validate is None or call.validate(result)

    def _maybe_interrupt(self, site: int, attempt: int) -> None:
        if self.plan is not None and \
                self.plan.fault_for(site, attempt) == INTERRUPT:
            raise KeyboardInterrupt(
                f"injected interrupt at task {site} attempt {attempt}")

    # ------------------------------------------------------------------
    # Inline execution (jobs=1 and the pool's last-resort fallback)
    # ------------------------------------------------------------------
    def _run_inline(self, call: _Map, index: int, start_attempt: int):
        """Decide one item in-process with the same retry policy as the
        pool path (kill/hang injections raise here instead of killing
        a worker; persistent faults eventually propagate)."""
        site = call.first_index + index
        attempt = start_attempt
        while True:
            try:
                result = _worker_entry(call.inline, call.items[index], site,
                                       attempt, self.plan)
            except _RETRYABLE as exc:
                self._count_failure(exc)
                if attempt - start_attempt >= self.max_retries:
                    raise
                self.stats.retries += 1
                attempt += 1
                self._backoff(attempt - start_attempt)
                continue
            if self._valid(call, result):
                return result
            self.stats.garbage_results += 1
            if attempt - start_attempt >= self.max_retries:
                raise ResilienceError(
                    f"task {site} returned an invalid result after "
                    f"{attempt - start_attempt + 1} attempt(s)")
            self.stats.retries += 1
            attempt += 1
            self._backoff(attempt - start_attempt)

    def _count_failure(self, exc: Exception) -> None:
        if isinstance(exc, DischargeTimeout):
            self.stats.timeouts += 1
        else:
            self.stats.worker_crashes += 1

    def _backoff(self, wave: int) -> None:
        time.sleep(self.schedule.delay(wave))

    # ------------------------------------------------------------------
    # Pool execution with crash/timeout/garbage recovery
    # ------------------------------------------------------------------
    def _run_pool(self, call: _Map) -> None:
        pending: List[Tuple[int, int]] = [(i, 0) for i in range(len(call.items))]
        wave = 0
        while pending:
            futures = self._submit_wave(call, pending)
            failed: List[Tuple[int, int]] = []
            pool_broken = False
            for (index, attempt), future in zip(pending, futures):
                if future is None:  # submission itself hit a broken pool
                    pool_broken = True
                    failed.append((index, attempt))
                    continue
                try:
                    result = future.result(timeout=self.watchdog_seconds)
                except _POOL_FAILURES:
                    self.stats.worker_crashes += 1
                    pool_broken = True
                    failed.append((index, attempt))
                    continue
                except FuturesTimeout:
                    # The worker is hung: the pool must be torn down to
                    # kill it, which invalidates this wave's siblings
                    # too (they resurface as BrokenProcessPool above).
                    self.stats.timeouts += 1
                    pool_broken = True
                    failed.append((index, attempt))
                    continue
                except _RETRYABLE as exc:
                    self._count_failure(exc)
                    failed.append((index, attempt))
                    continue
                if not self._valid(call, result):
                    self.stats.garbage_results += 1
                    failed.append((index, attempt))
                    continue
                self._maybe_interrupt(call.first_index + index, attempt)
                call.finish(index, result)
            if pool_broken:
                self._kill_pool()
            else:
                # A wave that consumed results without breaking the pool
                # resets the rebuild backoff (the fleet is healthy again).
                self._consecutive_rebuilds = 0
            pending = []
            for index, attempt in failed:
                if attempt >= self.max_retries:
                    self.stats.inline_fallbacks += 1
                    self._maybe_interrupt(call.first_index + index,
                                          attempt + 1)
                    call.finish(index,
                                self._run_inline(call, index, attempt + 1))
                else:
                    self.stats.retries += 1
                    pending.append((index, attempt + 1))
            if pending:
                wave += 1
                self._backoff(wave)

    def _submit_wave(self, call: _Map, pending: List[Tuple[int, int]]):
        """Submit one retry wave; a broken pool during submission marks
        the remaining entries as failed rather than raising."""
        futures = []
        for index, attempt in pending:
            try:
                executor = self._ensure_pool()
                futures.append(executor.submit(
                    _worker_entry, call.task, call.items[index],
                    call.first_index + index, attempt, self.plan))
                self.stats.pool_tasks += 1
            except _POOL_FAILURES:
                self.stats.worker_crashes += 1
                self._kill_pool()
                futures.append(None)
        return futures

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self.executor is None:
            if self._executor_was_killed:
                # Rebuilding after a crash/hang: pay a deterministic
                # capped exponential delay so a persistently dying pool
                # cannot spin through rebuilds at full speed.
                self._consecutive_rebuilds += 1
                self.stats.pool_rebuilds += 1
                time.sleep(self.schedule.delay(self._consecutive_rebuilds))
            self.executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_pool_initializer, initargs=(self.state,))
        return self.executor

    def _kill_pool(self) -> None:
        """Tear the executor down hard (terminate workers) so a hung or
        crashed worker cannot outlive its wave; the next submission
        rebuilds a fresh one (after a capped backoff delay)."""
        self._executor_was_killed = True
        if self.executor is None:
            return
        processes = getattr(self.executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):
                pass
        self.executor.shutdown(wait=False)
        self.executor = None

    def close(self) -> None:
        """Shut the executor down, waiting for its workers (idempotent)."""
        if self.executor is not None:
            self.executor.shutdown(wait=True)
            self.executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
