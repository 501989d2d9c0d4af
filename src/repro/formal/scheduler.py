"""Parallel, fault-tolerant discharge of SVA obligation graphs (the
execute half of plan/execute).

:class:`DischargeScheduler` walks an
:class:`repro.core.obligations.ObligationGraph` in topological batches:
every obligation whose dependencies are resolved forms the next batch,
gates (the section-6.2 relaxed-optimization fallbacks) are evaluated
against the verdicts collected so far, and the surviving obligations
are checked on one :class:`repro.resilience.pool.WorkerPool` that the
scheduler holds across all of its batches and rounds — inline for
``jobs=1`` (bit-for-bit the serial behavior), on ``jobs`` worker
processes otherwise.

Store-aware batching: with a :class:`repro.formal.cache.VerdictStore`
attached, every obligation is fingerprinted and probed *at plan time*
in the parent process, so only misses are ever submitted to the pool.
A stored refutation is served as it is: it carries no trace, and
nothing downstream of discharge reads one.

Workers are initialized once with the (picklable) :class:`SvaFactory`
and the raw :class:`PropertyChecker`; per-task payloads are just
``(builder-name, args, params)`` tuples, so the netlist crosses the
process boundary once per worker rather than once per obligation.
Workers return ``(verdict, stats_delta)`` so per-worker engine counters
(checks, SAT time) are merged back into the parent's statistics.  The
inline path decides the problem already built at plan time.

Fault tolerance is the pool's: a worker death, a hung check, a
simulated timeout (:class:`DischargeTimeout`), or a garbage verdict is
retried with bounded backoff on a rebuilt executor, and after
``max_retries`` failures the obligation runs inline in the parent — a
crashing worker can change the wall clock, never the synthesized model.
A :class:`repro.resilience.faults.FaultPlan` handed to the scheduler
(the fault-tolerance tests' harness) is fired by the pool at
plan-order task indices.  Checks that exhaust their own
wall-clock/conflict budgets return first-class UNKNOWN verdicts,
which downstream consumers treat conservatively.

Checkpointing: the store records each freshly decided verdict as the
pool finalizes it and is committed (fsynced, for the file backend)
once per batch and when discharge aborts, so an interrupt mid-batch
keeps every verdict already decided.  A re-run against the same store
serves them without re-executing anything.

Determinism: batches are formed and results are consumed in graph
insertion order regardless of completion order, so ``jobs=N`` produces
the same verdict map (and hence byte-identical synthesized models) as
``jobs=1`` — with or without injected faults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..errors import FormalError
from ..resilience.faults import FaultPlan
from ..resilience.pool import PoolStats, WorkerPool, resolve_jobs, \
    worker_state
from .cache import VerdictStore, problem_fingerprint
from .engine import VERDICT_STATUSES, CheckParams, PropertyChecker, Verdict


# ----------------------------------------------------------------------
# Worker-side task (top level: must be picklable / importable)
# ----------------------------------------------------------------------
def _worker_check(item) -> Tuple[Verdict, Dict[str, float]]:
    """Build one obligation's problem in the worker and decide it.

    ``item`` is ``(batch-index, builder, args, params)``; the index is
    for the parent's inline path only.  Returns the verdict together
    with the delta of the worker engine's statistics for this one
    check, so the parent can merge per-worker counters instead of
    silently dropping them.
    """
    from ..core.obligations import build_problem
    _, builder, args, params = item
    state = worker_state()
    problem = build_problem(state["factory"], builder, args)
    engine = state["engine"]
    before = dict(engine.stats)
    verdict = engine.check_problem(problem, params)
    delta = {key: value - before.get(key, 0)
             for key, value in engine.stats.items()}
    return verdict, delta


def _result_valid(result) -> bool:
    """Reject garbage from a misbehaving checker before it can poison
    the verdict map."""
    verdict = result[0] if isinstance(result, tuple) else None
    return (isinstance(verdict, Verdict)
            and verdict.status in VERDICT_STATUSES
            and isinstance(verdict.time_seconds, float)
            and verdict.time_seconds >= 0.0)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def _pool_counter(name: str) -> property:
    """A read-only view of one of the pool's :class:`PoolStats` counters."""
    return property(lambda self: getattr(self.pool, name))


@dataclass
class DischargeStats:
    """Counters for one scheduler's lifetime (all discharge rounds)."""

    jobs: int = 1
    planned: int = 0          # obligations seen across all graphs
    executed: int = 0         # SVAs actually evaluated
    skipped: int = 0          # gated out by the fallback chains
    deduplicated: int = 0     # hypotheses folded onto an existing signature
    cache_hits: int = 0       # verdicts served from the VerdictStore
    cache_misses: int = 0
    batches: int = 0          # topological waves executed
    rounds: int = 0           # discharge() calls
    unknowns: int = 0         # first-class UNKNOWN verdicts (budget hits)
    fingerprint_dedup: int = 0  # isomorphic problems served from a prior run
    #: module name -> {"executed": n, "dedupe": m} for share-base problems
    per_module: Dict[str, Dict[str, int]] = field(default_factory=dict)
    wall_seconds: float = 0.0
    check_seconds: float = 0.0  # sum of per-verdict times (CPU, not wall)
    #: the worker pool's own fault/recovery counters, read through the
    #: properties below
    pool: PoolStats = field(default_factory=PoolStats)

    pool_tasks = _pool_counter("pool_tasks")
    retries = _pool_counter("retries")
    worker_crashes = _pool_counter("worker_crashes")
    timeouts = _pool_counter("timeouts")
    garbage_verdicts = _pool_counter("garbage_results")
    inline_fallbacks = _pool_counter("inline_fallbacks")
    pool_rebuilds = _pool_counter("pool_rebuilds")

    def faults_observed(self) -> int:
        return self.pool.faults_observed()

    def summary(self) -> str:
        lines = [
            f"discharge: jobs={self.jobs}, {self.planned} obligations planned "
            f"in {self.rounds} round(s) / {self.batches} batch(es)",
            f"  executed {self.executed}, skipped {self.skipped} (fallback "
            f"gates), deduplicated {self.deduplicated}",
        ]
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"  verdict cache: {self.cache_hits} hits, "
                f"{self.cache_misses} misses")
        if self.faults_observed() or self.retries or self.inline_fallbacks:
            lines.append(
                f"  faults: {self.worker_crashes} worker crash(es), "
                f"{self.timeouts} timeout(s), {self.garbage_verdicts} garbage "
                f"verdict(s); {self.retries} retried, "
                f"{self.inline_fallbacks} inline fallback(s), "
                f"{self.pool_rebuilds} pool rebuild(s)")
        if self.unknowns:
            lines.append(f"  {self.unknowns} UNKNOWN verdict(s) "
                         "(budget exhausted; treated conservatively)")
        if self.fingerprint_dedup or self.per_module:
            detail = ", ".join(
                f"{module}: {counts.get('executed', 0)} executed / "
                f"{counts.get('dedupe', 0)} deduped"
                for module, counts in sorted(self.per_module.items()))
            lines.append(
                f"  module dedupe: {self.fingerprint_dedup} isomorphic "
                f"problem(s) served without a check ({detail})")
        lines.append(
            f"  wall {self.wall_seconds:.2f} s, checker time "
            f"{self.check_seconds:.2f} s, {self.pool_tasks} pool task(s)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class DischargeScheduler:
    """Executes obligation graphs against a property checker.

    ``checker`` is a :class:`PropertyChecker`; ``fault_plan`` (a
    :class:`FaultPlan`) is handed to the worker pool.  ``verdicts``
    attaches a :class:`VerdictStore`, probed at plan time and fed
    every fresh decided verdict.
    ``jobs<=0`` means ``os.cpu_count()``.

    Fault-tolerance knobs: ``timeout_seconds`` is the per-SVA
    wall-clock budget handed to each check (exhaustion = UNKNOWN);
    ``watchdog_seconds`` bounds how long the parent waits for a pool
    worker before declaring it hung and rebuilding the pool;
    ``max_retries`` bounds re-submissions per obligation before it
    falls back to inline execution; ``retry_backoff`` is the base of
    the exponential backoff between retry waves.
    """

    def __init__(self, checker: PropertyChecker, factory, jobs: int = 1,
                 verdicts: Optional[VerdictStore] = None,
                 timeout_seconds: Optional[float] = None,
                 watchdog_seconds: Optional[float] = None,
                 max_retries: int = 3,
                 retry_backoff: float = 0.05,
                 dedupe: bool = False,
                 fault_plan: Optional[FaultPlan] = None):
        self.jobs = resolve_jobs(jobs)
        self.factory = factory
        #: compose mode: fingerprint share-base problems at plan time and
        #: serve isomorphic repeats (N identical module instances) from
        #: the first instance's verdict instead of spawning a check
        self.dedupe = dedupe
        self._decided: Dict[str, Verdict] = {}
        self._engine = checker
        self._verdicts = verdicts
        self._params = CheckParams(timeout_seconds=timeout_seconds)
        self.stats = DischargeStats(jobs=self.jobs)
        self._workers = WorkerPool(
            self.jobs, {"factory": factory, "engine": self._engine},
            watchdog_seconds=watchdog_seconds, max_retries=max_retries,
            retry_backoff=retry_backoff, fault_plan=fault_plan,
            stats=self.stats.pool)
        #: deterministic execution index of the next fresh obligation
        self._task_counter = 0

    @property
    def max_retries(self) -> int:
        return self._workers.max_retries

    @property
    def _pool(self):
        """The worker pool's live executor (None until the first pooled
        batch, after a kill, and after :meth:`close`)."""
        return self._workers.executor

    # ------------------------------------------------------------------
    def discharge(self, graph, known: Optional[Dict[Tuple, Verdict]] = None
                  ) -> List[Tuple[object, Verdict]]:
        """Execute ``graph``; returns ``(obligation, verdict)`` pairs in
        deterministic (insertion-then-batch) order.

        ``known`` carries verdicts from earlier rounds: obligations
        whose signature is already decided are not re-executed, and
        gates may reference them.
        """
        start = time.perf_counter()
        known = dict(known) if known else {}
        # Verdicts visible to gates: prior rounds + this round so far.
        verdicts: Dict[Tuple, Verdict] = dict(known)
        resolved = set(known)
        results: List[Tuple[object, Verdict]] = []
        self.stats.rounds += 1
        self.stats.planned += len(graph)
        self.stats.deduplicated += graph.dedup_hits

        try:
            while True:
                batch = graph.ready(resolved)
                if not batch:
                    remaining = [sig for sig in graph.signatures()
                                 if sig not in resolved]
                    if remaining:
                        raise FormalError(
                            "obligation graph deadlock (dependency cycle?) "
                            f"on {remaining[:5]!r}")
                    break
                self.stats.batches += 1
                runnable = []
                from ..core.obligations import gate_allows
                for obligation in batch:
                    resolved.add(obligation.signature)
                    if obligation.signature in known:
                        continue
                    if gate_allows(obligation.gate, verdicts):
                        runnable.append(obligation)
                    else:
                        self.stats.skipped += 1
                for obligation, verdict in self._run_batch(runnable):
                    verdicts[obligation.signature] = verdict
                    results.append((obligation, verdict))
                    self.stats.executed += 1
                    self.stats.check_seconds += verdict.time_seconds
                    if verdict.unknown:
                        self.stats.unknowns += 1
                if self._verdicts is not None:
                    self._verdicts.commit()
        finally:
            # Checkpoint whatever completed, even when aborting mid-run
            # (deadlock, unrecoverable fault, KeyboardInterrupt).
            if self._verdicts is not None:
                self._verdicts.commit()
            self.stats.wall_seconds += time.perf_counter() - start
        return results

    # ------------------------------------------------------------------
    def _run_batch(self, batch) -> List[Tuple[object, Verdict]]:
        """Decide one wave of independent obligations."""
        if not batch:
            return []
        outcomes: List[Optional[Verdict]] = [None] * len(batch)
        to_run: List[int] = []
        problems: Dict[int, object] = {}
        fingerprints: Dict[int, str] = {}
        #: fingerprint -> primary index running it on behalf of followers
        dedupe_primary: Dict[str, int] = {}
        dedupe_followers: Dict[str, List[int]] = {}

        if self._verdicts is not None or self.dedupe:
            # Plan-time probes: isomorphic-problem dedupe, then the
            # verdict store; only misses are ever executed.
            for index, obligation in enumerate(batch):
                problem = obligation.build(self.factory)
                problems[index] = problem
                fingerprint = problem_fingerprint(
                    problem, self._engine.bound, self._engine.max_k)
                fingerprints[index] = fingerprint
                # Any two problems with equal fingerprints are the same
                # netlist + property: echo obligations over full-design
                # problems (resource states) dedupe exactly like module-
                # scoped ones do.
                if self.dedupe:
                    prior = self._decided.get(fingerprint)
                    if prior is not None:
                        outcomes[index] = replace(prior, name=problem.name)
                        self._count_dedupe(problem)
                        continue
                    if fingerprint in dedupe_primary:
                        dedupe_followers.setdefault(fingerprint, []).append(index)
                        self._count_dedupe(problem)
                        continue
                if self._verdicts is not None:
                    stored = self._verdicts.lookup(fingerprint)
                    if stored is not None:
                        stored.name = problem.name
                        outcomes[index] = stored
                        self.stats.cache_hits += 1
                        continue
                    self.stats.cache_misses += 1
                if self.dedupe:
                    dedupe_primary[fingerprint] = index
                to_run.append(index)
        else:
            to_run = list(range(len(batch)))

        # Deterministic execution indices: assigned in plan order, so a
        # fault plan names the same obligation at any job count.
        first_index = self._task_counter
        self._task_counter += len(to_run)
        if to_run:
            verdicts = self._run_pool(batch, to_run, problems, first_index,
                                      fingerprints)
            for index, verdict in zip(to_run, verdicts):
                outcomes[index] = verdict

        # Serve isomorphic followers from their primary's verdict, and
        # remember decided share-base fingerprints across batches so the
        # next wave of an identical module instance costs nothing.
        for fingerprint, follower_indices in dedupe_followers.items():
            primary = outcomes[dedupe_primary[fingerprint]]
            if primary is None:
                continue
            for follower in follower_indices:
                outcomes[follower] = replace(
                    primary, name=problems[follower].name)
        if self.dedupe:
            for index in to_run:
                verdict = outcomes[index]
                problem = problems.get(index)
                if verdict is None or problem is None:
                    continue
                self._count_executed(problem)
                if not verdict.unknown:
                    self._decided.setdefault(fingerprints[index], verdict)

        return [(obligation, outcomes[index])
                for index, obligation in enumerate(batch)
                if outcomes[index] is not None]

    # ------------------------------------------------------------------
    def _run_pool(self, batch, to_run: List[int], problems: Dict[int, object],
                  first_index: int, fingerprints: Dict[int, str]
                  ) -> List[Verdict]:
        """Decide ``batch[i]`` for each ``i`` in ``to_run`` on the worker
        pool (inline at ``jobs=1`` or for a single obligation).

        Workers rebuild each problem from its builder; the inline path
        and the pool's last-resort fallback reuse the problem built at
        plan time, if there is one.  Each decided verdict is recorded
        in the verdict store under ``fingerprints[i]`` as the pool
        finalizes it, so an interrupt keeps the ones delivered before
        it.
        """
        def inline(item) -> Tuple[Verdict, None]:
            index = item[0]
            problem = problems.get(index)
            if problem is None:
                problem = batch[index].build(self.factory)
            return self._engine.check_problem(problem, self._params), None

        items = [(index, batch[index].builder, batch[index].args,
                  self._params) for index in to_run]
        def record(position: int, result) -> None:
            verdict = result[0]
            # UNKNOWN is a budget artifact, not a fact about the design:
            # it never enters the store.
            if not verdict.unknown:
                self._verdicts.record(fingerprints[to_run[position]],
                                      verdict)

        results = self._workers.map(
            items, _worker_check, inline, first_index=first_index,
            validate=_result_valid,
            on_result=record if self._verdicts is not None else None)
        for _, delta in results:
            if delta is not None:
                self._merge_stats(delta)
        return [verdict for verdict, _ in results]

    def _merge_stats(self, delta: Dict[str, float]) -> None:
        for key, value in delta.items():
            self._engine.stats[key] = self._engine.stats.get(key, 0) + value

    # ------------------------------------------------------------------
    # Module-granularity dedupe accounting
    # ------------------------------------------------------------------
    def _module_counts(self, problem) -> Dict[str, int]:
        module = problem.netlist.name.split("$", 1)[0]
        return self.stats.per_module.setdefault(
            module, {"executed": 0, "dedupe": 0})

    def _count_dedupe(self, problem) -> None:
        self.stats.fingerprint_dedup += 1
        self._module_counts(problem)["dedupe"] += 1

    def _count_executed(self, problem) -> None:
        self._module_counts(problem)["executed"] += 1

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._workers.close()

    def __enter__(self) -> "DischargeScheduler":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
