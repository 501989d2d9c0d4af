"""Deterministic fault injection, generalized beyond the formal layer.

Fault-tolerance machinery — pool rebuilds, bounded retries, watchdog
timeouts, garbage-result validation, interrupt checkpointing — is only
trustworthy if it can be *proven* not to change results.  The proof
harness is a :class:`FaultPlan`: a picklable schedule of failures keyed
by a task's deterministic execution index (assigned in plan/submission
order, identical across job counts) and its retry ``attempt`` number.
A plan fires in one place, the task site of the worker pool
(:mod:`repro.resilience.pool`), for the discharge scheduler and the
Check layer alike.

Four fault kinds cover the recovery paths:

* ``crash`` — the worker process dies (``os._exit``) so the parent
  observes a real ``BrokenProcessPool``; on inline paths the same
  schedule raises :class:`repro.errors.WorkerCrashError` instead.
* ``hang`` — a simulated wall-clock timeout: raises
  :class:`repro.errors.DischargeTimeout` (avoiding real multi-second
  sleeps in tests), which pool consumers treat exactly like a watchdog
  firing.
* ``garbage`` — the task yields a malformed result that validation
  must reject and retry.
* ``interrupt`` — a simulated Ctrl-C: ``KeyboardInterrupt`` is raised
  in the *parent* when the task's result would be consumed, exercising
  the checkpoint-and-resume path deterministically (a real SIGINT can
  land anywhere; the plan pins it between two results).

By default a site faults only on attempt 0 (``attempts=1``), so the
first retry succeeds and a faulted run must converge to the
byte-identical fault-free output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Optional

from ..errors import CheckError

CRASH = "crash"
HANG = "hang"
GARBAGE = "garbage"
INTERRUPT = "interrupt"

FAULT_KINDS = (CRASH, HANG, GARBAGE, INTERRUPT)


@dataclass(frozen=True)
class FaultPlan:
    """A picklable, fully deterministic fault schedule.

    ``crashes`` / ``hangs`` / ``garbage`` / ``interrupts`` are sets of
    task execution indices.  A listed site misbehaves on attempts
    ``0..attempts-1`` and behaves normally from attempt ``attempts``
    on; set ``attempts`` beyond the consumer's retry budget to model a
    *persistent* fault.  ``hard_crashes`` selects real worker death
    (``os._exit``) over a raised
    :class:`~repro.errors.WorkerCrashError` when running inside a pool
    worker.
    """

    crashes: FrozenSet[int] = frozenset()
    hangs: FrozenSet[int] = frozenset()
    garbage: FrozenSet[int] = frozenset()
    interrupts: FrozenSet[int] = frozenset()
    attempts: int = 1
    hard_crashes: bool = True

    def fault_for(self, index: int, attempt: int) -> Optional[str]:
        if index < 0 or attempt >= self.attempts:
            return None
        if index in self.crashes:
            return CRASH
        if index in self.hangs:
            return HANG
        if index in self.garbage:
            return GARBAGE
        if index in self.interrupts:
            return INTERRUPT
        return None

    def sites(self) -> FrozenSet[int]:
        return self.crashes | self.hangs | self.garbage | self.interrupts

    def shifted(self, offset: int) -> "FaultPlan":
        """The plan as seen by a run whose task 0 is this plan's task
        ``offset`` (one chunk of a longer run); earlier sites drop."""
        def shift(sites: FrozenSet[int]) -> FrozenSet[int]:
            return frozenset(site - offset for site in sites
                             if site >= offset)
        return replace(self, crashes=shift(self.crashes),
                       hangs=shift(self.hangs),
                       garbage=shift(self.garbage),
                       interrupts=shift(self.interrupts))


def parse_fault_spec(spec: str) -> Optional[FaultPlan]:
    """Parse the CLI's ``--inject-faults`` testing-harness syntax.

    ``spec`` is a comma-separated list of ``kind:index`` sites —
    ``crash:0,hang:3,garbage:2,interrupt:5`` — plus optional modifier
    tokens: ``attempts=N`` (fault on the first N attempts; default 1,
    i.e. transient) and ``soft`` (crashes raise instead of killing the
    worker process).  An empty spec yields ``None`` (no injection).
    """
    spec = spec.strip()
    if not spec:
        return None
    sites = {kind: set() for kind in FAULT_KINDS}
    attempts = 1
    hard_crashes = True
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "soft":
            hard_crashes = False
            continue
        if token.startswith("attempts="):
            try:
                attempts = int(token.split("=", 1)[1])
            except ValueError:
                raise CheckError(f"bad fault-spec token {token!r}")
            continue
        kind, _, index = token.partition(":")
        if kind not in sites or not index:
            raise CheckError(
                f"bad fault-spec token {token!r} (expected kind:index with "
                f"kind in {FAULT_KINDS}, 'attempts=N', or 'soft')")
        try:
            sites[kind].add(int(index))
        except ValueError:
            raise CheckError(f"bad fault-spec index in {token!r}")
    return FaultPlan(crashes=frozenset(sites[CRASH]),
                     hangs=frozenset(sites[HANG]),
                     garbage=frozenset(sites[GARBAGE]),
                     interrupts=frozenset(sites[INTERRUPT]),
                     attempts=attempts, hard_crashes=hard_crashes)
