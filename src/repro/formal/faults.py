"""Deterministic fault injection for the discharge pipeline.

The fault-tolerance machinery the discharge scheduler runs on — pool
rebuilds, bounded retries, watchdog timeouts, garbage-result
validation — is only trustworthy if it can be *proven* not to change
synthesized models.  A :class:`FaultyPropertyChecker` is the test
harness for that proof: it pairs a checker with a
:class:`repro.resilience.faults.FaultPlan`, and
:class:`repro.formal.scheduler.DischargeScheduler` unwraps the pair,
decides with the checker and hands the plan to its
:class:`repro.resilience.pool.WorkerPool`.  The pool is the one place
a plan fires (see :mod:`repro.resilience.pool`), keyed by the
obligation's deterministic execution index — assigned by the scheduler
in plan order, identical across job counts — and the retry attempt:

* ``crash`` — the worker process dies (``os._exit``) so the parent
  observes a real ``BrokenProcessPool``; on the inline path the same
  schedule raises :class:`WorkerCrashError` instead.
* ``hang``  — a simulated wall-clock timeout: raises
  :class:`DischargeTimeout` (avoiding real multi-second sleeps in
  tests) which the pool treats exactly like a watchdog firing.
* ``garbage`` — the task yields a malformed result that the pool's
  validation must reject and retry.
* ``interrupt`` — ``KeyboardInterrupt`` in the parent where the
  obligation's verdict would be consumed: a deterministic stand-in for
  Ctrl-C landing mid-discharge, exercising the journal-checkpoint-and-
  resume path.

By default a site faults only on attempt 0 (``attempts=1``), so the
first retry succeeds and the run must converge to the byte-identical
fault-free model.
"""

from __future__ import annotations

from typing import NamedTuple

from ..resilience.faults import CRASH, GARBAGE, HANG, INTERRUPT, FaultPlan

__all__ = ["CRASH", "HANG", "GARBAGE", "INTERRUPT", "FaultPlan",
           "FaultyPropertyChecker"]


class FaultyPropertyChecker(NamedTuple):
    """A property checker (bare or caching) paired with the fault plan
    its discharge scheduler's worker pool executes."""

    checker: object
    plan: FaultPlan
