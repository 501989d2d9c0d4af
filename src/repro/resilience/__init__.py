"""Shared resilience layer: budgets, journals, worker pools, faults.

The synthesis half of the pipeline (PR 2) grew fault tolerance first —
per-SVA budgets, retry waves, a resumable verdict journal, deterministic
fault injection.  This package extracts that machinery into pieces any
layer can reuse, and the Check layer (litmus suites, exhaustive sweeps,
the end-to-end ``repro pipeline`` command) builds on the same four:

* :mod:`repro.resilience.budgets` — wall-clock / conflict budgets that
  degrade to first-class ``TIMEOUT`` / ``UNKNOWN`` verdict statuses
  instead of hanging or crashing;
* :mod:`repro.resilience.journal` — append-only, per-record checksummed
  JSONL checkpoints that quarantine corrupt or torn tails on replay;
* :mod:`repro.resilience.pool` — the repo's one worker pool (the SVA
  discharge scheduler holds one for its lifetime; the Check layer maps
  over one-shot pools): per-worker initializer state, crash/hang
  detection, bounded retry waves with pool rebuilds, inline fallback
  in the parent process, and the one site where fault plans fire;
* :mod:`repro.resilience.faults` — the one seeded fault plan and spec
  grammar, asked by the worker pool (keyed by task index) and by the
  ``repro serve`` daemon (keyed by dispatch), so fault tolerance can
  be *proven* not to change results.

The guiding invariant, shared with the discharge scheduler: faults and
budgets may change wall clock and statistics, never the verdicts a
clean run would produce (budget exhaustion is itself a first-class,
conservatively consumed verdict).
"""

from .backoff import DEFAULT_BACKOFF, BackoffSchedule
from .budgets import (
    DECIDED,
    TIMEOUT,
    UNDECIDED_STATUSES,
    UNKNOWN,
    Budget,
    BudgetClock,
)
from .faults import (
    FAULT_KINDS,
    GARBAGE,
    HANG,
    INTERRUPT,
    KILL,
    SLOW,
    FaultPlan,
    parse_fault_spec,
)
from .pool import PoolStats, resolve_jobs, run_tasks, worker_state

__all__ = [
    "BackoffSchedule",
    "DEFAULT_BACKOFF",
    "Budget",
    "BudgetClock",
    "DECIDED",
    "TIMEOUT",
    "UNKNOWN",
    "UNDECIDED_STATUSES",
    "PoolStats",
    "resolve_jobs",
    "run_tasks",
    "worker_state",
    "FaultPlan",
    "parse_fault_spec",
    "FAULT_KINDS",
    "KILL",
    "HANG",
    "GARBAGE",
    "SLOW",
    "INTERRUPT",
]
