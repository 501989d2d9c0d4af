"""Verification-as-a-service: the ``repro serve`` daemon.

Every one-shot CLI invocation pays the same cold-start tax: elaborate
the design, blast the cones, ground the suite — then throw all of it
away.  This package keeps that work alive between requests:

* :mod:`repro.service.store` — a content-addressed on-disk artifact
  store (sha256-verified, atomically written) that makes verdicts
  persistent and shared across runs, clients, and daemon restarts (it
  is the backend of the warm workers'
  :class:`~repro.formal.VerdictStore`);
* :mod:`repro.service.ledger` — the crash-safe job ledger (built on
  :class:`repro.resilience.journal.Journal`): ``kill -9`` the daemon
  at any point and a restart resumes every in-flight job to
  byte-identical artifacts;
* :mod:`repro.service.jobs` — the job kinds (parse/synth/check/sweep),
  parameter validation, and the warm per-worker execution context that
  keeps elaborated netlists and checkers resident between jobs;
* :mod:`repro.service.fleet` — the supervised warm worker fleet:
  heartbeats, hang/crash detection, per-job deadlines degrading to
  first-class UNKNOWN, and capped exponential respawn backoff;
* :mod:`repro.service.daemon` — the single-threaded select-loop server
  over a Unix domain socket: job queue with admission control and
  backpressure, graceful drain on SIGTERM;
* :mod:`repro.service.client` — the line-JSON protocol client used by
  ``repro submit`` / ``status`` / ``result``;
* :mod:`repro.service.shards` — fleet sharding for sweep/check jobs:
  deterministic contiguous stripes dispatched across idle workers and
  merged back into the byte-identical single-worker artifact, with
  exhausted shards degrading to a first-class partial-UNKNOWN report;

``repro serve --inject-faults`` arms a seeded, replayable
:class:`repro.resilience.FaultPlan` (the one fault grammar of the
repo): worker kills at frame boundaries, torn frames, heartbeat
stalls, stragglers, store ENOSPC budgets, and a daemon ``kill -9``
between shard completions.

The invariant carried over from the rest of the repo: the service may
change wall-clock time and recovery statistics, never verdicts — a
check-suite job's report digest is byte-identical to a one-shot
``repro check`` of the same model.
"""

from .client import ServiceClient
from .daemon import Daemon, JobQueue, ServeConfig, default_socket_path
from .jobs import JOB_KINDS, validate_params
from .ledger import JobLedger
from .shards import (MAX_SHARDS, SHARDABLE_KINDS, merge_check_shards,
                     merge_sweep_shards, shard_bounds)
from .store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "Daemon",
    "JobLedger",
    "JobQueue",
    "JOB_KINDS",
    "MAX_SHARDS",
    "SHARDABLE_KINDS",
    "ServeConfig",
    "ServiceClient",
    "default_socket_path",
    "merge_check_shards",
    "merge_sweep_shards",
    "shard_bounds",
    "validate_params",
]
