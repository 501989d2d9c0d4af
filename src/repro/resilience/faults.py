"""One seeded, replayable fault plan for every layer that retries.

Fault tolerance — pool rebuilds, bounded retries, watchdog timeouts,
garbage-result validation, interrupt checkpointing, fleet respawns and
ledger replay — is only trustworthy if it can be *proven* not to
change results.  The proof harness is a :class:`FaultPlan`: a
picklable schedule of failures, every decision a pure function of the
plan and a deterministic *site* index.  Two layers ask it, each on its
own site axis, and each turns the kind it gets into its own action:

* the worker pool (:mod:`repro.resilience.pool`; ``check``/``sweep
  --inject-faults``, the discharge scheduler's ``fault_plan=``) asks
  ``fault_for(task index, attempt)``; task indices are assigned in
  submission order, identical across job counts;
* the ``repro serve --inject-faults`` daemon asks ``fault_for(dispatch
  counter, shard=shard index)`` as it hands a job or shard to a
  worker, and ``fires(INTERRUPT, K)`` after recorded completion K
  (0-based).

Kinds, in priority order when several match one site:

=========  ================================  ==============================
kind       worker pool                       serve fleet
=========  ================================  ==============================
kill       the worker ``os._exit``\\ s (a     the worker dies before its
           ``BrokenProcessPool``); inline,   result frame
           raises ``WorkerCrashError``
hang       raises ``DischargeTimeout`` (a    heartbeats stop for
           simulated watchdog firing)        ``hang-secs``; the hang
                                             detector reaps the worker
garbage    a malformed result, rejected by   a torn frame (a header with
           validation and retried            a truncated body), then death
slow       (not honoured)                    sleeps ``slow-secs``, then
                                             completes
interrupt  ``KeyboardInterrupt`` in the      the daemon ``os._exit(137)``\\ s
           parent as task K's result is      after its K-th recorded
           consumed                          completion
=========  ================================  ==============================

Spec grammar (comma-separated tokens)::

    KIND:N           fault at site N
    KIND%=P          seeded rate: fault at P percent of sites
    KIND:@sJ         fault on every dispatch of shard J       (serve)
    seed=N           seed of the rate draws (default 0)
    attempts=N       fault on attempts 0..N-1 (default 1)     (pool)
    soft             kills raise instead of killing a worker  (pool)
    store-budget=N   workers' stores raise ENOSPC after N
                     payload bytes (per worker process)       (serve)
    hang-secs=F      how long a hung fleet worker sleeps
                     (default 5)                              (serve)
    slow-secs=F      how long a straggler sleeps
                     (default 0.25)                           (serve)

A rate draw hashes ``"{seed}:{kind}:{site}"``, so a plan replays the
same faults at the same sites.  By default a site faults only on
attempt 0, so the first retry succeeds and a faulted run must converge
to the byte-identical fault-free output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Tuple

from ..errors import ResilienceError

KILL = "kill"
HANG = "hang"
GARBAGE = "garbage"
SLOW = "slow"
INTERRUPT = "interrupt"

#: every fault kind, in priority order when several match one site
FAULT_KINDS = (KILL, HANG, GARBAGE, SLOW, INTERRUPT)

#: ``name=value`` tokens: name -> (plan field, type, least value)
_OPTIONS = {
    "seed": ("seed", int, 0),
    "attempts": ("attempts", int, 1),
    "store-budget": ("store_budget", int, 0),
    "hang-secs": ("hang_seconds", float, 0),
    "slow-secs": ("slow_seconds", float, 0),
}


@dataclass(frozen=True)
class FaultPlan:
    """One parsed ``--inject-faults`` plan (see the module docstring).

    Build plans with :func:`parse_fault_spec`; the fields are read by
    the layers that honour them.  A listed site faults on attempts
    ``0..attempts-1``; ``offset`` (see :meth:`shifted`) is added to
    every site asked about, so rate draws stay keyed by the absolute
    site of a run cut into chunks.
    """

    sites: FrozenSet[Tuple[str, int]] = frozenset()
    shard_sites: FrozenSet[Tuple[str, int]] = frozenset()
    rates: Tuple[Tuple[str, float], ...] = ()
    seed: int = 0
    attempts: int = 1
    soft: bool = False
    store_budget: Optional[int] = None
    hang_seconds: float = 5.0
    slow_seconds: float = 0.25
    offset: int = 0
    #: the spec this plan was parsed from (for logs and status)
    spec: str = ""

    def fires(self, kind: str, site: int, attempt: int = 0,
              shard: Optional[int] = None) -> bool:
        """Whether ``kind`` is planned at ``site`` on ``attempt`` (of
        shard ``shard``, for a service dispatch)."""
        if site < 0 or attempt >= self.attempts:
            return False
        site += self.offset
        if (kind, site) in self.sites or (kind, shard) in self.shard_sites:
            return True
        return any(name == kind and _draw(self.seed, kind, site) < rate
                   for name, rate in self.rates)

    def fault_for(self, site: int, attempt: int = 0,
                  shard: Optional[int] = None) -> Optional[str]:
        """The first kind of :data:`FAULT_KINDS` planned at ``site``."""
        for kind in FAULT_KINDS:
            if self.fires(kind, site, attempt, shard):
                return kind
        return None

    def shifted(self, offset: int) -> "FaultPlan":
        """The plan as seen by a run whose site 0 is this plan's site
        ``offset`` (one chunk of a longer run)."""
        return replace(self, offset=self.offset + offset)


def _draw(seed: int, kind: str, site: int) -> float:
    """A uniform draw in [0, 1) for one (seed, kind, site)."""
    digest = hashlib.sha256(f"{seed}:{kind}:{site}".encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") / 2.0 ** 64


def _number(token: str, raw: str, kind: type, least: float):
    try:
        value = kind(raw)
    except ValueError:
        raise ResilienceError(f"bad fault-spec token {token!r}: "
                              f"{raw!r} is not a number")
    if not value >= least:
        raise ResilienceError(f"bad fault-spec token {token!r}: "
                              f"must be >= {least}")
    return value


def parse_fault_spec(spec: str) -> Optional[FaultPlan]:
    """Parse one ``--inject-faults`` spec; see the module docstring for
    the grammar.  A spec with no tokens yields ``None`` (no plan);
    anything malformed raises :class:`ResilienceError`."""
    tokens = [token.strip() for token in (spec or "").split(",")
              if token.strip()]
    if not tokens:
        return None
    fields = {}
    sites = set()
    shard_sites = set()
    rates = {}
    for token in tokens:
        name, equals, value = token.partition("=")
        if token == "soft":
            fields["soft"] = True
        elif equals and name in _OPTIONS:
            field_name, kind, least = _OPTIONS[name]
            fields[field_name] = _number(token, value, kind, least)
        elif equals and name[-1:] == "%" and name[:-1] in FAULT_KINDS:
            percent = _number(token, value, float, 0)
            if percent > 100:
                raise ResilienceError(f"bad fault-spec token {token!r}: "
                                      f"rate is a percentage (0-100)")
            rates[name[:-1]] = percent / 100.0
        else:
            kind, colon, where = token.partition(":")
            if kind not in FAULT_KINDS or not colon:
                raise ResilienceError(
                    f"bad fault-spec token {token!r} (expected KIND:N, "
                    f"KIND:@sJ or KIND%=P with KIND in {FAULT_KINDS}, "
                    f"{', '.join(name + '=' for name in _OPTIONS)} "
                    f"or 'soft')")
            if where.startswith("@s"):
                shard_sites.add((kind, _number(token, where[2:], int, 0)))
            else:
                sites.add((kind, _number(token, where, int, 0)))
    return FaultPlan(sites=frozenset(sites),
                     shard_sites=frozenset(shard_sites),
                     rates=tuple(sorted(rates.items())),
                     spec=",".join(tokens), **fields)
