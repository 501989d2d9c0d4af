"""Deterministic capped exponential backoff schedules.

Every recovery loop in the repo — pool retry waves, crashed-pool
rebuilds, the service fleet's worker respawns — delays by the same
schedule shape: ``base * factor**(attempt-1)`` capped at ``cap``.
Centralizing it keeps two properties the fault-injection tests rely
on:

* **deterministic** — the default schedule has no jitter, so a test
  that injects ``kill:0`` twice observes the exact same delay
  sequence on every run.  Jitter is opt-in (``jitter > 0``) and still
  deterministic: the spread is a seeded hash of ``(seed, salt,
  attempt)``, so a fleet of workers desynchronizes their respawns
  (no thundering herd against the shared store after a daemon
  restart) while every run of the same configuration reproduces the
  same delays;
* **capped** — a persistently failing worker slot converges to a fixed
  recycle period instead of backing off forever (the job it was
  running has already degraded to UNKNOWN by then).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class BackoffSchedule:
    """A capped exponential delay sequence (attempt 1, 2, 3, ...).

    ``jitter`` is the maximum extra delay as a fraction of the capped
    base delay (0.0 = none, the default — byte-identical to the
    historical schedule).  ``seed`` plus the caller-supplied ``salt``
    (e.g. a worker slot index) pick the deterministic spread.
    """

    base: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    jitter: float = 0.0
    seed: int = 0

    def delay(self, attempt: int, salt: int = 0) -> float:
        """Delay in seconds before retry number ``attempt`` (>= 1).

        ``salt`` distinguishes concurrent retry loops (worker slots)
        so opt-in jitter spreads them apart; with ``jitter == 0`` it
        has no effect and every caller sees the classic schedule.
        """
        if attempt <= 0:
            return 0.0
        delay = min(self.base * (self.factor ** (attempt - 1)), self.cap)
        if self.jitter > 0.0:
            delay += delay * self.jitter * self._fraction(attempt, salt)
        return delay

    def _fraction(self, attempt: int, salt: int) -> float:
        """Deterministic pseudo-random fraction in [0, 1)."""
        canonical = f"{self.seed}:{salt}:{attempt}".encode("utf-8")
        word = int.from_bytes(hashlib.sha256(canonical).digest()[:8], "big")
        return word / 2.0 ** 64

    def delays(self, attempts: int, salt: int = 0) -> List[float]:
        """The first ``attempts`` delays, for tests and documentation."""
        return [self.delay(i, salt=salt) for i in range(1, attempts + 1)]


#: the historical pool retry schedule (50 ms doubling, capped at 2 s)
DEFAULT_BACKOFF = BackoffSchedule()
