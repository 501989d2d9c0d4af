"""Resource budgets that degrade to first-class verdict statuses.

A verification run must never hang on one pathological instance: every
solve carries an optional wall-clock deadline and SAT conflict budget
(both natively supported by :meth:`repro.sat.ArenaSolver.solve`), and a
budget hit produces a *verdict* — status ``TIMEOUT`` (deadline) or
``UNKNOWN`` (conflict budget) — instead of an exception or a missing
result.  Downstream consumers treat undecided statuses conservatively:
an undecided test is never reported as a PASS, an undecided sweep
outcome blocks the EXACT claim, and caches never persist them.

:class:`Budget` is the immutable configuration (safe to pickle into
pool workers); :meth:`Budget.start` stamps it into a
:class:`BudgetClock` whose deadline is absolute, so one clock spans
grounding *and* solving of a single test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

#: statuses a Check-layer verdict may carry
DECIDED = "DECIDED"
TIMEOUT = "TIMEOUT"
UNKNOWN = "UNKNOWN"
#: statuses that mean "the budget ran out before the solver decided"
UNDECIDED_STATUSES = (TIMEOUT, UNKNOWN)
CHECK_STATUSES = (DECIDED, TIMEOUT, UNKNOWN)


@dataclass(frozen=True)
class Budget:
    """Per-check resource limits (``None`` = unlimited).

    ``timeout_seconds`` is a wall-clock budget for one check (grounding
    plus every solve it performs); ``max_conflicts`` bounds each SAT
    call's conflicts.  The empty budget is falsy, so callers can write
    ``clock = budget.start() if budget else None``.
    """

    timeout_seconds: Optional[float] = None
    max_conflicts: Optional[int] = None

    def __bool__(self) -> bool:
        return self.timeout_seconds is not None or self.max_conflicts is not None

    def start(self) -> "BudgetClock":
        """Begin one check: the wall-clock deadline starts now."""
        return BudgetClock(self)


class BudgetClock:
    """One running check's view of its budget (absolute deadline)."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.deadline: Optional[float] = None
        if budget.timeout_seconds is not None:
            self.deadline = time.perf_counter() + budget.timeout_seconds

    def expired(self) -> bool:
        """Has the wall-clock budget already run out?"""
        return self.deadline is not None and time.perf_counter() >= self.deadline

    def solve_args(self) -> Dict[str, object]:
        """Keyword arguments for :meth:`repro.sat.ArenaSolver.solve`."""
        args: Dict[str, object] = {}
        if self.deadline is not None:
            args["deadline"] = self.deadline
        if self.budget.max_conflicts is not None:
            args["max_conflicts"] = self.budget.max_conflicts
        return args

    def degraded_status(self) -> str:
        """The verdict status for a solve that returned without an
        answer: ``TIMEOUT`` when the deadline is the exhausted budget,
        ``UNKNOWN`` for the conflict budget."""
        return TIMEOUT if self.expired() else UNKNOWN
