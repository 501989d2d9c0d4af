"""Litmus-suite verification against a µspec model (COATCheck's role).

For each test the verifier decides observability of the test's outcome
under the model and compares with the ISA-level SC reference:

* outcome forbidden by SC and unobservable  -> PASS (bug-free)
* outcome forbidden by SC but observable    -> FAIL (MCM violation!)
* outcome allowed by SC and observable      -> PASS (model not overstrict)
* outcome allowed by SC but unobservable    -> PASS with an
  ``overstrict`` flag (sound, but the model forbids more than SC does —
  possibly more than the hardware does).

A check may also run out of budget (``--timeout`` / conflict limits):
the verdict then carries status ``TIMEOUT`` or ``UNKNOWN`` and is
consumed *conservatively* — it is never a PASS, never persisted, and
"ALL TESTS PASS" requires every test decided.

Each test decides one final condition, so the suite is decided by
:func:`repro.check.solver.solve_observability`, which grounds and
solves each test from scratch.  (The exhaustive sweep, which decides
dozens of conditions per program, uses
:class:`repro.check.incremental.ProgramSolver` instead — see
:mod:`repro.check.exhaustive`.)  ``check_suite(tests, jobs=N)`` fans
tests out through the shared
resilience pool (:mod:`repro.resilience.pool`) with deterministic,
input-ordered results that survive worker crashes and hangs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..litmus import LitmusTest
from ..resilience import (
    DECIDED,
    Budget,
    FaultPlan,
    PoolStats,
    run_tasks,
    worker_state,
)
from ..uspec import Model
from .solver import ObservabilityResult, UhbGraph, solve_observability

#: schema of the ``--report-json`` suite report and the service's
#: check artifact
SUITE_REPORT_SCHEMA = "repro-check-suite/5"

#: the deterministic per-test fields the suite digest covers
_PROJECTION_KEYS = ("name", "status", "observable", "permitted_sc",
                    "passed", "overstrict")


@dataclass
class TestVerdict:
    name: str
    observable: bool
    permitted_sc: bool
    time_ms: float
    iterations: int
    graph: Optional[UhbGraph] = None
    vars: int = 0
    clauses: int = 0
    ground_ms: float = 0.0
    solve_ms: float = 0.0
    #: DECIDED, or TIMEOUT/UNKNOWN when the check's budget expired
    status: str = DECIDED
    # --profile-sat counters (zero when no SAT search ran)
    sat_propagations: int = 0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    sat_reductions: int = 0
    arena_bytes: int = 0

    @property
    def decided(self) -> bool:
        return self.status == DECIDED

    @property
    def passed(self) -> bool:
        """Conservative: an undecided test never counts as a PASS."""
        return self.decided and (self.permitted_sc or not self.observable)

    @property
    def failed(self) -> bool:
        """A decided MCM violation (distinct from merely undecided)."""
        return self.decided and self.observable and not self.permitted_sc

    @property
    def overstrict(self) -> bool:
        return self.decided and self.permitted_sc and not self.observable

    def __repr__(self) -> str:
        if not self.decided:
            status = self.status
        else:
            status = "PASS" if self.passed else "FAIL"
        flag = " (overstrict)" if self.overstrict else ""
        return (f"TestVerdict({self.name}: {status}{flag}, "
                f"observable={self.observable}, sc_permits={self.permitted_sc}, "
                f"{self.time_ms:.1f} ms)")


def _check_one_worker(test: LitmusTest) -> TestVerdict:
    """Pool task: check one litmus test against the worker's checker."""
    state = worker_state()
    checker = state.get("checker")
    if checker is None:
        checker = Checker(state["model"],
                          keep_graphs=state["keep_graphs"],
                          budget=state.get("budget"))
        state["checker"] = checker
    return checker.check_test(test)


class Checker:
    """Verifies litmus tests against one synthesized µspec model."""

    def __init__(self, model: Model, keep_graphs: bool = False,
                 budget: Optional[Budget] = None):
        self.model = model
        self.keep_graphs = keep_graphs
        self.budget = budget

    def check_outcome(self, test: LitmusTest) -> ObservabilityResult:
        """Raw observability of the test's final condition."""
        clock = self.budget.start() if self.budget else None
        return solve_observability(self.model, test, clock=clock)

    def check_test(self, test: LitmusTest) -> TestVerdict:
        start = time.perf_counter()
        permitted = test.permitted_under_sc()
        result = self.check_outcome(test)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        stats = result.stats
        return TestVerdict(
            name=test.name,
            observable=result.observable,
            permitted_sc=permitted,
            time_ms=elapsed_ms,
            iterations=result.iterations,
            graph=result.graph if self.keep_graphs else None,
            vars=stats.vars,
            clauses=stats.clauses,
            ground_ms=stats.ground_ms,
            solve_ms=stats.solve_ms,
            status=result.status,
            sat_propagations=stats.sat_propagations,
            sat_conflicts=stats.sat_conflicts,
            sat_decisions=stats.sat_decisions,
            sat_reductions=stats.sat_reductions,
            arena_bytes=stats.arena_bytes,
        )

    def check_suite(self, tests: Iterable[LitmusTest],
                    jobs: int = 1,
                    fault_plan: Optional[FaultPlan] = None,
                    on_result: Optional[Callable[[int, TestVerdict], None]]
                    = None,
                    pool_stats: Optional[PoolStats] = None
                    ) -> List[TestVerdict]:
        """Check every test; ``jobs`` follows the repo convention
        (``<=0`` = all cores, ``1`` = serial) and results are in input
        order, identical for any job count.  Worker crashes and hangs
        are retried / recomputed inline by the resilience pool;
        ``on_result`` fires once per completed test (the store's
        hook), and ``fault_plan`` injects deterministic faults for the
        fault-tolerance tests.
        """
        tests = list(tests)
        return run_tasks(
            tests, _check_one_worker, self.check_test, jobs,
            state={"model": self.model, "keep_graphs": self.keep_graphs,
                   "budget": self.budget},
            fault_plan=fault_plan,
            validate=lambda verdict: isinstance(verdict, TestVerdict),
            on_result=on_result,
            stats=pool_stats)


def format_suite_report(verdicts: List[TestVerdict],
                        show_stats: bool = True) -> str:
    """Artifact-appendix style report (paper A.5), with per-test
    encoding/solve statistics."""
    lines = []
    total_ms = 0.0
    failures = 0
    undecided = 0
    for verdict in verdicts:
        if not verdict.decided:
            status = verdict.status
        else:
            status = "PASS" if verdict.passed else "FAIL"
        line = (f"{verdict.name + '.test':<24} {verdict.time_ms:10.3f} ms  "
                f"{status}"
                f"{' (overstrict)' if verdict.overstrict else ''}")
        if show_stats:
            line += (f"  [{verdict.vars}v/{verdict.clauses}c, "
                     f"ground {verdict.ground_ms:.1f} ms, "
                     f"solve {verdict.solve_ms:.1f} ms]")
        lines.append(line)
        total_ms += verdict.time_ms
        failures += 1 if verdict.failed else 0
        undecided += 0 if verdict.decided else 1
    lines.append(f"--- {total_ms:.3f} ms ---")
    if failures == 0 and undecided == 0:
        lines.append("======= ALL TESTS PASS =======")
    else:
        parts = []
        if failures:
            parts.append(f"{failures} TEST(S) FAILED")
        if undecided:
            parts.append(f"{undecided} UNDECIDED (budget exhausted)")
        lines.append(f"======= {', '.join(parts)} =======")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Machine-readable report + determinism digest
# ----------------------------------------------------------------------
def _verdict_projection(verdicts: Sequence[TestVerdict]) -> List[Dict]:
    """The deterministic (timing-free) view of a suite run: what must
    be byte-identical across job counts, injected faults, and
    interrupt/resume."""
    return [{key: getattr(v, key) for key in _PROJECTION_KEYS}
            for v in verdicts]


def _projection_digest(projection: Sequence[Dict]) -> str:
    canonical = json.dumps(list(projection), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def suite_digest(verdicts: Sequence[TestVerdict]) -> str:
    """SHA-256 over the deterministic verdict projection."""
    return _projection_digest(_verdict_projection(verdicts))


def suite_sat_profile(verdicts: Sequence[TestVerdict]) -> Dict:
    """Aggregate the per-test SAT counters (``--profile-sat``)."""
    return {
        "sat_propagations": sum(v.sat_propagations for v in verdicts),
        "sat_conflicts": sum(v.sat_conflicts for v in verdicts),
        "sat_decisions": sum(v.sat_decisions for v in verdicts),
        "sat_reductions": sum(v.sat_reductions for v in verdicts),
        "arena_bytes": max((v.arena_bytes for v in verdicts), default=0),
    }


def suite_report_from_entries(entries: Sequence[Dict],
                              model: str = "") -> Dict:
    """The deterministic suite report built from per-test entries.

    Each entry is a verdict projection plus a ``stats`` dict.  The
    digest, failure and undecided counts are recomputed from the
    entries alone, so the service's shard merge (which holds entries,
    not live verdicts) builds the same bytes as a single-worker run.
    """
    return {
        "schema": SUITE_REPORT_SCHEMA,
        "model": model,
        "digest": _projection_digest(
            [{key: entry[key] for key in _PROJECTION_KEYS}
             for entry in entries]),
        "failures": sum(1 for entry in entries
                        if entry["status"] == DECIDED
                        and entry["observable"]
                        and not entry["permitted_sc"]),
        "undecided": sum(1 for entry in entries
                         if entry["status"] != DECIDED),
        "tests": list(entries),
    }


def suite_report_json(verdicts: Sequence[TestVerdict], model: str = "",
                      jobs: int = 1,
                      deterministic: bool = False,
                      quarantined_records: int = 0,
                      profile_sat: bool = False) -> Dict:
    """The ``--report-json`` artifact: verdicts + per-test stats.

    ``digest`` covers only the verdict projection, so it is identical
    across ``--jobs`` values, injected faults, and interrupt/resume;
    the per-test ``stats`` (vars/clauses/timings) are diagnostic.
    ``deterministic=True`` drops everything run-dependent (timings, the
    jobs count) so the whole file is byte-identical across runs — the
    pipeline's resume-equivalence guarantee.  ``profile_sat`` adds the
    aggregated SAT counters (run-dependent — suppressed in
    deterministic mode).
    """
    report = suite_report_from_entries(
        [dict(projection,
              stats={
                  "vars": v.vars,
                  "clauses": v.clauses,
                  "iterations": v.iterations,
              })
         for projection, v in zip(_verdict_projection(verdicts), verdicts)],
        model)
    if not deterministic:
        report["jobs"] = jobs
        # Run-dependent resilience diagnostics: a resumed run that had
        # to quarantine a corrupt ``--cache`` tail says so instead of
        # silently recomputing.  Excluded from the deterministic report
        # (whose bytes must match across fresh/resumed runs).
        report["quarantined_records"] = quarantined_records
        if profile_sat:
            report["sat_profile"] = suite_sat_profile(verdicts)
        for entry, v in zip(report["tests"], verdicts):
            entry["stats"].update({
                "time_ms": round(v.time_ms, 3),
                "ground_ms": round(v.ground_ms, 3),
                "solve_ms": round(v.solve_ms, 3),
            })
    return report
