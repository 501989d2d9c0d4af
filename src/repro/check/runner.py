"""Crash-safe, resumable entry points for Check-layer verification.

:func:`run_suite` and :func:`run_sweep` wrap the raw verifier/sweep in
the shared resilience machinery so one call gives:

* **journaling** — every completed verdict is appended (checksummed,
  fsynced) to a :class:`repro.check.journal.SuiteJournal` /
  :class:`SweepJournal` the moment it is finalized, so a crash or
  Ctrl-C loses at most in-flight work;
* **resume** — ``resume=True`` replays the journal and only the
  still-undecided tests/programs are re-executed.  Verdicts are keyed
  by content fingerprints of (model, test/program), so a resumed run
  against a different model replays nothing;
* **interrupt checkpointing** — ``KeyboardInterrupt`` (Ctrl-C, a
  SIGTERM converted by the CLI, or an injected fault) commits the
  journal and surfaces as :class:`repro.errors.InterruptedRun`
  carrying the completed prefix, so callers can print partial results
  and a resume recipe instead of losing the run;
* **fault tolerance** — worker crashes/hangs retry through
  :func:`repro.resilience.pool.run_tasks`; verdicts are identical to a
  fault-free run (the fault-tolerance integration tests pin this with
  digest parity).

The determinism invariant the whole layer maintains: job counts,
engines, injected faults, and interrupt/resume may change wall-clock
time and recovery statistics — never verdicts or report digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from ..errors import InterruptedRun
from ..litmus import LitmusTest
from ..mcm.events import Program
from ..resilience import Budget, FaultPlan, PoolStats, run_tasks, worker_state
from ..uspec import Model
from .exhaustive import (
    ExactnessReport,
    ProgramResult,
    _check_program,
    enumerate_sweep_programs,
    merge_program_results,
    normalize_limit,
)
from .journal import (
    SuiteJournal,
    SweepJournal,
    model_fingerprint,
    program_fingerprint,
    test_fingerprint,
)
from .verifier import Checker, TestVerdict


@dataclass
class SuiteRunResult:
    """One :func:`run_suite` invocation's outcome."""

    verdicts: List[TestVerdict] = field(default_factory=list)
    #: verdicts replayed from the resume journal (no solver work)
    resumed: int = 0
    pool_stats: PoolStats = field(default_factory=PoolStats)
    journal_path: Optional[str] = None
    #: corrupt/torn journal records dropped (and re-executed) on resume
    quarantined_records: int = 0
    #: where the dropped journal bytes were moved (None if clean)
    quarantined_path: Optional[str] = None
    #: the engine that actually ran (``auto`` resolved by the Checker)
    engine_used: str = ""


def run_suite(model: Model, tests: Iterable[LitmusTest], *,
              jobs: int = 1, engine: str = "fresh",
              keep_graphs: bool = False,
              budget: Optional[Budget] = None,
              journal_path: Optional[str] = None,
              resume: bool = False,
              fault_plan: Optional[FaultPlan] = None) -> SuiteRunResult:
    """Check a litmus suite crash-safely; see the module docstring.

    Raises :class:`InterruptedRun` (partial verdicts attached, journal
    committed) if interrupted; any other error propagates after the
    journal is closed (committed).
    """
    tests = list(tests)
    checker = Checker(model, keep_graphs=keep_graphs, engine=engine,
                      budget=budget)
    result = SuiteRunResult(verdicts=[], journal_path=journal_path,
                            engine_used=checker.engine_used)
    journal = None
    fingerprints: List[str] = []
    verdicts: List[Optional[TestVerdict]] = [None] * len(tests)
    if journal_path:
        fp_model = model_fingerprint(model)
        fingerprints = [test_fingerprint(fp_model, test) for test in tests]
        journal = SuiteJournal(journal_path, resume=resume)
        result.quarantined_records = journal.quarantined_records
        result.quarantined_path = journal.quarantined
        for index, fingerprint in enumerate(fingerprints):
            replayed = journal.lookup(fingerprint)
            if replayed is not None:
                verdicts[index] = replayed
                result.resumed += 1
    pending = [index for index in range(len(tests))
               if verdicts[index] is None]

    def on_result(position: int, verdict: TestVerdict) -> None:
        index = pending[position]
        verdicts[index] = verdict
        if journal is not None:
            journal.record(fingerprints[index], verdict)
            journal.commit()

    try:
        checker.check_suite([tests[index] for index in pending], jobs,
                            fault_plan=fault_plan, on_result=on_result,
                            pool_stats=result.pool_stats)
    except KeyboardInterrupt as exc:
        if journal is not None:
            journal.commit()
        completed = [verdict for verdict in verdicts if verdict is not None]
        raise InterruptedRun(
            f"check interrupted after {len(completed)}/{len(tests)} "
            f"test(s)", partial=completed,
            resumable=journal is not None) from exc
    finally:
        if journal is not None:
            journal.close()
    result.verdicts = [verdict for verdict in verdicts if verdict is not None]
    return result


# ----------------------------------------------------------------------
# Exhaustive sweep
# ----------------------------------------------------------------------
def _sweep_one_worker(payload) -> ProgramResult:
    """Pool task: sweep one program against the worker's model."""
    state = worker_state()
    program, include_final_memory = payload
    return _check_program(state["model"], program, include_final_memory,
                          state["engine"], budget=state.get("budget"))


def _valid_program_result(result) -> bool:
    return (isinstance(result, tuple) and len(result) == 4
            and isinstance(result[0], int)
            and all(isinstance(part, list) for part in result[1:]))


def run_sweep(model: Model, *, max_threads: int = 2, max_len: int = 2,
              addresses: Sequence[str] = ("x", "y"),
              include_final_memory: bool = True,
              limit: Optional[int] = None,
              jobs: int = 1, engine: str = "incremental",
              budget: Optional[Budget] = None,
              journal_path: Optional[str] = None,
              resume: bool = False,
              fault_plan: Optional[FaultPlan] = None,
              pool_stats: Optional[PoolStats] = None,
              programs: Optional[Sequence[Program]] = None
              ) -> ExactnessReport:
    """Exhaustive sweep with program-granular journaling and resume.

    Raises :class:`InterruptedRun` (partial report attached, journal
    committed) if interrupted.  The returned report's :meth:`digest`
    is identical across job counts, engines, faults, and resume.

    ``programs`` substitutes an explicit program list (e.g. a generated
    corpus chunk) for the built-in shape enumeration; journal keys are
    content fingerprints either way, so chunked corpus sweeps resume
    against the same journal.  ``limit`` (0/None = unlimited) caps the
    prefix in both modes.
    """
    if programs is None:
        programs = enumerate_sweep_programs(max_threads, max_len, addresses,
                                            limit)
    else:
        programs = list(programs)
        cap = normalize_limit(limit)
        if cap is not None:
            programs = programs[:cap]
    report = ExactnessReport(programs=len(programs))
    results: List[Optional[ProgramResult]] = [None] * len(programs)
    journal = None
    fingerprints: List[str] = []
    if journal_path:
        fp_model = model_fingerprint(model)
        fingerprints = [program_fingerprint(fp_model, program)
                        for program in programs]
        journal = SweepJournal(journal_path, resume=resume)
        report.quarantined_records = journal.quarantined_records
        report.quarantined_path = journal.quarantined
        for index, fingerprint in enumerate(fingerprints):
            replayed = journal.lookup(fingerprint)
            if replayed is not None:
                checked, unsound, overstrict = replayed
                results[index] = (checked, unsound, overstrict, [])
                report.resumed += 1
    pending = [index for index in range(len(programs))
               if results[index] is None]

    def on_result(position: int, result: ProgramResult) -> None:
        index = pending[position]
        results[index] = result
        if journal is not None:
            checked, unsound, overstrict, undecided = result
            journal.record(fingerprints[index], checked, unsound,
                           overstrict, undecided)
            journal.commit()

    try:
        run_tasks(
            [(programs[index], include_final_memory) for index in pending],
            _sweep_one_worker,
            lambda payload: _check_program(model, payload[0], payload[1],
                                           engine, budget=budget),
            jobs,
            state={"model": model, "engine": engine, "budget": budget},
            fault_plan=fault_plan,
            validate=_valid_program_result,
            on_result=on_result,
            stats=pool_stats)
    except KeyboardInterrupt as exc:
        if journal is not None:
            journal.commit()
        merge_program_results(report, results)
        done = sum(1 for result in results if result is not None)
        raise InterruptedRun(
            f"sweep interrupted after {done}/{len(programs)} program(s)",
            partial=report, resumable=journal is not None) from exc
    finally:
        if journal is not None:
            journal.close()
    merge_program_results(report, results)
    return report
