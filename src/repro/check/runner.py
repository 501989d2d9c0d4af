"""Crash-safe, resumable entry points for Check-layer verification.

:func:`run_suite` and :func:`run_sweep` wrap the raw verifier/sweep in
the shared resilience machinery so one call gives:

* **persistence** — given a ``store`` (a
  :class:`repro.formal.cache.VerdictStore` opened with
  :data:`SUITE_CODEC` or :data:`SWEEP_CODEC`), every decided test or
  fully decided program is recorded and committed (checksummed,
  fsynced) the moment it is finalized, so a crash or Ctrl-C loses at
  most in-flight work;
* **resume** — whatever the store already holds is replayed and only
  the rest is executed.  Entries are keyed by content fingerprints of
  (model, test/program), so a store written against a different model
  replays nothing.  Undecided (TIMEOUT/UNKNOWN) results are never
  persisted: a resumed run retries them, possibly with a larger
  budget, rather than inheriting a non-answer;
* **interrupt checkpointing** — ``KeyboardInterrupt`` (Ctrl-C, a
  SIGTERM converted by the CLI, or an injected fault) commits the
  store and surfaces as :class:`repro.errors.InterruptedRun` carrying
  the completed prefix, so callers can print partial results and a
  resume recipe instead of losing the run;
* **fault tolerance** — worker crashes/hangs retry through
  :func:`repro.resilience.pool.run_tasks`; verdicts are identical to a
  fault-free run (the fault-tolerance integration tests pin this with
  digest parity).

The caller opens and closes the store, as for
:func:`repro.synthesize_uspec`; without one nothing is fingerprinted.

Each workload has one decision path: a suite test is decided by
:func:`repro.check.solver.solve_observability` (via
:class:`repro.check.verifier.Checker`), a sweep program by
:class:`repro.check.incremental.ProgramSolver` (via
:func:`repro.check.exhaustive._check_program`).

The determinism invariant the whole layer maintains: job counts,
injected faults, and interrupt/resume may change wall-clock time and
recovery statistics — never verdicts or report digests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import CheckError, InterruptedRun
from ..formal.cache import RecordCodec, VerdictStore
from ..litmus import LitmusTest
from ..mcm.events import Program
from ..resilience import (DECIDED, Budget, FaultPlan, PoolStats, run_tasks,
                          worker_state)
from ..uspec import Model, format_model
from .exhaustive import (
    ExactnessReport,
    ProgramResult,
    _check_program,
    enumerate_sweep_programs,
    merge_program_results,
    normalize_limit,
)
from .verifier import Checker, TestVerdict


# ----------------------------------------------------------------------
# Fingerprints and codecs
# ----------------------------------------------------------------------
def model_fingerprint(model: Model) -> str:
    """Content hash of a µspec model (its canonical text rendering)."""
    text = format_model(model)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_fingerprint(model_fp: str, test: LitmusTest) -> str:
    """Key for one (model, litmus test) pair: stable across processes,
    job counts, and runs."""
    hasher = hashlib.sha256()
    hasher.update(model_fp.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(test.format().encode("utf-8"))
    return hasher.hexdigest()


def program_fingerprint(model_fp: str, program) -> str:
    """Key for one (model, sweep program) pair."""
    canonical = json.dumps(
        [[(a.kind, a.addr, a.value, a.reg) for a in thread]
         for thread in program],
        sort_keys=True, separators=(",", ":"))
    hasher = hashlib.sha256()
    hasher.update(model_fp.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(canonical.encode("utf-8"))
    return hasher.hexdigest()


def _encode_test_verdict(verdict: TestVerdict) -> Dict:
    return {
        "name": verdict.name,
        "status": verdict.status,
        "observable": verdict.observable,
        "permitted_sc": verdict.permitted_sc,
        "iterations": verdict.iterations,
        "vars": verdict.vars,
        "clauses": verdict.clauses,
    }


def _decode_test_verdict(entry: Dict) -> TestVerdict:
    """Timings are zero: the work was done by an earlier run."""
    return TestVerdict(
        name=entry["name"],
        observable=entry["observable"],
        permitted_sc=entry["permitted_sc"],
        time_ms=0.0,
        iterations=entry.get("iterations", 0),
        vars=entry.get("vars", 0),
        clauses=entry.get("clauses", 0),
        status=entry["status"],
    )


def _test_verdict_decided(entry) -> bool:
    return (isinstance(entry, dict)
            and entry.get("status") == DECIDED
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("observable"), bool)
            and isinstance(entry.get("permitted_sc"), bool))


#: litmus-suite verdicts; only status DECIDED is persisted
SUITE_CODEC = RecordCodec("rtl2uspec-check-suite-journal",
                          _encode_test_verdict, _decode_test_verdict,
                          _test_verdict_decided)


def _encode_conditions(entries) -> List:
    return [[formatted, [[[tid, reg], value] for (tid, reg), value
                         in condition]]
            for formatted, condition in entries]


def _decode_conditions(payload) -> List[Tuple[str, Tuple]]:
    return [(formatted, tuple(((tid, reg), value)
                              for (tid, reg), value in condition))
            for formatted, condition in payload]


def _encode_program_result(result: ProgramResult) -> Dict:
    checked, unsound, overstrict, undecided = result
    entry = {"checked": checked,
             "unsound": _encode_conditions(unsound),
             "overstrict": _encode_conditions(overstrict)}
    if undecided:
        # Keeps the entry in memory faithful; it is never persisted.
        entry["undecided"] = _encode_conditions(undecided)
    return entry


def _decode_program_result(entry: Dict) -> ProgramResult:
    return (entry["checked"], _decode_conditions(entry["unsound"]),
            _decode_conditions(entry["overstrict"]),
            _decode_conditions(entry.get("undecided", ())))


def _program_result_decided(entry) -> bool:
    return (isinstance(entry, dict)
            and isinstance(entry.get("checked"), int)
            and isinstance(entry.get("unsound"), list)
            and isinstance(entry.get("overstrict"), list)
            and not entry.get("undecided"))


#: per-program sweep results; only programs with no undecided
#: condition are persisted (a resumed sweep re-sweeps the rest)
SWEEP_CODEC = RecordCodec("rtl2uspec-check-sweep-journal",
                          _encode_program_result, _decode_program_result,
                          _program_result_decided)


# ----------------------------------------------------------------------
# Litmus suite
# ----------------------------------------------------------------------
@dataclass
class SuiteRunResult:
    """One :func:`run_suite` invocation's outcome."""

    verdicts: List[TestVerdict] = field(default_factory=list)
    #: verdicts replayed from the store (no solver work)
    resumed: int = 0
    pool_stats: PoolStats = field(default_factory=PoolStats)


def run_suite(model: Model, tests: Iterable[LitmusTest], *,
              jobs: int = 1, engine: str = "fresh",
              keep_graphs: bool = False,
              budget: Optional[Budget] = None,
              store: Optional[VerdictStore] = None,
              fault_plan: Optional[FaultPlan] = None) -> SuiteRunResult:
    """Check a litmus suite crash-safely; see the module docstring.

    ``store`` is a :class:`VerdictStore` opened with
    :data:`SUITE_CODEC`.  Raises :class:`InterruptedRun` (partial
    verdicts attached, store committed) if interrupted.

    ``engine`` names the suite's only decider and accepts nothing but
    ``"fresh"``: the ``serve_check`` oracle in ``perfbench/workloads.py``
    still passes ``engine="fresh"``, so the keyword stays until that
    benchmark is next changed.
    """
    if engine != "fresh":
        raise CheckError(f"unknown check engine {engine!r}: litmus tests "
                         f"are decided only by solve_observability "
                         f"('fresh')")
    tests = list(tests)
    checker = Checker(model, keep_graphs=keep_graphs, budget=budget)
    result = SuiteRunResult()
    fingerprints: List[str] = []
    verdicts: List[Optional[TestVerdict]] = [None] * len(tests)
    if store is not None:
        fp_model = model_fingerprint(model)
        fingerprints = [test_fingerprint(fp_model, test) for test in tests]
        for index, fingerprint in enumerate(fingerprints):
            replayed = store.lookup(fingerprint)
            if replayed is not None:
                verdicts[index] = replayed
                result.resumed += 1
    pending = [index for index in range(len(tests))
               if verdicts[index] is None]

    def on_result(position: int, verdict: TestVerdict) -> None:
        index = pending[position]
        verdicts[index] = verdict
        if store is not None:
            store.record(fingerprints[index], verdict)
            store.commit()

    try:
        checker.check_suite([tests[index] for index in pending], jobs,
                            fault_plan=fault_plan, on_result=on_result,
                            pool_stats=result.pool_stats)
    except KeyboardInterrupt as exc:
        if store is not None:
            store.commit()
        completed = [verdict for verdict in verdicts if verdict is not None]
        raise InterruptedRun(
            f"check interrupted after {len(completed)}/{len(tests)} "
            f"test(s)", partial=completed,
            resumable=store is not None) from exc
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
                          budget=state.get("budget"))


def _valid_program_result(result) -> bool:
    return (isinstance(result, tuple) and len(result) == 4
            and isinstance(result[0], int)
            and all(isinstance(part, list) for part in result[1:]))


def run_sweep(model: Model, *, max_threads: int = 2, max_len: int = 2,
              addresses: Sequence[str] = ("x", "y"),
              include_final_memory: bool = True,
              limit: Optional[int] = None,
              jobs: int = 1,
              budget: Optional[Budget] = None,
              store: Optional[VerdictStore] = None,
              fault_plan: Optional[FaultPlan] = None,
              pool_stats: Optional[PoolStats] = None,
              programs: Optional[Sequence[Program]] = None
              ) -> ExactnessReport:
    """Exhaustive sweep with program-granular persistence and resume.

    ``store`` is a :class:`VerdictStore` opened with
    :data:`SWEEP_CODEC`.  Raises :class:`InterruptedRun` (partial
    report attached, store committed) if interrupted.  The returned
    report's :meth:`digest` is identical across job counts, faults,
    and resume.

    ``programs`` substitutes an explicit program list (e.g. a generated
    corpus chunk) for the built-in shape enumeration; store keys are
    content fingerprints either way, so the chunks of a corpus sweep
    share one store.  ``limit`` (0/None = unlimited) caps the prefix in
    both modes.
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
    fingerprints: List[str] = []
    if store is not None:
        fp_model = model_fingerprint(model)
        fingerprints = [program_fingerprint(fp_model, program)
                        for program in programs]
        for index, fingerprint in enumerate(fingerprints):
            results[index] = store.lookup(fingerprint)
            if results[index] is not None:
                report.resumed += 1
    pending = [index for index in range(len(programs))
               if results[index] is None]

    def on_result(position: int, result: ProgramResult) -> None:
        index = pending[position]
        results[index] = result
        if store is not None:
            store.record(fingerprints[index], result)
            store.commit()

    try:
        run_tasks(
            [(programs[index], include_final_memory) for index in pending],
            _sweep_one_worker,
            lambda payload: _check_program(model, payload[0], payload[1],
                                           budget=budget),
            jobs,
            state={"model": model, "budget": budget},
            fault_plan=fault_plan,
            validate=_valid_program_result,
            on_result=on_result,
            stats=pool_stats)
    except KeyboardInterrupt as exc:
        if store is not None:
            store.commit()
        merge_program_results(report, results)
        done = sum(1 for result in results if result is not None)
        report.programs = done
        report.partial = True
        raise InterruptedRun(
            f"sweep interrupted after {done}/{len(programs)} program(s)",
            partial=report, resumable=store is not None) from exc
    merge_program_results(report, results)
    return report
