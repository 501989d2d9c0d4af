"""Exhaustive small-program verification (a PipeProof-style sweep).

The paper (section 7) names PipeProof integration — proving MCM
correctness over *all* programs rather than a litmus suite — as future
work. This module takes a bounded step in that direction: enumerate
every program shape up to a size bound, every final condition over its
loads (and final memory), and check that the µspec model's
observability verdict matches the SC reference exactly.

Agreement over the full bounded program space is a much stronger
statement than a 56-test suite: it shows the synthesized model is both
sound (forbidden outcomes unobservable) and precise (allowed outcomes
observable) for every small program.

Each program has one CNF but dozens of final conditions, so the sweep
grounds once per program and decides each condition as an assumption
flip (:class:`repro.check.incremental.ProgramSolver`); a condition
outside the symbolic encoding's value domain falls back to the suite's
per-test :func:`repro.check.solver.solve_observability`.  ``jobs=N``
distributes whole programs over the shared resilience pool; results
are merged in enumeration order, so the report is identical for any
job count (and under injected worker crashes/hangs).

Budgeted sweeps (``budget=``) degrade gracefully: a condition whose
solve runs out of budget lands in ``report.undecided`` and blocks the
EXACT claim — an exhausted budget is never silently a pass.
:func:`verify_exactness` delegates to the crash-safe, resumable
:func:`repro.check.runner.run_sweep`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from ..litmus import LitmusTest
from ..mcm import sc_outcomes
from ..mcm.events import Access, Program, R, W
from ..resilience import Budget
from .incremental import ProgramSolver

#: one program's sweep outcome: (checked, unsound, overstrict, undecided)
ProgramResult = Tuple[int, List[Tuple[str, Tuple]], List[Tuple[str, Tuple]],
                      List[Tuple[str, Tuple]]]


@dataclass
class ExactnessReport:
    """Result of one exhaustive sweep."""

    programs: int = 0
    outcomes_checked: int = 0
    unsound: List[Tuple[str, Tuple]] = field(default_factory=list)
    overstrict: List[Tuple[str, Tuple]] = field(default_factory=list)
    #: conditions whose solve budget expired (conservative: blocks EXACT)
    undecided: List[Tuple[str, Tuple]] = field(default_factory=list)
    #: programs replayed from the store (diagnostic, not digested)
    resumed: int = 0
    #: an interrupted sweep's report: ``programs`` counts only the
    #: programs decided, and exactness is not established
    partial: bool = False

    @property
    def exact(self) -> bool:
        return not self.unsound and not self.overstrict and \
            not self.undecided and not self.partial

    def summary(self) -> str:
        if self.exact:
            status = "EXACT"
        else:
            parts = [f"{len(self.unsound)} unsound",
                     f"{len(self.overstrict)} overstrict"]
            if self.undecided:
                parts.append(f"{len(self.undecided)} undecided")
            status = " / ".join(parts)
            if self.partial:
                status = f"INCOMPLETE ({status} so far)"
        note = f" ({self.resumed} resumed)" if self.resumed else ""
        return (f"{self.programs} programs, {self.outcomes_checked} outcomes "
                f"checked{note}: {status}")

    def digest(self) -> str:
        """SHA-256 over the deterministic projection of the sweep:
        identical across job counts, injected faults, and
        interrupt/resume (timings and resume counters excluded)."""
        canonical = json.dumps({
            "programs": self.programs,
            "outcomes_checked": self.outcomes_checked,
            "unsound": [formatted for formatted, _ in self.unsound],
            "overstrict": [formatted for formatted, _ in self.overstrict],
            "undecided": [formatted for formatted, _ in self.undecided],
        }, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def enumerate_programs(max_threads: int = 2, max_len: int = 2,
                       addresses: Sequence[str] = ("x", "y")) -> Iterator[Program]:
    """All programs with up to ``max_threads`` threads of up to
    ``max_len`` accesses each, over the given addresses (stores write 1;
    value variety is covered by the co/final-memory conditions)."""
    slots: List[Access] = []
    for addr in addresses:
        slots.append(W(addr, 1))
        slots.append(R(addr, "r?"))

    def thread_shapes(length: int):
        return itertools.product(slots, repeat=length)

    for num_threads in range(1, max_threads + 1):
        lengths = itertools.product(range(1, max_len + 1), repeat=num_threads)
        for shape in lengths:
            pools = [list(thread_shapes(n)) for n in shape]
            for combo in itertools.product(*pools):
                reg = 0
                threads = []
                for thread in combo:
                    accesses = []
                    for access in thread:
                        if access.kind == "R":
                            reg += 1
                            accesses.append(R(access.addr, f"r{reg}"))
                        else:
                            accesses.append(access)
                    threads.append(tuple(accesses))
                yield tuple(threads)


def _canonical(program: Program) -> Tuple:
    """Canonical form modulo thread permutation."""
    return tuple(sorted(
        tuple((a.kind, a.addr) for a in thread) for thread in program))


def enumerate_conditions(program: Program) -> Iterator[Tuple]:
    """All full assignments of load results (0/1) for the program."""
    loads = [(tid, access.reg) for tid, thread in enumerate(program)
             for access in thread if access.kind == "R"]
    if not loads:
        # Pure-write programs: distinguish nothing; the write-serialization
        # cases are covered by programs with observer loads and by the
        # final-memory sweep in verify_exactness.
        yield tuple()
        return
    for values in itertools.product((0, 1), repeat=len(loads)):
        yield tuple((key, value) for key, value in zip(loads, values))


def _program_conditions(program: Program,
                        include_final_memory: bool) -> List[Tuple]:
    """All non-empty final conditions swept for one program."""
    conditions = list(enumerate_conditions(program))
    if include_final_memory:
        written = sorted({a.addr for t in program for a in t if a.kind == "W"})
        extended = []
        for condition in conditions:
            extended.append(condition)
            for addr in written:
                for value in (0, 1):
                    extended.append(condition + (((-1, addr), value),))
        conditions = extended
    return [condition for condition in conditions if condition]


def _check_program(model, program: Program,
                   include_final_memory: bool,
                   budget: Optional[Budget] = None) -> ProgramResult:
    """Sweep every condition of one program; returns
    (outcomes_checked, unsound, overstrict, undecided).  The budget is
    per *condition*; an expired solve lands in ``undecided`` rather
    than claiming soundness or strictness either way."""
    reference = sc_outcomes(program)
    conditions = _program_conditions(program, include_final_memory)
    checked = 0
    unsound: List[Tuple[str, Tuple]] = []
    overstrict: List[Tuple[str, Tuple]] = []
    undecided: List[Tuple[str, Tuple]] = []
    if not conditions:
        return checked, unsound, overstrict, undecided
    instance = ProgramSolver(
        model, LitmusTest("sweep", program, conditions[0]))
    results = instance.decide_batch(conditions, budget)
    for condition, result in zip(conditions, results):
        test = LitmusTest("sweep", program, condition)
        permitted = any(test.outcome_matches(o) for o in reference)
        checked += 1
        if not result.decided:
            undecided.append((test.format(), condition))
        elif result.observable and not permitted:
            unsound.append((test.format(), condition))
        elif permitted and not result.observable:
            overstrict.append((test.format(), condition))
    return checked, unsound, overstrict, undecided


def normalize_limit(limit: Optional[int]) -> Optional[int]:
    """Pin down the sweep-limit convention in ONE place.

    ``None``, ``0``, and negative values all mean "no limit" (the CLI's
    ``--limit`` defaults to 0 = sweep everything; service jobs accept
    the same convention, so a raw ``limit: 0`` submission no longer
    sweeps zero programs). A positive value caps the program count.
    """
    if limit is None:
        return None
    limit = int(limit)
    return limit if limit > 0 else None


def enumerate_sweep_programs(max_threads: int = 2, max_len: int = 2,
                             addresses: Sequence[str] = ("x", "y"),
                             limit: Optional[int] = None) -> List[Program]:
    """The deduplicated, deterministically ordered program list one
    sweep covers (shared by :func:`verify_exactness` and the resumable
    runner, so stores key the exact same programs)."""
    limit = normalize_limit(limit)
    programs: List[Program] = []
    seen = set()
    for program in enumerate_programs(max_threads, max_len, addresses):
        canon = _canonical(program)
        if canon in seen:
            continue
        seen.add(canon)
        if limit is not None and len(programs) >= limit:
            break
        programs.append(program)
    return programs


def merge_program_results(report: ExactnessReport,
                          results: Sequence[Optional[ProgramResult]]) -> None:
    """Fold per-program results (enumeration order) into the report."""
    for result in results:
        if result is None:
            continue
        checked, unsound, overstrict, undecided = result
        report.outcomes_checked += checked
        report.unsound.extend(unsound)
        report.overstrict.extend(overstrict)
        report.undecided.extend(undecided)


def verify_exactness(model, max_threads: int = 2, max_len: int = 2,
                     addresses: Sequence[str] = ("x", "y"),
                     include_final_memory: bool = True,
                     limit: Optional[int] = None,
                     jobs: int = 1,
                     budget: Optional[Budget] = None,
                     fault_plan=None,
                     store=None,
                     programs: Optional[Sequence[Program]] = None
                     ) -> ExactnessReport:
    """Sweep all bounded programs/outcomes; compare the model against SC.

    ``limit`` bounds the number of programs (0 or ``None`` means
    unlimited — see :func:`normalize_limit`).  ``jobs``
    distributes programs over worker processes; the report is identical
    for any job count.  ``budget`` bounds each condition's solve
    (expiries land in ``report.undecided``); ``store`` (a
    :class:`repro.formal.VerdictStore` opened with
    :data:`repro.check.runner.SWEEP_CODEC`) makes the sweep crash-safe
    and resumable, and ``fault_plan`` injects deterministic
    worker faults for the resilience tests.  ``programs`` replaces the
    built-in shape enumeration with an explicit program list (e.g. a
    generated-corpus chunk); ``limit`` still caps the prefix swept.
    """
    from .runner import run_sweep
    return run_sweep(model, max_threads=max_threads, max_len=max_len,
                     addresses=addresses,
                     include_final_memory=include_final_memory,
                     limit=limit, jobs=jobs, budget=budget,
                     fault_plan=fault_plan, store=store,
                     programs=programs)
