"""Incremental observability: ground a program once, decide many
final conditions as assumption flips on one retained SAT solver.

The exhaustive sweep (``repro sweep``) decides dozens of final
conditions per bounded program, and this module is how it decides
them.  Re-grounding and fresh-solving each condition (what
:func:`repro.check.solver.solve_observability` does for a single
litmus test) repeats the same grounding work every time;
:class:`ProgramSolver` instead grounds the µspec model *symbolically*: every load's observed value and every
final-memory constraint becomes a CNF *selector variable*, and the
data-dependent predicates (``SameData``, ``DataFromInitial``,
``IsFinalValue``) ground to literals over those selectors instead of
constants.  Deciding one final condition is then a single
``solve(assumptions=...)`` call against the retained clause database —
learned clauses and saved phases carry over between conditions.

Selector semantics (one variable per (load, value) and per
(address, value) pair over the program's small value domain):

* selector true  = the condition pins that load / final memory cell to
  that value;
* all selectors of a load false = the load is unconstrained, which is
  the fresh path's ``data=None`` ("any value") semantics.

Every ``decide`` passes a *complete* assignment of all selector
variables as assumptions, so the solver can never invent a pin.  A
condition outside the encoded value domain (or needing a final-memory
constraint when the model has no memory location) falls back to the
fresh per-condition path, keeping verdicts identical by construction.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..litmus import LitmusTest
from ..resilience import DECIDED, TIMEOUT, Budget, BudgetClock
from ..sat import SAT, UNSAT, ArenaSolver, Cnf
from ..uspec import ast as U
from .evaluator import ModelEvaluator, _Unsatisfiable
from .instance import GroundContext, Microop
from .solver import (
    EdgeIndex,
    ObservabilityResult,
    SolveStats,
    _final_write_options,
    solve_acyclic,
    solve_observability,
)

#: a final condition: (((thread, reg), value), ...) with thread -1 = memory
Condition = Iterable[Tuple[Tuple[int, str], int]]


class SymbolicContext(GroundContext):
    """A :class:`GroundContext` whose load values are CNF selectors.

    Loads carry ``data=None``; the data-dependent predicates ground to
    literals over per-(load, value) selector variables so the same CNF
    serves every final condition.
    """

    def __init__(self, test: LitmusTest, cnf: Cnf):
        super().__init__(LitmusTest(test.name, test.program, ()))
        self.cnf = cnf
        #: small closed value domain: initial 0/1 plus every store value
        self.value_domain: List[int] = sorted(
            {0, 1} | {w.data for w in self.writes()})
        #: (load uid, value) -> selector var ("condition pins uid to value")
        self.load_sel: Dict[Tuple[int, int], int] = {}
        #: (address, value) -> selector var ("condition pins final mem")
        self.mem_sel: Dict[Tuple[str, int], int] = {}
        #: (core, register) -> load uid, for condition lookup
        self.load_uid: Dict[Tuple[int, str], int] = {}
        for uop in self.uops:
            if uop.is_read:
                self.load_uid[(uop.core, uop.reg)] = uop.uid
                for value in self.value_domain:
                    self.load_sel[(uop.uid, value)] = cnf.new_var()
        for addr in sorted({uop.addr for uop in self.uops}):
            for value in self.value_domain:
                self.mem_sel[(addr, value)] = cnf.new_var()

    # ------------------------------------------------------------------
    # Symbolic value tests (each returns a CNF literal)
    # ------------------------------------------------------------------
    def _pin_conflicts(self, uid: int, value) -> int:
        """Literal: the condition pins load ``uid`` to a value other
        than ``value`` (i.e. the fresh predicate would be False)."""
        others = [var for (u, v), var in self.load_sel.items()
                  if u == uid and v != value]
        return self.cnf.encode_or(others)

    def _same_data(self, a: Microop, b: Microop):
        if a.data is not None and b.data is not None:
            return a.data == b.data
        if a.data is None and b.data is None:
            # Two loads: false only when pinned to different values.
            conflicts = []
            for v1 in self.value_domain:
                for v2 in self.value_domain:
                    if v1 != v2:
                        conflicts.append(self.cnf.encode_and(
                            [self.load_sel[(a.uid, v1)],
                             self.load_sel[(b.uid, v2)]]))
            return -self.cnf.encode_or(conflicts)
        load, concrete = (a, b) if a.data is None else (b, a)
        return -self._pin_conflicts(load.uid, concrete.data)

    def _is_final_value(self, uop: Microop):
        options = []
        for value in self.value_domain:
            mem = self.mem_sel.get((uop.addr, value))
            if mem is None:
                continue
            if uop.data is None:
                options.append(self.cnf.encode_and(
                    [mem, self.load_sel[(uop.uid, value)]]))
            elif uop.data == value:
                options.append(mem)
        if not options:
            return False
        return self.cnf.encode_or(options)

    # ------------------------------------------------------------------
    def eval_pred(self, name: str, args: Tuple[Microop, ...]):
        if name == "SameData":
            return self._same_data(args[0], args[1])
        if name == "DataFromInitial":
            uop = args[0]
            if uop.data is None:
                return -self._pin_conflicts(uop.uid, 0)
            return super().eval_pred(name, args)
        if name == "IsFinalValue":
            return self._is_final_value(args[0])
        return super().eval_pred(name, args)


class ProgramSolver:
    """Grounds one program once; decides its final conditions
    incrementally.

    ``decide(condition)`` returns the same verdict
    :func:`repro.check.solver.solve_observability` would for a
    :class:`LitmusTest` with that final condition — pinned by the
    decider cross-check tests — but amortizes grounding, the cycle
    cuts and the solver's learned clauses across all conditions of the
    program.  Consecutive conditions share a prefix of their selector
    assumptions; after a SAT answer the next solve keeps that prefix's
    decision levels instead of re-propagating them.  It draws no
    witness graph: only ``check --show-graph`` needs one, and the
    suite is decided by ``solve_observability``.
    """

    def __init__(self, model: U.Model, test: LitmusTest):
        start = time.perf_counter()
        self.model = model
        self.test = test
        self.cnf = Cnf()
        self.ctx = SymbolicContext(test, self.cnf)
        self.evaluator = ModelEvaluator(model, self.ctx, cnf=self.cnf)
        self.always_unsat = False
        self.mem_fallback = False
        self.solver = None
        self.edges: Optional[EdgeIndex] = None
        self.stats = SolveStats()
        self.decides = 0
        self.fresh_fallbacks = 0
        #: the assumptions the last SAT answer left on the solver's
        #: trail (UNSAT and budget exits backtrack to level 0)
        self._on_trail: Optional[List[int]] = None
        try:
            self.evaluator.ground_model()
        except _Unsatisfiable:
            # Some axiom is structurally false for this program shape,
            # independent of any condition: every outcome is unobservable.
            self.always_unsat = True
        if not self.always_unsat:
            self._encode_final_memory()
            self.edges = EdgeIndex.of(self.evaluator.edge_vars)
            self.solver = ArenaSolver()
            self.solver.add_cnf(self.cnf)
        self.stats.vars = self.cnf.num_vars
        self.stats.clauses = len(self.cnf.clauses)
        self.stats.ground_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    def _encode_final_memory(self) -> None:
        """Guard the fresh path's final-memory constraint behind each
        (address, value) selector: infeasible pins become unit clauses,
        feasible ones imply "a write of that value serializes last"."""
        mem_loc = self.evaluator.plan.memory_location
        cnf = self.cnf
        for (addr, value), sel in self.ctx.mem_sel.items():
            writes = self.ctx.writes(addr)
            if not writes:
                if value != 0:
                    cnf.add_clause([-sel])
                continue
            candidates = [w for w in writes if w.data == value]
            if not candidates:
                cnf.add_clause([-sel])
                continue
            if mem_loc is None:
                # The fresh path raises CheckError here; route any
                # condition that actually constrains memory to it.
                self.mem_fallback = True
                continue
            options = _final_write_options(
                self.evaluator, writes, candidates, mem_loc)
            cnf.add_clause([-sel, cnf.encode_or(options)])

    # ------------------------------------------------------------------
    def _fresh_fallback(self, condition,
                        clock: Optional[BudgetClock] = None
                        ) -> ObservabilityResult:
        self.fresh_fallbacks += 1
        return solve_observability(
            self.model,
            LitmusTest(self.test.name, self.test.program, tuple(condition)),
            clock=clock)

    # Plan kinds: how one condition will be decided.
    _FALLBACK = "fallback"   # route to the fresh per-condition path
    _UNSAT = "unsat"         # decided without solving (unobservable)
    _SOLVE = "solve"         # a complete assumption set for the solver

    def _plan(self, condition: Tuple) -> Tuple[str, Optional[List[int]]]:
        """Classify one condition: decide-by-construction, fresh-path
        fallback, or a complete selector assumption list to solve.  The
        precedence mirrors the historical ``decide`` exactly."""
        # Later entries win, matching dict(test.final) in GroundContext.
        entries = dict(condition)
        pins: Dict[int, int] = {}
        mems: Dict[str, int] = {}
        for (tid, reg), value in entries.items():
            if tid == -1:
                mems[reg] = value
                continue
            uid = self.ctx.load_uid.get((tid, reg))
            # Conditions naming unknown registers are ignored, exactly
            # like the fresh path's final.get() miss.
            if uid is not None:
                pins[uid] = value
        domain = set(self.ctx.value_domain)
        if any(value not in domain for value in pins.values()):
            return self._FALLBACK, None
        if self.mem_fallback and mems:
            return self._FALLBACK, None
        for addr in list(mems):
            if (addr, 0) not in self.ctx.mem_sel:
                # Address the program never touches: value 0 is the
                # initial state (no constraint), anything else is
                # unsatisfiable at grounding time on the fresh path.
                if mems[addr] != 0:
                    return self._UNSAT, None
                del mems[addr]
            elif mems[addr] not in domain:
                return self._FALLBACK, None
        if self.always_unsat:
            return self._UNSAT, None
        assumptions = [var if pins.get(uid) == value else -var
                       for (uid, value), var in self.ctx.load_sel.items()]
        assumptions.extend(var if mems.get(addr) == value else -var
                           for (addr, value), var in self.ctx.mem_sel.items())
        return self._SOLVE, assumptions

    def decide(self, condition: Condition,
               clock: Optional[BudgetClock] = None) -> ObservabilityResult:
        """Observability of one final condition (assumption flip).

        ``clock`` is an already-running :class:`BudgetClock`; exhausting
        it degrades to an undecided (TIMEOUT/UNKNOWN) result.
        """
        start = time.perf_counter()
        self.decides += 1
        condition = tuple(condition)
        if clock is not None and clock.expired():
            return self._result(False, start, status=TIMEOUT)
        kind, assumptions = self._plan(condition)
        if kind is self._FALLBACK:
            return self._fresh_fallback(condition, clock)
        if kind is self._UNSAT:
            return self._result(False, start)
        keep = 0
        for kept, assumption in zip(self._on_trail or (), assumptions):
            if kept != assumption:
                break
            keep += 1
        solve_start = time.perf_counter()
        status, calls, cuts = solve_acyclic(
            self.solver, self.edges, assumptions, clock, keep)
        solve_seconds = time.perf_counter() - solve_start
        self._on_trail = assumptions if status == SAT else None
        self.stats.solve_seconds += solve_seconds
        self.stats.cycle_cuts += cuts
        return self._result(status == SAT, start, solve_seconds=solve_seconds,
                            status=DECIDED if status in (SAT, UNSAT)
                            else clock.degraded_status(),
                            iterations=calls, cuts=cuts)

    def decide_batch(self, conditions: Iterable[Condition],
                     budget: Optional[Budget] = None
                     ) -> List[ObservabilityResult]:
        """:meth:`decide` each condition in order; ``budget`` (if any)
        bounds each condition separately."""
        return [self.decide(condition,
                            clock=budget.start() if budget else None)
                for condition in conditions]

    # ------------------------------------------------------------------
    def _result(self, observable: bool, start: float,
                solve_seconds: float = 0.0,
                status: str = DECIDED, iterations: int = 1,
                cuts: int = 0) -> ObservabilityResult:
        stats = SolveStats(
            vars=self.stats.vars,
            clauses=self.stats.clauses,
            cycle_cuts=cuts,
            # Grounding is amortized: charge it to the first decide so
            # suite totals stay meaningful.
            ground_seconds=self.stats.ground_seconds
            if self.decides == 1 else 0.0,
            solve_seconds=solve_seconds,
        )
        return ObservabilityResult(observable, None, iterations,
                                   time.perf_counter() - start, stats=stats,
                                   status=status)
