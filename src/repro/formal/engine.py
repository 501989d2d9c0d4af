"""The property-checking engine: BMC for refutation, k-induction for
proof — the reproduction's JasperGold.

A :class:`SafetyProblem` bundles a (monitor-augmented) netlist with the
names of its 1-bit assumption wires (must hold every cycle for a trace
to count) and assertion wires (the property: must hold every cycle).
:class:`PropertyChecker` decides it:

* BMC over increasing bounds searches for a counterexample trace that
  satisfies all assumptions up to the failure cycle;
* if none is found, k-induction attempts a full proof;
* if induction fails up to ``max_k``, the verdict degrades to
  ``PROVEN_BOUNDED`` (clean up to the BMC bound) — the analogue of
  JasperGold's ``undetermined`` results in the paper's Fig. 6.

Checks carry optional *resource budgets*: a wall-clock deadline
(``timeout_seconds``) and a SAT conflict budget (``max_conflicts``).
A check that exhausts either budget before BMC can decide the property
yields a first-class ``UNKNOWN`` verdict (with the exhausted budget in
``Verdict.reason``) instead of raising, so a single runaway SVA can
never strand a whole synthesis run — the caller degrades conservatively,
mirroring the paper's §6.2 relaxation fallbacks.

Each phase runs on ONE retained solver per problem.  BMC unrolls frame
by frame, deciding each frame's violation selector via
``solve(assumptions=[violation])``; an UNSAT frame permanently asserts
``-violation`` and its learned clauses carry forward to deeper frames.
Refutations exit at the first failing cycle without ever encoding the
frames beyond it, so the counterexample is the minimal one.  Induction
escalates k in a second retained solver by monotone additions: after
the step query fails at k, frame k is asserted clean and the query for
k+1 reuses everything.

Bit-blasting goes through a keyed
:class:`~repro.formal.bitblast.BlastCache`, so repeated checks over the
same design skip straight to unrolling.  A plain problem is first cut
to its word-level cone of influence; a share-base problem blasts its
whole module once and extends it with the monitor.  Either way the
:class:`~repro.formal.unroll.Unroller` encodes only the bit-level
sequential cone of the problem's assume, assert and reset wires, so
a module-sized base costs only what the property can observe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..netlist import Netlist
from ..sat import UNSAT, ArenaSolver, Cnf
from ..sat import UNKNOWN as _SAT_UNKNOWN
from .bitblast import BlastCache, BlastedDesign, extend_bitblast
from .trace import Trace, extract_trace
from .unroll import Unroller

PROVEN = "PROVEN"
REFUTED = "REFUTED"
PROVEN_BOUNDED = "PROVEN_BOUNDED"
UNDETERMINED = "UNDETERMINED"
#: budget exhausted before BMC could decide the property
UNKNOWN = "UNKNOWN"

#: every status a well-formed verdict may carry
VERDICT_STATUSES = (PROVEN, REFUTED, PROVEN_BOUNDED, UNDETERMINED, UNKNOWN)


@dataclass
class SafetyProblem:
    """A property instance over a monitor-augmented netlist."""

    netlist: Netlist
    assume_wires: List[str]
    assert_wires: List[str]
    frozen_inputs: List[str] = field(default_factory=list)
    reset_input: str = "reset"
    name: str = "property"
    #: shared design the monitor netlist extends (share-base mode): the
    #: checker blasts ``base`` once via the BlastCache and only blasts
    #: the monitor delta per problem, so every problem over the same
    #: module after the first is a blast hit
    base: Optional[Netlist] = None

    def roots(self) -> List[str]:
        return list(self.assume_wires) + list(self.assert_wires)


@dataclass
class Verdict:
    """Outcome of checking one :class:`SafetyProblem`."""

    status: str
    method: str
    bound: int
    time_seconds: float
    trace: Optional[Trace] = None
    induction_k: Optional[int] = None
    name: str = "property"
    #: for UNKNOWN verdicts: which budget ran out ("timeout" /
    #: "conflict-budget"); None for decided verdicts
    reason: Optional[str] = None

    @property
    def proven(self) -> bool:
        return self.status in (PROVEN, PROVEN_BOUNDED)

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def unknown(self) -> bool:
        return self.status == UNKNOWN

    def __repr__(self) -> str:
        extra = f", k={self.induction_k}" if self.induction_k is not None else ""
        if self.reason is not None:
            extra += f", reason={self.reason}"
        return (f"Verdict({self.name}: {self.status} via {self.method}, "
                f"bound={self.bound}{extra}, {self.time_seconds:.2f}s)")


@dataclass(frozen=True)
class CheckParams:
    """Picklable per-check parameters for worker-side execution.

    ``timeout_seconds``/``max_conflicts`` are per-check budgets (None =
    the checker's own defaults).
    """

    bound: Optional[int] = None
    prove: bool = True
    timeout_seconds: Optional[float] = None
    max_conflicts: Optional[int] = None


class PropertyChecker:
    """Decides safety problems with BMC + k-induction."""

    def __init__(self, bound: int = 14, max_k: int = 12,
                 max_conflicts: Optional[int] = None,
                 timeout_seconds: Optional[float] = None,
                 blast_cache_size: int = 64,
                 blast_cache: Optional[BlastCache] = None):
        self.bound = bound
        self.max_k = max_k
        self.max_conflicts = max_conflicts
        self.timeout_seconds = timeout_seconds
        self.blast_cache_size = blast_cache_size
        # ``blast_cache`` injects a custom cache (e.g. the service's
        # store-backed PersistentBlastCache); workers unpickling this
        # checker still rebuild a plain in-memory cache (__setstate__).
        self._blast_cache: BlastCache = blast_cache if \
            blast_cache is not None else BlastCache(blast_cache_size)
        #: cumulative statistics across check() calls; the ``sat_*``
        #: counters and ``arena_bytes`` feed ``--profile-sat`` (the
        #: scheduler sums worker deltas key-by-key, so ``arena_bytes``
        #: aggregates each worker's peak)
        self.stats: Dict[str, float] = {
            "checks": 0, "sat_time": 0.0, "bmc_frames": 0,
            "blast_hits": 0, "blast_misses": 0,
            "sat_solves": 0, "sat_propagations": 0, "sat_conflicts": 0,
            "sat_decisions": 0, "sat_reductions": 0, "arena_bytes": 0,
        }
        self._arena_bytes_peak = 0

    def _timed_solve(self, solver, **kwargs) -> str:
        """``solver.solve(**kwargs)`` with wall time and per-phase SAT
        counters accumulated into ``self.stats``."""
        stats = self.stats
        c0 = solver.conflicts
        d0 = solver.decisions
        p0 = solver.propagations
        r0 = solver.reductions
        t0 = time.perf_counter()
        status = solver.solve(**kwargs)
        stats["sat_time"] += time.perf_counter() - t0
        stats["sat_solves"] += 1
        stats["sat_conflicts"] += solver.conflicts - c0
        stats["sat_decisions"] += solver.decisions - d0
        stats["sat_propagations"] += solver.propagations - p0
        stats["sat_reductions"] += solver.reductions - r0
        bytes_now = solver.arena_bytes()
        if bytes_now > self._arena_bytes_peak:
            stats["arena_bytes"] += bytes_now - self._arena_bytes_peak
            self._arena_bytes_peak = bytes_now
        return status

    def __getstate__(self):
        # Workers rebuild an empty blast cache on unpickle: a warm cache
        # can hold dozens of blasted designs and would bloat every task
        # submission; each worker process warms its own copy in-place.
        state = self.__dict__.copy()
        state["_blast_cache"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._blast_cache = BlastCache(self.blast_cache_size)

    # ------------------------------------------------------------------
    def check(self, problem: SafetyProblem, bound: Optional[int] = None,
              prove: bool = True, timeout_seconds: Optional[float] = None,
              max_conflicts: Optional[int] = None) -> Verdict:
        """Decide ``problem``; ``prove=False`` skips induction (useful
        when only refutation matters).

        An exhausted wall-clock or conflict budget during BMC yields an
        UNKNOWN verdict (never an exception and never a wrong answer);
        an exhausted budget during induction soundly degrades the
        result to PROVEN_BOUNDED, since BMC already cleared the bound.
        """
        start = time.perf_counter()
        bound = bound if bound is not None else self.bound
        timeout = timeout_seconds if timeout_seconds is not None \
            else self.timeout_seconds
        deadline = (start + timeout) if timeout is not None else None
        conflicts = max_conflicts if max_conflicts is not None \
            else self.max_conflicts
        netlist, design = self._blast(problem)

        cex, budget_hit = self._bmc(design, problem, netlist, bound,
                                    deadline, conflicts)
        self.stats["checks"] += 1
        if budget_hit is not None:
            elapsed = time.perf_counter() - start
            return Verdict(UNKNOWN, "bmc", bound, elapsed, name=problem.name,
                           reason=budget_hit)
        if cex is not None:
            elapsed = time.perf_counter() - start
            return Verdict(REFUTED, "bmc", bound, elapsed, trace=cex, name=problem.name)
        if prove:
            k_ok = self._induction(design, problem, netlist, bound,
                                   deadline, conflicts)
            elapsed = time.perf_counter() - start
            if k_ok is not None:
                return Verdict(PROVEN, "k-induction", bound, elapsed,
                               induction_k=k_ok, name=problem.name)
            return Verdict(PROVEN_BOUNDED, "bmc", bound, elapsed, name=problem.name)
        elapsed = time.perf_counter() - start
        return Verdict(PROVEN_BOUNDED, "bmc", bound, elapsed, name=problem.name)

    def check_problem(self, problem: SafetyProblem,
                      params: Optional[CheckParams] = None) -> Verdict:
        """Picklable entry point for pool workers: ``check`` driven by a
        :class:`CheckParams` value instead of keyword arguments."""
        params = params or CheckParams()
        return self.check(problem, bound=params.bound, prove=params.prove,
                          timeout_seconds=params.timeout_seconds,
                          max_conflicts=params.max_conflicts)

    # ------------------------------------------------------------------
    def _blast(self, problem: SafetyProblem) -> Tuple[Netlist, BlastedDesign]:
        """Bit-blast the problem via the shared cache."""
        hits0 = self._blast_cache.hits
        misses0 = self._blast_cache.misses
        if problem.base is not None:
            # Share-base path: the (module) base design is blasted whole
            # once, so one cache entry serves every monitor, and only
            # the monitor delta is blasted per problem.  The unroller
            # then encodes just the property's bit-level cone of it.
            _, base_blasted = self._blast_cache.get(problem.base, None, ())
            netlist = problem.netlist
            design = extend_bitblast(base_blasted, netlist,
                                     problem.frozen_inputs)
        else:
            netlist, design = self._blast_cache.get(
                problem.netlist, problem.roots(), problem.frozen_inputs)
        self.stats["blast_hits"] += self._blast_cache.hits - hits0
        self.stats["blast_misses"] += self._blast_cache.misses - misses0
        return netlist, design

    # ------------------------------------------------------------------
    def _reset_unit(self, unroller: Unroller, problem: SafetyProblem,
                    t: int) -> int:
        """Unit constraint for the reset input at frame ``t`` (high in
        the first frame, low after)."""
        lit = unroller.wire_lit(problem.reset_input, t)
        return lit if t == 0 else -lit

    @staticmethod
    def _unroll_roots(problem: SafetyProblem, netlist: Netlist) -> List[str]:
        """The wires an unroller must encode: the assume wires present
        in ``netlist``, the assert wires and the reset input."""
        roots = [w for w in problem.assume_wires if w in netlist.wires]
        roots += problem.assert_wires
        if problem.reset_input in netlist.inputs:
            roots.append(problem.reset_input)
        return roots

    def _frame_ok(self, unroller: Unroller, netlist: Netlist,
                  problem: SafetyProblem, cnf: Cnf, t: int) -> Tuple[int, int]:
        """(assume_ok_t, fail_t) CNF literals for frame ``t``."""
        assume_lits = [unroller.wire_lit(w, t) for w in problem.assume_wires
                       if w in netlist.wires]
        fail_lits = [-unroller.wire_lit(w, t) for w in problem.assert_wires]
        assume_ok = cnf.encode_and(assume_lits) if assume_lits else cnf.true_lit
        fail = cnf.encode_or(fail_lits) if fail_lits else cnf.false_lit
        return assume_ok, fail

    def _bmc(self, design: BlastedDesign, problem: SafetyProblem,
             netlist: Netlist, bound: int,
             deadline: Optional[float] = None,
             max_conflicts: Optional[int] = None
             ) -> Tuple[Optional[Trace], Optional[str]]:
        """Retained-solver BMC.  Returns ``(counterexample,
        budget_hit)``: the trace if the property is refuted (None if
        clean up to ``bound``), and the name of the exhausted budget
        when BMC could not decide.

        One solver lives across all frames.  Frame ``t``'s violation
        selector is decided under ``assumptions=[violation]``; a SAT
        answer is a counterexample at the *minimal* failing cycle (no
        deeper frame is ever encoded), and an UNSAT answer permanently
        asserts ``-violation`` — sound because UNSAT under a single
        assumption means the clause database already implies its
        negation — and carries every learned clause into frame ``t+1``.
        The conflict budget is shared across frames, while the deadline
        is absolute.
        """
        cnf = Cnf()
        unroller = Unroller(design, cnf, self._unroll_roots(problem, netlist))
        solver = ArenaSolver()
        fed = 0
        has_reset = problem.reset_input in netlist.inputs
        prefix_ok = cnf.true_lit
        used_conflicts = 0
        for t in range(bound + 1):
            if deadline is not None and time.perf_counter() >= deadline:
                return None, "timeout"
            unroller.extend_to(t + 1)
            if has_reset:
                cnf.assert_lit(self._reset_unit(unroller, problem, t))
            assume_ok, fail = self._frame_ok(unroller, netlist, problem, cnf, t)
            prefix_ok = cnf.encode_and((prefix_ok, assume_ok))
            violation = cnf.encode_and((prefix_ok, fail))
            solver.add_cnf(cnf, fed)
            fed = len(cnf.clauses)
            remaining = None
            if max_conflicts is not None:
                remaining = max(0, max_conflicts - used_conflicts)
            before = solver.conflicts
            status = self._timed_solve(solver, assumptions=[violation],
                                       max_conflicts=remaining,
                                       deadline=deadline)
            used_conflicts += solver.conflicts - before
            self.stats["bmc_frames"] += 1
            if status == _SAT_UNKNOWN:
                if deadline is not None and time.perf_counter() >= deadline:
                    return None, "timeout"
                return None, "conflict-budget"
            if status == UNSAT:
                solver.add_clause([-violation])
                continue
            return extract_trace(unroller, solver, t + 1, t), None
        return None, None

    def _induction(self, design: BlastedDesign, problem: SafetyProblem,
                   netlist: Netlist, base_bound: int,
                   deadline: Optional[float] = None,
                   max_conflicts: Optional[int] = None) -> Optional[int]:
        """Retained-solver k-induction for k = 1..max_k; returns the
        successful k.  Depths beyond the (already clean) BMC bound are
        never tried, since their base case is unchecked.  A budget hit
        simply stops the escalation (the caller degrades to
        PROVEN_BOUNDED, which BMC has already established).

        Escalating k only ever *adds* constraints: after the step query
        fails at k (SAT under ``assumptions=[fail_k]``), frame k is
        asserted clean and frame k+1 is appended, so the solver keeps
        its learned clauses across depths.  Each step-k formula is
        semantically identical to a fresh per-k query, hence the same
        ``induction_k``.  Each depth gets the full conflict budget.
        """
        cnf = Cnf()
        unroller = Unroller(design, cnf, self._unroll_roots(problem, netlist),
                            free_initial_state=True)
        solver = ArenaSolver()
        fed = 0
        has_reset = problem.reset_input in netlist.inputs
        # Frame 0 starts clean: post-reset operation with assumptions
        # honored and the property holding.
        unroller.extend_to(1)
        if has_reset:
            cnf.assert_lit(-unroller.wire_lit(problem.reset_input, 0))
        assume_ok, fail = self._frame_ok(unroller, netlist, problem, cnf, 0)
        cnf.assert_lit(assume_ok)
        cnf.assert_lit(-fail)
        for k in range(1, self.max_k + 1):
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            if k > base_bound:
                # Base case beyond the BMC bound has not been checked.
                return None
            unroller.extend_to(k + 1)
            if has_reset:
                cnf.assert_lit(-unroller.wire_lit(problem.reset_input, k))
            assume_ok, fail = self._frame_ok(unroller, netlist, problem, cnf, k)
            cnf.assert_lit(assume_ok)
            solver.add_cnf(cnf, fed)
            fed = len(cnf.clauses)
            status = self._timed_solve(solver, assumptions=[fail],
                                       max_conflicts=max_conflicts,
                                       deadline=deadline)
            if status == UNSAT:
                return k
            if status == _SAT_UNKNOWN:
                return None
            # Step k failed: frame k is clean in every deeper query.
            cnf.assert_lit(-fail)
        return None
