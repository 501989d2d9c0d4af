"""Observability solving: SAT with lazy acyclicity cuts.

The Check tools search for an acyclic µhb graph satisfying all axioms;
acyclic = the execution is possible (paper section 2).  The CNF holds
no acyclicity constraint; it is enforced lazily (:func:`solve_acyclic`).
Each SAT model's chosen edges are searched for a cycle; if one is
found, the clause ``~e1 | ... | ~ek`` over its edges is added and the
solver runs again, otherwise the model is the witness.

The loop is exact.  Every cut clause is implied by acyclicity, so no
acyclic satisfying graph is ever removed: UNSAT still proves the
outcome impossible.  Every SAT answer is checked for a cycle, so SAT
means an acyclic witness exists.  It terminates because each cut
removes the current model.  Edge variables default to the false
phase and ``edge_var`` already forbids 2-cycles, so few models carry
a cycle: the 56-test suite needs 25 cuts in all, and no program of
the 1,442-program corpora more than 20.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import CheckError
from ..litmus import LitmusTest
from ..resilience import DECIDED, TIMEOUT, Budget, BudgetClock
from ..sat import SAT, UNSAT, ArenaSolver
from ..uspec import ast as U
from .evaluator import ModelEvaluator, UhbEdge, UhbNode, _Unsatisfiable
from .instance import GroundContext


@dataclass
class UhbGraph:
    """A concrete (acyclic) µhb graph witnessing an execution."""

    ctx: GroundContext
    nodes_of: Dict[int, List[str]]
    edges: List[Tuple[UhbNode, UhbNode, str]]
    stage_order: List[str]

    def to_dot(self, title: str = "uhb") -> str:
        """Fig. 1b-style rendering: columns = instructions in program
        order, rows = locations in stage order."""
        lines = [f'digraph "{title}" {{',
                 "  rankdir=TB; splines=true; node [shape=circle];"]
        uops = sorted(self.ctx.uops, key=lambda u: (u.core, u.index))
        # Column headers.
        for uop in uops:
            lines.append(f'  subgraph "cluster_i{uop.uid}" {{')
            lines.append(f'    label="{uop.label()}";')
            for loc in self.nodes_of.get(uop.uid, []):
                lines.append(f'    "n{uop.uid}_{loc}" [label="{loc}"];')
            lines.append("  }")
        color_of = {"PO": "green", "rf": "deeppink", "fr": "red",
                    "co": "black", "path": "black"}
        for src, dst, label in self.edges:
            color = color_of.get(label, "blue")
            lines.append(
                f'  "n{src[0]}_{src[1]}" -> "n{dst[0]}_{dst[1]}" '
                f'[label="{label}", color="{color}"];')
        lines.append("}")
        return "\n".join(lines)


@dataclass
class SolveStats:
    """Per-instance encoding/solving statistics (surfaced in reports).

    The ``sat_*`` counters and ``arena_bytes`` are cumulative CDCL-core
    totals feeding ``--profile-sat``.  ``cycle_cuts`` counts the
    blocking clauses :func:`solve_acyclic` added; 0 means no SAT model
    chose a cycle.
    """

    vars: int = 0
    clauses: int = 0
    cycle_cuts: int = 0
    ground_seconds: float = 0.0
    solve_seconds: float = 0.0
    sat_propagations: int = 0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    sat_reductions: int = 0
    arena_bytes: int = 0

    @property
    def ground_ms(self) -> float:
        return self.ground_seconds * 1000.0

    @property
    def solve_ms(self) -> float:
        return self.solve_seconds * 1000.0

    def absorb_solver(self, solver) -> None:
        """Fold a CDCL core's cumulative counters into these stats.
        Call once per solver (the counters are lifetime totals)."""
        self.sat_propagations += solver.propagations
        self.sat_conflicts += solver.conflicts
        self.sat_decisions += solver.decisions
        self.sat_reductions += solver.reductions
        bytes_now = solver.arena_bytes()
        if bytes_now > self.arena_bytes:
            self.arena_bytes = bytes_now


@dataclass
class ObservabilityResult:
    observable: bool
    graph: Optional[UhbGraph]
    #: SAT calls the decision made, cut rounds included (a refutation
    #: found while grounding counts as one)
    iterations: int
    time_seconds: float
    stats: SolveStats = field(default_factory=SolveStats)
    #: DECIDED, or TIMEOUT/UNKNOWN when a budget expired mid-solve; an
    #: undecided result always carries ``observable=False`` and must be
    #: consumed conservatively (never as a PASS or an UNSAT proof).
    status: str = DECIDED

    @property
    def decided(self) -> bool:
        return self.status == DECIDED


class EdgeIndex(NamedTuple):
    """Candidate µhb edges over densely numbered nodes: one
    ``(var, source id, target id)`` triple per edge variable.  The cut
    loop searches every SAT model in this form; node ids index flat
    lists instead of hashing node tuples."""

    edges: List[Tuple[int, int, int]]
    nodes: int

    @classmethod
    def of(cls, edge_vars: Dict[UhbEdge, int]) -> "EdgeIndex":
        ids: Dict[UhbNode, int] = {}
        edges = [(var, ids.setdefault(src, len(ids)),
                  ids.setdefault(dst, len(ids)))
                 for (src, dst), var in edge_vars.items()]
        return cls(edges, len(ids))

    def cycle(self, model: Sequence[int]) -> Optional[List[int]]:
        """The variables of one directed cycle among the edges true in
        ``model`` (``ArenaSolver.model()``: ``model[var - 1] > 0``),
        in cycle order; None if those edges are acyclic."""
        succ: List[List[Tuple[int, int]]] = [[] for _ in range(self.nodes)]
        for var, src, dst in self.edges:
            if model[var - 1] > 0:
                succ[src].append((dst, var))
        state = [0] * self.nodes  # 0 unseen, 1 on the DFS path, 2 done
        for start in range(self.nodes):
            if state[start] or not succ[start]:
                continue
            state[start] = 1
            # path[i] is the variable of the edge nodes[i] -> nodes[i+1]
            nodes = [start]
            path: List[int] = []
            pending = [iter(succ[start])]
            while pending:
                step = next(pending[-1], None)
                if step is None:
                    state[nodes.pop()] = 2
                    pending.pop()
                    if path:
                        path.pop()
                    continue
                dst, var = step
                if state[dst] == 1:
                    return path[nodes.index(dst):] + [var]
                if not state[dst]:
                    state[dst] = 1
                    nodes.append(dst)
                    path.append(var)
                    pending.append(iter(succ[dst]))
        return None


def _find_cycle(edges: List[UhbEdge]) -> Optional[List[UhbEdge]]:
    """Return the edges of one directed cycle, or None."""
    index = EdgeIndex.of({edge: i + 1 for i, edge in enumerate(edges)})
    cycle = index.cycle([1] * len(edges))
    return None if cycle is None else [edges[var - 1] for var in cycle]


def solve_acyclic(solver: ArenaSolver, edges: EdgeIndex,
                  assumptions: Sequence[int] = (),
                  clock: Optional[BudgetClock] = None,
                  keep_levels: int = 0) -> Tuple[str, int, int]:
    """Solve until a model's chosen edges are acyclic (the cut loop of
    the module docstring); returns ``(status, SAT calls, cuts)``.

    Each cut clause stays in ``solver``: acyclicity implies it, so
    later queries on the same solver keep their verdicts.
    ``keep_levels`` keeps that many leading assumption levels of the
    solver's previous SAT answer (they must be a prefix of
    ``assumptions``); a cut backtracks to level 0, so the rounds after
    it start afresh.  ``clock`` bounds every call and is polled between
    rounds, so a budget hit always ends undecided, never SAT.
    """
    budget = clock.solve_args() if clock is not None else {}
    calls = cuts = 0
    while True:
        status = solver.solve(assumptions=assumptions,
                              keep_levels=keep_levels, **budget)
        calls += 1
        if status != SAT:
            return status, calls, cuts
        cycle = edges.cycle(solver.model())
        if cycle is None:
            return SAT, calls, cuts
        solver.add_clause([-var for var in cycle])
        cuts += 1
        keep_levels = 0
        if clock is not None and clock.expired():
            return clock.degraded_status(), calls, cuts


def extract_witness(model: U.Model, evaluator: ModelEvaluator,
                    ctx: GroundContext, solver) -> UhbGraph:
    """Read the chosen edges out of a SAT model and build the witness
    graph, sanity-checking that the cut loop left it acyclic."""
    chosen = [edge for edge, var in evaluator.edge_vars.items()
              if solver.model_value(var)]
    cycle = _find_cycle(chosen)
    if cycle is not None:  # pragma: no cover - guarded by solve_acyclic
        raise CheckError("cycle cuts admitted a cyclic graph")
    return UhbGraph(
        ctx, evaluator.nodes_of,
        [(src, dst, evaluator.edge_labels.get((src, dst), ""))
         for src, dst in chosen],
        list(model.stage_names),
    )


def solve_observability(model: U.Model, test: LitmusTest,
                        budget: Optional[Budget] = None,
                        clock: Optional[BudgetClock] = None
                        ) -> ObservabilityResult:
    """Decide whether the test's outcome is observable under the model.

    One fresh ground+solve cycle per call; for deciding many
    final conditions of the same program, use
    :class:`repro.check.incremental.ProgramSolver` instead.

    ``budget`` bounds the check (wall clock and/or SAT conflicts); a
    budget hit degrades to a first-class undecided result
    (``status=TIMEOUT/UNKNOWN``, ``observable=False``) rather than
    raising.  Pass an already-running ``clock`` instead to share one
    deadline across several calls (``ProgramSolver``'s fallback).
    """
    start = time.perf_counter()
    if clock is None and budget:
        clock = budget.start()
    stats = SolveStats()
    if clock is not None and clock.expired():
        return ObservabilityResult(False, None, 0,
                                   time.perf_counter() - start, stats=stats,
                                   status=TIMEOUT)
    ctx = GroundContext(test)
    evaluator = ModelEvaluator(model, ctx)
    try:
        evaluator.ground_model()
        _add_final_memory_constraints(evaluator, ctx)
    except _Unsatisfiable:
        # Grounding itself refuted the outcome: counted as one
        # iteration, though no SAT call was made.
        stats.vars = evaluator.cnf.num_vars
        stats.clauses = len(evaluator.cnf.clauses)
        elapsed = time.perf_counter() - start
        stats.ground_seconds = elapsed
        return ObservabilityResult(False, None, 1, elapsed, stats=stats)
    stats.vars = evaluator.cnf.num_vars
    stats.clauses = len(evaluator.cnf.clauses)
    solver = ArenaSolver()
    solver.add_cnf(evaluator.cnf)
    stats.ground_seconds = time.perf_counter() - start
    solve_start = time.perf_counter()
    status, calls, stats.cycle_cuts = solve_acyclic(
        solver, EdgeIndex.of(evaluator.edge_vars), clock=clock)
    stats.solve_seconds = time.perf_counter() - solve_start
    stats.absorb_solver(solver)
    if status not in (SAT, UNSAT):
        # Budget exhausted mid-search: degrade to an undecided verdict.
        return ObservabilityResult(False, None, calls,
                                   time.perf_counter() - start, stats=stats,
                                   status=clock.degraded_status())
    if status == UNSAT:
        return ObservabilityResult(False, None, calls,
                                   time.perf_counter() - start, stats=stats)
    graph = extract_witness(model, evaluator, ctx, solver)
    return ObservabilityResult(True, graph, calls,
                               time.perf_counter() - start, stats=stats)


def _final_write_options(evaluator: ModelEvaluator, writes, candidates,
                         mem_loc: str) -> List[int]:
    """One literal per candidate winner: all other writes to the address
    are co-before it at the memory location."""
    cnf = evaluator.cnf
    options = []
    for winner in candidates:
        before = [
            evaluator.edge_var((other.uid, mem_loc), (winner.uid, mem_loc), "co")
            for other in writes if other.uid != winner.uid
        ]
        options.append(cnf.encode_and(before) if before else cnf.true_lit)
    return options


def _add_final_memory_constraints(evaluator: ModelEvaluator,
                                  ctx: GroundContext) -> None:
    """Encode litmus final-memory conditions: the named value's write is
    last in the memory serialization order (or no write occurred and the
    value is the initial 0)."""
    mem_loc = evaluator.plan.memory_location
    cnf = evaluator.cnf
    for addr, value in ctx.final_mem.items():
        writes = ctx.writes(addr)
        if not writes:
            if value != 0:
                raise _Unsatisfiable()
            continue
        candidates = [w for w in writes if w.data == value]
        if not candidates:
            raise _Unsatisfiable()
        if mem_loc is None:
            raise CheckError(
                "model has no memory location; cannot constrain final memory")
        options = _final_write_options(evaluator, writes, candidates, mem_loc)
        cnf.assert_lit(cnf.encode_or(options))
