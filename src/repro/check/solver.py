"""Observability solving: SAT with an eager acyclicity encoding.

The Check tools search for an acyclic µhb graph satisfying all axioms;
acyclic = the execution is possible (paper section 2).  Here acyclicity
is encoded eagerly, so a single SAT call decides observability — SAT
means the outcome is observable and the model yields a witness graph;
UNSAT proves the outcome impossible on the modeled microarchitecture.

A cycle of chosen edges lies inside one strongly connected component
(SCC) of the candidate-edge graph, so only SCCs with two or more nodes
are encoded.  Inside an SCC, a reachability variable ``R(a,b)`` per
ordered node pair is propagated along each candidate edge ``e=(b,c)``:
``e -> R(b,c)``, ``R(a,b) & e -> R(a,c)``, and ``R(c,b) & e -> False``.
Any chosen cycle forces a forbidden ``R(x,x)``; an acyclic choice is
satisfied by the transitive closure.  That costs ``n * |E|`` clauses
per SCC of ``n`` nodes and ``|E|`` edges, instead of the ``n^3``
transitivity clauses of a strict-partial-order encoding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

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
    totals feeding ``--profile-sat``.  ``order_components``
    counts the cyclic SCCs (two or more nodes) the acyclicity encoding
    covered; 0 means the candidate-edge graph is already a DAG.
    """

    vars: int = 0
    clauses: int = 0
    order_components: int = 0
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
    iterations: int
    time_seconds: float
    cycle_example: List[UhbNode] = field(default_factory=list)
    stats: SolveStats = field(default_factory=SolveStats)
    #: DECIDED, or TIMEOUT/UNKNOWN when a budget expired mid-solve; an
    #: undecided result always carries ``observable=False`` and must be
    #: consumed conservatively (never as a PASS or an UNSAT proof).
    status: str = DECIDED

    @property
    def decided(self) -> bool:
        return self.status == DECIDED


def _find_cycle(edges: List[UhbEdge]) -> Optional[List[UhbEdge]]:
    """Return the edges of one directed cycle, or None."""
    succ: Dict[UhbNode, List[UhbNode]] = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
    state: Dict[UhbNode, int] = {}

    for start in list(succ):
        if state.get(start):
            continue
        stack: List[Tuple[UhbNode, int]] = [(start, 0)]
        state[start] = 1  # on stack
        while stack:
            node, child_index = stack[-1]
            children = succ.get(node, [])
            if child_index >= len(children):
                stack.pop()
                state[node] = 2
                continue
            stack[-1] = (node, child_index + 1)
            child = children[child_index]
            mark = state.get(child, 0)
            if mark == 1:
                # Found a cycle: walk back up the stack to the child.
                cycle_nodes = [child]
                for frame_node, _ in reversed(stack):
                    cycle_nodes.append(frame_node)
                    if frame_node == child:
                        break
                cycle_nodes.reverse()
                return [(cycle_nodes[i], cycle_nodes[i + 1])
                        for i in range(len(cycle_nodes) - 1)]
            if mark == 0:
                state[child] = 1
                stack.append((child, 0))
    return None


def _cyclic_sccs(edges: Iterable[UhbEdge]) -> List[List[UhbNode]]:
    """The strongly connected components with at least two nodes of the
    directed graph ``edges``, each a sorted node list, ordered by
    smallest member.

    An iterative Tarjan over sorted nodes and sorted successors, so the
    result (and the variable numbering built on it) is deterministic.
    """
    succ: Dict[UhbNode, List[UhbNode]] = {}
    for src, dst in sorted(edges):
        succ.setdefault(src, []).append(dst)
        succ.setdefault(dst, [])
    index: Dict[UhbNode, int] = {}
    low: Dict[UhbNode, int] = {}
    on_stack = set()
    stack: List[UhbNode] = []
    sccs: List[List[UhbNode]] = []
    for root in sorted(succ):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            child = next(children, None)
            if child is not None:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                elif child in on_stack:
                    low[node] = min(low[node], index[child])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                members = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    members.append(member)
                    if member == node:
                        break
                if len(members) > 1:
                    sccs.append(sorted(members))
    return sorted(sccs)


def _add_order_constraints(evaluator: ModelEvaluator) -> int:
    """Eager acyclicity over the candidate edges: SCC-local reachability
    (see the module docstring).  Edges between SCCs can never lie on a
    cycle and get no clauses.  Returns the number of SCCs encoded (the
    cyclic ones, with two or more nodes)."""
    cnf = evaluator.cnf
    edge_vars = evaluator.edge_vars
    sccs = _cyclic_sccs(edge_vars)
    for scc in sccs:
        # reach[a][b] is R(a,b) over node indices (0 on the diagonal).
        span = range(len(scc))
        reach = [[cnf.new_var() if a != b else 0 for b in span]
                 for a in span]
        for b in span:
            for c in span:
                edge = edge_vars.get((scc[b], scc[c]))
                if edge is None:
                    continue
                cnf.add_clause([-edge, reach[b][c]])
                cnf.add_clause([-edge, -reach[c][b]])
                cnf.add_clauses([-edge, -row[b], row[c]]
                                for a, row in enumerate(reach)
                                if a != b and a != c)
    return len(sccs)


def extract_witness(model: U.Model, evaluator: ModelEvaluator,
                    ctx: GroundContext, solver) -> UhbGraph:
    """Read the chosen edges out of a SAT model and build the witness
    graph, sanity-checking that the order encoding kept it acyclic."""
    chosen = [edge for edge, var in evaluator.edge_vars.items()
              if solver.model_value(var)]
    cycle = _find_cycle(chosen)
    if cycle is not None:  # pragma: no cover - guarded by the encoding
        raise CheckError("order encoding admitted a cyclic graph")
    return UhbGraph(
        ctx, evaluator.nodes_of,
        [(src, dst, evaluator.edge_labels.get((src, dst), ""))
         for src, dst in chosen],
        list(model.stage_names),
    )


def solve_observability(model: U.Model, test: LitmusTest,
                        max_iterations: int = 100000,
                        budget: Optional[Budget] = None,
                        clock: Optional[BudgetClock] = None
                        ) -> ObservabilityResult:
    """Decide whether the test's outcome is observable under the model.

    One fresh ground+encode+solve cycle per call; for deciding many
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
        # Grounding itself refuted the outcome; that is one decision
        # procedure invocation, the same as a solver UNSAT.
        stats.vars = evaluator.cnf.num_vars
        stats.clauses = len(evaluator.cnf.clauses)
        elapsed = time.perf_counter() - start
        stats.ground_seconds = elapsed
        return ObservabilityResult(False, None, 1, elapsed, stats=stats)
    stats.order_components = _add_order_constraints(evaluator)
    stats.vars = evaluator.cnf.num_vars
    stats.clauses = len(evaluator.cnf.clauses)
    solver = ArenaSolver()
    solver.add_cnf(evaluator.cnf)
    stats.ground_seconds = time.perf_counter() - start
    solve_start = time.perf_counter()
    status = solver.solve(**(clock.solve_args() if clock is not None else {}))
    stats.solve_seconds = time.perf_counter() - solve_start
    stats.absorb_solver(solver)
    if status not in (SAT, UNSAT):
        # Budget exhausted mid-search: degrade to an undecided verdict.
        return ObservabilityResult(False, None, 1,
                                   time.perf_counter() - start, stats=stats,
                                   status=clock.degraded_status())
    if status == UNSAT:
        return ObservabilityResult(False, None, 1,
                                   time.perf_counter() - start, stats=stats)
    graph = extract_witness(model, evaluator, ctx, solver)
    return ObservabilityResult(True, graph, 1,
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
