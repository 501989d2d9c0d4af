"""Oracle tests for the Check layer's lazy acyclicity loop.

``solve_acyclic`` solves, and while a SAT model chooses a cycle of µhb
edges it adds the clause "not all of these edges" and solves again.
These tests check it against brute force on small seeded random
candidate graphs: every edge variable is forced on, forced off, or left
free; SAT must hold exactly when some choice of the free edges (meeting
a few random "one of these edges" requirements) is acyclic, and no SAT
model may pick a cycle.  ``_find_cycle``, the loop's cycle test, is
checked against the reachability definition of a cyclic strongly
connected component (SCC): a cycle exists exactly when such an SCC
does, and lies inside one.
"""

import itertools
import random

import pytest

from repro.check import ProgramSolver
from repro.check.solver import (
    EdgeIndex,
    _find_cycle,
    solve_acyclic,
    solve_observability,
)
from repro.litmus import LitmusTest, suite_by_name
from repro.mcm.events import R, W
from repro.resilience import TIMEOUT
from repro.sat import SAT, UNSAT, ArenaSolver, Cnf
from repro.uspec import AddEdge, Axiom, Forall, Implies, Model, Node, Pred

from .test_check import sc_hand_model

SEEDS = range(300)


def n(uid, loc="mem"):
    return (uid, loc)


def random_instance(seed):
    """A candidate graph of at most 6 nodes, a per-edge forcing
    (True = on, False = off, None = free), and a few positive clauses
    over the free edges so the free choice is not trivially "all off"."""
    rng = random.Random(seed)
    nodes = [n(uid) for uid in range(rng.randint(2, 6))]
    density = rng.choice((0.2, 0.35, 0.5, 0.7))
    edges = [(a, b) for a in nodes for b in nodes
             if a != b and rng.random() < density]
    forcing = {edge: rng.choice((True, False, None)) for edge in edges}
    free = [edge for edge in edges if forcing[edge] is None]
    requirements = [rng.sample(free, min(len(free), rng.randint(1, 3)))
                    for _ in range(rng.randint(0, 3))] if free else []
    return edges, forcing, requirements


def encode(edges, forcing=None, requirements=()):
    """CNF over one variable per candidate edge, with the forcing and
    the requirements; returns (cnf, edge_vars)."""
    cnf = Cnf()
    edge_vars = {edge: cnf.new_var() for edge in edges}
    for edge, value in (forcing or {}).items():
        if value is not None:
            cnf.add_clause([edge_vars[edge] if value else -edge_vars[edge]])
    for group in requirements:
        cnf.add_clause([edge_vars[edge] for edge in group])
    return cnf, edge_vars


class RecordingSolver(ArenaSolver):
    """An :class:`ArenaSolver` that keeps every clause added after the
    CNF was loaded (the cut clauses)."""

    def __init__(self, cnf):
        super().__init__()
        self.add_cnf(cnf)
        self.cuts = []

    def add_clause(self, lits):
        lits = list(lits)
        self.cuts.append(lits)
        return super().add_clause(lits)


def run_loop(edges, forcing=None, requirements=()):
    """Run the cut loop; returns (solver, edge_vars, status, calls,
    cuts)."""
    cnf, edge_vars = encode(edges, forcing, requirements)
    solver = RecordingSolver(cnf)
    status, calls, cuts = solve_acyclic(solver, EdgeIndex.of(edge_vars))
    return solver, edge_vars, status, calls, cuts


def chosen_edges(solver, edge_vars):
    return [edge for edge, var in edge_vars.items()
            if solver.model_value(var)]


def brute_force_acyclic(forcing, requirements):
    """Is there an acyclic choice of the free edges meeting every
    requirement?"""
    forced_on = [edge for edge, value in forcing.items() if value]
    free = [edge for edge, value in forcing.items() if value is None]
    for bits in itertools.product((False, True), repeat=len(free)):
        chosen = forced_on + [edge for edge, on in zip(free, bits) if on]
        picked = set(chosen)
        if all(picked.intersection(group) for group in requirements) \
                and _find_cycle(chosen) is None:
            return True
    return False


def brute_force_sccs(edges):
    """Cyclic SCCs by pairwise reachability (the definition)."""
    nodes = sorted({node for edge in edges for node in edge})
    reach = {(a, b) for a, b in edges}
    for k in nodes:
        for a in nodes:
            for b in nodes:
                if (a, k) in reach and (k, b) in reach:
                    reach.add((a, b))
    groups = set()
    for a in nodes:
        group = tuple(sorted([a] + [b for b in nodes if b != a
                                    and (a, b) in reach and (b, a) in reach]))
        if len(group) > 1:
            groups.add(group)
    return sorted(list(group) for group in groups)


def assert_cycle_in_one_scc(cycle, edges):
    """``cycle`` is a closed walk over ``edges`` inside one cyclic SCC."""
    assert all(edge in edges for edge in cycle)
    for (_, b), (c, _) in zip(cycle, cycle[1:] + cycle[:1]):
        assert b == c
    nodes = {node for edge in cycle for node in edge}
    assert any(nodes <= set(scc) for scc in brute_force_sccs(edges))


class TestCyclicSccs:
    def test_dag_has_none(self):
        edges = [(n(1), n(2)), (n(2), n(3)), (n(1), n(3)), (n(4), n(5))]
        assert brute_force_sccs(edges) == []
        assert _find_cycle(edges) is None

    def test_direction_matters(self):
        assert _find_cycle([(n(2), n(1)), (n(3), n(2))]) is None
        edges = [(n(1), n(2)), (n(2), n(1))]
        cycle = _find_cycle(edges)
        assert cycle is not None
        assert_cycle_in_one_scc(cycle, edges)

    def test_bridged_cycles_stay_separate(self):
        bridge = (n(2), n(3))
        edges = [(n(1), n(2)), (n(2), n(1)),
                 bridge,
                 (n(3), n(4)), (n(4), n(5)), (n(5), n(3))]
        cycle = _find_cycle(edges)
        assert cycle is not None and bridge not in cycle
        assert_cycle_in_one_scc(cycle, edges)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_reachability_definition(self, seed):
        edges, _, _ = random_instance(seed)
        cycle = _find_cycle(edges)
        assert (cycle is None) == (brute_force_sccs(edges) == [])
        if cycle is not None:
            assert_cycle_in_one_scc(cycle, edges)


class TestEncodingOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sat_iff_acyclic_choice_exists(self, seed):
        edges, forcing, requirements = random_instance(seed)
        solver, edge_vars, status, calls, cuts = run_loop(
            edges, forcing, requirements)
        assert status in (SAT, UNSAT)
        assert (status == SAT) == brute_force_acyclic(forcing, requirements)
        assert calls == cuts + 1
        if status == SAT:
            chosen = chosen_edges(solver, edge_vars)
            assert _find_cycle(chosen) is None
            for edge in chosen:
                assert forcing[edge] is not False

    @pytest.mark.parametrize("seed", SEEDS)
    def test_clause_count_is_scc_local(self, seed):
        # One clause per cut, each over the edges of one cycle of
        # candidate edges, which lies inside one cyclic SCC; the CNF
        # itself gains no clause and no variable.
        edges, forcing, requirements = random_instance(seed)
        cnf, edge_vars = encode(edges, forcing, requirements)
        size = (cnf.num_vars, len(cnf.clauses))
        solver = RecordingSolver(cnf)
        _, _, cuts = solve_acyclic(solver, EdgeIndex.of(edge_vars))
        assert (cnf.num_vars, len(cnf.clauses)) == size
        assert solver.num_vars == len(edges)
        assert len(solver.cuts) == cuts
        edge_of = {var: edge for edge, var in edge_vars.items()}
        for clause in solver.cuts:
            assert all(lit < 0 for lit in clause)
            cycle = [edge_of[-lit] for lit in clause]
            assert_cycle_in_one_scc(cycle, edges)

    def test_edges_between_sccs_add_no_clauses(self):
        cycles = [(n(1), n(2)), (n(2), n(1)),
                  (n(3), n(4)), (n(4), n(5)), (n(5), n(3))]
        bridges = [(n(1), n(3)), (n(2), n(4)), (n(0), n(1)), (n(5), n(6))]
        forcing = {edge: True for edge in bridges}
        forcing.update({edge: None for edge in cycles})
        # Every acyclic choice misses (1,2) or a 3-cycle edge, so each
        # model that meets these requirements closes a cycle.
        requirements = [[(n(1), n(2))], [(n(3), n(4))], [(n(4), n(5))],
                        [(n(2), n(1)), (n(5), n(3))]]
        solver, edge_vars, status, _, cuts = run_loop(
            cycles + bridges, forcing, requirements)
        assert status == UNSAT
        assert not brute_force_acyclic(forcing, requirements)
        assert cuts >= 1
        bridge_vars = {edge_vars[edge] for edge in bridges}
        for clause in solver.cuts:
            assert not bridge_vars.intersection(-lit for lit in clause)

    def test_acyclic_candidates_get_no_order_variables(self):
        edges = [(n(a), n(b)) for a in range(5) for b in range(a + 1, 5)]
        forcing = {edge: True for edge in edges}
        solver, edge_vars, status, calls, cuts = run_loop(edges, forcing)
        assert (status, calls, cuts) == (SAT, 1, 0)
        assert solver.num_vars == len(edges)
        assert sorted(chosen_edges(solver, edge_vars)) == sorted(edges)


class ExpiredAfterFirstCall:
    """A budget clock that has run out by the time the first SAT call
    returns."""

    def solve_args(self):
        return {}

    def expired(self):
        return True

    def degraded_status(self):
        return TIMEOUT


class TestBudget:
    def test_expiry_between_rounds_is_undecided(self):
        # Every model closes the forced cycle; after its cut the next
        # round would prove UNSAT, but the budget ran out first.
        cycle = [(n(1), n(2)), (n(2), n(3)), (n(3), n(1))]
        cnf, edge_vars = encode(cycle, {edge: True for edge in cycle})
        solver = RecordingSolver(cnf)
        status, calls, cuts = solve_acyclic(
            solver, EdgeIndex.of(edge_vars), clock=ExpiredAfterFirstCall())
        assert (status, calls, cuts) == (TIMEOUT, 1, 1)


def po_only_model():
    """Accesses are pipelined dec->ex and chained in per-core program
    order; the candidate-edge graph is a DAG."""
    model = Model("po_only")
    model.add_stage("dec")
    model.add_stage("ex")
    for pred, name in (("IsAnyWrite", "Path_w"), ("IsAnyRead", "Path_r")):
        model.axioms.append(Axiom(name, Forall("i", Implies(
            Pred(pred, ("i",)),
            AddEdge(Node("i", "dec"), Node("i", "ex"), "path")))))
    model.axioms.append(Axiom("PO", Forall("i1", Forall("i2", Implies(
        Pred("SameCore", ("i1", "i2")),
        Implies(Pred("ProgramOrder", ("i1", "i2")),
                AddEdge(Node("i1", "dec"), Node("i2", "dec"), "PO")))))))
    return model


class TestModelLevel:
    SUITE_NAMES = ("mp", "sb", "lb", "corr", "corw", "cowr", "2+2w",
                   "iriw", "rwc", "wrc", "r", "s", "ssl", "mp+stale")

    def test_sc_hand_model_is_exact_on_suite(self):
        # The hand-written SC model admits exactly the SC outcomes, so
        # the loop must neither lose nor invent an acyclic graph.
        model = sc_hand_model()
        by_name = suite_by_name()
        for name in self.SUITE_NAMES:
            test = by_name[name]
            result = solve_observability(model, test)
            assert result.observable == test.permitted_under_sc(), name
            assert result.iterations == 1 + result.stats.cycle_cuts, name

    def test_without_cuts_the_hand_model_is_not_exact(self, monkeypatch):
        # Mutation check: a loop that never finds a cycle accepts the
        # first model, so SC-forbidden outcomes become observable on
        # both deciders.
        monkeypatch.setattr(EdgeIndex, "cycle", lambda index, model: None)
        model = sc_hand_model()
        by_name = suite_by_name()
        unsound = [name for name in self.SUITE_NAMES
                   if solve_observability(model, by_name[name]).observable
                   and not by_name[name].permitted_under_sc()]
        assert unsound
        sb = by_name["sb"]
        assert "sb" in unsound
        assert ProgramSolver(model, sb).decide(sb.final).observable

    def test_dag_candidate_graph_encodes_no_sccs(self):
        program = ((W("x", 1), R("x", "r1")), (W("y", 1), R("y", "r2")))
        test = LitmusTest("split", program, (((0, "r1"), 1), ((1, "r2"), 1)))
        result = solve_observability(po_only_model(), test)
        assert result.observable
        assert result.stats.cycle_cuts == 0
        assert result.iterations == 1
