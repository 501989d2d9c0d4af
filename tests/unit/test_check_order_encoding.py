"""Oracle tests for the Check layer's acyclicity encoding.

``_add_order_constraints`` encodes "the chosen µhb edges are acyclic"
as SCC-local reachability.  These tests check it against brute force on
small seeded random candidate graphs: every edge variable is forced on,
forced off, or left free; SAT must hold exactly when some choice of the
free edges (meeting a few random "one of these edges" requirements) is
acyclic, and every SAT model must pick an acyclic edge set.
"""

import itertools
import random
from types import SimpleNamespace

import pytest

from repro.check.solver import (
    _add_order_constraints,
    _cyclic_sccs,
    _find_cycle,
    solve_observability,
)
from repro.litmus import LitmusTest, suite_by_name
from repro.mcm.events import R, W
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
    """CNF over one variable per candidate edge plus the order encoding;
    returns (cnf, edge_vars, sccs encoded, order clauses added)."""
    cnf = Cnf()
    edge_vars = {edge: cnf.new_var() for edge in edges}
    before = len(cnf.clauses)
    encoded = _add_order_constraints(
        SimpleNamespace(cnf=cnf, edge_vars=edge_vars))
    order_clauses = len(cnf.clauses) - before
    for edge, value in (forcing or {}).items():
        if value is not None:
            cnf.add_clause([edge_vars[edge] if value else -edge_vars[edge]])
    for group in requirements:
        cnf.add_clause([edge_vars[edge] for edge in group])
    return cnf, edge_vars, encoded, order_clauses


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


class TestCyclicSccs:
    def test_dag_has_none(self):
        edges = [(n(1), n(2)), (n(2), n(3)), (n(1), n(3)), (n(4), n(5))]
        assert _cyclic_sccs(edges) == []

    def test_direction_matters(self):
        assert _cyclic_sccs([(n(2), n(1)), (n(3), n(2))]) == []
        assert _cyclic_sccs([(n(1), n(2)), (n(2), n(1))]) == \
            [[n(1), n(2)]]

    def test_bridged_cycles_stay_separate(self):
        edges = [(n(1), n(2)), (n(2), n(1)),
                 (n(2), n(3)),                       # bridge
                 (n(3), n(4)), (n(4), n(5)), (n(5), n(3))]
        assert _cyclic_sccs(edges) == [[n(1), n(2)], [n(3), n(4), n(5)]]

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_reachability_definition(self, seed):
        edges, _, _ = random_instance(seed)
        assert _cyclic_sccs(edges) == brute_force_sccs(edges)


class TestEncodingOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sat_iff_acyclic_choice_exists(self, seed):
        edges, forcing, requirements = random_instance(seed)
        cnf, edge_vars, _, _ = encode(edges, forcing, requirements)
        solver = ArenaSolver()
        solver.add_cnf(cnf)
        status = solver.solve()
        assert status in (SAT, UNSAT)
        assert (status == SAT) == brute_force_acyclic(forcing, requirements)
        if status == SAT:
            chosen = [edge for edge, var in edge_vars.items()
                      if solver.model_value(var)]
            assert _find_cycle(chosen) is None
            for edge in chosen:
                assert forcing[edge] is not False

    @pytest.mark.parametrize("seed", SEEDS)
    def test_clause_count_is_scc_local(self, seed):
        # n_s * |E_s| clauses per cyclic SCC: one e -> R(b,c), one
        # R(c,b) & e -> False, and n_s - 2 propagation clauses per edge.
        edges, _, _ = random_instance(seed)
        sccs = _cyclic_sccs(edges)
        expected = 0
        for scc in sccs:
            members = set(scc)
            inside = [e for e in edges if e[0] in members and e[1] in members]
            expected += len(scc) * len(inside)
        _, _, encoded, order_clauses = encode(edges)
        assert encoded == len(sccs)
        assert order_clauses == expected

    def test_edges_between_sccs_add_no_clauses(self):
        cycles = [(n(1), n(2)), (n(2), n(1)),
                  (n(3), n(4)), (n(4), n(5)), (n(5), n(3))]
        bridges = [(n(1), n(3)), (n(2), n(4)), (n(0), n(1)), (n(5), n(6))]
        cnf_plain, _, sccs_plain, plain = encode(cycles)
        cnf_bridged, _, sccs_bridged, bridged = encode(cycles + bridges)
        assert sccs_plain == sccs_bridged == 2
        assert plain == bridged
        assert cnf_bridged.num_vars == cnf_plain.num_vars + len(bridges)

    def test_acyclic_candidates_get_no_order_variables(self):
        edges = [(n(a), n(b)) for a in range(5) for b in range(a + 1, 5)]
        cnf, _, encoded, order_clauses = encode(edges)
        assert encoded == 0
        assert order_clauses == 0
        assert cnf.num_vars == len(edges)


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
        # the encoding must neither lose nor invent an acyclic graph.
        model = sc_hand_model()
        by_name = suite_by_name()
        for name in self.SUITE_NAMES:
            test = by_name[name]
            result = solve_observability(model, test)
            assert result.observable == test.permitted_under_sc(), name
            assert result.stats.order_components >= 1, name

    def test_dag_candidate_graph_encodes_no_sccs(self):
        program = ((W("x", 1), R("x", "r1")), (W("y", 1), R("y", "r2")))
        test = LitmusTest("split", program, (((0, "r1"), 1), ((1, "r2"), 1)))
        result = solve_observability(po_only_model(), test)
        assert result.observable
        assert result.stats.order_components == 0
