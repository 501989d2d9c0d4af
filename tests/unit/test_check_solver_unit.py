"""Unit tests for the observability solver's internals: cycle finding,
deterministic memory-location inference, and the iteration count.
The cut loop has its own oracle tests in
``test_check_order_encoding.py``."""

import subprocess
import sys

from repro.check.evaluator import _memory_location
from repro.check.solver import _find_cycle, solve_observability
from repro.litmus import LitmusTest, suite_by_name
from repro.mcm.events import R, W
from repro.uspec import (
    AddEdge,
    Axiom,
    Forall,
    Implies,
    Model,
    Node,
    Pred,
)

from .test_check import sc_hand_model


def n(uid, loc="mem"):
    return (uid, loc)


class TestFindCycle:
    def test_self_loop(self):
        assert _find_cycle([(n(1), n(1))]) == [(n(1), n(1))]

    def test_two_cycle(self):
        cycle = _find_cycle([(n(1), n(2)), (n(2), n(1))])
        assert cycle is not None
        assert len(cycle) == 2
        assert {edge[0] for edge in cycle} == {n(1), n(2)}

    def test_nested_cycle_found_inside_larger_graph(self):
        # A DAG prefix feeding a 3-cycle deeper in.
        edges = [(n(0), n(1)), (n(1), n(2)),
                 (n(2), n(3)), (n(3), n(4)), (n(4), n(2)),
                 (n(1), n(5))]
        cycle = _find_cycle(edges)
        assert cycle is not None
        nodes = {edge[0] for edge in cycle}
        assert nodes == {n(2), n(3), n(4)}
        # The returned edges really form a closed walk.
        for (a, b), (c, d) in zip(cycle, cycle[1:] + cycle[:1]):
            assert b == c

    def test_acyclic_graph(self):
        edges = [(n(1), n(2)), (n(2), n(3)), (n(1), n(3)),
                 (n(4), n(5))]
        assert _find_cycle(edges) is None

    def test_disconnected_with_cycle_in_second_component(self):
        edges = [(n(1), n(2)), (n(10), n(11)), (n(11), n(10))]
        cycle = _find_cycle(edges)
        assert cycle is not None
        assert {edge[0] for edge in cycle} == {n(10), n(11)}


class TestIterationsUnified:
    def test_ground_unsat_counts_as_one_iteration(self):
        # r1=5 is outside every write's value: Read_Values grounds to
        # False before the solver ever runs.
        model = sc_hand_model()
        program = ((W("x", 1),), (R("x", "r1"),))
        test = LitmusTest("ground-unsat", program, (((1, "r1"), 5),))
        result = solve_observability(model, test)
        assert not result.observable
        assert result.iterations == 1

    def test_solver_unsat_counts_every_sat_call(self):
        model = sc_hand_model()
        test = suite_by_name()["sb"]  # SC-forbidden: needs the solver
        result = solve_observability(model, test)
        assert not result.observable
        # The first model closes the sb cycle; its cut leaves UNSAT.
        assert result.stats.cycle_cuts >= 1
        assert result.iterations == 1 + result.stats.cycle_cuts


class TestMemoryLocationDeterminism:
    def test_most_frequent_location_wins(self):
        assert _memory_location(sc_hand_model()) == "mem"

    def test_tie_breaks_on_first_appearance(self):
        # Read_Values touching two locations equally often: the first
        # one encountered must win, independent of hash seeds.
        model = Model("tie")
        model.add_stage("alpha")
        model.add_stage("beta")
        model.axioms.append(Axiom("Read_Values", Forall("r", Implies(
            Pred("IsAnyRead", ("r",)),
            AddEdge(Node("r", "beta"), Node("r", "alpha"), "rf")))))
        assert _memory_location(model) == "beta"

    def test_stable_across_hash_seeds(self):
        # The historic bug: max(set(found), key=found.count) let
        # PYTHONHASHSEED pick the winner among tied locations.
        code = (
            "from repro.uspec import AddEdge, Axiom, Forall, Implies, "
            "Model, Node, Pred\n"
            "from repro.check.evaluator import _memory_location\n"
            "m = Model('tie')\n"
            "m.add_stage('alpha'); m.add_stage('beta')\n"
            "m.axioms.append(Axiom('Read_Values', Forall('r', Implies(\n"
            "    Pred('IsAnyRead', ('r',)),\n"
            "    AddEdge(Node('r', 'beta'), Node('r', 'alpha'), 'rf')))))\n"
            "print(_memory_location(m))\n"
        )
        import os
        import repro
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        winners = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True, env=env)
            winners.add(out.stdout.strip())
        assert winners == {"beta"}
