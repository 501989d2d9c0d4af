"""ModelEvaluator internals: grounding, edge variables, path collection."""

import pytest

from repro.check.evaluator import ModelEvaluator, _Unsatisfiable
from repro.check.instance import GroundContext
from repro.errors import CheckError
from repro.litmus import LitmusTest, suite_by_name
from repro.mcm.events import R, W
from repro.sat import ArenaSolver
from repro.uspec import (
    AddEdge,
    And,
    Axiom,
    FalseF,
    Forall,
    Implies,
    Model,
    Node,
    Not,
    Or,
    Pred,
    TrueF,
)


def tiny_model():
    model = Model("tiny")
    model.add_stage("mem")
    model.axioms.append(Axiom("Path_all", Forall("i", And((
        AddEdge(Node("i", "mem"), Node("i", "mem2"), "path"),)))))
    model.add_stage("mem2")
    return model


@pytest.fixture
def mp_ctx():
    return GroundContext(suite_by_name()["mp"])


class TestPathCollection:
    def test_nodes_assigned_per_uop(self, mp_ctx):
        evaluator = ModelEvaluator(tiny_model(), mp_ctx)
        for uop in mp_ctx.uops:
            assert evaluator.nodes_of[uop.uid] == ["mem", "mem2"]
        assert evaluator.accesses["mem"] == {u.uid for u in mp_ctx.uops}

    def test_guarded_paths_respect_type_predicates(self, mp_ctx):
        model = Model("m")
        model.add_stage("mem")
        model.axioms.append(Axiom("Path_w", Forall("i", Implies(
            Pred("IsAnyWrite", ("i",)),
            AddEdge(Node("i", "a"), Node("i", "mem"), "path")))))
        evaluator = ModelEvaluator(model, mp_ctx)
        writes = {u.uid for u in mp_ctx.uops if u.is_write}
        assert evaluator.accesses["mem"] == writes


class TestEdgeVariables:
    def test_self_edge_is_false(self, mp_ctx):
        evaluator = ModelEvaluator(tiny_model(), mp_ctx)
        lit = evaluator.edge_var((0, "mem"), (0, "mem"))
        assert lit == evaluator.cnf.false_lit

    def test_edge_vars_deduplicated(self, mp_ctx):
        evaluator = ModelEvaluator(tiny_model(), mp_ctx)
        a = evaluator.edge_var((0, "mem"), (1, "mem"))
        b = evaluator.edge_var((0, "mem"), (1, "mem"))
        assert a == b

    def test_two_cycle_forbidden_eagerly(self, mp_ctx):
        evaluator = ModelEvaluator(tiny_model(), mp_ctx)
        fwd = evaluator.edge_var((0, "mem"), (1, "mem"))
        rev = evaluator.edge_var((1, "mem"), (0, "mem"))
        solver = ArenaSolver()
        solver.add_cnf(evaluator.cnf)
        assert solver.solve(assumptions=[fwd, rev]) == "UNSAT"

    def test_labels_recorded(self, mp_ctx):
        evaluator = ModelEvaluator(tiny_model(), mp_ctx)
        evaluator.edge_var((0, "mem"), (1, "mem"), label="rf")
        assert evaluator.edge_labels[((0, "mem"), (1, "mem"))] == "rf"


class TestGrounding:
    def test_true_axiom_is_noop(self, mp_ctx):
        model = tiny_model()
        model.axioms.append(Axiom("trivial", Forall("i", TrueF())))
        evaluator = ModelEvaluator(model, mp_ctx)
        evaluator.ground_model()  # no exception

    def test_false_axiom_raises_unsatisfiable(self, mp_ctx):
        model = tiny_model()
        model.axioms.append(Axiom("broken", FalseF()))
        evaluator = ModelEvaluator(model, mp_ctx)
        with pytest.raises(_Unsatisfiable):
            evaluator.ground_model()

    def test_exists_grounds_to_disjunction(self, mp_ctx):
        from repro.uspec import Exists
        model = tiny_model()
        model.axioms.append(Axiom("some_write", Exists("w", Pred("IsAnyWrite", ("w",)))))
        evaluator = ModelEvaluator(model, mp_ctx)
        evaluator.ground_model()

    def test_exists_with_no_witness_is_false(self):
        from repro.uspec import Exists
        test = LitmusTest("loads_only", ((R("x", "r1"),),), (((0, "r1"), 0),))
        model = tiny_model()
        model.axioms.append(Axiom("some_write", Exists("w", Pred("IsAnyWrite", ("w",)))))
        evaluator = ModelEvaluator(model, GroundContext(test))
        with pytest.raises(_Unsatisfiable):
            evaluator.ground_model()

    def test_unknown_predicate_rejected(self, mp_ctx):
        model = tiny_model()
        model.axioms.append(Axiom("odd", Forall("i", Pred("Bogus", ("i",)))))
        evaluator = ModelEvaluator(model, mp_ctx)
        with pytest.raises(CheckError):
            evaluator.ground_model()
