"""µhb check solver tests against hand-written µspec models.

The hand model below is an idealized SC machine: every memory access is
serialized through ``mem`` in per-core program order, plus the standard
value axioms. Its verdicts must match the SC reference exactly.
"""

import pytest

from repro.check import Checker, GroundContext, solve_observability
from repro.check.instance import Microop
from repro.litmus import LitmusTest, suite_by_name
from repro.mcm.events import R, W
from repro.uspec import (
    AddEdge,
    And,
    Axiom,
    Exists,
    Forall,
    Implies,
    Model,
    Node,
    Not,
    Or,
    Pred,
)


def sc_hand_model():
    model = Model("hand_sc")
    model.add_stage("IF_")
    model.add_stage("mem")
    model.axioms.append(Axiom("Path_w", Forall("i", Implies(
        Pred("IsAnyWrite", ("i",)),
        AddEdge(Node("i", "IF_"), Node("i", "mem"), "path")))))
    model.axioms.append(Axiom("Path_r", Forall("i", Implies(
        Pred("IsAnyRead", ("i",)),
        AddEdge(Node("i", "IF_"), Node("i", "mem"), "path")))))
    model.axioms.append(Axiom("PO_mem", Forall("i1", Forall("i2", Implies(
        Pred("SameCore", ("i1", "i2")),
        Implies(Pred("ProgramOrder", ("i1", "i2")),
                AddEdge(Node("i1", "mem"), Node("i2", "mem"), "PO")))))))
    model.axioms.append(Axiom("serialize_mem", Forall("i1", Forall("i2", Implies(
        Not(Pred("SameMicroop", ("i1", "i2"))),
        Or((AddEdge(Node("i1", "mem"), Node("i2", "mem"), "serial"),
            AddEdge(Node("i2", "mem"), Node("i1", "mem"), "serial"))))))))
    from_init = And((
        Pred("DataFromInitial", ("r",)),
        Forall("w", Implies(Pred("IsAnyWrite", ("w",)),
                            Implies(Pred("SamePA", ("w", "r")),
                                    AddEdge(Node("r", "mem"), Node("w", "mem"), "fr")))),
    ))
    nwb = Forall("w2", Implies(Pred("IsAnyWrite", ("w2",)), Implies(
        Pred("SamePA", ("w2", "r")), Implies(
            Not(Pred("SameMicroop", ("w2", "w"))),
            Or((AddEdge(Node("w2", "mem"), Node("w", "mem"), "co"),
                AddEdge(Node("r", "mem"), Node("w2", "mem"), "fr")))))))
    from_write = Exists("w", And((
        Pred("IsAnyWrite", ("w",)), Pred("SamePA", ("w", "r")),
        Pred("SameData", ("w", "r")),
        AddEdge(Node("w", "mem"), Node("r", "mem"), "rf"), nwb)))
    model.axioms.append(Axiom("Read_Values", Forall("r", Implies(
        Pred("IsAnyRead", ("r",)), Or((from_init, from_write))))))
    return model


@pytest.fixture(scope="module")
def hand_model():
    return sc_hand_model()


class TestGroundContext:
    def test_microops_built(self):
        mp = suite_by_name()["mp"]
        ctx = GroundContext(mp)
        assert len(ctx.uops) == 4
        assert ctx.uops[0].is_write and ctx.uops[0].core == 0
        assert ctx.uops[2].is_read and ctx.uops[2].core == 1
        # constrained read values from the final condition
        assert ctx.uops[2].data == 1
        assert ctx.uops[3].data == 0

    def test_predicates(self):
        mp = suite_by_name()["mp"]
        ctx = GroundContext(mp)
        w_x, w_y, r_y, r_x = ctx.uops
        assert ctx.eval_pred("ProgramOrder", (w_x, w_y))
        assert not ctx.eval_pred("ProgramOrder", (w_y, w_x))
        assert not ctx.eval_pred("ProgramOrder", (w_x, r_y))  # cross-core
        assert ctx.eval_pred("SamePA", (w_x, r_x))
        assert ctx.eval_pred("SameData", (w_y, r_y))
        assert not ctx.eval_pred("SameData", (w_x, r_x))  # 1 vs 0
        assert ctx.eval_pred("DataFromInitial", (r_x,))
        assert not ctx.eval_pred("DataFromInitial", (r_y,))

    def test_unconstrained_load_matches_any_data(self):
        test = LitmusTest("t", ((W("x", 5),), (R("x", "r1"),)), (((-1, "x"), 5),))
        ctx = GroundContext(test)
        write, read = ctx.uops
        assert read.data is None
        assert ctx.eval_pred("SameData", (write, read))
        assert ctx.eval_pred("DataFromInitial", (read,))


class TestHandModelMatchesSc:
    @pytest.mark.parametrize("name", ["mp", "sb", "lb", "wrc", "iriw", "corr",
                                      "corw", "cowr", "2+2w", "s", "r", "ssl"])
    def test_forbidden_suite_outcomes_unobservable(self, hand_model, name):
        test = suite_by_name()[name]
        result = solve_observability(hand_model, test)
        assert not result.observable, name

    @pytest.mark.parametrize("final,permitted", [
        (((1, "r1"), 1), True),
        (((1, "r1"), 0), True),
    ])
    def test_single_flag_outcomes(self, hand_model, final, permitted):
        test = LitmusTest("t", ((W("x", 1),), (R("x", "r1"),)), (final,))
        result = solve_observability(hand_model, test)
        assert result.observable == permitted

    def test_allowed_mp_outcomes_observable(self, hand_model):
        base = ((W("x", 1), W("y", 1)), (R("y", "r1"), R("x", "r2")))
        for r1, r2 in [(0, 0), (0, 1), (1, 1)]:
            test = LitmusTest("mp_var", base, (((1, "r1"), r1), ((1, "r2"), r2)))
            result = solve_observability(hand_model, test)
            assert result.observable, (r1, r2)

    def test_final_memory_constraints(self, hand_model):
        prog = ((W("x", 1),), (W("x", 2),))
        for value, expect in [(1, True), (2, True), (3, False), (0, False)]:
            test = LitmusTest("co", prog, (((-1, "x"), value),))
            result = solve_observability(hand_model, test)
            assert result.observable == expect, value

    def test_impossible_value_rejected_fast(self, hand_model):
        # A load of a value nobody wrote and that is not the initial 0.
        test = LitmusTest("t", ((W("x", 1),), (R("x", "r1"),)), (((1, "r1"), 7),))
        result = solve_observability(hand_model, test)
        assert not result.observable


class TestWitnessGraphs:
    def test_graph_edges_acyclic_and_rendered(self, hand_model):
        test = LitmusTest("t", ((W("x", 1),), (R("x", "r1"),)), (((1, "r1"), 1),))
        result = solve_observability(hand_model, test)
        assert result.observable
        graph = result.graph
        assert graph is not None
        dot = graph.to_dot()
        assert "digraph" in dot and "rf" in dot or "mem" in dot

    def test_checker_wrapper_verdicts(self, hand_model):
        checker = Checker(hand_model)
        verdict = checker.check_test(suite_by_name()["mp"])
        assert verdict.passed and not verdict.observable
        assert verdict.time_ms > 0


class TestMissingPathAxioms:
    def test_model_without_read_values_is_permissive(self):
        """Without value axioms, forbidden outcomes become observable —
        the value constraints are load-bearing."""
        model = sc_hand_model()
        model.axioms = [a for a in model.axioms if a.name != "Read_Values"]
        result = solve_observability(model, suite_by_name()["mp"])
        assert result.observable

    def test_model_without_po_axiom_is_permissive(self):
        model = sc_hand_model()
        model.axioms = [a for a in model.axioms if a.name != "PO_mem"]
        result = solve_observability(model, suite_by_name()["mp"])
        assert result.observable


class TestEngineResolution:
    """The 'auto' engine resolves per workload (fresh for the suite,
    incremental for the sweep), and the resolution is recorded."""

    def test_resolvers(self):
        from repro.check import resolve_suite_engine, resolve_sweep_engine
        assert resolve_suite_engine("auto") == "fresh"
        assert resolve_suite_engine("fresh") == "fresh"
        assert resolve_suite_engine("incremental") == "incremental"
        assert resolve_sweep_engine("auto") == "incremental"
        assert resolve_sweep_engine("fresh") == "fresh"

    def test_checker_records_engine_used(self):
        model = sc_hand_model()
        assert Checker(model, engine="auto").engine_used == "fresh"
        assert Checker(model, engine="incremental").engine_used == \
            "incremental"
        with pytest.raises(Exception):
            Checker(model, engine="bogus")

    def test_run_suite_reports_engine_used(self):
        from repro.check import run_suite, suite_report_json
        model = sc_hand_model()
        tests = [suite_by_name()["mp"]]
        run = run_suite(model, tests, engine="auto")
        assert run.engine_used == "fresh"
        report = suite_report_json(run.verdicts, engine="auto",
                                   engine_used=run.engine_used,
                                   profile_sat=True)
        assert report["schema"] == "repro-check-suite/4"
        assert report["engine_used"] == "fresh"
        assert "sat_core" not in report
        assert report["sat_profile"]["sat_propagations"] > 0

    def test_auto_and_explicit_engines_verdict_identical(self):
        from repro.check import run_suite, suite_digest
        model = sc_hand_model()
        tests = [suite_by_name()[n] for n in ("mp", "sb", "lb")]
        digests = {
            engine: suite_digest(run_suite(model, tests,
                                           engine=engine).verdicts)
            for engine in ("auto", "fresh", "incremental")
        }
        assert len(set(digests.values())) == 1, digests

    def test_sweep_engine_validation(self):
        from repro.check import verify_exactness
        model = sc_hand_model()
        with pytest.raises(Exception):
            verify_exactness(model, limit=1, engine="bogus")
