"""The grounding plan against an independent oracle, plus its lifetime.

The oracle evaluates a µspec formula directly on every acyclic choice
of µhb edges (each subset of the edges the formula can name), so it
shares no code with the plan's compiler or CNF encoding.  Both deciders
must agree with it: ``solve_observability`` (concrete final condition)
and ``ProgramSolver`` (selector literals for the value predicates).
"""

import functools
import gc
import itertools
import pickle
import random
import weakref

import pytest

from repro.check import ProgramSolver, solve_observability
from repro.check.evaluator import grounding_plan
from repro.designs.models import load_reference_model
from repro.litmus import LitmusTest, suite_by_name
from repro.mcm.events import R, W
from repro.uspec import (
    AddEdge,
    And,
    Axiom,
    EdgeExists,
    Exists,
    FalseF,
    Forall,
    Implies,
    Model,
    Node,
    Not,
    Or,
    Pred,
    TrueF,
    format_model,
    parse_model,
)

# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class _Uop:
    def __init__(self, uid, core, index, kind, addr, data):
        self.uid, self.core, self.index = uid, core, index
        self.kind, self.addr, self.data = kind, addr, data


def _oracle_uops(program, pins):
    uops = []
    for core, thread in enumerate(program):
        for index, access in enumerate(thread):
            data = (access.value if access.kind == "W"
                    else pins.get((core, access.reg)))
            uops.append(_Uop(len(uops), core, index, access.kind,
                             access.addr, data))
    return uops


def _pred(name, args, attr, accesses):
    a = args[0]
    b = args[1] if len(args) > 1 else None
    if name == "IsAnyRead":
        return a.kind == "R"
    if name == "IsAnyWrite":
        return a.kind == "W"
    if name == "SameCore":
        return a.core == b.core
    if name == "SameMicroop":
        return a is b
    if name == "ProgramOrder":
        return a.core == b.core and a.index < b.index
    if name == "SamePA":
        return a.addr == b.addr
    if name == "SameData":
        # an unpinned load may hold any value
        return a.data is None or b.data is None or a.data == b.data
    if name == "DataFromInitial":
        return a.data is None or a.data == 0
    if name == "OnCore":
        return a.core == attr
    if name == "AccessesLocation":
        return (a.uid, attr) in accesses
    raise AssertionError(name)


def _holds(formula, env, uops, chosen, accesses):
    def rec(f, env):
        if isinstance(f, TrueF):
            return True
        if isinstance(f, FalseF):
            return False
        if isinstance(f, Forall):
            return all(rec(f.body, {**env, f.var: u}) for u in uops)
        if isinstance(f, Exists):
            return any(rec(f.body, {**env, f.var: u}) for u in uops)
        if isinstance(f, Implies):
            return not rec(f.lhs, env) or rec(f.rhs, env)
        if isinstance(f, And):
            return all(rec(p, env) for p in f.parts)
        if isinstance(f, Or):
            return any(rec(p, env) for p in f.parts)
        if isinstance(f, Not):
            return not rec(f.body, env)
        if isinstance(f, Pred):
            args = [env[a] for a in f.args if a in env]
            attr = next((a for a in f.args if a not in env), f.attr)
            return _pred(f.name, args, attr, accesses)
        src = (env[f.src.var].uid, f.src.location)
        dst = (env[f.dst.var].uid, f.dst.location)
        return (src, dst) in chosen
    return rec(formula, env)


def _edge_atoms(formula):
    if isinstance(formula, (AddEdge, EdgeExists)):
        yield formula
    for child in (getattr(formula, "body", None), getattr(formula, "lhs", None),
                  getattr(formula, "rhs", None), *getattr(formula, "parts", ())):
        if child is not None:
            yield from _edge_atoms(child)


def _acyclic(edges):
    succ = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
    state = {}

    def visit(node):
        state[node] = 1
        for nxt in succ.get(node, ()):
            if state.get(nxt) == 1 or (nxt not in state and not visit(nxt)):
                return False
        state[node] = 2
        return True
    return all(state.get(node) or visit(node) for node in list(succ))


def oracle_observable(model, program, pins):
    """Some acyclic edge choice satisfies every axiom."""
    uops = _oracle_uops(program, pins)
    # µhb nodes from the Path axioms: every quantifier binds the microop.
    accesses = set()
    for axiom in model.axioms:
        if axiom.name.startswith("Path"):
            for uop in uops:
                env = {var: uop for var in _bound_vars(axiom.formula)}
                _path_nodes(axiom.formula, env, uops, accesses, uop)
    candidates = sorted({
        ((s.uid, atom.src.location), (d.uid, atom.dst.location))
        for axiom in model.axioms for atom in _edge_atoms(axiom.formula)
        for s in uops for d in uops
        if (s.uid, atom.src.location) != (d.uid, atom.dst.location)})
    return any(all(_holds(axiom.formula, {}, uops, chosen, accesses)
                   for axiom in model.axioms)
               for chosen in _acyclic_subsets(tuple(candidates)))


@functools.lru_cache(maxsize=None)
def _acyclic_subsets(candidates):
    assert len(candidates) <= 12, "oracle search too large"
    subsets = []
    for mask in range(1 << len(candidates)):
        chosen = frozenset(edge for bit, edge in enumerate(candidates)
                           if mask >> bit & 1)
        if _acyclic(chosen):
            subsets.append(chosen)
    return subsets


def _bound_vars(formula):
    if isinstance(formula, (Forall, Exists)):
        return {formula.var} | _bound_vars(formula.body)
    return set().union(*(_bound_vars(p) for p in getattr(formula, "parts", ())),
                       *(_bound_vars(getattr(formula, side))
                         for side in ("lhs", "rhs")
                         if getattr(formula, side, None) is not None))


def _path_nodes(formula, env, uops, accesses, uop):
    if isinstance(formula, Forall):
        _path_nodes(formula.body, env, uops, accesses, uop)
    elif isinstance(formula, Implies):
        if _holds(formula.lhs, env, uops, set(), accesses):
            _path_nodes(formula.rhs, env, uops, accesses, uop)
    elif isinstance(formula, And):
        for part in formula.parts:
            _path_nodes(part, env, uops, accesses, uop)
    else:
        accesses.add((uop.uid, formula.src.location))
        accesses.add((uop.uid, formula.dst.location))


# ---------------------------------------------------------------------------
# Programs, conditions and hand models
# ---------------------------------------------------------------------------

PROGRAMS = {
    "w_r": ((W("x", 1),), (R("x", "r1"),)),
    "ww_r": ((W("x", 1), W("y", 1)), (R("y", "r1"),)),
    "w_rr": ((W("x", 2),), (R("x", "r1"), R("x", "r2"))),
    "sb": ((W("x", 1), R("y", "r1")), (W("y", 1), R("x", "r2"))),
}


def conditions(program):
    """Every pin of every load to a value in the program's domain (or
    no pin at all)."""
    loads = [(core, access.reg) for core, thread in enumerate(program)
             for access in thread if access.kind == "R"]
    domain = sorted({0, 1} | {access.value for thread in program
                              for access in thread if access.kind == "W"})
    for values in itertools.product([None] + domain, repeat=len(loads)):
        yield tuple((load, value) for load, value in zip(loads, values)
                    if value is not None)


def m(var):
    return Node(var, "m")


def serial(i, j):
    return Or((AddEdge(m(i), m(j), "serial"), AddEdge(m(j), m(i), "serial")))


def po_model():
    """Forall/Implies/And/Or/Not with static premises."""
    model = Model("po")
    model.axioms.append(Axiom("po", Forall("i", Forall("j", Implies(
        Pred("ProgramOrder", ("i", "j")), AddEdge(m("i"), m("j"), "PO"))))))
    model.axioms.append(Axiom("serial", Forall("i", Forall("j", Implies(
        And((Pred("SamePA", ("i", "j")), Not(Pred("SameMicroop", ("i", "j"))))),
        serial("i", "j"))))))
    return model


def values_model():
    """The Read_Values shape: SameData under Exists, nested quantifiers,
    and an Or of compound disjuncts."""
    model = po_model()
    from_init = And((Pred("DataFromInitial", ("r",)), Forall("w", Implies(
        And((Pred("IsAnyWrite", ("w",)), Pred("SamePA", ("w", "r")))),
        AddEdge(m("r"), m("w"), "fr")))))
    from_write = Exists("w", And((
        Pred("IsAnyWrite", ("w",)), Pred("SamePA", ("w", "r")),
        Pred("SameData", ("w", "r")), AddEdge(m("w"), m("r"), "rf"),
        Forall("w2", Implies(
            And((Pred("IsAnyWrite", ("w2",)), Pred("SamePA", ("w2", "r")),
                 Not(Pred("SameMicroop", ("w2", "w"))))),
            Or((AddEdge(m("w2"), m("w"), "co"),
                AddEdge(m("r"), m("w2"), "fr"))))))))
    model.axioms.append(Axiom("Read_Values", Forall("r", Implies(
        Pred("IsAnyRead", ("r",)), Or((from_init, from_write))))))
    return model


def symbolic_model():
    """SameData under Not and in a premise; EdgeExists in a premise and
    under Implies in value position; TrueF/FalseF inside connectives;
    Not over a compound formula."""
    model = Model("symbolic")
    model.axioms.append(Axiom("differs_after", Forall("w", Forall("r", Implies(
        And((Pred("IsAnyWrite", ("w",)), Pred("IsAnyRead", ("r",)),
             Pred("SamePA", ("w", "r")), Not(Pred("SameData", ("w", "r"))))),
        AddEdge(m("r"), m("w"), "fr"))))))
    model.axioms.append(Axiom("same_before", Forall("w", Forall("r", Implies(
        And((Pred("IsAnyWrite", ("w",)), Pred("IsAnyRead", ("r",)))),
        Implies(Pred("SameData", ("w", "r")),
                Or((FalseF(), EdgeExists(m("w"), m("r")),
                    Pred("DataFromInitial", ("r",))))))))))
    model.axioms.append(Axiom("chain", Forall("i", Forall("j", Implies(
        And((TrueF(), EdgeExists(m("i"), m("j")))),
        Not(And((Pred("IsAnyRead", ("i",)), Pred("IsAnyRead", ("j",))))))))))
    model.axioms.append(Axiom("serial", Forall("i", Forall("j", Implies(
        Not(Pred("SameMicroop", ("i", "j"))), serial("i", "j"))))))
    # A self-edge is never chosen: a load's node has no successor.
    model.axioms.append(Axiom("reads_last", Forall("i", Forall("j", Or((
        Pred("IsAnyWrite", ("i",)), Pred("SameMicroop", ("i", "j")),
        Implies(EdgeExists(m("i"), m("j")), EdgeExists(m("j"), m("j")))))))))
    return model


def located_model():
    """Path axioms, AccessesLocation and OnCore, on two locations: a
    core-1 load that must read core 0's store closes a cycle."""
    model = Model("located")
    model.axioms.append(Axiom("Path_w", Forall("i", Implies(
        Pred("IsAnyWrite", ("i",)),
        AddEdge(Node("i", "f"), Node("i", "m"), "path")))))
    model.axioms.append(Axiom("core1_first", Forall("i", Forall("j", Implies(
        And((Pred("OnCore", ("i",), 0), Pred("OnCore", ("j",), 1))),
        Implies(Pred("AccessesLocation", ("i", "f")),
                AddEdge(m("j"), Node("i", "f"), "c")))))))
    model.axioms.append(Axiom("reads_written", Forall("r", Implies(
        Pred("IsAnyRead", ("r",)),
        Or((Pred("DataFromInitial", ("r",)), Exists("w", And((
            Pred("IsAnyWrite", ("w",)),
            EdgeExists(m("w"), m("r")))))))))))
    return model


def false_model():
    """An axiom that no program with a write can satisfy."""
    model = po_model()
    model.axioms.append(Axiom("no_writes", Forall("i", Not(
        Pred("IsAnyWrite", ("i",))))))
    return model


HAND_MODELS = [po_model, values_model, symbolic_model, located_model,
               false_model]

# ---------------------------------------------------------------------------
# Random formulas
# ---------------------------------------------------------------------------

_STATIC = (("IsAnyRead", 1), ("IsAnyWrite", 1), ("SameCore", 2),
           ("SameMicroop", 2), ("ProgramOrder", 2), ("SamePA", 2),
           ("SameData", 2), ("DataFromInitial", 1))


def random_formula(rng, scope, depth):
    """A random formula over location ``m`` whose free variables are
    all in ``scope``."""
    choices = ["pred", "edge", "const"] if depth == 0 or not scope else [
        "pred", "edge", "not", "and", "or", "implies", "forall", "exists",
        "forall", "exists"]
    if not scope:
        choices = ["forall", "exists"]
    kind = rng.choice(choices)
    if kind == "const":
        return rng.choice((TrueF(), FalseF()))
    if kind == "pred":
        name, arity = rng.choice(_STATIC)
        return Pred(name, tuple(rng.choice(scope) for _ in range(arity)))
    if kind == "edge":
        edge = AddEdge if rng.random() < 0.5 else EdgeExists
        return edge(m(rng.choice(scope)), m(rng.choice(scope)))
    if kind in ("forall", "exists"):
        var = f"v{len(scope)}"
        cls = Forall if kind == "forall" else Exists
        return cls(var, random_formula(rng, scope + [var], depth - 1))
    if kind == "not":
        return Not(random_formula(rng, scope, depth - 1))
    if kind == "implies":
        return Implies(random_formula(rng, scope, depth - 1),
                       random_formula(rng, scope, depth - 1))
    parts = tuple(random_formula(rng, scope, depth - 1)
                  for _ in range(rng.randint(1, 3)))
    return And(parts) if kind == "and" else Or(parts)


def random_model(seed):
    rng = random.Random(seed)
    model = Model(f"random{seed}")
    for index in range(rng.randint(1, 3)):
        model.axioms.append(Axiom(f"a{index}", random_formula(rng, [], 4)))
    return model


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def assert_deciders_match_oracle(model, program):
    name = "p"
    solver = ProgramSolver(model, LitmusTest(name, program, ()))
    for condition in conditions(program):
        expected = oracle_observable(model, program, dict(condition))
        fresh = solve_observability(model, LitmusTest(name, program,
                                                      condition))
        assert fresh.observable == expected, (condition, "fresh")
        assert solver.decide(condition).observable == expected, (
            condition, "incremental")
    return solver


#: (model, program) pairs small enough for the oracle: the two-location
#: model names too many candidate edges on more than two microops
HAND_CASES = [(build, program) for build in HAND_MODELS
              for program in sorted(PROGRAMS)
              if build is not located_model or program == "w_r"]


class TestOracle:
    @pytest.mark.parametrize(
        "build,program", HAND_CASES,
        ids=[f"{build.__name__}-{program}" for build, program in HAND_CASES])
    def test_hand_models(self, build, program):
        model = build()
        solver = assert_deciders_match_oracle(model, PROGRAMS[program])
        assert solver.fresh_fallbacks == 0

    def test_ground_false_axiom_is_always_unsat(self):
        solver = ProgramSolver(false_model(),
                               LitmusTest("p", PROGRAMS["w_r"], ()))
        assert solver.always_unsat
        assert not any(oracle_observable(false_model(), PROGRAMS["w_r"],
                                         dict(condition))
                       for condition in conditions(PROGRAMS["w_r"]))

    def test_models_reach_both_verdicts(self):
        # The hand models are not vacuous: beyond the unconstrained
        # po_model and the ground-false one, each is observable on some
        # case and unobservable on another.
        expected = {po_model: {True}, false_model: {False}}
        for build, program in HAND_CASES:
            expected.setdefault(build, {True, False})
        for build, wanted in expected.items():
            verdicts = {oracle_observable(build(), PROGRAMS[program],
                                          dict(condition))
                        for case, program in HAND_CASES if case is build
                        for condition in conditions(PROGRAMS[program])}
            assert verdicts == wanted, build.__name__

    @pytest.mark.parametrize("seed", range(100))
    def test_random_models(self, seed):
        model = random_model(seed)
        for program in ("w_r", "ww_r", "w_rr"):
            assert_deciders_match_oracle(model, PROGRAMS[program])


class TestOnCore:
    def test_parse_print_check_roundtrip(self):
        model = Model("oncore")
        model.add_stage("m")
        model.axioms.append(Axiom("core1_after_core0", Forall("i", Forall(
            "j", Implies(And((Pred("OnCore", ("i",), 0),
                              Pred("OnCore", ("j",), 1))),
                         AddEdge(m("i"), m("j"), "c"))))))
        text = format_model(model)
        assert "OnCore 0 i" in text and "OnCore 1 j" in text
        parsed = parse_model(text)
        assert parsed.axioms[0].formula == model.axioms[0].formula
        # mp's stores (core 0) precede its loads (core 1), so loading
        # the new flag and the old data is still observable, and the
        # axiom puts every core-0 node before every core-1 node.
        result = solve_observability(parsed, suite_by_name()["mp"])
        assert result.observable
        cores = {uop.uid: uop.core for uop in result.graph.ctx.uops}
        chosen = {(src[0], dst[0]) for src, dst, _ in result.graph.edges}
        assert {(a, b) for a in cores for b in cores
                if cores[a] == 0 and cores[b] == 1} <= chosen


class TestPlanLifetime:
    def test_plan_compiled_once_per_model(self):
        model = load_reference_model()
        test = suite_by_name()["mp"]
        solve_observability(model, test)
        plan = grounding_plan(model)
        solve_observability(model, suite_by_name()["sb"])
        assert grounding_plan(model) is plan

    def test_appended_axiom_takes_effect(self):
        model = po_model()
        program = PROGRAMS["w_r"]
        test = LitmusTest("p", program, ())
        assert solve_observability(model, test).observable
        model.axioms.append(Axiom("never", FalseF()))
        assert not solve_observability(model, test).observable
        assert ProgramSolver(model, test).always_unsat

    def test_replaced_axioms_take_effect(self):
        model = false_model()
        test = LitmusTest("p", PROGRAMS["w_r"], ())
        assert not solve_observability(model, test).observable
        model.axioms = po_model().axioms
        assert solve_observability(model, test).observable
        model.axioms[0] = Axiom("never", FalseF())
        assert not solve_observability(model, test).observable

    def test_checked_model_pickles(self):
        model = load_reference_model()
        solve_observability(model, suite_by_name()["mp"])
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        assert "_grounding_plan" not in clone.__dict__
        assert (solve_observability(clone, suite_by_name()["sb"]).observable
                == solve_observability(model, suite_by_name()["sb"]).observable)

    def test_plans_die_with_their_models(self):
        test = suite_by_name()["mp"]
        plans = []
        for _ in range(200):
            model = load_reference_model()
            solve_observability(model, test)
            plans.append(weakref.ref(grounding_plan(model)))
        del model
        gc.collect()
        assert sum(ref() is not None for ref in plans) <= 1
