"""Grounding µspec axioms to CNF over µhb-edge variables.

A :class:`GroundingPlan` compiles a model once into closures: microop
variables become slot indices into one environment list, the
microop-attribute predicates become direct tests, and each axiom gets
an *asserted-position* encoder that adds its clauses straight to the
CNF.  :class:`ModelEvaluator` runs the plan for one litmus instance.
The plan is held on its model (:func:`grounding_plan`), so a sweep over
many programs compiles the model once, and it dies with the model.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import CheckError
from ..sat import Cnf
from ..uspec import ast as U
from .instance import MICROOP_PREDICATES, GroundContext

#: A µhb node: (microop uid, location name).
UhbNode = Tuple[int, str]
#: A µhb edge between two nodes.
UhbEdge = Tuple[UhbNode, UhbNode]

#: A compiled subformula in value position: ``(evaluator, env)`` to
#: True/False or a CNF literal.
Value = Callable[["ModelEvaluator", list], object]
#: A compiled subformula in asserted position: ``(evaluator, env,
#: guard)`` adds clauses saying ``OR(guard) or formula``.
Asserted = Callable[["ModelEvaluator", list, tuple], None]

#: the model attribute that holds its compiled plan
_PLAN_ATTR = "_grounding_plan"


def grounding_plan(model: U.Model) -> "GroundingPlan":
    """The model's compiled plan, recompiled when its axioms or stages
    have changed since the last call."""
    key = _plan_key(model)
    plan = model.__dict__.get(_PLAN_ATTR)
    if plan is None or plan.key != key:
        plan = GroundingPlan(model, key)
        setattr(model, _PLAN_ATTR, plan)
    return plan


def _plan_key(model: U.Model) -> tuple:
    # Formulas are immutable, so the names, formulas and stages are
    # everything a plan is compiled from.
    return (tuple((axiom.name, axiom.formula) for axiom in model.axioms),
            tuple(model.stage_names))


def _memory_location(model: U.Model) -> Optional[str]:
    """The location standing for shared memory: taken from the
    Read_Values axiom's edges (falls back to a location named 'mem')."""
    for axiom in model.axioms:
        if axiom.name == "Read_Values":
            found: List[str] = []

            def walk(f: U.Formula) -> None:
                if isinstance(f, (U.AddEdge, U.EdgeExists)):
                    found.append(f.src.location)
                    found.append(f.dst.location)
                for attr in ("body", "lhs", "rhs"):
                    child = getattr(f, attr, None)
                    if isinstance(child, U.Formula):
                        walk(child)
                for part in getattr(f, "parts", ()):
                    walk(part)

            walk(axiom.formula)
            if found:
                # The most frequent location in Read_Values is memory;
                # ties break on first appearance so the choice never
                # depends on set iteration order (PYTHONHASHSEED).
                counts: Dict[str, int] = {}
                for loc in found:
                    counts[loc] = counts.get(loc, 0) + 1
                return max(counts, key=lambda loc: (counts[loc],
                                                    -found.index(loc)))
    for name in model.stage_names:
        if "mem" in name:
            return name
    return None


def _raise(message: str) -> Value:
    """A compiled node that fails only if grounding reaches it."""
    def fail(ev, env):
        raise CheckError(message)
    return fail


def _true(ev, env):
    return True


def _false(ev, env):
    return False


class GroundingPlan:
    """A µspec model compiled once for grounding any program.

    ``paths`` lists one node-map recipe per ``Path_*`` axiom (the
    locations a microop touches), ``axioms`` one asserted-position
    encoder per axiom, and ``memory_location`` is the location that
    stands for shared memory.
    """

    def __init__(self, model: U.Model, key: tuple):
        self.key = key
        #: environment slots: the deepest quantifier nesting
        self.depth = 0
        self.paths = [self._path(axiom.formula, ())
                      for axiom in model.axioms
                      if axiom.name.startswith("Path")]
        self.axioms = [self._assert(axiom.formula, ())
                       for axiom in model.axioms]
        self.memory_location = _memory_location(model)

    def _bind(self, scope: tuple, var: str) -> Tuple[int, tuple]:
        slot = len(scope)
        self.depth = max(self.depth, slot + 1)
        return slot, scope + (var,)

    @staticmethod
    def _slot(scope: tuple, var: str) -> Optional[int]:
        # The innermost binding of a name shadows outer ones.
        for slot in range(len(scope) - 1, -1, -1):
            if scope[slot] == var:
                return slot
        return None

    # ------------------------------------------------------------------
    # Path axioms: the microop's µhb nodes
    # ------------------------------------------------------------------
    def _path(self, formula: U.Formula, scope: tuple):
        """Compile a Path axiom body to ``(evaluator, env)`` -> the
        (src, dst) location pairs it adds; every quantifier binds the
        one microop, so the caller fills ``env`` with it."""
        if isinstance(formula, U.Forall):
            return self._path(formula.body, self._bind(scope, formula.var)[1])
        if isinstance(formula, U.Implies):
            premise = self._value(formula.lhs, scope)
            rhs = self._path(formula.rhs, scope)

            def implies(ev, env):
                holds = premise(ev, env)
                if holds is False:
                    return ()
                if holds is not True:
                    raise CheckError(
                        "Path axiom premises must be ground predicates")
                return rhs(ev, env)
            return implies
        if isinstance(formula, U.And):
            parts = [self._path(part, scope) for part in formula.parts]

            def conj(ev, env):
                pairs = []
                for part in parts:
                    pairs.extend(part(ev, env))
                return pairs
            return conj
        if isinstance(formula, U.AddEdge):
            pair = ((formula.src.location, formula.dst.location),)
            return lambda ev, env: pair
        return _raise(
            f"unsupported construct in Path axiom: {type(formula).__name__}")

    # ------------------------------------------------------------------
    # Value position: True/False or a literal
    # ------------------------------------------------------------------
    def _value(self, formula: U.Formula, scope: tuple) -> Value:
        if isinstance(formula, U.TrueF):
            return _true
        if isinstance(formula, U.FalseF):
            return _false
        if isinstance(formula, (U.Forall, U.Exists)):
            return self._quantifier(formula, scope)
        if isinstance(formula, U.Implies):
            lhs = self._value(formula.lhs, scope)
            rhs = self._value(formula.rhs, scope)

            def implies(ev, env):
                premise = lhs(ev, env)
                if premise is False:
                    return True
                sub = rhs(ev, env)
                if premise is True or sub is True:
                    return sub
                if sub is False:
                    return -premise
                return ev.cnf.encode_or([-premise, sub])
            return implies
        if isinstance(formula, (U.And, U.Or)):
            return self._connective(formula, scope)
        if isinstance(formula, U.Not):
            body = self._value(formula.body, scope)

            def negate(ev, env):
                sub = body(ev, env)
                if sub is True or sub is False:
                    return not sub
                return -sub
            return negate
        if isinstance(formula, U.Pred):
            return self._pred(formula, scope)
        if isinstance(formula, (U.AddEdge, U.EdgeExists)):
            return self._edge(formula, scope)
        return _raise(f"cannot ground {type(formula).__name__}")

    def _quantifier(self, formula, scope: tuple) -> Value:
        slot, inner = self._bind(scope, formula.var)
        body = self._value(formula.body, inner)
        is_or = isinstance(formula, U.Exists)
        return lambda ev, env: _gate(ev, _instances(ev, env, slot, body),
                                     is_or)

    def _connective(self, formula, scope: tuple) -> Value:
        parts = [self._value(part, scope) for part in formula.parts]
        is_or = isinstance(formula, U.Or)
        return lambda ev, env: _gate(ev, (part(ev, env) for part in parts),
                                     is_or)

    def _pred(self, formula: U.Pred, scope: tuple) -> Value:
        name = formula.name
        slots = []
        attr = formula.attr
        for arg in formula.args:
            slot = self._slot(scope, arg)
            if slot is None:
                attr = arg  # literal argument (e.g. a location name)
            else:
                slots.append(slot)
        test = MICROOP_PREDICATES.get(name)
        if test is not None:
            if len(slots) == 1:
                a, = slots
                return lambda ev, env: test(env[a])
            if len(slots) == 2:
                a, b = slots
                return lambda ev, env: test(env[a], env[b])
            return _raise(f"µspec predicate {name!r} given {len(slots)} "
                          f"microop(s)")
        if name.startswith("IsType_"):
            # Custom instruction types: this model's microops are plain
            # reads and writes.
            return _false
        if name in ("OnCore", "AccessesLocation"):
            if len(slots) != 1:
                return _raise(f"µspec predicate {name!r} takes one microop")
            a, = slots
            if name == "OnCore":
                return lambda ev, env: env[a].core == attr
            return lambda ev, env: env[a].uid in ev.accesses.get(attr, ())
        # Value predicates (and unknown names) go to the context, which
        # may answer with a selector literal.
        return lambda ev, env: ev.ctx.eval_pred(
            name, tuple(env[slot] for slot in slots))

    def _edge(self, formula, scope: tuple) -> Value:
        src = self._slot(scope, formula.src.var)
        dst = self._slot(scope, formula.dst.var)
        if src is None or dst is None:
            return _raise("edge references unbound microop variable")
        src_loc = formula.src.location
        dst_loc = formula.dst.location
        label = formula.label if isinstance(formula, U.AddEdge) else ""
        return lambda ev, env: ev.edge_var(
            (env[src].uid, src_loc), (env[dst].uid, dst_loc), label)

    # ------------------------------------------------------------------
    # Asserted position: clauses, no Tseitin root
    # ------------------------------------------------------------------
    def _assert(self, formula: U.Formula, scope: tuple) -> Asserted:
        if isinstance(formula, U.Forall):
            slot, inner = self._bind(scope, formula.var)
            body = self._assert(formula.body, inner)

            def forall(ev, env, guard):
                for uop in ev.uops:
                    env[slot] = uop
                    body(ev, env, guard)
            return forall
        if isinstance(formula, U.And):
            parts = [self._assert(part, scope) for part in formula.parts]

            def conj(ev, env, guard):
                for part in parts:
                    part(ev, env, guard)
            return conj
        if isinstance(formula, U.Implies):
            lhs = self._value(formula.lhs, scope)
            rhs = self._assert(formula.rhs, scope)

            def implies(ev, env, guard):
                premise = lhs(ev, env)
                if premise is True:
                    rhs(ev, env, guard)
                elif premise is not False:
                    rhs(ev, env, guard + (-premise,))
            return implies
        if isinstance(formula, U.Or):
            parts = [self._value(part, scope) for part in formula.parts]
            return lambda ev, env, guard: _clause(
                ev, guard, (part(ev, env) for part in parts))
        if isinstance(formula, U.Exists):
            slot, inner = self._bind(scope, formula.var)
            body = self._value(formula.body, inner)
            return lambda ev, env, guard: _clause(
                ev, guard, _instances(ev, env, slot, body))
        value = self._value(formula, scope)
        return lambda ev, env, guard: _clause(ev, guard, (value(ev, env),))


def _instances(ev, env, slot: int, body: Value):
    """``body`` on every binding of the quantified slot."""
    for uop in ev.uops:
        env[slot] = uop
        yield body(ev, env)


def _gate(ev, subs, is_or: bool):
    """Fold value-position results into one AND (or OR) value: the
    absorbing constant short-circuits, the neutral one drops out."""
    lits = []
    for sub in subs:
        if sub is is_or:
            return is_or
        if sub is not (not is_or):
            lits.append(sub)
    if not lits:
        return not is_or
    return ev.cnf.encode_or(lits) if is_or else ev.cnf.encode_and(lits)


def _clause(ev, guard: tuple, subs) -> None:
    """Assert ``OR(guard) or OR(subs)`` as one clause."""
    clause = list(guard)
    for sub in subs:
        if sub is True:
            return
        if sub is not False:
            clause.append(sub)
    ev.require(clause)


class ModelEvaluator:
    """Grounds a µspec model for one litmus instance by running the
    model's :class:`GroundingPlan`.

    Construction runs the plan's Path recipes to learn which locations
    each microop touches (its µhb nodes); :meth:`ground_model` encodes
    every axiom into CNF over edge variables.
    """

    def __init__(self, model: U.Model, ctx: GroundContext,
                 cnf: Optional[Cnf] = None):
        self.plan = grounding_plan(model)
        self.ctx = ctx
        self.uops = ctx.uops
        # An externally supplied Cnf lets symbolic contexts allocate
        # selector variables in the same variable space (incremental mode).
        self.cnf = cnf if cnf is not None else Cnf()
        self.edge_vars: Dict[UhbEdge, int] = {}
        self.edge_labels: Dict[UhbEdge, str] = {}
        #: location -> set of uids with a node there
        self.accesses: Dict[str, set] = {}
        #: uid -> ordered list of locations (µhb nodes)
        self.nodes_of: Dict[int, List[str]] = {u.uid: [] for u in ctx.uops}
        for path in self.plan.paths:
            for uop in self.uops:
                nodes = self.nodes_of[uop.uid]
                for pair in path(self, [uop] * self.plan.depth):
                    for loc in pair:
                        self.accesses.setdefault(loc, set()).add(uop.uid)
                        if loc not in nodes:
                            nodes.append(loc)

    def edge_var(self, src: UhbNode, dst: UhbNode, label: str = "") -> int:
        """CNF literal for a µhb edge (allocated on demand).

        A self-edge is a contradiction and maps to the false literal.
        """
        if src == dst:
            return self.cnf.false_lit
        key = (src, dst)
        var = self.edge_vars.get(key)
        if var is None:
            var = self.cnf.new_var()
            self.edge_vars[key] = var
            # Antisymmetry: a 2-cycle is a contradiction; forbid it
            # eagerly (shortens the lazy acyclicity loop).
            rev = self.edge_vars.get((dst, src))
            if rev is not None:
                self.cnf.add_clause([-var, -rev])
        if label and key not in self.edge_labels:
            self.edge_labels[key] = label
        return var

    def require(self, clause) -> None:
        """Add one clause; an empty one means no graph can satisfy the
        model for this instance."""
        self.cnf.add_clause(clause)
        if not clause:
            raise _Unsatisfiable()

    def ground_model(self) -> None:
        """Encode every axiom into clauses over edge variables."""
        env = [None] * self.plan.depth
        for axiom in self.plan.axioms:
            axiom(self, env, ())


class _Unsatisfiable(Exception):
    """Raised when grounding already shows the instance unsatisfiable."""
