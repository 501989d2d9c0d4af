"""Syntax translation: validated HBIs -> µspec model (paper section 4.4).

Emits, per the synthesized HBI set:

* one intra-instruction path axiom per instruction type (Fig. 3f,
  "Axiom W path" style),
* same-core structural/dataflow axioms with ``ProgramOrder`` premises
  for every proven consistent ordering (collapsed to untyped axioms
  when the relaxed any-pair SVA proved them),
* either-order serialization axioms for unordered global HBIs,
* the value axioms (``Read_Values``, write serialization) justified by
  the functional-correctness assumption of section 4.3.6.

Instruction types map onto the µspec predicates ``IsAnyRead`` /
``IsAnyWrite`` via the encodings' read/write classification.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..uspec import (
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
from .merging import MergePlan

if TYPE_CHECKING:  # pragma: no cover
    from .synthesizer import Rtl2Uspec


def _type_pred(syn: "Rtl2Uspec", enc_name: str, var: str) -> Optional[Pred]:
    if enc_name == "any":
        return None
    enc = syn.md.encoding(enc_name)
    if enc.is_read:
        return Pred("IsAnyRead", (var,))
    if enc.is_write:
        return Pred("IsAnyWrite", (var,))
    return Pred(f"IsType_{enc_name}", (var,))


def _guarded(premises: List, consequent) -> object:
    formula = consequent
    for premise in reversed([p for p in premises if p is not None]):
        formula = Implies(premise, formula)
    return formula


def emit_model(syn: "Rtl2Uspec", plan: MergePlan) -> Model:
    model = Model(syn.sim_netlist.name)
    model.metadata["generator"] = "rtl2uspec (reproduction)"
    model.metadata["cores"] = str(syn.md.num_cores)
    for location in plan.locations:
        model.add_stage(location)

    _emit_intra_paths(syn, plan, model)
    _emit_same_core_orderings(syn, plan, model)
    _emit_unordered_serialization(syn, plan, model)
    _emit_value_axioms(syn, plan, model)
    return model


# ---------------------------------------------------------------------------
def _emit_intra_paths(syn: "Rtl2Uspec", plan: MergePlan, model: Model) -> None:
    for enc in syn.md.encodings:
        nodes = syn.updated[enc.name] | syn.accessed[enc.name]
        dfg = syn.instr_dfgs[enc.name]
        # Collapse DFG edges onto merged locations. Only strictly
        # stage-increasing edges describe the instruction's own update
        # order: same-stage updates commit on the same clock edge (no
        # intra order between them), and an edge running from a later
        # stage back to an earlier one is a *read* dependence (e.g. the
        # register file feeding the ALU), which belongs to
        # inter-instruction dataflow HBIs, not the intra path.
        loc_edges: Set[Tuple[str, str]] = set()
        for parent, child in dfg.edges():
            if parent not in nodes or child not in nodes:
                continue
            if syn.labels.stage_of(parent) >= syn.labels.stage_of(child):
                continue
            loc_p = plan.loc(parent)
            loc_c = plan.loc(child)
            if loc_p != loc_c:
                loc_edges.add((loc_p, loc_c))
        _assert_acyclic(loc_edges, enc.name)
        # Order edges by stage for readable output, then by location
        # name so same-stage ties never follow set (string-hash) order;
        # drop edges that skip over an existing two-step path
        # (transitive reduction).
        reduced = _transitive_reduction(loc_edges)
        pairs = [(Node("i", src), Node("i", dst)) for src, dst in sorted(
            reduced, key=lambda e: (plan.location_stage[e[0]],
                                    plan.location_stage[e[1]], e[0], e[1]))]
        if not pairs:
            continue
        body = And(tuple(AddEdge(s, d, "path") for s, d in pairs))
        pred = _type_pred(syn, enc.name, "i")
        formula = Forall("i", _guarded([pred], body))
        model.axioms.append(Axiom(
            f"Path_{enc.name}", formula,
            comment=f"intra-instruction execution path of {enc.name} "
                    f"(proven by {sum(1 for r in syn.sva_records if r.category == 'intra')} "
                    f"intra SVAs)"))


def _assert_acyclic(edges: Set[Tuple[str, str]], enc_name: str) -> None:
    from ..errors import SynthesisError
    succ: Dict[str, Set[str]] = {}
    for src, dst in edges:
        succ.setdefault(src, set()).add(dst)
    state: Dict[str, int] = {}

    def visit(node: str) -> None:
        mark = state.get(node)
        if mark == 1:
            return
        if mark == 0:
            raise SynthesisError(
                f"intra-instruction path of {enc_name!r} is cyclic at {node!r}")
        state[node] = 0
        for nxt in succ.get(node, ()):
            visit(nxt)
        state[node] = 1

    for node in list(succ):
        visit(node)


def _transitive_reduction(edges: Set[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    succ: Dict[str, Set[str]] = {}
    for src, dst in edges:
        succ.setdefault(src, set()).add(dst)

    def reachable_without(src: str, dst: str) -> bool:
        # Is dst reachable from src via a path of length >= 2?
        stack = [s for s in succ.get(src, ()) if s != dst]
        seen = set(stack)
        while stack:
            node = stack.pop()
            for nxt in succ.get(node, ()):
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    return {(s, d) for s, d in edges if not reachable_without(s, d)}


# ---------------------------------------------------------------------------
def _emit_same_core_orderings(syn: "Rtl2Uspec", plan: MergePlan, model: Model) -> None:
    """Structural + dataflow same-core axioms from proven HBIs."""
    # (loc0, loc1) -> {(i0, i1): set of orders seen}. Merging should
    # make the order unique per key (same participation signature); if
    # distinct member states ever disagree, the pair is skipped rather
    # than emitting a possibly-wrong direction (sound: fewer axioms).
    by_pair: Dict[Tuple[str, str], Dict[Tuple[str, str], set]] = {}
    category_of: Dict[Tuple[str, str], str] = {}
    for hbi in syn.hbi_records:
        if hbi.reference != "po" or hbi.order == "unordered":
            continue
        loc0 = plan.loc(hbi.s0)
        loc1 = plan.loc(hbi.s1)
        key = (loc0, loc1)
        by_pair.setdefault(key, {}).setdefault((hbi.i0, hbi.i1), set()).add(hbi.order)
        category_of[key] = hbi.category

    all_types = [e.name for e in syn.md.encodings]
    counter = 0
    for (loc0, loc1), order_sets in sorted(by_pair.items()):
        category = category_of[(loc0, loc1)]
        orders = {pair: next(iter(values))
                  for pair, values in order_sets.items() if len(values) == 1}
        if not orders:
            continue
        full = len(orders) == len(all_types) ** 2
        uniform = len(set(orders.values())) == 1
        if full and uniform:
            groups = [("any", "any", next(iter(orders.values())))]
        else:
            groups = [(i0, i1, order) for (i0, i1), order in sorted(orders.items())]
        for i0, i1, order in groups:
            counter += 1
            if order == "consistent":
                edge = AddEdge(Node("i1", loc0), Node("i2", loc1),
                               "PO" if loc0 == loc1 else category,
                               "green" if loc0 == loc1 else "blue")
            else:
                edge = AddEdge(Node("i2", loc1), Node("i1", loc0),
                               category, "red")
            premises = [
                _type_pred(syn, i0, "i1"),
                _type_pred(syn, i1, "i2"),
                Pred("SameCore", ("i1", "i2")),
                Pred("ProgramOrder", ("i1", "i2")),
            ]
            formula = Forall("i1", Forall("i2", _guarded(premises, edge)))
            name = f"{category}_{loc0}_{loc1}"
            if not (full and uniform):
                name += f"_{i0}_{i1}"
            model.axioms.append(Axiom(name, formula))


# ---------------------------------------------------------------------------
def _emit_unordered_serialization(syn: "Rtl2Uspec", plan: MergePlan, model: Model) -> None:
    """Cross-core accesses to shared serialized resources: either order."""
    emitted: Set[str] = set()
    for hbi in syn.hbi_records:
        if hbi.order != "unordered" or hbi.scope != "global" or hbi.s0 != hbi.s1:
            continue
        loc = plan.loc(hbi.s0)
        if loc in emitted:
            continue
        emitted.add(loc)
        either = Or((
            AddEdge(Node("i1", loc), Node("i2", loc), "serial"),
            AddEdge(Node("i2", loc), Node("i1", loc), "serial"),
        ))
        premises = [
            Pred("AccessesLocation", ("i1", loc)),
            Pred("AccessesLocation", ("i2", loc)),
            Not(Pred("SameMicroop", ("i1", "i2"))),
        ]
        formula = Forall("i1", Forall("i2", _guarded(premises, either)))
        model.axioms.append(Axiom(
            f"serialize_{loc}", formula,
            comment="single-ported shared resource: accesses serialized, "
                    "direction unconstrained (no reference order)"))


# ---------------------------------------------------------------------------
def _emit_value_axioms(syn: "Rtl2Uspec", plan: MergePlan, model: Model) -> None:
    """Read_Values + write serialization (functional correctness, 4.3.6)."""
    if syn.iface is None:
        return
    mem_loc = plan.loc(syn.iface.resource)
    read_node = Node("r", mem_loc)

    # A read takes its value either from the initial state (and then
    # precedes every same-address write) or from some same-address,
    # same-data write with no same-address write in between.
    from_init = And((
        Pred("DataFromInitial", ("r",)),
        Forall("w", _guarded(
            [Pred("IsAnyWrite", ("w",)), Pred("SamePA", ("w", "r"))],
            AddEdge(read_node, Node("w", mem_loc), "fr", "red"))),
    ))
    no_writes_between = Forall("w2", _guarded(
        [Pred("IsAnyWrite", ("w2",)),
         Pred("SamePA", ("w2", "r")),
         Not(Pred("SameMicroop", ("w2", "w")))],
        Or((AddEdge(Node("w2", mem_loc), Node("w", mem_loc), "co"),
            AddEdge(read_node, Node("w2", mem_loc), "fr", "red")))))
    from_write = Exists("w", And((
        Pred("IsAnyWrite", ("w",)),
        Pred("SamePA", ("w", "r")),
        Pred("SameData", ("w", "r")),
        AddEdge(Node("w", mem_loc), read_node, "rf", "deeppink"),
        no_writes_between,
    )))
    model.axioms.append(Axiom(
        "Read_Values",
        Forall("r", Implies(Pred("IsAnyRead", ("r",)),
                            Or((from_init, from_write)))),
        comment="memory functional correctness (paper section 4.3.6): a "
                "read returns the latest same-address write, or the "
                "initial value if none precedes it"))

    # Litmus final-memory conditions are enforced by the verifier as an
    # existential constraint ("some same-value write is co-last"); an
    # axiom of the form "every final-value write is co-last" would be
    # too strong when several writes carry the final value.
