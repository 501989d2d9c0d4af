"""Abstract syntax for the µspec DSL.

µspec (the Check tools' input language) is a typed first-order theory:
a model is a list of axioms quantifying over *microops* (dynamic
instruction instances), built from predicates over microops and
``AddEdge``/``EdgeExists`` atoms over µhb-graph nodes ``(microop,
location)``. This module defines the fragment the paper exhibits
(Figs. 1b/3f and the artifact appendix) plus the value-sourcing
predicates standard in Check-style models (``SamePA``, ``SameData``,
``DataFromInitial``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula:
    """Base class of µspec formula nodes."""


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Forall(Formula):
    """``forall microop "var", body``"""

    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    """``exists microop "var", body``"""

    var: str
    body: Formula


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class And(Formula):
    parts: Tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    parts: Tuple[Formula, ...]


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class Pred(Formula):
    """A microop predicate, e.g. ``IsAnyRead i`` or ``ProgramOrder i j``.

    Supported names (arity): IsAnyRead/1, IsAnyWrite/1, SameCore/2,
    SameMicroop/2, ProgramOrder/2, SamePA/2, SameData/2,
    DataFromInitial/1, OnCore(n)/1 (attr carries the core index).
    """

    name: str
    args: Tuple[str, ...]
    attr: Optional[int] = None


@dataclass(frozen=True)
class Node:
    """A µhb node reference ``(var, location)``."""

    var: str
    location: str


@dataclass(frozen=True)
class AddEdge(Formula):
    """Asserts a happens-before edge between two nodes."""

    src: Node
    dst: Node
    label: str = ""
    color: str = ""


@dataclass(frozen=True)
class EdgeExists(Formula):
    """Tests a happens-before edge (usable in premises)."""

    src: Node
    dst: Node


def add_edges(pairs: Sequence[Tuple[Node, Node]], label: str = "",
              color: str = "") -> Formula:
    """The µspec ``AddEdges [...]`` sugar: a conjunction of AddEdge."""
    return And(tuple(AddEdge(src, dst, label, color) for src, dst in pairs))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass
class Axiom:
    name: str
    formula: Formula
    comment: str = ""


@dataclass
class Model:
    """A complete µspec model: stage (location) declarations + axioms."""

    name: str
    stage_names: List[str] = field(default_factory=list)
    axioms: List[Axiom] = field(default_factory=list)
    metadata: Dict[str, str] = field(default_factory=dict)

    def stage_index(self, name: str) -> int:
        return self.stage_names.index(name)

    def add_stage(self, name: str) -> int:
        if name not in self.stage_names:
            self.stage_names.append(name)
        return self.stage_names.index(name)

    def __getstate__(self) -> Dict:
        # Attributes beyond the fields are derived caches (the Check
        # layer's compiled grounding plan), rebuilt on demand.
        names = {f.name for f in fields(self)}
        return {k: v for k, v in self.__dict__.items() if k in names}

    def axiom_named(self, name: str) -> Axiom:
        for axiom in self.axioms:
            if axiom.name == name:
                return axiom
        raise KeyError(name)
