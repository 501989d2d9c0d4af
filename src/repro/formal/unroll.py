"""Timeframe expansion: the sequential cone of a property's root wires
-> CNF over T steps.

An :class:`Unroller` encodes only the AIG nodes its root wires can
observe: the transitive fan-in through AND gates and latch next-state
functions, walked once at construction.  Logic outside that cone cannot
reach any root, so leaving it out of the formula changes no verdict; a
compositional problem over a whole module netlist then pays for the
property's cone, not for the module, at every frame.

Each frame's AND gates go straight onto ``cnf.clauses`` as the three
Tseitin clauses of :meth:`Cnf.encode_and`, in its order, without its
per-literal range check: every literal there was allocated by ``cnf``
itself.  The checker loads the new clauses into its retained solver
with one ``add_cnf(cnf, start)`` call per frame.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..errors import FormalError
from ..sat import Cnf
from . import aig as aigmod
from .aig import lit_is_negated, lit_node
from .bitblast import BlastedDesign


class Unroller:
    """Instantiates the cone of ``roots`` per timeframe into a shared
    :class:`Cnf`.

    Frame 0 uses latch init values (unless ``free_initial_state``, used
    by the induction step query). Frozen inputs share one set of CNF
    variables across all frames.  Nodes outside the cone have no CNF
    literal: :meth:`lit` raises :class:`FormalError` for them.
    """

    def __init__(self, design: BlastedDesign, cnf: Cnf,
                 roots: Iterable[str], free_initial_state: bool = False):
        self.design = design
        self.aig = design.aig
        self.cnf = cnf
        self.free_initial_state = free_initial_state
        self.frames: List[List[int]] = []   # frame -> node -> cnf literal (0: outside the cone)
        self._frozen_vars: Dict[int, int] = {}  # input node -> cnf literal
        self._frozen_nodes = set()
        for name in design.frozen_inputs:
            for lit in design.wire_lits[name]:
                self._frozen_nodes.add(lit_node(lit))
        root_lits: List[int] = []
        for name in roots:
            lits = design.wire_lits.get(name)
            if lits is None:
                raise FormalError(f"unroll root {name!r} is not a design wire")
            root_lits.extend(lits)
        #: node ids of the sequential cone of ``roots``, in node order
        self.cone: List[int] = self.aig.cone(root_lits)

    # ------------------------------------------------------------------
    def num_frames(self) -> int:
        return len(self.frames)

    def extend_to(self, frames: int) -> None:
        while len(self.frames) < frames:
            self._add_frame()

    def _add_frame(self) -> None:
        t = len(self.frames)
        aig = self.aig
        cnf = self.cnf
        true_lit = cnf.true_lit
        false_lit = -true_lit
        node2lit = [0] * aig.num_nodes()
        node2lit[0] = false_lit

        kinds = aig.kind
        fanin0 = aig.fanin0
        fanin1 = aig.fanin1
        clauses = cnf.clauses
        prev = self.frames[t - 1] if t else None

        for node in self.cone:
            kind = kinds[node]
            if kind == aigmod._AND:
                f = fanin0[node]
                a = node2lit[f >> 1]
                if f & 1:
                    a = -a
                f = fanin1[node]
                b = node2lit[f >> 1]
                if f & 1:
                    b = -b
                if a == false_lit or b == false_lit:
                    node2lit[node] = false_lit
                elif a == true_lit:
                    node2lit[node] = b
                elif b == true_lit or a == b:
                    node2lit[node] = a
                elif a == -b:
                    node2lit[node] = false_lit
                else:
                    # cnf.encode_and((a, b)), inlined
                    cnf.num_vars += 1
                    out = cnf.num_vars
                    clauses.append([-out, a])
                    clauses.append([-out, b])
                    clauses.append([out, -a, -b])
                    node2lit[node] = out
            elif kind == aigmod._INPUT:
                if node in self._frozen_nodes:
                    var = self._frozen_vars.get(node)
                    if var is None:
                        var = cnf.new_var()
                        self._frozen_vars[node] = var
                    node2lit[node] = var
                else:
                    node2lit[node] = cnf.new_var()
            elif kind == aigmod._LATCH:
                if t == 0:
                    if self.free_initial_state:
                        node2lit[node] = cnf.new_var()
                    else:
                        node2lit[node] = true_lit if aig.latch_init[node] else false_lit
                else:
                    next_lit = aig.latch_next.get(node)
                    if next_lit is None:
                        raise FormalError(f"latch {aig.tag[node]} has no next function")
                    node2lit[node] = self._resolve(prev, next_lit)
        self.frames.append(node2lit)

    @staticmethod
    def _resolve(node2lit: List[int], aig_lit: int) -> int:
        lit = node2lit[lit_node(aig_lit)]
        return -lit if lit_is_negated(aig_lit) else lit

    # ------------------------------------------------------------------
    def lit(self, aig_lit: int, frame: int) -> int:
        """CNF literal for an AIG literal at a given frame."""
        self.extend_to(frame + 1)
        lit = self._resolve(self.frames[frame], aig_lit)
        if lit == 0:
            raise FormalError(f"AIG node {lit_node(aig_lit)} is outside the "
                              "unrolled cone of influence")
        return lit

    def wire_lit(self, name: str, frame: int, bit: int = 0) -> int:
        """CNF literal for one bit of a named wire at a frame."""
        return self.lit(self.design.wire_lits[name][bit], frame)

    def wire_lits(self, name: str, frame: int) -> List[int]:
        return [self.lit(al, frame) for al in self.design.wire_lits[name]]
