"""Bit-blasting: word-level netlist -> sequential AIG.

Memories are exploded into per-cell latch vectors with mux-tree read
logic and address-decoded write logic, so the whole design becomes a
pure bit-level transition system.

:class:`BlastCache` memoizes the cone-of-influence + bitblast front
half of a property check behind a content key, so repeated checks of
structurally identical problems (re-checks for counterexample traces,
scheduler retries) stop re-blasting the same cone.  A
:class:`BlastedDesign` is immutable once built — the unroller and
trace extractor only read it — so sharing one instance across checks
is safe.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import FormalError
from ..netlist import (
    Cell,
    Const,
    Netlist,
    SignalRef,
    cone_of_influence,
    netlist_fingerprint,
)
from .aig import FALSE, Aig, lit_neg


class BlastedDesign:
    """The AIG plus name maps produced by :func:`bitblast`."""

    def __init__(self, netlist: Netlist, aig: Aig,
                 wire_lits: Dict[str, List[int]],
                 mem_cell_lits: Dict[str, List[List[int]]],
                 frozen_inputs: Sequence[str]):
        self.netlist = netlist
        self.aig = aig
        #: wire name -> LSB-first literals
        self.wire_lits = wire_lits
        #: memory name -> [cell][bit] latch literals
        self.mem_cell_lits = mem_cell_lits
        #: input wires whose value is held constant across all timeframes
        self.frozen_inputs = list(frozen_inputs)


def bitblast(netlist: Netlist, frozen_inputs: Sequence[str] = ()) -> BlastedDesign:
    """Lower ``netlist`` to a :class:`BlastedDesign`.

    ``frozen_inputs`` are design inputs representing symbolic constants
    (e.g. the pc0/i0 values of SVA templates); the unroller reuses their
    step-0 variables at every timeframe.
    """
    aig = Aig()
    wire_lits: Dict[str, List[int]] = {}
    mem_cell_lits: Dict[str, List[List[int]]] = {}

    frozen = set(frozen_inputs)
    for name in frozen:
        if name not in netlist.inputs:
            raise FormalError(f"frozen input {name!r} is not a design input")

    # Primary inputs.
    for name, width in netlist.inputs.items():
        wire_lits[name] = [aig.new_input(name, bit) for bit in range(width)]

    # Latches for DFFs.
    for dff in netlist.dffs.values():
        wire_lits[dff.q] = [
            aig.new_latch(dff.q, bit, (dff.init >> bit) & 1)
            for bit in range(dff.width)
        ]

    # Latches for memory cells.
    for mem in netlist.memories.values():
        cells = []
        for addr in range(mem.depth):
            init = mem.init.get(addr, 0)
            cells.append([
                aig.new_latch(f"{mem.name}[{addr}]", bit, (init >> bit) & 1)
                for bit in range(mem.width)
            ])
        mem_cell_lits[mem.name] = cells

    def resolve(ref: SignalRef) -> List[int]:
        if isinstance(ref, Const):
            return aig.const_vector(ref.value, ref.width)
        lits = wire_lits.get(ref)
        if lits is None:
            raise FormalError(f"bitblast: wire {ref!r} not yet computed")
        return lits

    # Combinational evaluation in topological order, with memory read
    # ports resolved on demand (their address cones are scheduled first
    # by Netlist.topo_cells).
    read_port_by_data = {}
    for mem in netlist.memories.values():
        for port in mem.read_ports:
            read_port_by_data[port.data] = port

    def blast_read_port(port) -> None:
        mem = netlist.memories[port.memory]
        addr_lits = resolve(port.addr)
        cells = mem_cell_lits[port.memory]
        result = aig.const_vector(0, mem.width)
        for addr in range(mem.depth):
            sel = aig.eq_vector(addr_lits, aig.const_vector(addr, len(addr_lits)))
            result = aig.mux_vector(sel, cells[addr], result)
        wire_lits[port.data] = result

    def ensure(ref: SignalRef) -> List[int]:
        if isinstance(ref, str) and ref not in wire_lits and ref in read_port_by_data:
            blast_read_port(read_port_by_data[ref])
        return resolve(ref)

    for cell in netlist.topo_cells():
        operands = [ensure(ref) for ref in cell.inputs]
        out_width = netlist.wires[cell.output].width
        wire_lits[cell.output] = _blast_cell(aig, cell, operands, out_width)

    # Any remaining read ports (data consumed only sequentially).
    for data, port in read_port_by_data.items():
        if data not in wire_lits:
            blast_read_port(port)

    # Latch next-state functions.
    for dff in netlist.dffs.values():
        next_lits = resolve(dff.d)
        for bit, q_lit in enumerate(wire_lits[dff.q]):
            aig.set_latch_next(q_lit, next_lits[bit])

    # Memory next-state: apply write ports in priority order (later wins).
    for mem in netlist.memories.values():
        cells = mem_cell_lits[mem.name]
        next_cells = [list(c) for c in cells]
        for port in mem.write_ports:
            en = resolve(port.enable)[0]
            addr_lits = resolve(port.addr)
            data_lits = resolve(port.data)
            for addr in range(mem.depth):
                sel = aig.AND(en, aig.eq_vector(addr_lits, aig.const_vector(addr, len(addr_lits))))
                next_cells[addr] = aig.mux_vector(sel, data_lits, next_cells[addr])
        for addr in range(mem.depth):
            for bit, latch_lit in enumerate(cells[addr]):
                aig.set_latch_next(latch_lit, next_cells[addr][bit])

    return BlastedDesign(netlist, aig, wire_lits, mem_cell_lits, frozen_inputs)


def extend_bitblast(base: BlastedDesign, netlist: Netlist,
                    frozen_inputs: Sequence[str] = ()) -> BlastedDesign:
    """Blast only the delta of ``netlist`` over an already blasted base.

    ``netlist`` must be a monotone extension of ``base.netlist`` — a
    ``Netlist.copy()`` of it with wires/inputs/DFFs/cells/read ports
    appended (exactly what :class:`MonitorContext` produces in
    share-base mode).  The shared design prefix is copied from
    ``base`` instead of being re-blasted, which is what lets N monitor
    circuits over one module netlist pay the blast cost once.
    """
    base_nl = base.netlist
    for mem_name, mem in base_nl.memories.items():
        new_mem = netlist.memories.get(mem_name)
        if new_mem is None or len(new_mem.write_ports) != len(mem.write_ports):
            raise FormalError("extend_bitblast: base memories must be "
                              "extended by read ports only")
    if len(netlist.memories) != len(base_nl.memories):
        raise FormalError("extend_bitblast: extension may not add memories")
    if netlist.cells[:len(base_nl.cells)] != base_nl.cells:
        raise FormalError("extend_bitblast: netlist is not an extension "
                          "of the blasted base")

    frozen = set(frozen_inputs)
    for name in frozen:
        if name not in netlist.inputs:
            raise FormalError(f"frozen input {name!r} is not a design input")

    aig = base.aig.copy()
    wire_lits: Dict[str, List[int]] = dict(base.wire_lits)
    mem_cell_lits: Dict[str, List[List[int]]] = {
        name: [list(cell) for cell in cells]
        for name, cells in base.mem_cell_lits.items()
    }

    # Delta inputs (symbolic constants / free monitor inputs).
    for name, width in netlist.inputs.items():
        if name in base_nl.inputs:
            continue
        wire_lits[name] = [aig.new_input(name, bit) for bit in range(width)]

    # Delta DFF latches first: monitor builders reference q wires in
    # cells created before the matching add_dff call.
    delta_dffs = [dff for key, dff in netlist.dffs.items()
                  if key not in base_nl.dffs]
    for dff in delta_dffs:
        wire_lits[dff.q] = [
            aig.new_latch(dff.q, bit, (dff.init >> bit) & 1)
            for bit in range(dff.width)
        ]

    def resolve(ref: SignalRef) -> List[int]:
        if isinstance(ref, Const):
            return aig.const_vector(ref.value, ref.width)
        lits = wire_lits.get(ref)
        if lits is None:
            raise FormalError(f"extend_bitblast: wire {ref!r} not yet computed")
        return lits

    # Delta read ports on base memories, resolvable on demand (the base
    # blast already computed every base read port).
    read_port_by_data = {}
    for mem in netlist.memories.values():
        base_ports = len(base_nl.memories[mem.name].read_ports)
        for port in mem.read_ports[base_ports:]:
            read_port_by_data[port.data] = port

    def blast_read_port(port) -> None:
        mem = netlist.memories[port.memory]
        addr_lits = resolve(port.addr)
        cells = mem_cell_lits[port.memory]
        result = aig.const_vector(0, mem.width)
        for addr in range(mem.depth):
            sel = aig.eq_vector(addr_lits, aig.const_vector(addr, len(addr_lits)))
            result = aig.mux_vector(sel, cells[addr], result)
        wire_lits[port.data] = result

    def ensure(ref: SignalRef) -> List[int]:
        if isinstance(ref, str) and ref not in wire_lits and ref in read_port_by_data:
            blast_read_port(read_port_by_data[ref])
        return resolve(ref)

    # Monitor cells are appended operand-first, so list order is a
    # valid evaluation order for the delta.
    for cell in netlist.cells[len(base_nl.cells):]:
        operands = [ensure(ref) for ref in cell.inputs]
        out_width = netlist.wires[cell.output].width
        wire_lits[cell.output] = _blast_cell(aig, cell, operands, out_width)

    for data, port in read_port_by_data.items():
        if data not in wire_lits:
            blast_read_port(port)

    for dff in delta_dffs:
        next_lits = resolve(dff.d)
        for bit, q_lit in enumerate(wire_lits[dff.q]):
            aig.set_latch_next(q_lit, next_lits[bit])

    return BlastedDesign(netlist, aig, wire_lits, mem_cell_lits, frozen_inputs)


def _blast_cell(aig: Aig, cell: Cell, operands: List[List[int]], out_width: int) -> List[int]:
    op = cell.op
    if op == "not":
        return [lit_neg(b) for b in operands[0]]
    if op == "and":
        result = operands[0]
        for other in operands[1:]:
            result = [aig.AND(a, b) for a, b in zip(result, other)]
        return result
    if op == "or":
        result = operands[0]
        for other in operands[1:]:
            result = [aig.OR(a, b) for a, b in zip(result, other)]
        return result
    if op == "xor":
        result = operands[0]
        for other in operands[1:]:
            result = [aig.XOR(a, b) for a, b in zip(result, other)]
        return result
    if op == "xnor":
        return [aig.XNOR(a, b) for a, b in zip(operands[0], operands[1])]
    if op == "redand":
        return [aig.AND_MANY(operands[0])]
    if op == "redor":
        return [aig.OR_MANY(operands[0])]
    if op == "redxor":
        acc = FALSE
        for bit in operands[0]:
            acc = aig.XOR(acc, bit)
        return [acc]
    if op == "lognot":
        return [lit_neg(aig.OR_MANY(operands[0]))]
    if op == "logand":
        return [aig.AND_MANY(aig.OR_MANY(vec) for vec in operands)]
    if op == "logor":
        return [aig.OR_MANY(aig.OR_MANY(vec) for vec in operands)]
    if op == "eq":
        return [aig.eq_vector(operands[0], operands[1])]
    if op == "ne":
        return [lit_neg(aig.eq_vector(operands[0], operands[1]))]
    if op == "lt":
        return [aig.lt_vector(operands[0], operands[1])]
    if op == "le":
        return [lit_neg(aig.lt_vector(operands[1], operands[0]))]
    if op == "gt":
        return [aig.lt_vector(operands[1], operands[0])]
    if op == "ge":
        return [lit_neg(aig.lt_vector(operands[0], operands[1]))]
    if op == "add":
        return aig.add_vector(operands[0], operands[1])
    if op == "sub":
        return aig.sub_vector(operands[0], operands[1])
    if op == "mul":
        return aig.mul_vector(operands[0], operands[1])
    if op == "shl":
        return aig.shift_vector(operands[0], operands[1], left=True)
    if op == "shr":
        return aig.shift_vector(operands[0], operands[1], left=False)
    if op == "mux":
        return aig.mux_vector(operands[0][0], operands[1], operands[2])
    if op == "concat":
        # inputs are MSB-first; bit vectors are LSB-first.
        out: List[int] = []
        for vec in reversed(operands):
            out.extend(vec)
        return out
    if op == "slice":
        lo, hi = cell.attrs["lo"], cell.attrs["hi"]
        return operands[0][lo:hi + 1]
    if op == "zext":
        vec = list(operands[0])
        while len(vec) < out_width:
            vec.append(FALSE)
        return vec[:out_width]
    raise FormalError(f"bitblast: unsupported op {op!r}")


def blast_key(netlist: Netlist, roots: Optional[Sequence[str]],
              frozen_inputs: Sequence[str]) -> Tuple:
    """Content key of one blasted problem shape (see :class:`BlastCache`)."""
    return (netlist_fingerprint(netlist),
            None if roots is None else tuple(sorted(roots)),
            tuple(sorted(frozen_inputs)))


def blast_cone(netlist: Netlist, roots: Optional[Sequence[str]],
               frozen_inputs: Sequence[str]) -> Tuple[Netlist, BlastedDesign]:
    """Cut ``netlist`` to the word-level cone of ``roots`` (the whole
    netlist for ``roots=None``) and bit-blast it."""
    cone = netlist if roots is None else cone_of_influence(netlist, roots)
    # Frozen inputs outside the cone are irrelevant to the check;
    # filtering is deterministic given the key, so the unfiltered
    # list is safe to use in it.
    frozen = [f for f in frozen_inputs if f in cone.inputs]
    return cone, bitblast(cone, frozen_inputs=frozen)


class BlastCache:
    """LRU cache for the COI-extraction + bitblast front half of a check.

    Keyed by ``(netlist_fingerprint, roots, frozen_inputs)``, where
    ``roots=None`` stands for the whole netlist (a shared module base):
    the fingerprint is canonical under cell reordering and memoized per
    netlist instance (see :func:`repro.netlist.netlist_fingerprint`),
    so repeated problems over the same design pay for the structural
    hash once and for the blast never.  Stores the reduced netlist
    alongside the :class:`BlastedDesign` because trace extraction and
    frame encoding both consult the cone netlist, not the original.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("BlastCache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, Tuple[Netlist, BlastedDesign]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, netlist: Netlist, roots: Optional[Sequence[str]],
            frozen_inputs: Sequence[str]) -> Tuple[Netlist, BlastedDesign]:
        """Return ``(cone_netlist, blasted)`` for the given problem shape,
        blasting (and caching) on a miss.  ``roots=None`` blasts the
        whole netlist."""
        key = blast_key(netlist, roots, frozen_inputs)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = blast_cone(netlist, roots, frozen_inputs)
        self._remember(key, entry)
        return entry

    def _remember(self, key, entry) -> None:
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
