"""Counterexample traces reconstructed from SAT models."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sat import ArenaSolver
from .aig import _AND, _LATCH
from .unroll import Unroller


class Trace:
    """A finite counterexample: per-cycle wire values.

    ``values[name][t]`` is the integer value of wire ``name`` at cycle
    ``t``. Memory cells appear as ``mem[addr]`` pseudo-wires.  Every
    wire and cell is present: bits in the checked property's cone of
    influence come from the SAT model, and the rest are simulated
    forward from them (latch init values at cycle 0, inputs outside
    the cone held at 0), so the trace is one consistent run of the
    whole design.
    """

    def __init__(self, values: Dict[str, List[int]], length: int,
                 fail_cycle: Optional[int] = None):
        self.values = values
        self.length = length
        self.fail_cycle = fail_cycle

    def value(self, name: str, cycle: int) -> int:
        return self.values[name][cycle]

    def wires(self) -> List[str]:
        return sorted(self.values)

    def format(self, wires: Optional[List[str]] = None, hide_internal: bool = True) -> str:
        """Tabular rendering for humans (used by the bug-hunt example)."""
        names = wires if wires is not None else self.wires()
        if hide_internal and wires is None:
            names = [n for n in names if not n.startswith("$") and "$" not in n]
        rows = []
        name_width = max((len(n) for n in names), default=4)
        header = " " * (name_width + 2) + "".join(f"{t:>10}" for t in range(self.length))
        rows.append(header)
        for name in names:
            cells = "".join(f"{self.values[name][t]:>10x}" for t in range(self.length))
            rows.append(f"{name:<{name_width}}  {cells}")
        if self.fail_cycle is not None:
            rows.append(f"(assertion fails at cycle {self.fail_cycle})")
        return "\n".join(rows)


def extract_trace(unroller: Unroller, solver: ArenaSolver, length: int,
                  fail_cycle: Optional[int] = None) -> Trace:
    """Read back every wire and memory cell value for ``length`` cycles.

    Bits in the unroller's cone come from the SAT model.  Every other
    bit is forward-simulated on the AIG from those values, with latch
    init values at cycle 0 and out-of-cone inputs held at 0; logic
    outside the cone cannot reach a root, so the filled-in values never
    contradict the model.
    """
    design = unroller.design
    frames = _node_values(unroller, solver, length)

    def word(bits: List[int], t: int) -> int:
        vals = frames[t]
        value = 0
        for bit, aig_lit in enumerate(bits):
            if vals[aig_lit >> 1] ^ (aig_lit & 1):
                value |= 1 << bit
        return value

    values: Dict[str, List[int]] = {}
    for name, lits in design.wire_lits.items():
        values[name] = [word(lits, t) for t in range(length)]
    for mem_name, cells in design.mem_cell_lits.items():
        for addr, bits in enumerate(cells):
            values[f"{mem_name}[{addr}]"] = [word(bits, t) for t in range(length)]
    return Trace(values, length, fail_cycle)


def _node_values(unroller: Unroller, solver: ArenaSolver,
                 length: int) -> List[List[int]]:
    """Per-cycle 0/1 value of every AIG node (see :func:`extract_trace`)."""
    unroller.extend_to(length)
    aig = unroller.aig
    kinds = aig.kind
    fanin0 = aig.fanin0
    fanin1 = aig.fanin1
    model_value = solver.model_value
    frames: List[List[int]] = []
    prev: List[int] = []
    for t in range(length):
        node2lit = unroller.frames[t]
        vals = [0] * aig.num_nodes()
        for node in range(1, len(vals)):
            lit = node2lit[node]
            if lit:
                vals[node] = 1 if model_value(lit) else 0
                continue
            kind = kinds[node]
            if kind == _AND:
                a = fanin0[node]
                b = fanin1[node]
                vals[node] = (vals[a >> 1] ^ (a & 1)) & (vals[b >> 1] ^ (b & 1))
            elif kind == _LATCH:
                if t == 0:
                    vals[node] = aig.latch_init[node]
                else:
                    nxt = aig.latch_next[node]
                    vals[node] = prev[nxt >> 1] ^ (nxt & 1)
            # out-of-cone inputs stay 0
        frames.append(vals)
        prev = vals
    return frames


def trace_to_vcd(trace: Trace, stream, module: str = "cex",
                 wires: Optional[List[str]] = None) -> None:
    """Write a counterexample trace as a VCD waveform.

    Widths are inferred from the largest value seen per wire (the trace
    does not carry declared widths); rendering is for human debugging,
    not re-simulation.
    """
    names = wires if wires is not None else [
        n for n in trace.wires() if "$" not in n]
    idents = {}
    stream.write("$date repro counterexample $end\n")
    stream.write("$timescale 1ns $end\n")
    stream.write(f"$scope module {module} $end\n")
    alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    for index, name in enumerate(names):
        chars = []
        value = index + 1
        while value:
            value, rem = divmod(value, len(alphabet))
            chars.append(alphabet[rem])
        ident = "".join(chars)
        idents[name] = ident
        width = max(1, max(trace.values[name]).bit_length())
        stream.write(f"$var wire {width} {ident} {name.replace(' ', '_')} $end\n")
    stream.write("$upscope $end\n$enddefinitions $end\n")
    last = {}
    for cycle in range(trace.length):
        stream.write(f"#{cycle}\n")
        for name in names:
            value = trace.values[name][cycle]
            if last.get(name) == value:
                continue
            last[name] = value
            stream.write(f"b{value:b} {idents[name]}\n")
