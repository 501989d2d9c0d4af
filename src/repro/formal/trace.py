"""Counterexample traces reconstructed from SAT models."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sat import ArenaSolver
from .unroll import Unroller


class Trace:
    """A finite counterexample: per-cycle wire values.

    ``values[name][t]`` is the integer value of wire ``name`` at cycle
    ``t``. Memory cells appear as ``mem[addr]`` pseudo-wires.
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
    """Read back every wire and memory cell value from a SAT model."""
    design = unroller.design
    values: Dict[str, List[int]] = {}
    for name, lits in design.wire_lits.items():
        per_cycle = []
        for t in range(length):
            word = 0
            for bit, aig_lit in enumerate(lits):
                if solver.model_value(unroller.lit(aig_lit, t)):
                    word |= 1 << bit
            per_cycle.append(word)
        values[name] = per_cycle
    for mem_name, cells in design.mem_cell_lits.items():
        for addr, bits in enumerate(cells):
            per_cycle = []
            for t in range(length):
                word = 0
                for bit, aig_lit in enumerate(bits):
                    if solver.model_value(unroller.lit(aig_lit, t)):
                        word |= 1 << bit
                per_cycle.append(word)
            values[f"{mem_name}[{addr}]"] = per_cycle
    return Trace(values, length, fail_cycle)


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
