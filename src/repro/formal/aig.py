"""And-Inverter Graph with structural hashing.

The bit-blaster lowers the word-level netlist into this representation;
the unroller then instantiates it per timeframe into CNF. Literals are
integers: ``2*node + negated`` (AIGER convention), with node 0 the
constant false, so ``FALSE = 0`` and ``TRUE = 1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import FormalError

FALSE = 0
TRUE = 1

# Node kinds
_CONST = 0
_INPUT = 1
_LATCH = 2
_AND = 3


def lit_neg(lit: int) -> int:
    """Negate a literal."""
    return lit ^ 1


def lit_node(lit: int) -> int:
    return lit >> 1


def lit_is_negated(lit: int) -> bool:
    return bool(lit & 1)


class Aig:
    """A sequential AIG: inputs, latches (with init + next), AND nodes."""

    def __init__(self):
        # Parallel arrays indexed by node id.
        self.kind: List[int] = [_CONST]
        self.fanin0: List[int] = [0]
        self.fanin1: List[int] = [0]
        self.tag: List[Optional[Tuple[str, int]]] = [None]  # (name, bit) for inputs/latches
        self.latch_init: Dict[int, int] = {}   # node -> 0/1
        self.latch_next: Dict[int, int] = {}   # node -> literal
        self.inputs: List[int] = []            # node ids, in creation order
        self.latches: List[int] = []           # node ids, in creation order
        self._strash: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Node creation
    # ------------------------------------------------------------------
    def _new_node(self, kind: int, tag: Optional[Tuple[str, int]] = None) -> int:
        node = len(self.kind)
        self.kind.append(kind)
        self.fanin0.append(0)
        self.fanin1.append(0)
        self.tag.append(tag)
        return node

    def new_input(self, name: str, bit: int) -> int:
        """Create a primary input bit; returns its positive literal."""
        node = self._new_node(_INPUT, (name, bit))
        self.inputs.append(node)
        return node << 1

    def new_latch(self, name: str, bit: int, init: int) -> int:
        """Create a latch bit (next function set later); returns literal."""
        node = self._new_node(_LATCH, (name, bit))
        self.latches.append(node)
        self.latch_init[node] = init & 1
        return node << 1

    def set_latch_next(self, latch_lit: int, next_lit: int) -> None:
        node = lit_node(latch_lit)
        if self.kind[node] != _LATCH or lit_is_negated(latch_lit):
            raise FormalError("set_latch_next expects a positive latch literal")
        self.latch_next[node] = next_lit

    # ------------------------------------------------------------------
    # Boolean operators (with constant folding and structural hashing)
    # ------------------------------------------------------------------
    def AND(self, a: int, b: int) -> int:
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
        if a == lit_neg(b):
            return FALSE
        key = (a, b) if a < b else (b, a)
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        node = self._new_node(_AND)
        self.fanin0[node] = key[0]
        self.fanin1[node] = key[1]
        lit = node << 1
        self._strash[key] = lit
        return lit

    def OR(self, a: int, b: int) -> int:
        return lit_neg(self.AND(lit_neg(a), lit_neg(b)))

    def NOT(self, a: int) -> int:
        return lit_neg(a)

    def XOR(self, a: int, b: int) -> int:
        return self.OR(self.AND(a, lit_neg(b)), self.AND(lit_neg(a), b))

    def XNOR(self, a: int, b: int) -> int:
        return lit_neg(self.XOR(a, b))

    def MUX(self, sel: int, when_true: int, when_false: int) -> int:
        if sel == TRUE:
            return when_true
        if sel == FALSE:
            return when_false
        if when_true == when_false:
            return when_true
        return self.OR(self.AND(sel, when_true), self.AND(lit_neg(sel), when_false))

    def AND_MANY(self, lits) -> int:
        result = TRUE
        for lit in lits:
            result = self.AND(result, lit)
        return result

    def OR_MANY(self, lits) -> int:
        result = FALSE
        for lit in lits:
            result = self.OR(result, lit)
        return result

    # ------------------------------------------------------------------
    # Word-level helpers (LSB-first bit vectors of literals)
    # ------------------------------------------------------------------
    def const_vector(self, value: int, width: int) -> List[int]:
        return [TRUE if (value >> i) & 1 else FALSE for i in range(width)]

    def eq_vector(self, a: List[int], b: List[int]) -> int:
        if len(a) != len(b):
            raise FormalError("eq_vector width mismatch")
        return self.AND_MANY(self.XNOR(x, y) for x, y in zip(a, b))

    def add_vector(self, a: List[int], b: List[int]) -> List[int]:
        """Ripple-carry addition, result truncated to the operand width."""
        if len(a) != len(b):
            raise FormalError("add_vector width mismatch")
        out = []
        carry = FALSE
        for x, y in zip(a, b):
            s = self.XOR(self.XOR(x, y), carry)
            carry = self.OR(self.AND(x, y), self.AND(carry, self.XOR(x, y)))
            out.append(s)
        return out

    def sub_vector(self, a: List[int], b: List[int]) -> List[int]:
        """a - b (two's complement)."""
        out = []
        carry = TRUE
        for x, y in zip(a, b):
            y_n = lit_neg(y)
            s = self.XOR(self.XOR(x, y_n), carry)
            carry = self.OR(self.AND(x, y_n), self.AND(carry, self.XOR(x, y_n)))
            out.append(s)
        return out

    def lt_vector(self, a: List[int], b: List[int]) -> int:
        """Unsigned a < b."""
        if len(a) != len(b):
            raise FormalError("lt_vector width mismatch")
        lt = FALSE
        for x, y in zip(a, b):  # LSB to MSB; higher bits dominate
            bit_lt = self.AND(lit_neg(x), y)
            bit_eq = self.XNOR(x, y)
            lt = self.OR(bit_lt, self.AND(bit_eq, lt))
        return lt

    def mux_vector(self, sel: int, a: List[int], b: List[int]) -> List[int]:
        if len(a) != len(b):
            raise FormalError("mux_vector width mismatch")
        return [self.MUX(sel, x, y) for x, y in zip(a, b)]

    def shift_vector(self, a: List[int], amount: List[int], left: bool) -> List[int]:
        """Barrel shifter: logical shift of ``a`` by a variable amount."""
        width = len(a)
        result = list(a)
        for stage, sel in enumerate(amount):
            step = 1 << stage
            if step >= width:
                # Shifting by >= width zeroes the result when sel is set.
                zero = self.const_vector(0, width)
                result = self.mux_vector(sel, zero, result)
                continue
            if left:
                shifted = [FALSE] * step + result[:width - step]
            else:
                shifted = result[step:] + [FALSE] * step
            result = self.mux_vector(sel, shifted, result)
        return result

    def mul_vector(self, a: List[int], b: List[int]) -> List[int]:
        """Shift-and-add multiplier, truncated to the operand width."""
        width = len(a)
        acc = self.const_vector(0, width)
        for i, bit in enumerate(b):
            if bit == FALSE:
                continue
            partial = [FALSE] * i + a[:width - i]
            gated = [self.AND(bit, p) for p in partial]
            acc = self.add_vector(acc, gated)
        return acc

    def copy(self) -> "Aig":
        """An independent duplicate; extending the copy (new inputs,
        latches, AND nodes) leaves this AIG untouched.  Structural
        hashes carry over, so nodes added to the copy dedupe against
        the shared prefix."""
        dup = Aig.__new__(Aig)
        dup.kind = list(self.kind)
        dup.fanin0 = list(self.fanin0)
        dup.fanin1 = list(self.fanin1)
        dup.tag = list(self.tag)
        dup.latch_init = dict(self.latch_init)
        dup.latch_next = dict(self.latch_next)
        dup.inputs = list(self.inputs)
        dup.latches = list(self.latches)
        dup._strash = dict(self._strash)
        return dup

    def cone(self, lits) -> List[int]:
        """Node ids of the sequential cone of influence of ``lits`` —
        their transitive fan-in through AND gates and latch next-state
        functions — in node order, constant node excluded."""
        kind = self.kind
        fanin0 = self.fanin0
        fanin1 = self.fanin1
        latch_next = self.latch_next
        seen = bytearray(len(kind))
        seen[0] = 1
        stack = [lit_node(lit) for lit in lits]
        while stack:
            node = stack.pop()
            if seen[node]:
                continue
            seen[node] = 1
            node_kind = kind[node]
            if node_kind == _AND:
                stack.append(fanin0[node] >> 1)
                stack.append(fanin1[node] >> 1)
            elif node_kind == _LATCH:
                next_lit = latch_next.get(node)
                if next_lit is not None:
                    stack.append(next_lit >> 1)
        return [node for node in range(1, len(kind)) if seen[node]]

    def num_nodes(self) -> int:
        return len(self.kind)

    def stats(self) -> Dict[str, int]:
        return {
            "nodes": len(self.kind),
            "inputs": len(self.inputs),
            "latches": len(self.latches),
            "ands": sum(1 for k in self.kind if k == _AND),
        }
