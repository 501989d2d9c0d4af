"""Grounding a litmus test against a µspec model.

A :class:`Microop` is one dynamic instruction instance of the test, with
the attributes the µspec predicates consult. :class:`GroundContext`
evaluates predicates and assigns the per-load read values implied by the
outcome of interest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import CheckError
from ..litmus import LitmusTest


@dataclass(frozen=True)
class Microop:
    """One dynamic instruction of a litmus test."""

    uid: int
    core: int
    index: int            # program-order index within the core
    kind: str             # "R" | "W"
    addr: str
    data: Optional[int]   # store value; or the load's observed value
    reg: Optional[str] = None

    @property
    def is_read(self) -> bool:
        return self.kind == "R"

    @property
    def is_write(self) -> bool:
        return self.kind == "W"

    def label(self) -> str:
        if self.is_write:
            return f"i{self.uid}:St {self.addr}={self.data} (c{self.core})"
        value = "?" if self.data is None else self.data
        return f"i{self.uid}:Ld {self.addr}->{value} (c{self.core})"


#: µspec predicates decided by the argument microops' own attributes:
#: name -> test over the microops
MICROOP_PREDICATES = {
    "IsAnyRead": lambda a: a.kind == "R",
    "IsAnyWrite": lambda a: a.kind == "W",
    "SameCore": lambda a, b: a.core == b.core,
    "SameMicroop": lambda a, b: a.uid == b.uid,
    "ProgramOrder": lambda a, b: a.core == b.core and a.index < b.index,
    "SamePA": lambda a, b: a.addr == b.addr,
}


class GroundContext:
    """Microops + predicate evaluation for one (test, outcome) pair.

    Loads named in the test's final condition carry their constrained
    value; other loads have ``data=None`` (any value, so ``SameData`` is
    treated as satisfiable for any source).
    """

    def __init__(self, test: LitmusTest):
        self.test = test
        final = dict(test.final)
        self.final_mem: Dict[str, int] = {
            reg: val for (tid, reg), val in test.final if tid == -1}
        self.uops: List[Microop] = []
        uid = 0
        for tid, thread in enumerate(test.program):
            for index, access in enumerate(thread):
                if access.kind == "F":
                    # Fences carry no microop: the synthesized models order
                    # memory events only, and index gaps preserve program
                    # order across a skipped fence.
                    uid += 1
                    continue
                if access.kind == "W":
                    self.uops.append(Microop(uid, tid, index, "W",
                                             access.addr, access.value))
                else:
                    value = final.get((tid, access.reg))
                    self.uops.append(Microop(uid, tid, index, "R",
                                             access.addr, value, access.reg))
                uid += 1

    # ------------------------------------------------------------------
    def writes(self, addr: Optional[str] = None) -> List[Microop]:
        return [u for u in self.uops
                if u.is_write and (addr is None or u.addr == addr)]

    def reads(self) -> List[Microop]:
        return [u for u in self.uops if u.is_read]

    # ------------------------------------------------------------------
    def eval_pred(self, name: str, args: Tuple[Microop, ...]) -> bool:
        """Evaluate a ground µspec predicate over microops to a Boolean.

        The grounding plan decides the :data:`MICROOP_PREDICATES` (and
        the attribute and location predicates) itself and sends only
        the value predicates here.
        """
        test = MICROOP_PREDICATES.get(name)
        if test is not None:
            return test(*args)
        if name == "SameData":
            # Unconstrained loads may take any value.
            if args[1].data is None or args[0].data is None:
                return True
            return args[0].data == args[1].data
        if name == "DataFromInitial":
            return args[0].data is None or args[0].data == 0
        if name == "IsLatestLocalWrite":
            # w is the program-order-latest same-core same-address write
            # before the read r (store-forwarding source).
            w, r = args
            if not (w.is_write and r.is_read and w.core == r.core
                    and w.index < r.index and w.addr == r.addr):
                return False
            return not any(
                u.is_write and u.core == r.core and u.addr == r.addr
                and w.index < u.index < r.index
                for u in self.uops)
        if name == "IsFinalValue":
            uop = args[0]
            if uop.addr not in self.final_mem:
                return False
            return uop.data == self.final_mem[uop.addr]
        raise CheckError(f"unknown µspec predicate {name!r}")
