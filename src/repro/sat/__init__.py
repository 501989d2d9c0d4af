"""From-scratch SAT solving: CNF construction, CDCL search, DIMACS I/O.

This package is the decision-procedure substrate for the formal property
checker (``repro.formal``), which replaces the commercial JasperGold
model checker used in the paper.

One CDCL core decides every query: :class:`ArenaSolver`, clauses packed
into one flat literal arena with (offset, size, LBD) headers and
watchlists of integer clause refs.
"""

from .arena import ArenaSolver
from .cnf import Cnf, neg
from .dimacs import read_dimacs, write_dimacs
from .solver import SAT, UNKNOWN, UNSAT, luby, solve_cnf

__all__ = [
    "Cnf",
    "neg",
    "ArenaSolver",
    "solve_cnf",
    "luby",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "read_dimacs",
    "write_dimacs",
]
