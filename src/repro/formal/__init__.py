"""Formal property checking: bit-blasting, BMC, and k-induction.

This package substitutes for the commercial JasperGold property checker
used by the paper: given a monitor-augmented netlist (see ``repro.sva``)
it either proves an assertion or refutes it with a counterexample trace.
"""

from .aig import Aig, lit_neg
from .aiger import export_problem, write_aiger
from .bitblast import BlastCache, BlastedDesign, bitblast, extend_bitblast
from .cache import VerdictStore, problem_fingerprint
from .engine import (
    PROVEN,
    PROVEN_BOUNDED,
    REFUTED,
    UNDETERMINED,
    UNKNOWN,
    VERDICT_STATUSES,
    CheckParams,
    PropertyChecker,
    SafetyProblem,
    Verdict,
)
from .scheduler import DischargeScheduler, DischargeStats
from .trace import Trace, extract_trace, trace_to_vcd
from .unroll import Unroller

__all__ = [
    "Aig",
    "write_aiger",
    "export_problem",
    "lit_neg",
    "bitblast",
    "extend_bitblast",
    "BlastCache",
    "VerdictStore",
    "problem_fingerprint",
    "BlastedDesign",
    "Unroller",
    "Trace",
    "extract_trace",
    "trace_to_vcd",
    "SafetyProblem",
    "Verdict",
    "CheckParams",
    "PropertyChecker",
    "DischargeScheduler",
    "DischargeStats",
    "PROVEN",
    "REFUTED",
    "PROVEN_BOUNDED",
    "UNDETERMINED",
    "UNKNOWN",
    "VERDICT_STATUSES",
]
