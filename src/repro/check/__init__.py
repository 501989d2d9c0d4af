"""Check-style µhb verification of µspec models against litmus tests."""

from .exhaustive import (
    ExactnessReport,
    enumerate_programs,
    enumerate_sweep_programs,
    normalize_limit,
    verify_exactness,
)
from .incremental import ProgramSolver, SymbolicContext
from .instance import GroundContext, Microop
from .render import render_ascii
from .runner import (
    SUITE_CODEC,
    SWEEP_CODEC,
    SuiteRunResult,
    model_fingerprint,
    program_fingerprint,
    run_suite,
    run_sweep,
    test_fingerprint,
)
from .solver import (
    ObservabilityResult,
    SolveStats,
    UhbGraph,
    solve_observability,
)
from .verifier import (
    Checker,
    TestVerdict,
    format_suite_report,
    suite_digest,
    suite_report_from_entries,
    suite_report_json,
    suite_sat_profile,
)

__all__ = [
    "Microop",
    "verify_exactness",
    "ExactnessReport",
    "enumerate_programs",
    "enumerate_sweep_programs",
    "normalize_limit",
    "GroundContext",
    "solve_observability",
    "ObservabilityResult",
    "SolveStats",
    "UhbGraph",
    "Checker",
    "TestVerdict",
    "ProgramSolver",
    "SymbolicContext",
    "SUITE_CODEC",
    "SWEEP_CODEC",
    "SuiteRunResult",
    "run_suite",
    "run_sweep",
    "model_fingerprint",
    "program_fingerprint",
    "test_fingerprint",
    "format_suite_report",
    "suite_digest",
    "suite_report_from_entries",
    "suite_report_json",
    "suite_sat_profile",
    "render_ascii",
]
