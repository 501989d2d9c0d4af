"""repro — a from-scratch reproduction of rtl2uspec (MICRO 2021).

"Synthesizing Formal Models of Hardware from RTL for Efficient
Verification of Memory Model Implementations" (Hsiao, Mulligan,
Nikoleris, Petri, Trippel).

The package provides the complete stack the paper's flow rests on:

* ``repro.verilog`` — Verilog/SystemVerilog frontend -> netlist IR
* ``repro.netlist`` — word-level netlist (RTLIL analogue)
* ``repro.sim``     — cycle-accurate RTL simulator
* ``repro.sat``     — CDCL SAT solver
* ``repro.formal``  — bit-blasting + BMC/k-induction (JasperGold stand-in)
* ``repro.sva``     — SVA-style monitor circuits and the paper's templates
* ``repro.dfg``     — full-design DFG extraction and stage labeling
* ``repro.core``    — the rtl2uspec synthesis procedure itself
* ``repro.uspec``   — the µspec DSL (AST, parser, printer)
* ``repro.check``   — Check-style µhb litmus verification (COATCheck role)
* ``repro.mcm``     — ISA-level SC/TSO reference models
* ``repro.litmus``  — litmus tests: suite, diy-style generator, compiler
* ``repro.rtlcheck``— RTLCheck-style baseline + exhaustive skew testing
* ``repro.designs`` — the bundled RISC-V multi-V-scale case study

Quickstart::

    from repro import synthesize_uspec, Checker, load_suite

    result = synthesize_uspec()              # multi-V-scale by default
    checker = Checker(result.model)
    verdicts = checker.check_suite(load_suite())
"""

from typing import Optional, Sequence

from .check import Checker, TestVerdict, format_suite_report
from .core import DesignMetadata, InstructionEncoding, Rtl2Uspec, SynthesisResult
from .designs import (
    FORMAL_CONFIG,
    FORMAL_CONFIG_4CORE,
    FORMAL_CONFIG_8CORE,
    FORMAL_CONFIG_16CORE,
    SIM_CONFIG,
    DesignConfig,
    load_design,
    load_design_hier,
    multi_vscale_metadata,
)
from .formal import PropertyChecker
from .litmus import LitmusTest, load_suite, suite_by_name
from .resilience import FaultPlan
from .uspec import Model, format_model, parse_model

__version__ = "1.0.0"


def synthesize_uspec(sim_config: DesignConfig = SIM_CONFIG,
                     formal_config: DesignConfig = FORMAL_CONFIG,
                     buggy: bool = False,
                     checker: Optional[PropertyChecker] = None,
                     candidate_filter: Optional[Sequence[str]] = None,
                     jobs: int = 1,
                     verdicts=None,
                     check_timeout: Optional[float] = None,
                     compose: bool = False,
                     fault_plan: Optional[FaultPlan] = None
                     ) -> SynthesisResult:
    """One-call rtl2uspec run on the bundled multi-V-scale.

    ``buggy`` selects the design variant with the section-6.1 decoder
    bug. ``candidate_filter`` restricts the analyzed state elements
    (useful for fast demonstrations; the full run takes minutes, like
    the paper's 6.84-minute synthesis). ``jobs`` parallelizes SVA
    discharge across worker processes (1 = serial, 0 = all cores); any
    setting yields identical verdicts and a byte-identical model.
    ``verdicts`` (a :class:`repro.formal.VerdictStore`) serves verdicts
    it already holds and records the rest, so a file-backed store is
    also the checkpoint an interrupted run resumes from;
    ``check_timeout`` caps each SVA's wall clock (exhaustion degrades
    to a conservative UNKNOWN).
    ``compose`` switches property discharge to hierarchical
    compositional synthesis (per-module obligation graphs with
    assume-guarantee interfaces and module-granularity caching); the
    synthesized model and verdict trichotomies match the monolithic
    flow.  ``fault_plan`` injects deterministic discharge faults (the
    fault-tolerance tests' harness).
    """
    sim_cfg = sim_config.with_variant(buggy=buggy)
    formal_cfg = formal_config.with_variant(buggy=buggy)
    sim_netlist = load_design(sim_cfg)
    hier = load_design_hier(formal_cfg) if compose else None
    formal_netlist = hier.flatten() if compose else load_design(formal_cfg)
    metadata = multi_vscale_metadata(sim_cfg)
    with Rtl2Uspec(sim_netlist, formal_netlist, metadata,
                   checker=checker, candidate_filter=candidate_filter,
                   jobs=jobs, verdicts=verdicts,
                   check_timeout=check_timeout,
                   hier=hier,
                   compose=compose,
                   fault_plan=fault_plan) as synthesizer:
        return synthesizer.synthesize()


__all__ = [
    "synthesize_uspec",
    "Rtl2Uspec",
    "SynthesisResult",
    "DesignMetadata",
    "InstructionEncoding",
    "PropertyChecker",
    "Checker",
    "TestVerdict",
    "format_suite_report",
    "Model",
    "format_model",
    "parse_model",
    "LitmusTest",
    "load_suite",
    "suite_by_name",
    "DesignConfig",
    "SIM_CONFIG",
    "FORMAL_CONFIG",
    "FORMAL_CONFIG_4CORE",
    "FORMAL_CONFIG_8CORE",
    "FORMAL_CONFIG_16CORE",
    "load_design",
    "load_design_hier",
    "multi_vscale_metadata",
    "__version__",
]
