"""Exception hierarchy shared by all repro subsystems.

Every subsystem raises a subclass of :class:`ReproError` so that callers
can distinguish failures of this library from programming errors. The
hierarchy mirrors the package layout: one error family per substrate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class VerilogError(ReproError):
    """Base class for errors in the Verilog frontend."""


class LexError(VerilogError):
    """A character sequence could not be tokenized.

    Carries the source position so tooling can point at the offending
    text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(VerilogError):
    """The token stream does not match the supported Verilog grammar."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ElaborationError(VerilogError):
    """The parsed design could not be elaborated into a netlist."""


class NetlistError(ReproError):
    """An ill-formed netlist was constructed or manipulated."""


class SimulationError(ReproError):
    """The RTL simulator was driven with inconsistent inputs or state."""


class SatError(ReproError):
    """The SAT solver was used incorrectly (not: UNSAT results)."""


class FormalError(ReproError):
    """The formal engine (bit-blasting / BMC / induction) failed."""


class DischargeTimeout(FormalError):
    """A property check exceeded its wall-clock deadline.

    The discharge scheduler treats this as a transient fault: the check
    is retried with backoff and, if it keeps timing out, degrades to a
    first-class UNKNOWN verdict rather than aborting the run.
    """


class WorkerCrashError(FormalError):
    """A discharge worker process died (or was simulated to die).

    Raised in-process when a crash is injected into the inline serial
    path; a real pool-worker death surfaces as ``BrokenProcessPool``
    and is mapped onto the same recovery policy.
    """


class JournalError(ReproError):
    """A checkpoint journal could not be opened, written, or replayed."""


class ResilienceError(ReproError):
    """The shared resilience layer (worker pools, budgets) failed in a
    way retries could not absorb — e.g. a task kept returning invalid
    results past its retry budget."""


class InterruptedRun(ReproError):
    """A run was interrupted (SIGINT/SIGTERM) after checkpointing.

    Raised by the crash-safe runners *after* committing their stores,
    carrying whatever completed before the interrupt so the CLI can
    print partial results and a resume recipe.  ``partial`` holds the
    completed items (layer-specific); ``resumable`` says whether a
    store or checkpoint exists to resume from.
    """

    def __init__(self, message: str, partial=None, resumable: bool = False):
        super().__init__(message)
        self.partial = partial if partial is not None else []
        self.resumable = resumable


class PipelineError(ReproError):
    """The end-to-end pipeline's stage state is missing or inconsistent
    (e.g. a recorded stage artifact no longer matches its checksum)."""


class ServiceError(ReproError):
    """The ``repro serve`` daemon (or its client protocol) was misused,
    is unreachable, or refused a request (e.g. queue backpressure)."""


class StoreError(ServiceError):
    """The content-addressed artifact store was driven with invalid
    namespaces/keys or hit an unrecoverable I/O failure.

    Note: *corruption* of stored entries is not an error — corrupt
    entries are quarantined and reported as misses so callers
    recompute."""


class PropertyError(ReproError):
    """An SVA-style property is malformed or unsupported."""


class MetadataError(ReproError):
    """User-supplied design metadata (IFR/PCR/interfaces) is invalid.

    The paper (section 4.2.1, 4.3.4) requires modest designer-provided
    metadata; this error reports missing or inconsistent annotations.
    """


class SynthesisError(ReproError):
    """The rtl2uspec synthesis procedure could not complete."""


class UspecError(ReproError):
    """A uspec model is syntactically or semantically invalid."""


class LitmusError(ReproError):
    """A litmus test is malformed."""


class CheckError(ReproError):
    """The uhb (Check-style) verifier failed."""
