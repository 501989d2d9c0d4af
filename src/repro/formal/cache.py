"""One verdict store for every persisted decision.

Synthesis discharges a hundred-plus SVAs, and the Check layer decides
56 litmus tests or hundreds of sweep programs; across repeat runs
(tests, benchmarks, regenerating models, re-running an interrupted
command) most problems are byte-identical.  The caller keys each
problem by a content fingerprint (:func:`problem_fingerprint` for an
SVA, :func:`repro.check.runner.test_fingerprint` and
:func:`repro.check.runner.program_fingerprint` for the Check layer)
and :class:`VerdictStore` maps that fingerprint to the decision.

What a store holds is set by its :class:`RecordCodec`: the file's
format tag, how a value is encoded to a JSON-safe entry and decoded
back, and which entries are decided.  :data:`SVA_CODEC` (the default)
holds property-check verdicts without their traces: nothing
downstream of discharge reads one.

The store is an in-memory tier over at most one backend:

* a JSONL file in the :class:`repro.resilience.journal.Journal` format
  (``synth``/``check``/``sweep --cache`` and the pipeline's
  ``synth.jsonl`` and ``check.jsonl``).  The file is also the
  checkpoint: decisions are appended and fsynced per batch, a torn or
  corrupt tail is quarantined on replay, and re-running an interrupted
  command replays every decision it had made.  A file of one codec
  opened with another raises :class:`repro.errors.JournalError`;
* an :class:`repro.service.store.ArtifactStore` namespace (the
  service's warm workers), written through on every record.

Only decided entries reach a backend.  An UNKNOWN or TIMEOUT is shaped
by the run's budget (timeout/conflict caps), which the fingerprints
deliberately exclude; persisting one would let a tightly-budgeted run
poison every later run with a larger budget for the same problem.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, NamedTuple, Optional

from ..netlist import Netlist, netlist_fingerprint
from ..resilience.journal import Journal
from .engine import UNKNOWN, VERDICT_STATUSES, Verdict

#: artifact-store namespace holding the service's verdicts
VERDICT_NAMESPACE = "verdict"

_REQUIRED = ("status", "method", "bound", "time_seconds")


def _decided(entry) -> bool:
    """True for a well-formed entry that may cross processes."""
    return isinstance(entry, dict) and \
        all(key in entry for key in _REQUIRED) and \
        entry["status"] in VERDICT_STATUSES and entry["status"] != UNKNOWN


def encode_verdict(verdict: Verdict) -> Dict:
    """Serialize a verdict to a JSON-safe dict (traces are dropped)."""
    return {
        "status": verdict.status,
        "method": verdict.method,
        "bound": verdict.bound,
        "time_seconds": verdict.time_seconds,
        "induction_k": verdict.induction_k,
        "name": verdict.name,
        "reason": verdict.reason,
    }


def decode_verdict(entry: Dict, default_name: str = "cached") -> Verdict:
    """Inverse of :func:`encode_verdict` (tolerates pre-``reason``
    entries written by older versions)."""
    return Verdict(
        status=entry["status"],
        method=entry["method"],
        bound=entry["bound"],
        time_seconds=entry["time_seconds"],
        induction_k=entry.get("induction_k"),
        name=entry.get("name", default_name),
        reason=entry.get("reason"),
    )


def problem_fingerprint(problem, bound: int, max_k: int) -> str:
    """A stable content hash of a :class:`SafetyProblem` instance.

    The netlist structure hash is delegated to
    :func:`repro.netlist.netlist_fingerprint` (canonical under cell
    reordering and memoized per netlist instance, so the shared
    bitblast cache and the verdict store pay for it once).
    """
    netlist: Netlist = problem.netlist
    hasher = hashlib.sha256()

    def feed(text: str) -> None:
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\x00")

    feed(f"bound={bound};k={max_k};reset={problem.reset_input}")
    feed("netlist " + netlist_fingerprint(netlist))
    feed("assume " + "|".join(sorted(problem.assume_wires)))
    feed("assert " + "|".join(sorted(problem.assert_wires)))
    feed("frozen " + "|".join(sorted(problem.frozen_inputs)))
    return hasher.hexdigest()


class RecordCodec(NamedTuple):
    """How one kind of decision is stored."""

    #: the file's format tag; a file of another kind will not replay
    format: str
    #: value -> JSON-safe entry
    encode: Callable[[object], Dict]
    #: entry -> value (a replayed value)
    decode: Callable[[Dict], object]
    #: True for a well-formed entry that may be persisted and replayed
    decided: Callable[[object], bool]


#: property-check verdicts (synthesis)
SVA_CODEC = RecordCodec("rtl2uspec-verdict-journal", encode_verdict,
                        decode_verdict, _decided)


class _StoreFile(Journal):
    """The file backend: one checksummed record per decided entry."""

    def __init__(self, path: str, resume: bool, format: str):
        self.format = format
        super().__init__(path, resume=resume)


class VerdictStore:
    """Maps problem fingerprints to decisions, stored by ``codec``.

    ``path`` selects the file backend: ``resume=True`` replays an
    existing file (a missing one starts empty), ``resume=False``
    truncates it.  ``artifacts`` (an ``ArtifactStore``) selects the
    store backend instead; with neither, the store lives in memory.

    :meth:`lookup` reads memory, then the backend, and counts hits and
    misses.  :meth:`record` always writes memory and persists only a
    decided entry; the file makes it durable on :meth:`commit`, the
    artifact store at once.  A refused store write (full disk, byte
    budget) only costs cross-process reuse and counts in
    :attr:`store_write_errors`.
    """

    def __init__(self, path: Optional[str] = None, resume: bool = True,
                 artifacts=None, codec: RecordCodec = SVA_CODEC):
        self._codec = codec
        self._file = _StoreFile(path, resume, codec.format) if path \
            else None
        self._artifacts = artifacts
        #: fingerprint -> encoded entry; the file backend's replayed
        #: records (an UNKNOWN written by older versions is dropped)
        self._memory: Dict[str, Dict] = {} if self._file is None else {
            fingerprint: entry for fingerprint, entry in self._file.items()
            if codec.decided(entry)}
        self.hits = 0
        self.misses = 0
        #: lookups served from the artifact store rather than memory
        self.store_hits = 0
        #: write-throughs the artifact store refused
        self.store_write_errors = 0

    @property
    def quarantined(self) -> Optional[str]:
        """Where replay moved an unreadable tail of the file (or None)."""
        return self._file.quarantined if self._file is not None else None

    @property
    def quarantined_records(self) -> int:
        return self._file.quarantined_records if self._file is not None \
            else 0

    def lookup(self, fingerprint: str):
        """The stored value for ``fingerprint``, or None."""
        entry = self._memory.get(fingerprint)
        if entry is None and self._artifacts is not None:
            entry = self._artifacts.get_json(VERDICT_NAMESPACE, fingerprint)
            if self._codec.decided(entry):
                self._memory[fingerprint] = entry
                self.store_hits += 1
            else:
                # Absent, malformed, or an UNKNOWN an older daemon
                # wrote: a miss, healed by the recompute's write-through.
                entry = None
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return self._codec.decode(entry)

    def record(self, fingerprint: str, value) -> None:
        decided = self._codec.decided
        entry = self._codec.encode(value)
        persisted = decided(self._memory.get(fingerprint))
        self._memory[fingerprint] = entry
        if persisted or not decided(entry):
            return
        if self._file is not None:
            self._file.record_entry(fingerprint, entry)
        elif self._artifacts is not None:
            try:
                self._artifacts.put_json(VERDICT_NAMESPACE, fingerprint,
                                         entry)
            except OSError:
                self.store_write_errors += 1

    def commit(self) -> None:
        """Flush and fsync the file backend's pending records."""
        if self._file is not None:
            self._file.commit()

    def close(self) -> None:
        """Commit and release the file (idempotent)."""
        if self._file is not None:
            self._file.close()

    def __len__(self) -> int:
        return len(self._memory)

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
