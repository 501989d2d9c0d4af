"""One verdict store for property checks.

Synthesis discharges a hundred-plus SVAs; across repeat runs (tests,
benchmarks, regenerating models, re-running an interrupted command)
most problems are byte-identical.  :func:`problem_fingerprint` keys a
:class:`SafetyProblem` by a canonical hash of its netlist and property
wiring plus the checker parameters, and :class:`VerdictStore` maps
that fingerprint to a verdict (without its trace: nothing downstream
of discharge reads one).

The store is an in-memory tier over at most one backend:

* a JSONL file in the :class:`repro.resilience.journal.Journal` format
  (``synth --cache`` and the pipeline's ``synth.jsonl``).  The file is
  also the checkpoint: verdicts are appended and fsynced per batch, a
  torn or corrupt tail is quarantined on replay, and re-running an
  interrupted command replays every verdict it had decided;
* an :class:`repro.service.store.ArtifactStore` namespace (the
  service's warm workers), written through on every record.

Only decided verdicts reach a backend.  UNKNOWN is shaped by the run's
budget (timeout/conflict caps), which :func:`problem_fingerprint`
deliberately excludes; persisting one would let a tightly-budgeted run
poison every later run with a larger budget for the same problem.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

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


class _VerdictFile(Journal):
    """The file backend: one checksummed record per decided verdict."""

    format = "rtl2uspec-verdict-journal"

    def _valid_entry(self, entry) -> bool:
        return isinstance(entry, dict) and \
            entry.get("status") in VERDICT_STATUSES


class VerdictStore:
    """Maps problem fingerprints to verdicts.

    ``path`` selects the file backend: ``resume=True`` replays an
    existing file (a missing one starts empty), ``resume=False``
    truncates it.  ``artifacts`` (an ``ArtifactStore``) selects the
    store backend instead; with neither, the store lives in memory.

    :meth:`lookup` reads memory, then the backend, and counts hits and
    misses.  :meth:`record` always writes memory and persists only a
    decided verdict; the file makes it durable on :meth:`commit`, the
    artifact store at once.  A refused store write (full disk, byte
    budget) only costs cross-process reuse and counts in
    :attr:`store_write_errors`.
    """

    def __init__(self, path: Optional[str] = None, resume: bool = True,
                 artifacts=None):
        self._file = _VerdictFile(path, resume=resume) if path else None
        self._artifacts = artifacts
        #: fingerprint -> encoded verdict; the file backend's replayed
        #: records (UNKNOWN written by older versions is dropped)
        self._memory: Dict[str, Dict] = {} if self._file is None else {
            fingerprint: entry for fingerprint, entry in self._file.items()
            if _decided(entry)}
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

    def lookup(self, fingerprint: str) -> Optional[Verdict]:
        entry = self._memory.get(fingerprint)
        if entry is None and self._artifacts is not None:
            entry = self._artifacts.get_json(VERDICT_NAMESPACE, fingerprint)
            if _decided(entry):
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
        return decode_verdict(entry)

    def record(self, fingerprint: str, verdict: Verdict) -> None:
        entry = encode_verdict(verdict)
        persisted = _decided(self._memory.get(fingerprint))
        self._memory[fingerprint] = entry
        if persisted or not _decided(entry):
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
