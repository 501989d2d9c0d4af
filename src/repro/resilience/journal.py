"""Append-only, per-record checksummed JSONL checkpoint journals.

A base class any layer keys its own records under: the file backend
of :class:`repro.formal.cache.VerdictStore` (SVA verdicts, suite
verdicts and sweep results, one format tag each) and the service's
job ledger.
The format is deliberately dumb — one self-describing header line,
then one JSON object per record — because the failure mode it must
survive is a process dying mid-write:

* every record line carries a truncated SHA-256 of its payload, so a
  partially overwritten or bit-rotted line is detected, not replayed;
* a torn trailing line (crash mid-append) is dropped on replay, keeping
  every complete record before it;
* replay stops at the first malformed or checksum-failing *interior*
  line and truncates there, so subsequent appends always extend a
  well-formed stream;
* the dropped tail is never silently destroyed: its bytes are moved to
  ``<path>.quarantine`` (and :attr:`quarantined` names that file), so a
  corrupt journal can be inspected after the run recovers.  When not
  even the first line is readable, the whole file is the tail.

Appends accumulate in memory until :meth:`commit`, which writes,
flushes, and fsyncs them; callers commit once per batch so at most one
batch of work can ever be lost.  Subclasses set :attr:`format` and
may override :meth:`_valid_entry` to type-check replayed entries.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, Optional, Tuple

from ..errors import JournalError

_VERSION = 2


def _payload_checksum(key: str, entry: Dict) -> str:
    canonical = json.dumps({"key": key, "entry": entry},
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


class Journal:
    """Append-only JSONL checkpoint of keyed records.

    ``resume=True`` replays an existing file at ``path`` (a missing
    file starts an empty journal); ``resume=False`` truncates any
    existing file and starts fresh.
    """

    #: self-describing format tag; subclasses must override
    format = "repro-journal"

    def __init__(self, path: str, resume: bool = False):
        self.path = path
        self._entries: Dict[str, Dict] = {}
        self._pending: Dict[str, Dict] = {}
        self._handle = None
        #: path the last corrupt/torn tail was moved to (None if clean)
        self.quarantined: Optional[str] = None
        #: non-empty lines dropped from a corrupt/torn tail on resume
        self.quarantined_records = 0
        replaying = resume and os.path.exists(path)
        replayed_bytes = self._replay(path) if replaying else 0
        directory = os.path.dirname(os.path.abspath(path))
        try:
            os.makedirs(directory, exist_ok=True)
            if replaying:
                # Quarantine any torn/garbage tail before appending; a
                # file with an unreadable first line goes aside whole.
                self._quarantine_tail(path, replayed_bytes)
            if replayed_bytes:
                self._handle = open(path, "a", encoding="utf-8")
            else:
                self._handle = open(path, "w", encoding="utf-8")
                self._write_line({"format": self.format, "version": _VERSION})
                self._fsync()
        except OSError as exc:
            raise JournalError(f"cannot open journal {path!r}: {exc}")

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _replay(self, path: str) -> int:
        """Load complete records; returns the byte offset of the end of
        the last well-formed line (0 = nothing usable, start fresh)."""
        good_end = 0
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise JournalError(f"cannot read journal {path!r}: {exc}")
        offset = 0
        first = True
        for line in raw.split(b"\n"):
            end = offset + len(line) + 1  # +1 for the newline
            complete = end <= len(raw)  # a line without trailing \n is torn
            if not line.strip():
                offset = end
                continue
            if not complete:
                break  # torn tail (crash mid-append): drop it
            try:
                record = json.loads(line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                break  # corrupt: keep everything before it
            if not isinstance(record, dict):
                break
            if first:
                if record.get("format") != self.format:
                    raise JournalError(
                        f"{path!r} is not a {self.format} journal "
                        f"(format={record.get('format')!r})")
                first = False
            elif self._valid_record(record):
                self._entries[record["key"]] = record["entry"]
            else:
                break
            good_end = end
            offset = end
        return good_end

    def _valid_record(self, record: Dict) -> bool:
        key = record.get("key")
        entry = record.get("entry")
        if not isinstance(key, str) or entry is None:
            return False
        # Per-record checksum: a rewritten or bit-flipped line must not
        # replay as a fact (records written before checksums existed do
        # not carry "c" and are rejected the same way).
        if record.get("c") != _payload_checksum(key, entry):
            return False
        return self._valid_entry(entry)

    def _valid_entry(self, entry) -> bool:
        """Subclass hook: type-check one replayed entry."""
        return isinstance(entry, dict)

    def _quarantine_tail(self, path: str, good_end: int) -> None:
        """Move everything past the last well-formed line to
        ``<path>.quarantine`` and truncate the journal there."""
        with open(path, "r+b") as handle:
            handle.seek(good_end)
            tail = handle.read()
            if tail:
                # Count what is being dropped so callers can *report* the
                # quarantine instead of silently recomputing the records.
                self.quarantined_records = sum(
                    1 for line in tail.split(b"\n") if line.strip())
                target = path + ".quarantine"
                try:
                    with open(target, "wb") as quarantine:
                        quarantine.write(tail)
                    self.quarantined = target
                except OSError:
                    # Unwritable quarantine target: still truncate; the
                    # tail was unreplayable garbage either way.
                    self.quarantined = None
            handle.truncate(good_end)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_entry(self, key: str, entry: Dict) -> None:
        """Stage one record; durable after the next :meth:`commit`."""
        self._entries[key] = entry
        self._pending[key] = entry

    def commit(self) -> None:
        """Write staged records and force them to disk (fsync)."""
        if not self._pending or self._handle is None:
            return
        try:
            for key, entry in self._pending.items():
                self._write_line({"key": key, "entry": entry,
                                  "c": _payload_checksum(key, entry)})
            self._fsync()
        except OSError as exc:
            raise JournalError(
                f"cannot append to journal {self.path!r}: {exc}")
        self._pending.clear()

    def _write_line(self, record: Dict) -> None:
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    def _fsync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Commit anything pending and release the file handle."""
        if self._handle is None:
            return
        self.commit()
        self._handle.close()
        self._handle = None

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[Tuple[str, Dict]]:
        return iter(self._entries.items())

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
