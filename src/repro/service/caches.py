"""Store-backed implementations of the formal layer's caches.

``BENCH_synth.json`` recording ``blast_hits: 0`` across full-corpus
runs is the motivating bug of this package: the in-memory
:class:`~repro.formal.bitblast.BlastCache` and
:class:`~repro.formal.cache.VerdictCache` are highly effective *within*
a process and worthless *across* processes.  These subclasses keep the
exact same interfaces (the engine and scheduler cannot tell the
difference) and add an :class:`~repro.service.store.ArtifactStore`
layer underneath the in-memory tier:

* lookup: memory first, then the store (a store hit is counted as a
  cache hit — that is what makes a second synthesis submission report
  ``blast_hits > 0``), then recompute;
* store: written through to disk, so the *next* process starts warm.

Corrupt store entries are quarantined by the store itself and surface
here as plain misses — a bit flip can cost a recompute, never a wrong
verdict.  The same degradation applies on the write path: a store
write failure (a full disk, or the chaos harness's ENOSPC byte-budget
shim) is swallowed and counted in ``store_write_errors`` — the job
keeps its in-memory entry and completes; only cross-process reuse is
lost.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence, Tuple

from ..formal.bitblast import BlastCache, BlastedDesign, blast_cone, blast_key
from ..formal.cache import VerdictCache, decode_verdict
from ..formal.engine import UNKNOWN, Verdict
from ..netlist import Netlist
from .store import ArtifactStore

#: store namespaces (one directory each under the store root)
VERDICT_NAMESPACE = "verdict"
BLAST_NAMESPACE = "blast"

_VERDICT_REQUIRED = ("status", "method", "bound", "time_seconds")


class PersistentVerdictCache(VerdictCache):
    """A :class:`VerdictCache` whose entries live in the artifact store,
    keyed by the existing canonical problem fingerprint.

    UNKNOWN verdicts are never cached — in either tier.  They are
    shaped by the submitting job's budget, which the fingerprint
    excludes, and this cache outlives any single budget: the store is
    shared across runs and clients, and the in-memory tier lives in a
    warm worker whose checker is re-budgeted per job
    (:meth:`repro.service.jobs.WorkerContext.checker`).  Caching one
    would let a tightly-budgeted submission pin every later submission
    of the same problem to UNKNOWN, breaking the determinism contract
    (same ``(kind, params)`` ⇒ same result regardless of history).
    """

    def __init__(self, store: ArtifactStore):
        super().__init__(path=None)
        self._store = store
        #: lookups served from disk rather than this session's memory
        self.store_hits = 0
        #: write-throughs refused by the store (full disk / byte budget)
        self.store_write_errors = 0

    def lookup(self, fingerprint: str) -> Optional[Verdict]:
        entry = self._entries.get(fingerprint)
        if entry is None:
            entry = self._store.get_json(VERDICT_NAMESPACE, fingerprint)
            if entry is None or \
                    not all(key in entry for key in _VERDICT_REQUIRED) or \
                    entry["status"] == UNKNOWN:
                # A stored UNKNOWN (written by a pre-fix daemon) is a
                # miss: recompute, and the decided verdict's
                # write-through heals the entry.
                self.misses += 1
                return None
            self._entries[fingerprint] = entry
            self.store_hits += 1
        self.hits += 1
        return decode_verdict(entry)

    def store(self, fingerprint: str, verdict: Verdict) -> None:
        if verdict.status == UNKNOWN:
            self._entries.pop(fingerprint, None)
            return
        super().store(fingerprint, verdict)
        try:
            self._store.put_json(VERDICT_NAMESPACE, fingerprint,
                                 self._entries[fingerprint])
        except OSError:
            # Disk full (or the chaos byte-budget shim): the verdict
            # stays in memory and the job completes; the next process
            # just recomputes instead of starting warm.
            self.store_write_errors += 1

    def save(self) -> None:
        """Entries are written through on :meth:`store`; nothing to do."""


def blast_store_key(netlist: Netlist, roots: Optional[Sequence[str]],
                    frozen_inputs: Sequence[str]) -> str:
    """Content key for one blasted problem shape — the on-disk analogue
    of :class:`BlastCache`'s in-memory tuple key."""
    canonical = json.dumps(blast_key(netlist, roots, frozen_inputs),
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class PersistentBlastCache(BlastCache):
    """A :class:`BlastCache` with the artifact store as a second tier.

    A store hit counts toward :attr:`hits` (the engine folds that into
    its ``blast_hits`` statistic), and separately toward
    :attr:`store_hits` so cross-run reuse is observable on its own.
    """

    def __init__(self, store: ArtifactStore, capacity: int = 64):
        super().__init__(capacity)
        self._store = store
        self.store_hits = 0
        #: write-throughs refused by the store (full disk / byte budget)
        self.store_write_errors = 0

    def get(self, netlist: Netlist, roots: Optional[Sequence[str]],
            frozen_inputs: Sequence[str]) -> Tuple[Netlist, BlastedDesign]:
        key = blast_key(netlist, roots, frozen_inputs)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        disk_key = blast_store_key(netlist, roots, frozen_inputs)
        loaded = self._store.get_pickle(BLAST_NAMESPACE, disk_key)
        if isinstance(loaded, tuple) and len(loaded) == 2 \
                and isinstance(loaded[1], BlastedDesign):
            self.hits += 1
            self.store_hits += 1
            self._remember(key, loaded)
            return loaded
        self.misses += 1
        entry = blast_cone(netlist, roots, frozen_inputs)
        self._remember(key, entry)
        try:
            self._store.put_pickle(BLAST_NAMESPACE, disk_key, entry)
        except OSError:
            # Same degradation as the verdict cache: a refused write
            # costs cross-process reuse, never the blast itself.
            self.store_write_errors += 1
        return entry
