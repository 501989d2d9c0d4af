"""The store-backed bitblast cache.

The in-memory :class:`~repro.formal.bitblast.BlastCache` is highly
effective *within* a process and worthless *across* processes.
:class:`PersistentBlastCache` keeps its interface (the engine cannot
tell the difference) and adds an
:class:`~repro.service.store.ArtifactStore` layer underneath the
in-memory tier:

* get: memory first, then the store (a store hit is counted as a cache
  hit), then blast;
* a fresh blast is written through to disk, so the *next* process
  starts warm.

Verdicts need no subclass: :class:`repro.formal.cache.VerdictStore`
takes the artifact store as its backend directly (namespace
:data:`repro.formal.cache.VERDICT_NAMESPACE`).

Corrupt store entries are quarantined by the store itself and surface
here as plain misses — a bit flip can cost a recompute, never a wrong
result.  The same degradation applies on the write path: a store
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
from ..netlist import Netlist
from .store import ArtifactStore

#: store namespace (one directory under the store root)
BLAST_NAMESPACE = "blast"


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
            # Same degradation as the verdict store: a refused write
            # costs cross-process reuse, never the blast itself.
            self.store_write_errors += 1
        return entry
