"""Content-addressed on-disk artifact store shared across runs.

One entry per file, under ``<root>/<namespace>/<kk>/<key>`` where
``kk`` is the first two hex digits of the (already content-derived)
key — the same canonical fingerprints the in-memory caches use
(:func:`repro.formal.cache.problem_fingerprint` for verdicts).  The
entry format is a single JSON header line followed by the raw payload
bytes::

    {"format":"repro-store-entry","version":1,"namespace":...,
     "key":...,"codec":"json"|"bytes","sha256":...,"size":N}\\n
    <payload bytes>

Durability and integrity are the point of this module:

* **atomic writes** — payloads land in a temp file in the entry's own
  directory, are flushed and fsynced, then renamed into place; a crash
  mid-write leaves only a ``.tmp-`` file (swept by :meth:`gc` and
  ignored by reads), never a half-entry under the real name;
* **verified reads** — every read re-hashes the payload against the
  header's sha256 and checks the header's namespace/key against the
  requested ones; any mismatch (truncation, bit flips, a foreign file)
  *quarantines* the entry — renames it to ``<name>.corrupt`` — and
  reports a miss so the caller recomputes instead of consuming garbage;
* **LRU eviction** — reads bump the entry's mtime, so :meth:`gc` can
  evict least-recently-used entries past a byte cap;
* **cross-run counters** — per-session hit/miss/write/corruption
  deltas are folded into ``<root>/counters.json`` on :meth:`close`, so
  ``repro cache stats`` can show lifetime effectiveness.

Concurrent access (daemon workers, overlapping CLI runs, and *two
daemons sharing one root*) is safe by construction plus one advisory
lock: entries are immutable once written (same key ⇒ same content) and
writes are atomic renames, so readers never see a half-entry; the
``store.lock`` flock arbitrates the remaining races.  Writers hold it
*shared* for the tmp-write → rename window and :meth:`gc` holds it
*exclusive* for its whole sweep, so a concurrent ``repro cache gc``
(or a second daemon's gc) can never unlink files out from under a
mid-flight writer, and counter folds are exact rather than merely
undercounting.

``byte_budget`` is the fault plan's ``store-budget`` shim (``repro
serve --inject-faults store-budget=N``): once the session has written
that many payload bytes, every further :meth:`put_bytes` raises
``ENOSPC`` — the deterministic stand-in for a full disk.  Callers (the verdict store, artifact writes) must
degrade to cache misses, never to failed jobs.
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import hashlib
import json
import os
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from ..errors import StoreError

ENTRY_FORMAT = "repro-store-entry"
ENTRY_VERSION = 1
_KEY_CHARS = set("0123456789abcdef")

#: advisory lock file at the store root (shared by writers, exclusive
#: for gc/counter folds); never a namespace, so entry scans skip it
LOCK_NAME = "store.lock"

#: session counters folded into counters.json on close()
_COUNTER_KEYS = ("hits", "misses", "writes", "corrupt", "evictions")


def _valid_key(key: str) -> bool:
    """Keys are content hashes: lowercase hex, sane length."""
    return (isinstance(key, str) and 8 <= len(key) <= 128
            and all(c in _KEY_CHARS for c in key))


class ArtifactStore:
    """See the module docstring.  ``root`` is created on first write."""

    def __init__(self, root: str, byte_budget: Optional[int] = None):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self.evictions = 0
        #: entry paths quarantined (renamed ``.corrupt``) this session
        self.quarantined: List[str] = []
        #: ``store-budget`` shim: payload bytes this session may write before
        #: put_bytes starts raising ENOSPC (None = unlimited)
        self.byte_budget = byte_budget
        self.bytes_written = 0
        #: writes refused by the byte budget (diagnostic)
        self.budget_refusals = 0

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    def _lock_path(self) -> str:
        return os.path.join(self.root, LOCK_NAME)

    @contextlib.contextmanager
    def _locked(self, exclusive: bool = False):
        """Hold the store's advisory flock for the duration.

        Shared for writers (many may interleave — their renames are
        atomic), exclusive for gc and counter folds (which enumerate
        and unlink, and must not race a writer's tmp → rename window).
        A fresh fd per acquisition keeps this re-entrant across store
        instances; the same *instance* never nests an exclusive inside
        a shared section (gc and put_bytes never call each other).
        """
        os.makedirs(self.root, exist_ok=True)
        handle = open(self._lock_path(), "a")
        try:
            fcntl.flock(handle,
                        fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            yield
        finally:
            try:
                fcntl.flock(handle, fcntl.LOCK_UN)
            except OSError:
                pass
            handle.close()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _entry_path(self, namespace: str, key: str) -> str:
        if not namespace or "/" in namespace or namespace.startswith("."):
            raise StoreError(f"invalid store namespace {namespace!r}")
        if not _valid_key(key):
            raise StoreError(f"invalid store key {key!r}")
        return os.path.join(self.root, namespace, key[:2], key)

    # ------------------------------------------------------------------
    # Raw byte access
    # ------------------------------------------------------------------
    def put_bytes(self, namespace: str, key: str, payload: bytes,
                  codec: str = "bytes") -> None:
        """Write one entry atomically (idempotent: same key, same
        content — rewriting is harmless).  Holds the store flock
        *shared* for the tmp-write → rename window so a concurrent
        exclusive :meth:`gc` cannot sweep the temp file or unlink the
        shard directory mid-flight."""
        path = self._entry_path(namespace, key)
        header = json.dumps({
            "format": ENTRY_FORMAT, "version": ENTRY_VERSION,
            "namespace": namespace, "key": key, "codec": codec,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "size": len(payload),
        }, sort_keys=True, separators=(",", ":")).encode("utf-8")
        if self.byte_budget is not None and \
                self.bytes_written + len(payload) > self.byte_budget:
            self.budget_refusals += 1
            raise OSError(errno.ENOSPC,
                          f"store byte budget exhausted "
                          f"({self.byte_budget} bytes)")
        with self._locked(exclusive=False):
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(header + b"\n" + payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        self.bytes_written += len(payload)
        self.writes += 1

    def get_bytes(self, namespace: str, key: str
                  ) -> Optional[Tuple[bytes, str]]:
        """Return ``(payload, codec)`` or None (miss / quarantined)."""
        path = self._entry_path(namespace, key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            self._quarantine(path)
            return None
        entry = self._decode(raw, namespace, key)
        if entry is None:
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        self._touch(path)
        return entry

    def _decode(self, raw: bytes, namespace: str, key: str
                ) -> Optional[Tuple[bytes, str]]:
        """Validate one entry's bytes; None means corrupt."""
        newline = raw.find(b"\n")
        if newline < 0:
            return None
        try:
            header = json.loads(raw[:newline].decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(header, dict) \
                or header.get("format") != ENTRY_FORMAT \
                or header.get("namespace") != namespace \
                or header.get("key") != key:
            return None
        payload = raw[newline + 1:]
        if header.get("size") != len(payload):
            return None  # truncated (or padded) payload
        if header.get("sha256") != hashlib.sha256(payload).hexdigest():
            return None  # bit flips
        codec = header.get("codec")
        if not isinstance(codec, str):
            return None
        return payload, codec

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside; the caller recomputes."""
        self.corrupt += 1
        target = path + ".corrupt"
        try:
            os.replace(path, target)
            self.quarantined.append(target)
        except OSError:
            # Already gone or unwritable: the read still missed.
            pass

    @staticmethod
    def _touch(path: str) -> None:
        """Bump mtime so gc's LRU order tracks reads, not just writes."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Typed convenience layers
    # ------------------------------------------------------------------
    def put_json(self, namespace: str, key: str, payload: Dict) -> None:
        data = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        self.put_bytes(namespace, key, data, codec="json")

    def get_json(self, namespace: str, key: str) -> Optional[Dict]:
        entry = self.get_bytes(namespace, key)
        if entry is None:
            return None
        payload, codec = entry
        if codec != "json":
            return None
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        return decoded if isinstance(decoded, dict) else None

    # ------------------------------------------------------------------
    # Maintenance: scan / verify / gc
    # ------------------------------------------------------------------
    def _iter_entry_paths(self) -> List[Tuple[str, str, str]]:
        """All (namespace, key, path) triples currently on disk."""
        found: List[Tuple[str, str, str]] = []
        if not os.path.isdir(self.root):
            return found
        for namespace in sorted(os.listdir(self.root)):
            ns_dir = os.path.join(self.root, namespace)
            if not os.path.isdir(ns_dir):
                continue
            for shard in sorted(os.listdir(ns_dir)):
                shard_dir = os.path.join(ns_dir, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in sorted(os.listdir(shard_dir)):
                    path = os.path.join(shard_dir, name)
                    if name.endswith(".corrupt") or name.startswith(".tmp-"):
                        continue
                    if os.path.isfile(path):
                        found.append((namespace, name, path))
        return found

    def verify(self) -> Dict[str, int]:
        """Re-verify every entry's checksum; quarantine failures.

        Returns ``{"checked": n, "ok": n, "quarantined": n}``.
        """
        checked = ok = quarantined = 0
        for namespace, key, path in self._iter_entry_paths():
            checked += 1
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
            except OSError:
                self._quarantine(path)
                quarantined += 1
                continue
            if not _valid_key(key) or \
                    self._decode(raw, namespace, key) is None:
                self._quarantine(path)
                quarantined += 1
            else:
                ok += 1
        return {"checked": checked, "ok": ok, "quarantined": quarantined}

    def gc(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-used entries until the store fits in
        ``max_bytes``; also sweeps orphaned temp files from crashed
        writes.  Returns ``{"evicted": n, "freed_bytes": n,
        "remaining_bytes": n, "swept_tmp": n}``.

        Holds the store flock *exclusive* for the whole sweep: without
        it, ``repro cache gc`` racing a live daemon could unlink a
        writer's temp file (or its freshly renamed entry's directory
        scan state) between the tmp-write and the rename.  Writers
        hold the lock shared, so gc simply waits for in-flight writes
        to land and blocks new ones for the duration.
        """
        with self._locked(exclusive=True):
            return self._gc_locked(max_bytes)

    def _gc_locked(self, max_bytes: int) -> Dict[str, int]:
        swept = 0
        now = time.time()
        if os.path.isdir(self.root):
            for dirpath, _dirnames, filenames in os.walk(self.root):
                for name in filenames:
                    if not name.startswith(".tmp-"):
                        continue
                    path = os.path.join(dirpath, name)
                    try:
                        # Only sweep *stale* temp files: a fresh one may
                        # be a concurrent writer mid-flight.
                        if now - os.stat(path).st_mtime > 60.0:
                            os.unlink(path)
                            swept += 1
                    except OSError:
                        pass
        entries = []
        total = 0
        for _namespace, _key, path in self._iter_entry_paths():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        entries.sort()  # oldest mtime (least recently used) first
        evicted = freed = 0
        for _mtime, size, path in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            freed += size
            evicted += 1
        self.evictions += evicted
        return {"evicted": evicted, "freed_bytes": freed,
                "remaining_bytes": total, "swept_tmp": swept}

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Session counters plus on-disk totals and lifetime counters."""
        per_namespace: Dict[str, int] = {}
        total_bytes = 0
        entries = 0
        for namespace, _key, path in self._iter_entry_paths():
            try:
                size = os.stat(path).st_size
            except OSError:
                continue
            entries += 1
            total_bytes += size
            per_namespace[namespace] = per_namespace.get(namespace, 0) + 1
        return {
            "root": self.root,
            "entries": entries,
            "total_bytes": total_bytes,
            "namespaces": per_namespace,
            "session": {key: getattr(self, key) for key in _COUNTER_KEYS},
            "lifetime": self._read_counters(),
        }

    def _counters_path(self) -> str:
        return os.path.join(self.root, "counters.json")

    def _read_counters(self) -> Dict[str, int]:
        try:
            with open(self._counters_path(), "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return {key: 0 for key in _COUNTER_KEYS}
        if not isinstance(data, dict):
            return {key: 0 for key in _COUNTER_KEYS}
        return {key: int(data.get(key, 0) or 0) for key in _COUNTER_KEYS}

    def flush_counters(self) -> None:
        """Fold this session's counters into the lifetime totals.

        The read-modify-write runs under the exclusive store flock, so
        two daemons closing against one root fold both deltas instead
        of the last writer silently dropping the other's counts."""
        deltas = {key: getattr(self, key) for key in _COUNTER_KEYS}
        if not any(deltas.values()):
            return
        with self._locked(exclusive=True):
            totals = self._read_counters()
            for key, value in deltas.items():
                totals[key] = totals.get(key, 0) + value
                setattr(self, key, 0)
            fd, tmp_path = tempfile.mkstemp(prefix=".tmp-", dir=self.root)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(totals, handle, sort_keys=True)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, self._counters_path())
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise

    def close(self) -> None:
        self.flush_counters()

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
