"""Unit tests for the persistent artifact store: atomicity, checksum
verification, quarantine-and-recompute, LRU gc, counters."""

import hashlib
import os

import pytest

from repro.errors import StoreError
from repro.service import ArtifactStore
from repro.formal import VerdictStore
from repro.formal.cache import VERDICT_NAMESPACE

KEY_A = hashlib.sha256(b"a").hexdigest()
KEY_B = hashlib.sha256(b"b").hexdigest()
KEY_C = hashlib.sha256(b"c").hexdigest()


def entry_path(store, namespace, key):
    return os.path.join(store.root, namespace, key[:2], key)


class TestRoundTrip:
    def test_bytes_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put_bytes("ns", KEY_A, b"hello world")
        assert store.get_bytes("ns", KEY_A) == (b"hello world", "bytes")
        assert store.hits == 1 and store.writes == 1

    def test_json_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put_json("ns", KEY_A, {"x": 1})
        assert store.get_json("ns", KEY_A) == {"x": 1}

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        assert store.get_bytes("ns", KEY_A) is None
        assert store.misses == 1 and store.corrupt == 0

    def test_codec_mismatch_is_a_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put_bytes("ns", KEY_A, b'{"x": 1}')
        assert store.get_json("ns", KEY_A) is None

    def test_invalid_namespace_and_key_rejected(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with pytest.raises(StoreError):
            store.put_bytes("../escape", KEY_A, b"x")
        with pytest.raises(StoreError):
            store.put_bytes("ns", "not-hex!", b"x")
        with pytest.raises(StoreError):
            store.put_bytes("ns", "abc", b"x")  # too short


class TestCorruption:
    """Every corruption mode quarantines the entry and reads as a miss
    so the caller recomputes — never consumes garbage."""

    def _stored(self, tmp_path, payload=b"payload-bytes"):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put_bytes("ns", KEY_A, payload)
        return store, entry_path(store, "ns", KEY_A)

    def test_bit_flipped_payload_quarantined(self, tmp_path):
        store, path = self._stored(tmp_path)
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0x40  # flip one payload bit
        with open(path, "wb") as handle:
            handle.write(raw)
        assert store.get_bytes("ns", KEY_A) is None
        assert store.corrupt == 1
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        # Recompute path: a rewrite fully heals the entry.
        store.put_bytes("ns", KEY_A, b"payload-bytes")
        assert store.get_bytes("ns", KEY_A) == (b"payload-bytes", "bytes")

    def test_truncated_entry_quarantined(self, tmp_path):
        store, path = self._stored(tmp_path)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[:-5])  # crash-mid-write torn payload
        assert store.get_bytes("ns", KEY_A) is None
        assert os.path.exists(path + ".corrupt")

    def test_garbage_header_quarantined(self, tmp_path):
        store, path = self._stored(tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"\x00\x01\x02 not a header\nrest")
        assert store.get_bytes("ns", KEY_A) is None
        assert store.quarantined == [path + ".corrupt"]

    def test_wrong_key_header_quarantined(self, tmp_path):
        """A file copied to the wrong name must not be served."""
        store, path = self._stored(tmp_path)
        other = entry_path(store, "ns", KEY_B)
        os.makedirs(os.path.dirname(other), exist_ok=True)
        os.replace(path, other)
        assert store.get_bytes("ns", KEY_B) is None
        assert store.corrupt == 1

    def test_torn_temp_file_never_visible(self, tmp_path):
        """A crash mid-write leaves only a .tmp- file: reads miss, gc
        sweeps it once stale, and the real name never exists."""
        store, path = self._stored(tmp_path)
        shard = os.path.dirname(path)
        torn = os.path.join(shard, ".tmp-abandoned")
        with open(torn, "wb") as handle:
            handle.write(b'{"format":"repro-store-entry"')  # torn header
        os.utime(torn, (1, 1))  # ancient: eligible for sweeping
        assert store.get_bytes("ns", KEY_A) is not None  # untouched
        outcome = store.gc(max_bytes=10**9)
        assert outcome["swept_tmp"] == 1
        assert not os.path.exists(torn)
        assert outcome["evicted"] == 0

    def test_fresh_temp_file_not_swept(self, tmp_path):
        """A fresh temp file may be a concurrent writer mid-flight."""
        store, path = self._stored(tmp_path)
        fresh = os.path.join(os.path.dirname(path), ".tmp-inflight")
        with open(fresh, "wb") as handle:
            handle.write(b"partial")
        outcome = store.gc(max_bytes=10**9)
        assert outcome["swept_tmp"] == 0
        assert os.path.exists(fresh)


class TestVerifyAndGc:
    def test_verify_quarantines_only_bad_entries(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put_bytes("ns", KEY_A, b"good")
        store.put_bytes("ns", KEY_B, b"bad")
        bad_path = entry_path(store, "ns", KEY_B)
        raw = bytearray(open(bad_path, "rb").read())
        raw[-1] ^= 0x01
        with open(bad_path, "wb") as handle:
            handle.write(raw)
        outcome = store.verify()
        assert outcome == {"checked": 2, "ok": 1, "quarantined": 1}
        assert store.get_bytes("ns", KEY_A) is not None
        assert store.get_bytes("ns", KEY_B) is None

    def test_gc_evicts_least_recently_used(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        for i, key in enumerate((KEY_A, KEY_B, KEY_C)):
            store.put_bytes("ns", key, b"x" * 100)
            os.utime(entry_path(store, "ns", key), (1000 + i, 1000 + i))
        # Touch A (a read) so B becomes the LRU entry.
        assert store.get_bytes("ns", KEY_A) is not None
        total = sum(os.stat(entry_path(store, "ns", k)).st_size
                    for k in (KEY_A, KEY_B, KEY_C))
        outcome = store.gc(max_bytes=total - 1)  # evict exactly one
        assert outcome["evicted"] == 1
        assert store.get_bytes("ns", KEY_B) is None  # LRU went first
        assert store.get_bytes("ns", KEY_A) is not None
        assert store.get_bytes("ns", KEY_C) is not None

    def test_stats_and_lifetime_counters(self, tmp_path):
        root = str(tmp_path / "store")
        with ArtifactStore(root) as store:
            store.put_bytes("ns", KEY_A, b"x")
            store.get_bytes("ns", KEY_A)
            store.get_bytes("ns", KEY_B)
        # A second session sees the first one's folded counters.
        with ArtifactStore(root) as store:
            stats = store.stats()
        assert stats["entries"] == 1
        assert stats["namespaces"] == {"ns": 1}
        assert stats["lifetime"]["writes"] == 1
        assert stats["lifetime"]["hits"] == 1
        assert stats["lifetime"]["misses"] == 1


class TestPersistentCaches:
    def test_verdict_cache_survives_sessions(self, tmp_path):
        from repro.formal.engine import Verdict

        root = str(tmp_path / "store")
        fingerprint = hashlib.sha256(b"problem").hexdigest()
        with ArtifactStore(root) as store:
            cache = VerdictStore(artifacts=store)
            assert cache.lookup(fingerprint) is None
            cache.record(fingerprint, Verdict(
                status="PROVEN", method="bmc", bound=10, time_seconds=0.1))
        with ArtifactStore(root) as store:
            cache = VerdictStore(artifacts=store)
            verdict = cache.lookup(fingerprint)
        assert verdict is not None and verdict.proven
        assert cache.store_hits == 1 and cache.hits == 1

    def test_unknown_verdict_never_persisted(self, tmp_path):
        from repro.formal.engine import UNKNOWN, Verdict

        root = str(tmp_path / "store")
        fingerprint = hashlib.sha256(b"problem").hexdigest()
        store = ArtifactStore(root)
        cache = VerdictStore(artifacts=store)
        cache.record(fingerprint, Verdict(
            status=UNKNOWN, method="bmc", bound=10, time_seconds=0.1,
            reason="timeout"))
        # Only this session's memory holds it (the scheduler, which
        # feeds the warm workers' stores, never records one): the
        # fingerprint excludes the job's budget, so a later job with a
        # larger budget must recompute rather than inherit this job's
        # exhaustion.
        assert cache.lookup(fingerprint).unknown
        assert store.get_json(VERDICT_NAMESPACE, fingerprint) is None
        fresh = VerdictStore(artifacts=store)
        assert fresh.lookup(fingerprint) is None

    def test_poisoned_unknown_entry_is_a_miss_and_heals(self, tmp_path):
        from repro.formal.engine import UNKNOWN, Verdict

        root = str(tmp_path / "store")
        fingerprint = hashlib.sha256(b"problem").hexdigest()
        store = ArtifactStore(root)
        # An UNKNOWN written by a pre-fix daemon must read as a miss...
        store.put_json(VERDICT_NAMESPACE, fingerprint, {
            "status": UNKNOWN, "method": "bmc", "bound": 10,
            "time_seconds": 0.1})
        cache = VerdictStore(artifacts=store)
        assert cache.lookup(fingerprint) is None
        assert cache.misses == 1 and cache.store_hits == 0
        # ...and the decided recompute overwrites (heals) the entry.
        cache.record(fingerprint, Verdict(
            status="PROVEN", method="bmc", bound=10, time_seconds=0.1))
        fresh = VerdictStore(artifacts=store)
        verdict = fresh.lookup(fingerprint)
        assert verdict is not None and verdict.proven

    def test_corrupt_verdict_entry_recomputes(self, tmp_path):
        root = str(tmp_path / "store")
        fingerprint = hashlib.sha256(b"problem").hexdigest()
        store = ArtifactStore(root)
        store.put_json(VERDICT_NAMESPACE, fingerprint, {"status": "PROVEN"})
        path = entry_path(store, VERDICT_NAMESPACE, fingerprint)
        raw = bytearray(open(path, "rb").read())
        raw[-3] ^= 0x10
        with open(path, "wb") as handle:
            handle.write(raw)
        cache = VerdictStore(artifacts=store)
        assert cache.lookup(fingerprint) is None  # quarantined, miss
        assert store.corrupt == 1


class TestStoreLock:
    """The advisory flock closing the gc-vs-writer races (two daemons,
    or ``repro cache gc`` against a live one)."""

    def _hold(self, store, exclusive=False):
        import fcntl
        os.makedirs(store.root, exist_ok=True)
        handle = open(os.path.join(store.root, "store.lock"), "a")
        fcntl.flock(handle,
                    fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        return handle

    def test_gc_blocks_behind_an_in_flight_writer(self, tmp_path):
        import fcntl
        import threading
        import time

        store = ArtifactStore(str(tmp_path / "store"))
        store.put_bytes("ns", KEY_A, b"payload")
        writer = self._hold(store)  # a writer mid tmp->rename window
        done = threading.Event()

        def run_gc():
            store.gc(0)
            done.set()

        thread = threading.Thread(target=run_gc, daemon=True)
        thread.start()
        time.sleep(0.3)
        assert not done.is_set()  # exclusive gc waits for the writer
        assert store.get_bytes("ns", KEY_A) is not None  # nothing swept
        fcntl.flock(writer, fcntl.LOCK_UN)
        writer.close()
        thread.join(timeout=30)
        assert done.is_set()
        assert store.get_bytes("ns", KEY_A) is None  # then gc proceeds

    def test_writers_do_not_block_each_other(self, tmp_path):
        # Shared mode: concurrent puts from two store instances (two
        # daemons' workers) interleave freely.
        root = str(tmp_path / "store")
        store_a = ArtifactStore(root)
        store_b = ArtifactStore(root)
        holder = self._hold(store_a)  # a's write in flight
        store_b.put_bytes("ns", KEY_B, b"from-b")  # must not deadlock
        holder.close()
        assert store_a.get_bytes("ns", KEY_B) is not None

    def test_counter_folds_are_exact_across_two_sessions(self, tmp_path):
        root = str(tmp_path / "store")
        store_a = ArtifactStore(root)
        store_b = ArtifactStore(root)
        store_a.put_bytes("ns", KEY_A, b"x")
        store_b.put_bytes("ns", KEY_B, b"y")
        store_a.close()
        store_b.close()
        with ArtifactStore(root) as fresh:
            stats = fresh.stats()
        # Both sessions' deltas landed (no lost update).
        assert stats["lifetime"]["writes"] == 2

    def test_lock_file_never_scanned_as_an_entry(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put_bytes("ns", KEY_A, b"x")  # creates store.lock too
        assert store.verify() == {"checked": 1, "ok": 1,
                                  "quarantined": 0}
        stats = store.stats()
        assert stats["entries"] == 1
