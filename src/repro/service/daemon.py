"""The ``repro serve`` verification daemon.

One single-threaded :mod:`selectors` event loop owns everything the
fleet does not: the Unix-domain listening socket, the newline-delimited
JSON protocol, the FIFO job queue with admission control, the
crash-safe :class:`~repro.service.ledger.JobLedger`, and job artifacts
on disk.  Workers never touch the ledger or the socket; the daemon
never runs a solver.  That split keeps every durability decision in
one process with one writer.

Protocol (one request per connection, ``\\n``-terminated JSON)::

    {"op": "submit", "kind": "check", "params": {...}}
        -> {"ok": true, "job": "job-000001", "state": "queued"}
    {"op": "status"}            -> daemon/queue/fleet/store overview
    {"op": "status", "job": j}  -> one job's state
    {"op": "result", "job": j}  -> terminal summary + artifact path
    {"op": "ping"}              -> {"ok": true, "pid": ...}
    {"op": "kill-worker"}       -> fault injection (tests/serve-smoke)
    {"op": "shutdown"}          -> graceful drain, then exit

Failure contract:

* an accepted submission is committed to the ledger *before* the
  ``ok`` response is sent — ``kill -9`` after the reply can never lose
  the job;
* a full queue refuses with ``queue-full`` instead of buffering
  unboundedly (backpressure is the client's problem to retry);
* a crashed/hung worker's job is re-dispatched up to ``max_attempts``
  times, then recorded ``failed``; a deadline expiry is recorded
  ``unknown`` immediately (deterministic jobs don't get faster);
* SIGTERM drains: running jobs finish, queued jobs stay in the ledger
  and are re-enqueued by the next ``repro serve`` on the same state
  directory, as is everything in flight after a ``kill -9``.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import selectors
import signal
import socket
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ServiceError
from ..resilience import HANG, INTERRUPT, SLOW, BackoffSchedule, FaultPlan
from .fleet import WorkerFleet
from .jobs import validate_params
from .ledger import JobLedger
from .shards import (SHARDABLE_KINDS, ShardedJob, normalize_shards, shard_id,
                     split_shard_id)
from .store import ArtifactStore

#: queue/running states a job passes through before a terminal one
ACTIVE_STATES = ("queued", "running")

_MAX_REQUEST_BYTES = 8 * 1024 * 1024  # model texts are small; 8 MiB is lots

#: a queued reply not drained within this window means the client is
#: wedged; the connection is dropped (never blocks the event loop)
_SEND_TIMEOUT_SECONDS = 10.0


def default_socket_path(state_dir: str) -> str:
    return os.path.join(state_dir, "serve.sock")


@dataclass
class ServeConfig:
    """Daemon tuning; everything has a safe default."""

    state_dir: str
    socket_path: Optional[str] = None
    workers: int = 1
    max_queue: int = 64
    max_attempts: int = 3
    heartbeat_interval: float = 0.25
    hang_timeout: float = 60.0
    job_deadline: Optional[float] = None
    recycle_after: int = 0
    store_cap_bytes: Optional[int] = None
    backoff: BackoffSchedule = field(default_factory=BackoffSchedule)
    #: artifact-store root override — lets two daemons (separate state
    #: dirs, separate ledgers) share one store, which the store's
    #: flock discipline makes safe
    store_root: Optional[str] = None
    #: seeded fault-injection plan (``--inject-faults``); None in
    #: production
    fault_plan: Optional[FaultPlan] = None

    def resolved_socket(self) -> str:
        return self.socket_path or default_socket_path(self.state_dir)


@dataclass
class _ClientConn:
    """Per-connection buffers.  Replies are queued in ``txbuf`` and
    written on ``EVENT_WRITE`` readiness — the single-threaded event
    loop never blocks on a slow or wedged client."""

    rxbuf: bytearray = field(default_factory=bytearray)
    txbuf: bytearray = field(default_factory=bytearray)
    send_deadline: float = 0.0


@dataclass
class _JobRecord:
    """In-memory view of one job (authoritative copy is the ledger)."""

    job_id: str
    kind: str
    params: Dict
    seq: int
    state: str = "queued"
    attempts: int = 0
    result: Optional[Dict] = None
    artifact: Optional[str] = None
    sha256: Optional[str] = None


class JobQueue:
    """Bounded FIFO with admission control.

    ``offer`` refuses past ``max_depth`` (backpressure); ``requeue``
    puts a crash-retried job at the *front* and always succeeds —
    retries were admitted once and must not be lost to a full queue.
    """

    def __init__(self, max_depth: int = 64):
        self.max_depth = max_depth
        self._items: List[str] = []

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, job_id: str) -> bool:
        if len(self._items) >= self.max_depth:
            return False
        self._items.append(job_id)
        return True

    def requeue(self, job_id: str) -> None:
        self._items.insert(0, job_id)

    def take(self) -> Optional[str]:
        return self._items.pop(0) if self._items else None

    def snapshot(self) -> List[str]:
        return list(self._items)


class Daemon:
    """The serve event loop.  Construct, then :meth:`run`."""

    def __init__(self, config: ServeConfig, echo=print):
        self.config = config
        self.echo = echo
        os.makedirs(config.state_dir, exist_ok=True)
        self.store_root = config.store_root or \
            os.path.join(config.state_dir, "store")
        self.jobs_dir = os.path.join(config.state_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.ledger = JobLedger(os.path.join(config.state_dir,
                                             "jobs.jsonl"))
        self.queue = JobQueue(config.max_queue)
        self._faults = config.fault_plan
        self._chaos_path = os.path.join(config.state_dir, "chaos.jsonl")
        self.fleet = WorkerFleet(
            self.store_root, workers=config.workers,
            heartbeat_interval=config.heartbeat_interval,
            hang_timeout=config.hang_timeout,
            job_deadline=config.job_deadline,
            recycle_after=config.recycle_after,
            backoff=config.backoff,
            extra_child_closers=self._forked_socket_closers,
            store_byte_budget=(self._faults.store_budget
                               if self._faults else None))
        self._jobs: Dict[str, _JobRecord] = {}
        #: in-flight sharded jobs by parent id (rebuilt from the
        #: ledger's shard records when a restart re-expands the job)
        self._sharded: Dict[str, ShardedJob] = {}
        #: FIFO of (parent_id, shard_index) awaiting an idle worker
        self._shard_queue: List[Tuple[str, int]] = []
        #: monotone dispatch-site counter (the fault plan's site axis)
        self._dispatch_sites = 0
        #: completions recorded (shard + whole-job) — the interrupt axis
        self._completions = 0
        self._seq = self.ledger.next_seq()
        self._draining = False
        self._shutdown = False
        self._selector = selectors.DefaultSelector()
        self._listener: Optional[socket.socket] = None
        self._lock_file = None  # held (flock) for the daemon's lifetime
        self._started_at = time.time()
        self._resume_ledger()

    # ------------------------------------------------------------------
    # Startup / resume
    # ------------------------------------------------------------------
    def _resume_ledger(self) -> None:
        """Replay the ledger: terminal jobs become queryable history,
        submitted-but-unfinished jobs go back on the queue in
        submission order."""
        if self.ledger.quarantined_records:
            self.echo(f"[serve] warning: {self.ledger.quarantined_records} "
                      f"corrupt ledger record(s) quarantined; affected "
                      f"jobs will re-run")
        resumed = 0
        for _seq, job_id, entry in self.ledger.jobs():
            record = _JobRecord(job_id=job_id, kind=entry["kind"],
                                params=entry["params"], seq=entry["seq"])
            done = self.ledger.completion(job_id)
            if done is not None:
                record.state = done["state"]
                record.result = done["result"]
                record.artifact = done.get("artifact")
                record.sha256 = done.get("sha256")
            else:
                record.state = "queued"
                self.queue.requeue(job_id)  # front; reversed below
                resumed += 1
            self._jobs[job_id] = record
        # requeue() prepends, so flip back to submission order.
        self.queue._items.reverse()
        if resumed:
            self.echo(f"[serve] resumed {resumed} in-flight job(s) "
                      f"from the ledger")

    def _forked_socket_closers(self) -> List[socket.socket]:
        """Every daemon-side handle a forked worker must close: the
        listener (else a killed daemon's orphans keep the socket path
        accepting doomed connections), any client connection open at
        fork time, and the state-dir lock file (else those orphans keep
        the flock held and a restarted daemon cannot acquire it)."""
        closers = [key.fileobj for key in self._selector.get_map().values()]
        if self._lock_file is not None:
            closers.append(self._lock_file)
        return closers

    def _acquire_lock(self) -> None:
        """Take the state directory's exclusive daemon lock.

        The flock is the single-writer guarantee: whatever the socket
        probe concludes, two daemons can never share one state dir,
        ledger, and job store.  Held until :meth:`_teardown`; the file
        itself is left behind (unlinking would race a successor opening
        the same path)."""
        lock_path = os.path.join(self.config.state_dir, "serve.lock")
        # "a", not "w": a losing contender must not truncate the
        # holder's pid note before the flock decides.
        lock_file = open(lock_path, "a", encoding="utf-8")
        try:
            fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            lock_file.close()
            raise ServiceError(f"another daemon already owns "
                               f"{self.config.state_dir} "
                               f"(lock held on {lock_path})")
        lock_file.truncate(0)
        lock_file.write(f"{os.getpid()}\n")
        lock_file.flush()
        self._lock_file = lock_file

    def _release_lock(self) -> None:
        if self._lock_file is not None:
            try:
                self._lock_file.close()  # closing releases the flock
            except OSError:
                pass
            self._lock_file = None

    def _bind(self) -> None:
        self._acquire_lock()
        path = self.config.resolved_socket()
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(path)
            except (ConnectionRefusedError, FileNotFoundError):
                os.unlink(path)  # stale socket from a killed daemon
            except OSError as exc:
                # Anything else (backlog pressure, EPERM, ...) may be a
                # live daemon: never unlink a socket we can't prove dead.
                self._release_lock()
                raise ServiceError(f"cannot probe existing socket "
                                   f"{path}: {exc}")
            else:
                self._release_lock()
                raise ServiceError(f"another daemon is already serving "
                                   f"on {path}")
            finally:
                probe.close()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(16)
        listener.setblocking(False)
        self._listener = listener
        self._selector.register(listener, selectors.EVENT_READ,
                                ("accept", None))

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(self) -> int:
        self._bind()
        self.fleet.start()
        signal.signal(signal.SIGTERM, self._on_sigterm)
        signal.signal(signal.SIGINT, self._on_sigterm)
        self.echo(f"[serve] pid {os.getpid()} listening on "
                  f"{self.config.resolved_socket()} "
                  f"({self.config.workers} worker(s))")
        try:
            while not self._shutdown:
                for key, mask in self._selector.select(timeout=0.05):
                    what, state = key.data
                    if what == "accept":
                        self._accept()
                    elif mask & selectors.EVENT_WRITE:
                        self._flush_client(key.fileobj, state)
                    else:
                        self._service_client(key.fileobj, state)
                self._tick()
        finally:
            self._teardown()
        return 0

    def _on_sigterm(self, _signum, _frame) -> None:
        # Idempotent: a second signal forces exit.
        if self._draining:
            self._shutdown = True
        self._draining = True

    def _tick(self) -> None:
        """One scheduling beat: fold fleet events, dispatch, drain."""
        self._reap_stalled_clients()
        for event in self.fleet.poll():
            if event[0] == "done":
                _, dispatch_id, state, summary, artifact, name = event
                address = split_shard_id(dispatch_id)
                if address is not None and address[0] in self._sharded:
                    self._finish_shard(address[0], address[1], state,
                                       summary, artifact)
                else:
                    self._finish_job(dispatch_id, state, summary,
                                     artifact, name)
            elif event[0] == "crashed":
                _, dispatch_id, kind, params, reason = event
                address = split_shard_id(dispatch_id)
                if address is not None and address[0] in self._sharded:
                    self._retry_shard(address[0], address[1], reason)
                else:
                    self._retry_or_fail(dispatch_id, reason)
        # Shards first, and regardless of draining: a graceful drain
        # finishes running jobs, and a half-merged sharded job is a
        # running job.
        while self._shard_queue:
            parent_id, index = self._shard_queue[0]
            sharded = self._sharded.get(parent_id)
            if sharded is None:
                self._shard_queue.pop(0)
                continue
            fault = self._fault_directive(index)
            if not self.fleet.dispatch(shard_id(parent_id, index),
                                       sharded.kind,
                                       sharded.shard_params(index),
                                       fault=fault):
                break
            self._shard_queue.pop(0)
            sharded.attempts[index] += 1
            self._note_dispatch(shard_id(parent_id, index), fault)
        while self.queue and not self._draining:
            job_id = self.queue.snapshot()[0]
            record = self._jobs.get(job_id)
            if record is None:
                self.queue.take()
                continue
            shards = normalize_shards(record.params) \
                if record.kind in SHARDABLE_KINDS else 1
            if shards > 1:
                self.queue.take()
                self._expand_shards(record, shards)
                continue
            fault = self._fault_directive()
            if not self.fleet.dispatch(job_id, record.kind, record.params,
                                       fault=fault):
                break
            self.queue.take()
            record.state = "running"
            record.attempts += 1
            self._note_dispatch(job_id, fault)
        if self._draining and not self.fleet.busy_jobs() \
                and not self._shard_queue:
            self._shutdown = True

    # ------------------------------------------------------------------
    # Sharded jobs
    # ------------------------------------------------------------------
    def _expand_shards(self, record: _JobRecord, count: int) -> None:
        """Turn one queued sharded job into ``count`` fleet dispatches.
        Shard results already in the ledger (a restart mid-job) are
        credited immediately — only the missing stripes re-run."""
        sharded = ShardedJob(record.job_id, record.kind, record.params,
                             count)
        replayed = 0
        for index, payload in self.ledger.shard_payloads(
                record.job_id).items():
            if 0 <= index < count:
                sharded.record(index, payload)
                replayed += 1
        self._sharded[record.job_id] = sharded
        record.state = "running"
        record.attempts += 1
        if replayed:
            self.echo(f"[serve] {record.job_id}: replayed {replayed} "
                      f"shard result(s) from the ledger")
        pending = sharded.pending()
        if not pending:
            self._merge_shards(record.job_id)
            return
        self._shard_queue.extend((record.job_id, index)
                                 for index in pending)

    def _finish_shard(self, parent_id: str, index: int, state: str,
                      summary: Dict, artifact: Optional[bytes]) -> None:
        sharded = self._sharded.get(parent_id)
        if sharded is None or index in sharded.payloads:
            return
        if state == "failed":
            # A deterministic in-job exception recurs on every retry:
            # fail the whole job, like an unsharded run would.
            self._fail_sharded(parent_id,
                               f"shard {index} failed: "
                               f"{summary.get('error', 'job error')}")
            return
        if artifact is None:
            # Deadline expiry: first-class unknown, no retry (policy
            # mirrors unsharded jobs) — the stripe degrades to UNKNOWN.
            sharded.record_lost(index)
            self.echo(f"[serve] {shard_id(parent_id, index)}: "
                      f"{summary.get('error', 'no result')}; stripe "
                      f"degrades to UNKNOWN")
            if sharded.finished():
                self._merge_shards(parent_id)
            return
        try:
            payload = json.loads(artifact.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("shard payload must be an object")
        except (ValueError, UnicodeDecodeError):
            self._retry_shard(parent_id, index,
                              "undecodable shard payload")
            return
        sharded.record(index, payload)
        # Durability before merge/reply: a daemon killed right here
        # replays this shard from the ledger instead of re-running it.
        self.ledger.record_shard(parent_id, index, payload)
        self._note_completion(shard_id(parent_id, index))
        if sharded.finished():
            self._merge_shards(parent_id)

    def _retry_shard(self, parent_id: str, index: int,
                     reason: str) -> None:
        sharded = self._sharded.get(parent_id)
        if sharded is None or index in sharded.payloads:
            return
        if sharded.attempts[index] < self.config.max_attempts:
            self.echo(f"[serve] {shard_id(parent_id, index)} attempt "
                      f"{sharded.attempts[index]} lost ({reason}); "
                      f"re-queueing")
            self._shard_queue.insert(0, (parent_id, index))
            return
        sharded.record_lost(index)
        self.echo(f"[serve] {shard_id(parent_id, index)} lost after "
                  f"{sharded.attempts[index]} attempt(s) ({reason}); "
                  f"stripe degrades to UNKNOWN")
        if sharded.finished():
            self._merge_shards(parent_id)

    def _merge_shards(self, parent_id: str) -> None:
        sharded = self._sharded.pop(parent_id, None)
        if sharded is None:
            return
        try:
            state, summary, artifact, name = sharded.merge()
        except Exception as exc:  # noqa: BLE001 - merge isolation
            summary = {"error": f"shard merge failed: "
                       f"{type(exc).__name__}: {exc}"}
            record = self._jobs.get(parent_id)
            self.ledger.record_done(parent_id, "failed", summary)
            if record is not None:
                record.state = "failed"
                record.result = summary
            self.echo(f"[serve] {parent_id} failed: {summary['error']}")
            return
        if summary.get("partial"):
            self.echo(f"[serve] {parent_id}: partial report — shard(s) "
                      f"{summary['unknown_shards']} degraded to UNKNOWN")
        self._finish_job(parent_id, state, summary, artifact, name)

    def _fail_sharded(self, parent_id: str, reason: str) -> None:
        self._sharded.pop(parent_id, None)
        self._shard_queue = [(parent, index)
                             for parent, index in self._shard_queue
                             if parent != parent_id]
        record = self._jobs.get(parent_id)
        summary = {"error": reason}
        self.ledger.record_done(parent_id, "failed", summary)
        if record is not None:
            record.state = "failed"
            record.result = summary
        self.echo(f"[serve] {parent_id} failed permanently: {reason}")

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _fault_directive(self, shard: Optional[int] = None):
        """The fault the plan puts on the next dispatch, as the worker
        reads it from the job frame: ``(kind,)`` or, for a hang or a
        straggler, ``(kind, seconds)``.  An interrupt stops the daemon
        at a completion (:meth:`_note_completion`), never a worker."""
        plan = self._faults
        kind = plan.fault_for(self._dispatch_sites, shard=shard) \
            if plan else None
        if kind is None or kind == INTERRUPT:
            return None
        if kind == HANG:
            return (kind, plan.hang_seconds)
        if kind == SLOW:
            return (kind, plan.slow_seconds)
        return (kind,)

    def _chaos_log(self, event: Dict) -> None:
        """Append one event to the replayable fault journal,
        ``chaos.jsonl`` (CI uploads it next to the partial reports)."""
        if self._faults is None:
            return
        line = json.dumps({"t": round(time.time(), 3), **event},
                          sort_keys=True)
        try:
            with open(self._chaos_path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError:
            pass  # the journal is diagnostics, never load-bearing

    def _note_dispatch(self, dispatch_id: str, fault) -> None:
        site = self._dispatch_sites
        self._dispatch_sites += 1
        if fault is not None:
            self.echo(f"[serve] fault: {fault[0]} injected into "
                      f"{dispatch_id} (site {site})")
            self._chaos_log({"event": "fault", "site": site,
                             "dispatch": dispatch_id,
                             "fault": list(fault)})

    def _note_completion(self, dispatch_id: str) -> None:
        """Count one recorded completion and honor a scheduled daemon
        ``kill -9`` — after the ledger append, before any merge or
        client reply, which is exactly the window the ledger-replay
        tests exercise."""
        ordinal = self._completions
        self._completions += 1
        if self._faults is not None and \
                self._faults.fires(INTERRUPT, ordinal):
            self._chaos_log({"event": "daemon-kill", "ordinal": ordinal,
                             "after": dispatch_id})
            self.echo(f"[serve] fault: daemon kill -9 after completion "
                      f"{ordinal} ({dispatch_id})")
            os._exit(137)

    def _finish_job(self, job_id: str, state: str, summary: Dict,
                    artifact: Optional[bytes],
                    name: Optional[str]) -> None:
        record = self._jobs.get(job_id)
        if record is None:
            return
        artifact_path = sha = None
        if artifact is not None and name is not None:
            artifact_path = self._write_artifact(job_id, name, artifact)
            sha = hashlib.sha256(artifact).hexdigest()
        self.ledger.record_done(job_id, state, summary,
                                artifact=artifact_path, sha256=sha)
        record.state = state
        record.result = summary
        record.artifact = artifact_path
        record.sha256 = sha
        self.echo(f"[serve] {job_id} {record.kind}: {state}")
        self._note_completion(job_id)

    def _retry_or_fail(self, job_id: str, reason: str) -> None:
        record = self._jobs.get(job_id)
        if record is None:
            return
        if record.attempts < self.config.max_attempts:
            self.echo(f"[serve] {job_id} attempt {record.attempts} "
                      f"lost ({reason}); re-queueing")
            record.state = "queued"
            self.queue.requeue(job_id)
            return
        summary = {"error": f"{reason} ({record.attempts} attempt(s))"}
        self.ledger.record_done(job_id, "failed", summary)
        record.state = "failed"
        record.result = summary
        self.echo(f"[serve] {job_id} failed permanently: {reason}")

    def _write_artifact(self, job_id: str, name: str,
                        payload: bytes) -> str:
        """Atomic artifact write (same discipline as the store)."""
        job_dir = os.path.join(self.jobs_dir, job_id)
        os.makedirs(job_dir, exist_ok=True)
        final = os.path.join(job_dir, os.path.basename(name))
        fd, tmp = tempfile.mkstemp(dir=job_dir, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, final)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return final

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        try:
            conn, _addr = self._listener.accept()
        except OSError:
            return
        conn.setblocking(False)
        self._selector.register(conn, selectors.EVENT_READ,
                                ("client", _ClientConn()))

    def _service_client(self, conn: socket.socket,
                        state: _ClientConn) -> None:
        try:
            chunk = conn.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop_client(conn)
            return
        if not chunk:
            self._drop_client(conn)
            return
        state.rxbuf.extend(chunk)
        if len(state.rxbuf) > _MAX_REQUEST_BYTES:
            self._respond(conn, state,
                          {"ok": False, "error": "request too large"})
            return
        if b"\n" not in state.rxbuf:
            return
        line = bytes(state.rxbuf[:state.rxbuf.index(b"\n")])
        try:
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("request must be an object")
        except (ValueError, UnicodeDecodeError) as exc:
            self._respond(conn, state, {"ok": False,
                                        "error": f"bad request: {exc}"})
            return
        self._respond(conn, state, self._handle(request))

    def _drop_client(self, conn: socket.socket) -> None:
        try:
            self._selector.unregister(conn)
        except KeyError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    def _respond(self, conn: socket.socket, state: _ClientConn,
                 response: Dict) -> None:
        """Queue the reply and switch the connection to
        write-readiness; the event loop drains it without blocking
        (a wedged client costs nothing but its own connection)."""
        state.txbuf.extend((json.dumps(response) + "\n").encode("utf-8"))
        state.send_deadline = time.time() + _SEND_TIMEOUT_SECONDS
        try:
            self._selector.modify(conn, selectors.EVENT_WRITE,
                                  ("client", state))
        except (KeyError, ValueError, OSError):
            self._drop_client(conn)
            return
        self._flush_client(conn, state)

    def _flush_client(self, conn: socket.socket,
                      state: _ClientConn) -> None:
        try:
            while state.txbuf:
                sent = conn.send(state.txbuf)
                del state.txbuf[:sent]
        except (BlockingIOError, InterruptedError):
            return  # socket full: wait for the next EVENT_WRITE
        except OSError:
            pass
        self._drop_client(conn)  # reply fully sent (or client dead)

    def _reap_stalled_clients(self) -> None:
        """Drop connections whose queued reply has not drained within
        the send window (the client stopped reading)."""
        now = time.time()
        stalled = [
            key.fileobj
            for key in list(self._selector.get_map().values())
            if key.data[0] == "client" and key.data[1].txbuf
            and now > key.data[1].send_deadline
        ]
        for conn in stalled:
            self._drop_client(conn)

    # ------------------------------------------------------------------
    def _handle(self, request: Dict) -> Dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid(),
                    "uptime_seconds": round(time.time() - self._started_at,
                                            3)}
        if op == "submit":
            return self._handle_submit(request)
        if op == "status":
            return self._handle_status(request)
        if op == "result":
            return self._handle_result(request)
        if op == "kill-worker":
            pid = self.fleet.kill_one_worker()
            return {"ok": pid is not None, "pid": pid}
        if op == "shutdown":
            self._draining = True
            return {"ok": True, "draining": True,
                    "running": len(self.fleet.busy_jobs())}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _handle_submit(self, request: Dict) -> Dict:
        if self._draining:
            return {"ok": False, "error": "draining",
                    "retryable": True}
        kind = request.get("kind")
        try:
            params = validate_params(kind, request.get("params"))
        except ServiceError as exc:
            return {"ok": False, "error": str(exc)}
        if len(self.queue) >= self.queue.max_depth:
            return {"ok": False, "error": "queue-full",
                    "retryable": True, "depth": len(self.queue)}
        job_id = f"job-{self._seq:06d}"
        seq = self._seq
        self._seq += 1
        # Durability before acknowledgement: the ledger commit must
        # land before the client hears "ok".
        self.ledger.record_submit(job_id, kind, params, seq)
        self._jobs[job_id] = _JobRecord(job_id=job_id, kind=kind,
                                        params=params, seq=seq)
        self.queue.offer(job_id)
        self.echo(f"[serve] {job_id} {kind}: queued")
        return {"ok": True, "job": job_id, "state": "queued"}

    def _job_view(self, record: _JobRecord) -> Dict:
        view = {"job": record.job_id, "kind": record.kind,
                "state": record.state, "attempts": record.attempts}
        sharded = self._sharded.get(record.job_id)
        if sharded is not None:
            view["shards"] = {"count": sharded.count,
                             "delivered": len(sharded.payloads),
                             "lost": sorted(sharded.lost)}
        if record.state not in ACTIVE_STATES:
            view["result"] = record.result
            if record.artifact:
                view["artifact"] = record.artifact
                view["sha256"] = record.sha256
        return view

    def _handle_status(self, request: Dict) -> Dict:
        job_id = request.get("job")
        if job_id is not None:
            record = self._jobs.get(job_id)
            if record is None:
                return {"ok": False, "error": f"unknown job {job_id!r}"}
            return {"ok": True, **self._job_view(record)}
        with ArtifactStore(self.store_root) as store:
            store_stats = store.stats()
        states: Dict[str, int] = {}
        for record in self._jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        return {
            "ok": True,
            "pid": os.getpid(),
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "draining": self._draining,
            "queue": {"depth": len(self.queue),
                      "max_depth": self.queue.max_depth,
                      "jobs": self.queue.snapshot()},
            "jobs": states,
            "fleet": self.fleet.status(),
            "ledger": {
                "path": self.ledger.path,
                "quarantined_records": self.ledger.quarantined_records,
            },
            "store": store_stats,
            "shards": {
                "active": len(self._sharded),
                "queued": len(self._shard_queue),
                "dispatch_sites": self._dispatch_sites,
                "completions": self._completions,
            },
            "faults": (self._faults.spec
                       if self._faults is not None else None),
        }

    def _handle_result(self, request: Dict) -> Dict:
        job_id = request.get("job")
        record = self._jobs.get(job_id)
        if record is None:
            return {"ok": False, "error": f"unknown job {job_id!r}"}
        if record.state in ACTIVE_STATES:
            return {"ok": True, "job": job_id, "state": record.state,
                    "pending": True}
        return {"ok": True, **self._job_view(record)}

    # ------------------------------------------------------------------
    def _teardown(self) -> None:
        self.fleet.stop()
        if self._listener is not None:
            try:
                self._selector.unregister(self._listener)
            except KeyError:
                pass
            self._listener.close()
        for key in list(self._selector.get_map().values()):
            try:
                key.fileobj.close()
            except OSError:
                pass
        self._selector.close()
        path = self.config.resolved_socket()
        if os.path.exists(path):
            try:
                os.unlink(path)
            except OSError:
                pass
        self.ledger.close()
        self._release_lock()
        self.echo(f"[serve] stopped; {len(self.queue)} job(s) left "
                  f"queued in the ledger")
