"""The daemon's warm worker fleet.

Each worker is a long-lived process holding a
:class:`~repro.service.jobs.WorkerContext` — elaborated designs,
retained solvers, a store-backed verdict store — so consecutive jobs
skip the cold-start cost that dominates one-shot CLI runs.  The supervisor
(:class:`WorkerFleet`) keeps that warmth *safe*:

* **heartbeats** — a worker thread pings the supervisor every
  ``heartbeat_interval`` seconds; a busy worker silent for
  ``hang_timeout`` seconds is declared hung, killed (SIGKILL), and
  replaced.  The job it held is reported ``crashed`` so the daemon can
  re-dispatch it (execution is deterministic, so a retry converges on
  the same bytes);
* **crash detection** — a dead process or torn pipe is the same story
  without the wait;
* **deadlines** — a job running past ``job_deadline`` seconds is
  killed and reported as a first-class ``unknown`` (not retried: a
  deterministic job that hit its deadline once will hit it again);
* **recycling** — after ``recycle_after`` jobs a worker is retired at
  the next idle moment, bounding leak accumulation;
* **backoff** — respawns are delayed by the shared deterministic
  :class:`~repro.resilience.BackoffSchedule`, so a crash-looping
  worker (e.g. the store disk is gone) cannot hot-spin the daemon.

Transport is a raw ``socketpair`` with explicit length-prefixed pickle
frames rather than :func:`multiprocessing.Pipe`.  The distinction is
load-bearing: ``Connection.poll() → recv()`` blocks forever on a frame
torn by ``kill -9`` mid-send when any orphaned grandchild (solver pool
workers) still holds the write end open.  With our own framing the
supervisor's reads are non-blocking — a torn frame just sits in the
buffer until the hang detector reaps the worker.

The fleet never sleeps: :meth:`poll` is called from the daemon's event
loop and *schedules* respawns by timestamp instead of blocking.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import multiprocessing as mp

from ..resilience import BackoffSchedule
from .jobs import WorkerContext, execute_job

_HEADER = struct.Struct("!I")


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, message) -> None:
    """One length-prefixed pickle frame (blocking until written)."""
    payload = pickle.dumps(message)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket):
    """Blocking read of one frame (worker side).  Returns None on EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    body = _recv_exact(sock, _HEADER.unpack(header)[0])
    if body is None:
        return None
    return pickle.loads(body)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def parse_frames(buffer: bytearray, messages: Optional[List] = None) -> List:
    """Pop every complete frame off ``buffer`` (supervisor side);
    an incomplete tail is left in place for the next read.

    Pass ``messages`` to keep the frames parsed before a garbled one:
    each frame is appended as it is decoded, so when a decode raises
    the caller still holds the good prefix.
    """
    if messages is None:
        messages = []
    while len(buffer) >= _HEADER.size:
        length = _HEADER.unpack(bytes(buffer[:_HEADER.size]))[0]
        end = _HEADER.size + length
        if len(buffer) < end:
            break
        payload = bytes(buffer[_HEADER.size:end])
        del buffer[:end]
        messages.append(pickle.loads(payload))
    return messages


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(sock: socket.socket, inherited: List[socket.socket],
                 store_root: str, heartbeat_interval: float,
                 store_byte_budget: Optional[int] = None) -> None:
    """Worker entry point: execute jobs off the socket until told to
    stop.  The heartbeat runs on its own thread so a long solver call
    still pings the supervisor; sends share a lock because interleaved
    ``sendall`` would tear frames.

    ``inherited`` is every daemon-side socket the fork copied into this
    process — our own pipe's supervisor end, sibling workers' pipes,
    and the daemon's listener.  Closing them immediately is what makes
    ``kill -9`` observable: with a stale copy of our pipe's far end
    alive in here, a dead daemon would never read as EOF, and a stale
    listener copy would keep the socket path accepting connections no
    daemon will ever answer."""
    for stale in inherited:
        try:
            stale.close()
        except OSError:
            pass
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    ctx = WorkerContext(store_root, store_byte_budget=store_byte_budget)
    stop = threading.Event()
    stalled = threading.Event()  # chaos: heartbeats pause while set
    send_lock = threading.Lock()

    def _send(message) -> None:
        with send_lock:
            send_frame(sock, message)

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            if stalled.is_set():
                continue
            try:
                _send(("hb", time.time()))
            except OSError:
                return

    beat = threading.Thread(target=_beat, daemon=True)
    beat.start()
    try:
        while True:
            try:
                message = recv_frame(sock)
            except (OSError, pickle.UnpicklingError):
                break
            if message is None or message[0] == "stop":
                break
            job_id, kind, params = message[1], message[2], message[3]
            fault = message[4] if len(message) > 4 else None
            if fault is not None:
                # Chaos directives ride inside the job frame so the
                # injected failure lands exactly at a frame boundary —
                # the job is dispatched (the supervisor holds it as
                # busy) but no result frame will arrive intact.
                if fault[0] == "kill":
                    # SIGKILL-equivalent: no cleanup, no result frame.
                    os._exit(137)
                if fault[0] == "torn":
                    # A length header promising more bytes than will
                    # ever come, then death: the supervisor must hold
                    # the torn tail and reap us, not block or crash.
                    with send_lock:
                        try:
                            sock.sendall(_HEADER.pack(1 << 20)
                                         + b"\x80\x04 torn frame")
                        except OSError:
                            pass
                    os._exit(137)
                if fault[0] == "stall":
                    # Heartbeats stop; the hang detector decides.  If
                    # the stall outlives hang_timeout we are reaped
                    # mid-sleep; otherwise the job proceeds normally.
                    stalled.set()
                    time.sleep(fault[1])
                    stalled.clear()
                elif fault[0] == "slow":
                    # Straggler: heartbeats keep flowing, the result
                    # is just late.  Shard merging must wait, not drop.
                    time.sleep(fault[1])
            try:
                summary, artifact, name = execute_job(kind, params, ctx)
            except Exception as exc:  # noqa: BLE001 - job isolation
                try:
                    _send(("done", job_id, "failed",
                           {"error": f"{type(exc).__name__}: {exc}"},
                           None, None))
                except OSError:
                    break
                continue
            # Budget exhaustion degrades inside the engines to
            # undecided verdicts; surface that as a first-class
            # ``unknown`` job rather than a hollow success.
            state = "unknown" if summary.get("undecided", 0) else "done"
            try:
                _send(("done", job_id, state, summary, artifact, name))
            except OSError:
                break
    finally:
        stop.set()
        ctx.close()
        try:
            sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
@dataclass
class FleetStats:
    """Lifetime counters for the fleet (reported by ``repro status``)."""

    spawned: int = 0
    jobs_completed: int = 0
    crashes: int = 0
    hangs: int = 0
    deadline_kills: int = 0
    recycles: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "spawned": self.spawned,
            "jobs_completed": self.jobs_completed,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "deadline_kills": self.deadline_kills,
            "recycles": self.recycles,
        }


@dataclass
class _WorkerSlot:
    """Supervisor-side record of one worker seat."""

    index: int
    process: Optional[mp.process.BaseProcess] = None
    sock: Optional[socket.socket] = None
    rxbuf: bytearray = None
    txbuf: bytearray = None
    tx_since: float = 0.0  # when txbuf last went empty -> non-empty
    busy_job: Optional[Tuple[str, str, Dict]] = None  # (id, kind, params)
    started_at: float = 0.0
    last_seen: float = 0.0
    jobs_done: int = 0
    respawn_at: float = 0.0
    respawn_attempt: int = 0
    retiring: bool = False

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


#: fleet events yielded by :meth:`WorkerFleet.poll` — ``("done", job_id,
#: state, summary, artifact_bytes, artifact_name)`` or ``("crashed",
#: job_id, kind, params, reason)``
FleetEvent = Tuple


class WorkerFleet:
    """Supervise ``workers`` warm job executors."""

    def __init__(self, store_root: str, workers: int = 1,
                 heartbeat_interval: float = 0.25,
                 hang_timeout: float = 60.0,
                 job_deadline: Optional[float] = None,
                 recycle_after: int = 0,
                 backoff: Optional[BackoffSchedule] = None,
                 extra_child_closers=None,
                 store_byte_budget: Optional[int] = None):
        #: callable returning extra sockets a forked worker must close
        #: (the daemon registers its listener + live client conns here)
        self.extra_child_closers = extra_child_closers
        self.store_root = store_root
        #: chaos ENOSPC shim: workers' stores refuse writes past this
        self.store_byte_budget = store_byte_budget
        self.heartbeat_interval = heartbeat_interval
        self.hang_timeout = hang_timeout
        self.job_deadline = job_deadline
        self.recycle_after = recycle_after
        self.backoff = backoff or BackoffSchedule()
        self._mp = mp.get_context("fork")
        self.stats = FleetStats()
        self._slots: List[_WorkerSlot] = [
            _WorkerSlot(index=i) for i in range(max(1, workers))]

    # ------------------------------------------------------------------
    def start(self) -> None:
        for slot in self._slots:
            self._spawn(slot)

    def _spawn(self, slot: _WorkerSlot) -> None:
        parent_sock, child_sock = socket.socketpair()
        inherited = [parent_sock]
        inherited.extend(s.sock for s in self._slots if s.sock is not None)
        if self.extra_child_closers is not None:
            inherited.extend(self.extra_child_closers())
        process = self._mp.Process(
            target=_worker_main,
            args=(child_sock, inherited, self.store_root,
                  self.heartbeat_interval, self.store_byte_budget),
            daemon=True)
        process.start()
        child_sock.close()
        parent_sock.setblocking(False)
        slot.process = process
        slot.sock = parent_sock
        slot.rxbuf = bytearray()
        slot.txbuf = bytearray()
        slot.busy_job = None
        slot.last_seen = time.time()
        slot.jobs_done = 0
        slot.retiring = False
        self.stats.spawned += 1

    def _kill(self, slot: _WorkerSlot) -> None:
        if slot.process is not None:
            if slot.process.is_alive():
                slot.process.kill()
            slot.process.join(timeout=5.0)
            slot.process = None
        if slot.sock is not None:
            try:
                slot.sock.close()
            except OSError:
                pass
            slot.sock = None
        slot.rxbuf = bytearray()
        slot.txbuf = bytearray()
        slot.busy_job = None

    def _schedule_respawn(self, slot: _WorkerSlot, now: float) -> None:
        """Kill the seat's process and book its replacement after the
        deterministic backoff delay."""
        self._kill(slot)
        slot.respawn_attempt += 1
        slot.respawn_at = now + self.backoff.delay(slot.respawn_attempt,
                                                   salt=slot.index)

    def _send(self, slot: _WorkerSlot, message) -> bool:
        """Queue one frame for the worker and push what fits *without
        blocking* — the daemon's event loop must never stall on a
        wedged worker.  The remainder drains from :meth:`poll`; a
        worker that stops reading for ``hang_timeout`` is reaped by
        the stalled-send check in :meth:`_poll_slot`.  Returns False
        only when the seat's socket is dead."""
        if slot.sock is None:
            return False
        payload = pickle.dumps(message)
        if not slot.txbuf:
            slot.tx_since = time.time()
        slot.txbuf.extend(_HEADER.pack(len(payload)) + payload)
        return self._flush(slot)

    def _flush(self, slot: _WorkerSlot) -> bool:
        """Non-blocking push of queued bytes; False on a dead socket."""
        while slot.txbuf:
            try:
                sent = slot.sock.send(slot.txbuf)
            except (BlockingIOError, InterruptedError):
                return True  # socket buffer full: retry next poll
            except OSError:
                return False
            del slot.txbuf[:sent]
        return True

    # ------------------------------------------------------------------
    def idle_slots(self) -> int:
        return sum(1 for slot in self._slots
                   if slot.alive and slot.busy_job is None
                   and not slot.retiring)

    def busy_jobs(self) -> List[str]:
        return [slot.busy_job[0] for slot in self._slots
                if slot.busy_job is not None]

    def dispatch(self, job_id: str, kind: str, params: Dict,
                 fault=None) -> bool:
        """Hand one job to an idle live worker; False when none free.
        ``fault`` is an optional chaos directive shipped in the job
        frame (see :mod:`repro.service.chaos`)."""
        for slot in self._slots:
            if slot.alive and slot.busy_job is None and not slot.retiring:
                if not self._send(slot, ("job", job_id, kind, params,
                                         fault)):
                    continue  # found dead at dispatch: poll() reaps it
                slot.busy_job = (job_id, kind, params)
                slot.started_at = time.time()
                slot.last_seen = slot.started_at
                return True
        return False

    def kill_one_worker(self) -> Optional[int]:
        """Fault-injection hook (tests / serve-smoke): SIGKILL one
        worker, preferring one that is mid-job.  Returns its pid."""
        busy = [s for s in self._slots if s.alive and s.busy_job]
        targets = busy or [s for s in self._slots if s.alive]
        if not targets:
            return None
        pid = targets[0].process.pid
        targets[0].process.kill()
        return pid

    # ------------------------------------------------------------------
    def poll(self, now: Optional[float] = None) -> List[FleetEvent]:
        """Drain worker sockets, enforce liveness, respawn dead seats.

        Returns the batch of job events for the daemon to record.
        Never blocks.
        """
        now = now if now is not None else time.time()
        events: List[FleetEvent] = []
        for slot in self._slots:
            events.extend(self._poll_slot(slot, now))
        return events

    def _drain(self, slot: _WorkerSlot) -> Tuple[List, bool]:
        """Non-blocking read of everything the worker sent.  Returns
        ``(messages, torn)``.

        Complete frames already buffered are parsed and returned even
        when the stream then tears (EOF, reset, garbage): a worker
        that sends its ``done`` frame and exits in the same poll has
        *delivered* its result — discarding it would re-dispatch (or,
        on the last attempt, fail) a job that completed.
        """
        torn = False
        while True:
            try:
                chunk = slot.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                torn = True
                break
            if not chunk:
                torn = True  # EOF: worker gone
                break
            slot.rxbuf.extend(chunk)
        messages: List = []
        try:
            parse_frames(slot.rxbuf, messages)
        except (pickle.UnpicklingError, ValueError, EOFError):
            torn = True  # garbled tail; the good prefix stands
        return messages, torn

    def _poll_slot(self, slot: _WorkerSlot, now: float) -> List[FleetEvent]:
        events: List[FleetEvent] = []
        if slot.process is None:
            # Seat waiting on its backoff timer.
            if now >= slot.respawn_at:
                self._spawn(slot)
            return events

        sendable = self._flush(slot)  # drain any buffered outbound frames
        messages, torn = self._drain(slot)
        torn = torn or not sendable
        for message in messages:
            if message[0] == "hb":
                slot.last_seen = now
            elif message[0] == "done":
                _, job_id, state, summary, artifact, name = message
                slot.last_seen = now
                slot.jobs_done += 1
                self.stats.jobs_completed += 1
                if slot.busy_job and slot.busy_job[0] == job_id:
                    slot.busy_job = None
                slot.respawn_attempt = 0
                events.append(("done", job_id, state, summary,
                               artifact, name))

        # Liveness verdicts, in order of certainty.
        if torn or not slot.process.is_alive():
            if slot.busy_job is not None:
                job_id, kind, params = slot.busy_job
                self.stats.crashes += 1
                events.append(("crashed", job_id, kind, params,
                               "worker process died"))
            elif not slot.retiring:
                self.stats.crashes += 1
            self._schedule_respawn(slot, now)
            return events

        if slot.busy_job is not None:
            job_id, kind, params = slot.busy_job
            if self.job_deadline is not None and \
                    now - slot.started_at > self.job_deadline:
                # Deadline expiry is policy, not a fault: degrade to a
                # first-class unknown, no retry (a deterministic job
                # that timed out once will time out again).
                self.stats.deadline_kills += 1
                events.append(("done", job_id, "unknown",
                               {"error": "job deadline "
                                f"({self.job_deadline:.1f}s) exceeded"},
                               None, None))
                self._schedule_respawn(slot, now)
                return events
            if now - slot.last_seen > self.hang_timeout:
                self.stats.hangs += 1
                events.append(("crashed", job_id, kind, params,
                               "worker heartbeat stalled"))
                self._schedule_respawn(slot, now)
                return events

        # A worker that heartbeats but never reads its socket would
        # otherwise hold queued frames forever (the heartbeat thread
        # keeps last_seen fresh while the main loop is wedged).
        if slot.txbuf and now - slot.tx_since > self.hang_timeout:
            self.stats.hangs += 1
            if slot.busy_job is not None:
                job_id, kind, params = slot.busy_job
                events.append(("crashed", job_id, kind, params,
                               "worker stopped reading its socket"))
            self._schedule_respawn(slot, now)
            return events

        # Idle recycling: retire leak-prone workers between jobs only.
        if self.recycle_after and slot.busy_job is None and \
                slot.jobs_done >= self.recycle_after:
            self.stats.recycles += 1
            self._send(slot, ("stop",))
            self._kill(slot)
            slot.respawn_attempt = 0
            slot.respawn_at = now
        return events

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Graceful fleet shutdown: ask, then insist."""
        for slot in self._slots:
            if slot.sock is not None:
                self._send(slot, ("stop",))
        deadline = time.time() + 5.0
        for slot in self._slots:
            if slot.process is not None:
                slot.process.join(timeout=max(0.1, deadline - time.time()))
        for slot in self._slots:
            self._kill(slot)

    def status(self) -> Dict:
        return {
            "workers": [
                {
                    "index": slot.index,
                    "alive": slot.alive,
                    "pid": slot.process.pid if slot.process else None,
                    "busy": slot.busy_job[0] if slot.busy_job else None,
                    "jobs_done": slot.jobs_done,
                    "respawn_attempt": slot.respawn_attempt,
                }
                for slot in self._slots
            ],
            "stats": self.stats.as_dict(),
        }
