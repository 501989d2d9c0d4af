"""Unit tests for the serve layer: parameter validation, queue
backpressure, the crash-safe job ledger, and the fleet's framing."""

import os

import pytest

from repro.errors import ServiceError
from repro.service import JobLedger, JobQueue, validate_params
from repro.service.fleet import parse_frames, send_frame
from repro.service.jobs import JOB_KINDS


class TestValidateParams:
    def test_defaults_filled_in(self):
        params = validate_params("synth", {"design": "unicore"})
        assert params["design"] == "unicore"
        assert "engine" not in params  # one formal engine: nothing to pick
        assert params["bound"] is None

    def test_same_request_validates_identically(self):
        assert validate_params("check", {"tests": ["mp"]}) == \
            validate_params("check", {"tests": ["mp"]})

    def test_unknown_kind_refused(self):
        with pytest.raises(ServiceError, match="unknown job kind"):
            validate_params("frobnicate", {})

    def test_unknown_parameter_refused(self):
        with pytest.raises(ServiceError, match="unknown synth parameter"):
            validate_params("synth", {"depth": 3})

    def test_unknown_design_refused(self):
        with pytest.raises(ServiceError, match="unknown design"):
            validate_params("parse", {"design": "zen5"})

    def test_negative_bound_refused(self):
        with pytest.raises(ServiceError, match="non-negative integer"):
            validate_params("synth", {"bound": -1})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ServiceError):
            validate_params("synth", {"bound": True})

    def test_bad_timeout_refused(self):
        with pytest.raises(ServiceError, match="timeout"):
            validate_params("check", {"timeout": -2.0})

    def test_bad_tests_refused(self):
        with pytest.raises(ServiceError, match="list"):
            validate_params("check", {"tests": "mp,sb"})

    def test_bad_engine_refused(self):
        # No Check job picks a decider: `engine` is an unknown parameter.
        for kind in ("check", "sweep", "bench"):
            with pytest.raises(ServiceError,
                               match=rf"unknown {kind} parameter\(s\): "
                                     rf"engine"):
                validate_params(kind, {"engine": "fresh"})

    def test_every_kind_validates_empty_params(self):
        for kind in JOB_KINDS:
            assert isinstance(validate_params(kind, None), dict)


class TestJobQueue:
    def test_fifo_order(self):
        queue = JobQueue(max_depth=4)
        for job in ("a", "b", "c"):
            assert queue.offer(job)
        assert [queue.take(), queue.take(), queue.take()] == ["a", "b", "c"]
        assert queue.take() is None

    def test_backpressure_refuses_past_depth(self):
        queue = JobQueue(max_depth=2)
        assert queue.offer("a") and queue.offer("b")
        assert not queue.offer("c")  # admission control, not buffering
        assert len(queue) == 2
        queue.take()
        assert queue.offer("c")  # capacity freed -> admitted again

    def test_requeue_goes_to_front_and_always_succeeds(self):
        queue = JobQueue(max_depth=2)
        queue.offer("a")
        queue.offer("b")
        queue.requeue("crashed")  # retries bypass admission control
        assert len(queue) == 3
        assert queue.take() == "crashed"


class TestJobLedger:
    def test_submit_then_done_round_trip(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        ledger = JobLedger(path)
        ledger.record_submit("job-000001", "check", {"tests": None}, 1)
        assert ledger.pending_jobs() == [
            ("job-000001", ledger.submission("job-000001"))]
        ledger.record_done("job-000001", "done", {"digest": "abc"},
                           artifact="/tmp/report.json", sha256="ff" * 32)
        assert ledger.pending_jobs() == []
        ledger.close()

    def test_restart_reenqueues_unfinished_in_submission_order(
            self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        ledger = JobLedger(path)
        ledger.record_submit("job-000001", "synth", {}, 1)
        ledger.record_submit("job-000002", "check", {}, 2)
        ledger.record_submit("job-000003", "check", {}, 3)
        ledger.record_done("job-000002", "done", {})
        ledger.close()

        replayed = JobLedger(path)  # the daemon-restart path
        pending = [job_id for job_id, _entry in replayed.pending_jobs()]
        assert pending == ["job-000001", "job-000003"]
        assert replayed.next_seq() == 4
        assert replayed.completion("job-000002")["state"] == "done"
        replayed.close()

    def test_torn_tail_quarantined_and_counted(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        ledger = JobLedger(path)
        ledger.record_submit("job-000001", "check", {}, 1)
        ledger.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn mid-append')  # kill -9 mid-write

        replayed = JobLedger(path)
        assert replayed.quarantined_records == 1
        assert replayed.quarantined and os.path.exists(replayed.quarantined)
        # The committed record survived the torn tail.
        assert [j for j, _ in replayed.pending_jobs()] == ["job-000001"]
        replayed.close()

    def test_invalid_terminal_state_not_replayed(self, tmp_path):
        """A done record with a made-up state must not replay as a
        completion — the job stays pending and is re-run."""
        path = str(tmp_path / "jobs.jsonl")
        ledger = JobLedger(path)
        ledger.record_submit("job-000001", "check", {}, 1)
        ledger.record_done("job-000001", "meandering", {})
        ledger.close()

        replayed = JobLedger(path)
        assert replayed.completion("job-000001") is None
        assert [j for j, _ in replayed.pending_jobs()] == ["job-000001"]
        replayed.close()


class TestFleetFraming:
    """The supervisor parses frames from a byte buffer without ever
    blocking — a torn frame stays buffered, never wedges the loop."""

    def test_round_trip(self):
        import socket

        a, b = socket.socketpair()
        send_frame(a, ("done", "job-1", "done", {"x": 1}, b"bytes", "f"))
        send_frame(a, ("hb", 123.0))
        buffer = bytearray(b.recv(65536))
        messages = parse_frames(buffer)
        assert messages[0][1] == "job-1"
        assert messages[1] == ("hb", 123.0)
        assert not buffer  # fully consumed
        a.close(); b.close()

    def test_partial_frame_stays_buffered(self):
        import pickle
        import struct

        payload = pickle.dumps(("hb", 1.0))
        wire = struct.pack("!I", len(payload)) + payload
        buffer = bytearray(wire[:len(wire) - 3])  # torn mid-send
        assert parse_frames(buffer) == []
        assert len(buffer) == len(wire) - 3  # untouched, not dropped
        buffer.extend(wire[len(wire) - 3:])
        assert parse_frames(buffer) == [("hb", 1.0)]


class TestFleetDrain:
    """A worker that delivers its ``done`` frame and dies in the same
    poll has *completed* — the result must survive the EOF, not be
    discarded and the job re-dispatched (or failed on the last
    attempt)."""

    def _slot_with_pipe(self, tmp_path):
        import socket

        from repro.service.fleet import WorkerFleet

        fleet = WorkerFleet(str(tmp_path / "store"), workers=1)
        slot = fleet._slots[0]
        far, near = socket.socketpair()
        near.setblocking(False)
        slot.sock = near
        slot.rxbuf = bytearray()
        slot.txbuf = bytearray()
        return fleet, slot, far

    def test_eof_still_yields_buffered_frames(self, tmp_path):
        fleet, slot, far = self._slot_with_pipe(tmp_path)
        send_frame(far, ("done", "job-1", "done", {"ok": True}, b"x", "f"))
        far.close()  # worker exits right after its last send
        messages, torn = fleet._drain(slot)
        assert torn
        assert [m[1] for m in messages if m[0] == "done"] == ["job-1"]
        slot.sock.close()

    def test_done_then_death_is_completion_not_a_crash(self, tmp_path):
        class _DeadProcess:
            pid = 0

            def is_alive(self):
                return False

            def kill(self):
                pass

            def join(self, timeout=None):
                pass

        fleet, slot, far = self._slot_with_pipe(tmp_path)
        slot.process = _DeadProcess()
        slot.busy_job = ("job-1", "check", {})
        send_frame(far, ("done", "job-1", "done", {"ok": True}, None, None))
        far.close()
        events = fleet._poll_slot(slot, 1000.0)
        kinds = [event[0] for event in events]
        assert "done" in kinds and "crashed" not in kinds
        assert fleet.stats.jobs_completed == 1


class TestDaemonSingleWriter:
    """Exactly one daemon may own a state directory (flock), and a
    socket path is only unlinked when provably stale."""

    @staticmethod
    def _quiet(*_args, **_kwargs):
        pass

    def test_second_daemon_refused_while_lock_held(self, tmp_path):
        from repro.service.daemon import Daemon, ServeConfig

        state = str(tmp_path / "state")
        first = Daemon(ServeConfig(state_dir=state), echo=self._quiet)
        first._bind()
        try:
            second = Daemon(ServeConfig(state_dir=state), echo=self._quiet)
            with pytest.raises(ServiceError, match="already owns"):
                second._bind()
            second.ledger.close()
        finally:
            first._teardown()

    def test_stale_socket_unlinked_and_rebound(self, tmp_path):
        import socket

        from repro.service.daemon import Daemon, ServeConfig

        state = tmp_path / "state"
        state.mkdir()
        sock_path = str(state / "serve.sock")
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(sock_path)
        stale.close()  # nothing listening; the path is left behind
        daemon = Daemon(ServeConfig(state_dir=str(state)), echo=self._quiet)
        daemon._bind()
        assert daemon._listener is not None
        daemon._teardown()

    def test_live_socket_refused_and_not_unlinked(self, tmp_path):
        from repro.service.daemon import Daemon, ServeConfig

        sock_path = str(tmp_path / "shared.sock")
        first = Daemon(ServeConfig(state_dir=str(tmp_path / "s1"),
                                   socket_path=sock_path), echo=self._quiet)
        first._bind()
        try:
            second = Daemon(ServeConfig(state_dir=str(tmp_path / "s2"),
                                        socket_path=sock_path),
                            echo=self._quiet)
            with pytest.raises(ServiceError, match="already serving"):
                second._bind()
            assert os.path.exists(sock_path)  # the live socket survives
            second.ledger.close()
        finally:
            first._teardown()


class TestGenerateJob:
    def test_defaults(self):
        params = validate_params("generate", None)
        assert params["spec"] == "threads=2,len=2"
        assert params["count"] == 1000
        assert params["tests"] is False

    def test_bad_spec_refused_at_validation(self):
        with pytest.raises(ServiceError, match="bad generate spec"):
            validate_params("generate", {"spec": "cores=4"})

    def test_tests_is_a_bool_here(self):
        params = validate_params("generate", {"tests": True})
        assert params["tests"] is True
        with pytest.raises(ServiceError, match="boolean"):
            validate_params("generate", {"tests": ["mp"]})

    def test_negative_count_refused(self):
        with pytest.raises(ServiceError, match="non-negative integer"):
            validate_params("generate", {"count": -1})

    def test_execution_produces_named_corpus(self, tmp_path):
        import json as _json

        from repro.litmus.generator import corpus_digest, iter_programs, \
            parse_spec
        from repro.service.jobs import WorkerContext, execute_job
        params = validate_params("generate",
                                 {"spec": "threads=2,len=2", "count": 10})
        ctx = WorkerContext(str(tmp_path / "store"))
        summary, artifact, name = execute_job("generate", params, ctx)
        assert name == "corpus.json"
        assert summary["count"] == 10
        payload = _json.loads(artifact.decode("utf-8"))
        assert payload["schema"] == "repro-litmus-generate/1"
        assert payload["names"] == summary["sample"]
        # The digest matches a direct library-side enumeration.
        import itertools as _it
        fps = [fp for fp, _ in _it.islice(
            iter_programs(parse_spec("threads=2,len=2")), 10)]
        assert payload["digest"] == corpus_digest(fps)


class TestSynthJob:
    def test_warm_job_reruns_no_refutation(self, tmp_path):
        """The warm worker's verdict store serves every verdict of a
        repeated synth job, refutations included: the job reads no
        counterexample trace, so nothing is re-checked for one."""
        from repro.service.jobs import WorkerContext, execute_job
        params = validate_params("synth", {
            "candidates": ["core_gen[0].core.inst_DX", "the_mem.mem"],
            "bound": 4})
        ctx = WorkerContext(str(tmp_path / "store"))
        cold, cold_model, _ = execute_job("synth", params, ctx)
        warm, warm_model, _ = execute_job("synth", params, ctx)
        ctx.close()
        assert cold["engine"]["checks"] > 0
        assert warm["engine"]["checks"] == cold["engine"]["checks"]
        assert warm["verdict_digest"] == cold["verdict_digest"]
        assert warm_model == cold_model


class TestClientWait:
    """`wait`/`wait_all` must key off the monotonic clock: an NTP step
    or DST change in `time.time` must neither expire a wait early nor
    extend it."""

    def _client(self, results):
        from repro.service.client import ServiceClient
        client = ServiceClient("/nonexistent.sock", timeout=1.0)
        feed = iter(results)
        client.result = lambda job: next(feed)
        return client

    def test_wait_survives_wall_clock_jump(self, monkeypatch):
        import time as time_mod
        # Wall clock leaps +1e6 s per call; a time.time()-based deadline
        # would "expire" instantly even though the job finishes.
        wall = {"now": 1.0e9}

        def jumping_time():
            wall["now"] += 1.0e6
            return wall["now"]

        monkeypatch.setattr(time_mod, "time", jumping_time)
        client = self._client([{"ok": True, "pending": True},
                               {"ok": True, "pending": True},
                               {"ok": True, "state": "done"}])
        response = client.wait("j1", timeout=30.0, poll_interval=0.001)
        assert response["state"] == "done"

    def test_wait_times_out_on_monotonic_budget(self):
        client = self._client(iter(
            lambda: {"ok": True, "pending": True}, None))
        client.result = lambda job: {"ok": True, "pending": True}
        with pytest.raises(ServiceError, match="timed out"):
            client.wait("j1", timeout=0.05, poll_interval=0.001)

    def test_wait_all_grants_no_floor_past_budget(self):
        # The old implementation floored each per-job wait at 1 s,
        # overshooting an exhausted batch budget by a second per job.
        from repro.service.client import ServiceClient
        client = ServiceClient("/nonexistent.sock")
        calls = []

        def fake_wait(job, timeout):
            calls.append((job, timeout))
            return {"ok": True}

        client.wait = fake_wait
        with pytest.raises(ServiceError, match="timed out"):
            client.wait_all(["a", "b"], timeout=0.0)
        assert calls == []  # budget already spent: no extra grants

    def test_wait_all_passes_remaining_budget(self):
        from repro.service.client import ServiceClient
        client = ServiceClient("/nonexistent.sock")
        timeouts = []

        def fake_wait(job, timeout):
            timeouts.append(timeout)
            return {"ok": True}

        client.wait = fake_wait
        results = client.wait_all(["a", "b", "c"], timeout=10.0)
        assert set(results) == {"a", "b", "c"}
        assert all(t <= 10.0 for t in timeouts)
        assert timeouts == sorted(timeouts, reverse=True)
