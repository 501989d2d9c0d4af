"""End-to-end tests of the ``repro serve`` daemon (PR 7 acceptance
criteria).

The guarantees pinned here, each against a real daemon subprocess:

* a check job's report digest and artifact bytes are identical to a
  one-shot in-process run of the same work (the service may change
  wall-clock time, never verdicts);
* ``kill -9`` of a worker mid-job re-dispatches the job and converges
  on the same result;
* ``kill -9`` of the daemon itself loses nothing: a restart replays
  the ledger, resumes queued jobs, and produces byte-identical
  artifacts while a polling client just sees a delay;
* the persistent store carries verdict reuse across worker process
  deaths (a recycled worker's synth is served from the store and
  checks nothing);
* a full queue refuses new submissions with a retryable
  ``queue-full`` instead of buffering unboundedly.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ServiceError
from repro.service import ServiceClient, default_socket_path

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")

#: small deterministic check-suite subset used for parity tests
TESTS = ["mp", "sb", "lb"]


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _spawn_daemon(state_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir),
         "--workers", "1", "--hang-timeout", "60", *extra],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
    client = ServiceClient(default_socket_path(str(state_dir)))
    deadline = time.time() + 60
    while True:
        try:
            client.ping()
            return proc, client
        except ServiceError:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited {proc.returncode} during startup")
            if time.time() > deadline:
                proc.kill()
                raise RuntimeError("daemon did not come up in 60s")
            time.sleep(0.1)


def _stop_daemon(proc, client):
    if proc.poll() is not None:
        return
    try:
        client.shutdown()
    except ServiceError:
        pass
    try:
        proc.wait(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _wait_for_state(client, job, state, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        view = client.status(job)
        if view["state"] == state:
            return view
        if view["state"] not in ("queued", "running"):
            raise AssertionError(
                f"{job} reached {view['state']!r} before {state!r}")
        time.sleep(0.02)
    raise AssertionError(f"{job} never reached {state!r}")


# ----------------------------------------------------------------------
# Oracles (one-shot, in-process — what the daemon must reproduce)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def check_oracle(tmp_path_factory):
    """(summary, artifact_bytes) of the TESTS check run one-shot."""
    from repro.service.jobs import (
        WorkerContext, execute_job, validate_params)
    ctx = WorkerContext(str(tmp_path_factory.mktemp("oracle-store")))
    params = validate_params("check", {"tests": TESTS})
    summary, artifact, name = execute_job("check", params, ctx)
    ctx.close()
    assert name == "report.json"
    return summary, artifact


@pytest.fixture(scope="module")
def warm_daemon(tmp_path_factory):
    """One daemon shared by the tests that exercise a live fleet."""
    state_dir = tmp_path_factory.mktemp("serve-state")
    proc, client = _spawn_daemon(state_dir)
    shared = {"store_root": str(state_dir / "store")}
    yield client, shared
    _stop_daemon(proc, client)


@pytest.fixture(scope="module")
def synth_store(warm_daemon):
    """(store root, verdict digest) of the warm daemon once a synth job
    has finished on it.

    The crash-resume and backpressure tests start daemons on fresh
    state dirs (own ledger, own queue) that share this store through
    ``--store-root``.  What they need is a synth job that is still
    running when they act; on the shared store it reuses the stored
    blasts and verdicts and takes seconds, where a cold store would
    repeat the full-corpus run that TestServiceParity already covers.
    """
    client, shared = warm_daemon
    if "synth_digest" not in shared:
        job = client.submit("synth", {"design": "multi"})
        result = client.wait(job, timeout=600)
        assert result["state"] == "done"
        shared["synth_digest"] = result["result"]["verdict_digest"]
    return shared["store_root"], shared["synth_digest"]


# ----------------------------------------------------------------------
class TestServiceParity:
    def test_check_job_matches_one_shot(self, warm_daemon, check_oracle):
        client, _shared = warm_daemon
        job = client.submit("check", {"tests": TESTS})
        result = client.wait(job, timeout=300)
        summary, artifact = check_oracle
        assert result["state"] == "done"
        assert result["result"]["digest"] == summary["digest"]
        assert result["result"]["passed"]
        with open(result["artifact"], "rb") as handle:
            served = handle.read()
        assert served == artifact  # byte-identical, not just same digest
        assert result["sha256"] == hashlib.sha256(artifact).hexdigest()

    def test_worker_kill9_mid_job_retries_to_same_result(
            self, warm_daemon):
        client, shared = warm_daemon
        job = client.submit("synth", {"design": "multi"})
        _wait_for_state(client, job, "running")
        killed = client.kill_worker()
        assert killed["pid"]
        result = client.wait(job, timeout=600)
        assert result["state"] == "done"
        view = client.status(job)
        assert view["attempts"] >= 2  # the first attempt died
        assert client.status()["fleet"]["stats"]["crashes"] >= 1
        shared["synth_digest"] = result["result"]["verdict_digest"]

    def test_recycled_worker_starts_warm_from_the_store(
            self, warm_daemon):
        """Kill the (idle) worker: its replacement has a cold memory
        cache, so any reuse it reports comes from the on-disk store."""
        client, shared = warm_daemon
        client.kill_worker()
        job = client.submit("synth", {"design": "multi"})
        result = client.wait(job, timeout=600)
        assert result["state"] == "done"
        store = result["result"]["store"]
        # Every verdict comes from the store: stored refutations are
        # not re-run for a trace, so nothing is checked or blasted.
        assert result["result"]["engine"]["checks"] == 0
        assert store["verdict_hits"] > 0
        if "synth_digest" in shared:  # crash-retried run, warm run: equal
            assert result["result"]["verdict_digest"] == \
                shared["synth_digest"]


class TestDaemonCrashResume:
    def test_kill9_restart_resumes_to_identical_artifact(
            self, tmp_path, check_oracle, synth_store):
        store_root, synth_digest = synth_store
        state_dir = tmp_path / "serve-state"
        proc, client = _spawn_daemon(state_dir, "--store-root", store_root)
        try:
            synth_job = client.submit("synth", {"design": "multi"})
            check_job = client.submit("check", {"tests": TESTS})
            _wait_for_state(client, synth_job, "running")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

            # The ledger must hold at least one accepted-but-unfinished
            # job (inspect the raw JSONL read-only — no replay side
            # effects).
            submits, dones = set(), set()
            with open(state_dir / "jobs.jsonl", "rb") as handle:
                for line in handle.read().split(b"\n")[1:]:
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # torn tail: the restart quarantines it
                    entry = record.get("entry", {})
                    (submits if entry.get("event") == "submit"
                     else dones).add(entry.get("job"))
            assert {synth_job, check_job} <= submits
            assert synth_job not in dones  # killed mid-job

            proc, client = _spawn_daemon(state_dir,
                                         "--store-root", store_root)
            results = client.wait_all([synth_job, check_job], timeout=600)
            assert results[synth_job]["state"] == "done"
            assert results[synth_job]["result"]["verdict_digest"] == \
                synth_digest
            assert results[check_job]["state"] == "done"
            _summary, artifact = check_oracle
            with open(results[check_job]["artifact"], "rb") as handle:
                assert handle.read() == artifact
            assert results[check_job]["sha256"] == \
                hashlib.sha256(artifact).hexdigest()
        finally:
            _stop_daemon(proc, client)


class TestBackpressure:
    def test_full_queue_refuses_with_retryable_error(self, tmp_path,
                                                     synth_store):
        proc, client = _spawn_daemon(tmp_path / "serve-state",
                                     "--max-queue", "1",
                                     "--store-root", synth_store[0])
        try:
            running = client.submit("synth", {"design": "multi"})
            _wait_for_state(client, running, "running")
            queued = client.submit("parse", {})  # fills the queue
            refused = client.raw_request(
                {"op": "submit", "kind": "parse", "params": {}})
            assert refused == {"ok": False, "error": "queue-full",
                               "retryable": True, "depth": 1}
            # Backpressure refused the request; nothing already admitted
            # was harmed.
            results = client.wait_all([running, queued], timeout=600)
            assert all(r["state"] == "done" for r in results.values())
        finally:
            _stop_daemon(proc, client)

    def test_draining_daemon_refuses_submissions(self, tmp_path,
                                                 synth_store):
        """SIGTERM-style drain: running work finishes, new work is
        refused retryably, then the daemon exits cleanly."""
        state_dir = tmp_path / "serve-state"
        proc, client = _spawn_daemon(state_dir,
                                     "--store-root", synth_store[0])
        try:
            running = client.submit("synth", {"design": "multi"})
            _wait_for_state(client, running, "running")
            assert client.shutdown()["draining"]
            refused = client.raw_request(
                {"op": "submit", "kind": "parse", "params": {}})
            assert refused["ok"] is False
            assert refused["error"] == "draining"
            assert refused["retryable"] is True
            assert proc.wait(timeout=300) == 0  # drain, then exit
            # The running job finished and its completion is durable.
            with open(state_dir / "jobs.jsonl", "rb") as handle:
                raw = handle.read()
            assert b'"event":"done"' in raw and running.encode() in raw
        finally:
            _stop_daemon(proc, client)
