"""End-to-end tests of fleet sharding and service fault injection.

Acceptance criteria pinned against real daemon subprocesses:

* a sweep/check submitted with ``shards=N`` produces the
  **byte-identical** artifact (same digest, same JSON bytes) as the
  unsharded single-worker run;
* a seeded fault plan (worker kills, torn frames, stragglers, store
  ENOSPC) converges to the fault-free digest at any worker count;
* a shard whose every attempt is killed (``kill:@sJ``) degrades its
  stripe to first-class UNKNOWN in a ``partial: true`` report with
  job state ``unknown`` — the finished shards' verdicts survive;
* ``interrupt:K`` (a daemon kill) between a shard's ledger append and the merge
  loses nothing: a restarted daemon replays the delivered shards and
  a client ``wait(down_grace=...)`` rides through to the identical
  artifact;
* a ``bench`` job runs against the warm fleet and reports per-repeat
  times plus the deterministic workload digest.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service import ServiceClient, default_socket_path

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")

TESTS = ["mp", "sb", "lb", "corr", "corw"]
SWEEP = {"threads": 2, "length": 2, "limit": 12}


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _spawn_daemon(state_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir), *extra],
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


def _artifact_bytes(result):
    with open(result["artifact"], "rb") as handle:
        return handle.read()


# ----------------------------------------------------------------------
# Oracles: in-process unsharded runs the daemon must reproduce
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    from repro.service.jobs import (
        WorkerContext, execute_job, validate_params)
    ctx = WorkerContext(str(tmp_path_factory.mktemp("oracle-store")))
    out = {}
    params = validate_params("check", {"tests": TESTS})
    out["check"] = execute_job("check", params, ctx)
    params = validate_params("sweep", dict(SWEEP))
    out["sweep"] = execute_job("sweep", params, ctx)
    ctx.close()
    return out


# ----------------------------------------------------------------------
class TestShardedParity:
    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        state_dir = tmp_path_factory.mktemp("shard-serve")
        proc, client = _spawn_daemon(state_dir, "--workers", "2")
        yield client
        _stop_daemon(proc, client)

    def test_sharded_check_is_byte_identical(self, fleet, oracle):
        summary, artifact, _ = oracle["check"]
        job = fleet.submit("check", {"tests": TESTS, "shards": 3})
        result = fleet.wait(job, timeout=300)
        assert result["state"] == "done"
        assert result["result"]["digest"] == summary["digest"]
        assert result["result"]["shards"] == 3
        assert _artifact_bytes(result) == artifact

    def test_sharded_sweep_is_byte_identical(self, fleet, oracle):
        summary, artifact, _ = oracle["sweep"]
        job = fleet.submit("sweep", {**SWEEP, "shards": 4})
        result = fleet.wait(job, timeout=600)
        assert result["state"] == "done"
        assert result["result"]["digest"] == summary["digest"]
        assert _artifact_bytes(result) == artifact

    def test_single_shard_request_degenerates_cleanly(self, fleet,
                                                      oracle):
        summary, artifact, _ = oracle["check"]
        job = fleet.submit("check", {"tests": TESTS, "shards": 1})
        result = fleet.wait(job, timeout=300)
        assert result["state"] == "done"
        assert _artifact_bytes(result) == artifact

    def test_bench_job_times_the_warm_fleet(self, fleet, oracle):
        summary, _, _ = oracle["check"]
        job = fleet.submit("bench", {"workload": "check",
                                     "tests": TESTS, "repeat": 2})
        result = fleet.wait(job, timeout=600)
        assert result["state"] == "done"
        view = result["result"]
        assert view["digest"] == summary["digest"]  # timings vary,
        payload = json.loads(_artifact_bytes(result))  # verdicts don't
        assert payload["schema"] == "repro-bench-service/1"
        assert len(payload["times_ms"]) == 2
        assert all(ms >= 0 for ms in payload["times_ms"])


class TestChaosConvergence:
    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_seeded_plan_converges_to_fault_free_digest(
            self, tmp_path, oracle, workers):
        # kill shard 2's first attempt, tear a retry frame, slow
        # another dispatch: every fault is retried or waited out and
        # the merge still reproduces the oracle bytes.
        plan = "seed=3,kill:2,garbage:4,slow:5,slow-secs=0.05"
        proc, client = _spawn_daemon(
            tmp_path / f"chaos-{workers}", "--workers", workers,
            "--inject-faults", plan)
        try:
            summary, artifact, _ = oracle["check"]
            job = client.submit("check", {"tests": TESTS, "shards": 4})
            result = client.wait(job, timeout=600)
            assert result["state"] == "done"
            assert result["result"]["digest"] == summary["digest"]
            assert _artifact_bytes(result) == artifact
            assert "partial" not in result["result"]
        finally:
            _stop_daemon(proc, client)

    def test_heartbeat_stall_is_reaped_and_retried(self, tmp_path,
                                                   oracle):
        # The stalled worker stops heartbeating for longer than the
        # hang timeout: it is reaped, the shard re-dispatched, and the
        # result still converges.
        proc, client = _spawn_daemon(
            tmp_path / "stall", "--workers", "2",
            "--hang-timeout", "1.5",
            "--inject-faults", "hang:0,hang-secs=30")
        try:
            summary, artifact, _ = oracle["check"]
            job = client.submit("check", {"tests": TESTS, "shards": 2})
            result = client.wait(job, timeout=600)
            assert result["state"] == "done"
            assert _artifact_bytes(result) == artifact
            assert client.status()["fleet"]["stats"]["hangs"] >= 1
        finally:
            _stop_daemon(proc, client)

    def test_store_budget_exhaustion_never_fails_a_job(self, tmp_path,
                                                       oracle):
        # Every store write ENOSPCs after 64 bytes: the persistent
        # tier degrades to misses, the verdicts are unaffected.
        proc, client = _spawn_daemon(
            tmp_path / "enospc", "--workers", "1",
            "--inject-faults", "store-budget=64")
        try:
            summary, artifact, _ = oracle["check"]
            job = client.submit("check", {"tests": TESTS})
            result = client.wait(job, timeout=300)
            assert result["state"] == "done"
            assert _artifact_bytes(result) == artifact
        finally:
            _stop_daemon(proc, client)


class TestPartialReports:
    def test_exhausted_shard_degrades_to_exact_unknown_stripe(
            self, tmp_path, oracle):
        from repro.service.jobs import validate_params
        from repro.service.shards import shard_member_names

        # Every dispatch of shard 1 is killed; after max-attempts the
        # stripe degrades to UNKNOWN and the job reports partial.
        proc, client = _spawn_daemon(
            tmp_path / "partial", "--workers", "2",
            "--max-attempts", "2",
            "--inject-faults", "kill:@s1")
        try:
            job = client.submit("check", {"tests": TESTS, "shards": 3})
            result = client.wait(job, timeout=600)
            assert result["state"] == "unknown"  # exit code 1 contract
            view = result["result"]
            assert view["partial"] is True
            assert view["unknown_shards"] == [1]
            report = json.loads(_artifact_bytes(result))
            assert report["partial"] is True
            params = validate_params("check",
                                     {"tests": TESTS, "shards": 3})
            stripe = shard_member_names("check", params, 1, 3)
            assert report["unknown_tests"] == stripe
            unknown = [t["name"] for t in report["tests"]
                       if t["status"] == "UNKNOWN"]
            assert unknown == stripe  # exactly the stripe, no more
            decided = [t for t in report["tests"]
                       if t["status"] == "DECIDED"]
            assert len(decided) == len(TESTS) - len(stripe)
        finally:
            _stop_daemon(proc, client)


class TestLedgerReplayUnderChaos:
    def test_daemon_kill_between_shard_append_and_merge_recovers(
            self, tmp_path, oracle):
        # The daemon hard-exits right after committing shard
        # completion #1 to the ledger — before the merge and before
        # any client reply.  A restarted daemon must replay the
        # delivered shards and the waiting client must ride through
        # on down_grace to the byte-identical artifact.
        state_dir = tmp_path / "replay"
        proc, client = _spawn_daemon(
            state_dir, "--workers", "1",
            "--inject-faults", "interrupt:1")
        job = client.submit("check", {"tests": TESTS, "shards": 3})

        outcome = {}

        def _wait():
            outcome["result"] = client.wait(job, timeout=600,
                                            down_grace=120)

        waiter = threading.Thread(target=_wait, daemon=True)
        waiter.start()
        # The daemon kills itself after the second shard completion.
        proc.wait(timeout=300)
        assert proc.returncode == 137
        # The ledger holds the delivered shards' results.
        ledger_text = (state_dir / "jobs.jsonl").read_text()
        assert ":shard:" in ledger_text
        assert f"{job}:done" not in ledger_text

        proc2, client2 = _spawn_daemon(state_dir, "--workers", "1")
        try:
            waiter.join(timeout=300)
            assert not waiter.is_alive()
            result = outcome["result"]
            summary, artifact, _ = oracle["check"]
            assert result["state"] == "done"
            assert result["result"]["digest"] == summary["digest"]
            assert _artifact_bytes(result) == artifact
            assert "partial" not in result["result"]
            # The chaos journal recorded the injected daemon kill.
            chaos_log = (state_dir / "chaos.jsonl").read_text()
            assert "daemon-kill" in chaos_log
        finally:
            _stop_daemon(proc2, client2)
