#!/usr/bin/env python3
"""CI smoke test for the service chaos harness — seeded fault plans
against real daemons:

1. a fault-free baseline daemon runs the sharded check suite once;
2. each seeded fault plan (worker kills, torn frames, stragglers) runs
   the same sharded job at 1 and 4 workers — every run must converge
   to the baseline digest and byte-identical artifact;
3. a ``kill:@s1`` plan exhausts one shard's retries — the job must
   land ``unknown`` with a ``partial: true`` report naming exactly the
   lost stripe (the report is kept for CI artifact upload);
4. an ``interrupt:1`` plan hard-exits the daemon between a shard's
   ledger append and the merge; a restart replays the ledger to the
   baseline digest;
5. two daemons share one ``--store-root`` while ``repro cache gc``
   races them — the store must come out of it with zero quarantined
   entries.

Usage: ``serve_chaos_smoke.py [build-dir]``
(run with PYTHONPATH=src or the package installed).
"""

import json
import os
import shutil
import subprocess
import sys
import time

from repro.errors import ServiceError
from repro.service import ServiceClient, default_socket_path

BUILD = sys.argv[1] if len(sys.argv) > 1 else "build/chaos"
TESTS = ["mp", "sb", "lb", "corr", "corw", "iriw"]
SHARDS = 4

CHAOS_PLANS = [
    # Explicit first-attempt faults on three of the four shards.
    "seed=11,kill:0,garbage:2,slow:3,slow-secs=0.05",
    # Seeded 20% kill rate: which dispatches die is derived from the
    # seed, so the run is chaotic but exactly replayable.  (Seed 8's
    # hit sites are spaced out, so no shard exhausts its retries; the
    # partial-report path gets its own dedicated plan below.)
    "seed=8,kill%=20",
    # Torn frames on two explicit dispatch sites.
    "seed=5,garbage:1,garbage:4",
]


def log(message):
    print(f"[chaos-smoke] {message}", flush=True)


def spawn_daemon(state_dir, *extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", state_dir, *extra])
    client = ServiceClient(default_socket_path(state_dir))
    deadline = time.time() + 60
    while True:
        try:
            client.ping()
            return proc, client
        except ServiceError:
            if proc.poll() is not None:
                sys.exit(f"daemon exited {proc.returncode} during startup")
            if time.time() > deadline:
                proc.kill()
                sys.exit("daemon did not come up in 60s")
            time.sleep(0.2)


def stop_daemon(proc, client):
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


def run_sharded_check(client, shards=SHARDS):
    job = client.submit("check", {"tests": TESTS, "shards": shards})
    return job, client.wait(job, timeout=1800)


def artifact_bytes(result):
    with open(result["artifact"], "rb") as handle:
        return handle.read()


def keep_for_upload(state_dir, label):
    """Copy the chaos journal (and ledger) into the build dir so CI
    can upload them as run artifacts."""
    for name in ("chaos.jsonl", "jobs.jsonl"):
        src = os.path.join(state_dir, name)
        if os.path.exists(src):
            shutil.copy(src, os.path.join(BUILD, f"{label}-{name}"))


def main():
    os.makedirs(BUILD, exist_ok=True)

    # 1. Fault-free baseline.
    state = os.path.join(BUILD, "baseline")
    proc, client = spawn_daemon(state, "--workers", "2")
    _, baseline = run_sharded_check(client)
    stop_daemon(proc, client)
    if baseline["state"] != "done":
        sys.exit(f"baseline run failed: {baseline}")
    base_digest = baseline["result"]["digest"]
    base_bytes = artifact_bytes(baseline)
    log(f"baseline digest {base_digest}")

    # 2. Every chaos plan converges at 1 and at 4 workers.
    for index, plan in enumerate(CHAOS_PLANS):
        for workers in ("1", "4"):
            label = f"plan{index}-w{workers}"
            state = os.path.join(BUILD, label)
            proc, client = spawn_daemon(
                state, "--workers", workers, "--max-attempts", "4",
                "--respawn-jitter", "0.3", "--inject-faults", plan)
            job, result = run_sharded_check(client)
            status = client.status()
            stop_daemon(proc, client)
            keep_for_upload(state, label)
            if result["state"] != "done":
                sys.exit(f"{label} ({plan!r}): job ended "
                         f"{result['state']}: {result}")
            if result["result"]["digest"] != base_digest or \
                    artifact_bytes(result) != base_bytes:
                sys.exit(f"{label} ({plan!r}): digest diverged from "
                         f"baseline {base_digest}")
            log(f"{label}: converged under {plan!r} "
                f"(crashes={status['fleet']['stats']['crashes']})")

    # 3. Exhausted shard: partial report with the exact UNKNOWN stripe.
    state = os.path.join(BUILD, "partial")
    proc, client = spawn_daemon(
        state, "--workers", "2", "--max-attempts", "2",
        "--inject-faults", "kill:@s1")
    job, result = run_sharded_check(client)
    stop_daemon(proc, client)
    keep_for_upload(state, "partial")
    if result["state"] != "unknown":
        sys.exit(f"partial plan: expected state unknown, got "
                 f"{result['state']}")
    report = json.loads(artifact_bytes(result))
    if not report.get("partial") or \
            result["result"].get("unknown_shards") != [1]:
        sys.exit(f"partial plan: bad partial report: {result['result']}")
    with open(os.path.join(BUILD, "partial-report.json"), "wb") as handle:
        handle.write(artifact_bytes(result))
    log(f"partial plan: shard 1 degraded to UNKNOWN "
        f"({report['unknown_tests']}), rest decided")

    # 4. Daemon hard-killed between shard ledger append and merge;
    # restart resumes to the baseline digest.
    state = os.path.join(BUILD, "daemon-kill")
    proc, client = spawn_daemon(
        state, "--workers", "1", "--inject-faults", "interrupt:1")
    job = client.submit("check", {"tests": TESTS, "shards": SHARDS})
    proc.wait(timeout=600)
    if proc.returncode != 137:
        sys.exit(f"daemon-kill plan: daemon exited {proc.returncode}, "
                 "expected 137")
    proc, client = spawn_daemon(state, "--workers", "1")
    result = client.wait(job, timeout=1800)
    stop_daemon(proc, client)
    keep_for_upload(state, "daemon-kill")
    if result["state"] != "done" or \
            result["result"]["digest"] != base_digest:
        sys.exit(f"daemon-kill plan: restart did not converge: {result}")
    log("daemon-kill plan: ledger replay converged after restart")

    # 5. Two daemons, one store root, with `repro cache gc` racing
    # them — the flock'd store must stay corruption-free.
    shared = os.path.join(BUILD, "shared-store")
    proc_a, client_a = spawn_daemon(
        os.path.join(BUILD, "daemon-a"), "--workers", "1",
        "--store-root", shared)
    proc_b, client_b = spawn_daemon(
        os.path.join(BUILD, "daemon-b"), "--workers", "1",
        "--store-root", shared)
    job_a = client_a.submit("synth", {"design": "multi"})
    job_b = client_b.submit("synth", {"design": "multi"})
    deadline = time.time() + 1800
    while time.time() < deadline:
        gc = subprocess.run(
            [sys.executable, "-m", "repro", "cache", "gc",
             "--store", shared, "--max-bytes", "4096"],
            capture_output=True, text=True)
        if gc.returncode != 0:
            sys.exit(f"cache gc failed mid-race: {gc.stderr}")
        states = {client_a.status(job_a)["state"],
                  client_b.status(job_b)["state"]}
        if states <= {"done", "failed", "unknown"}:
            break
        time.sleep(1.0)
    result_a = client_a.wait(job_a, timeout=60)
    result_b = client_b.wait(job_b, timeout=60)
    stop_daemon(proc_a, client_a)
    stop_daemon(proc_b, client_b)
    for label, result in (("a", result_a), ("b", result_b)):
        if result["state"] != "done":
            sys.exit(f"shared-store daemon {label} job ended "
                     f"{result['state']}: {result}")
    if result_a["result"]["verdict_digest"] != \
            result_b["result"]["verdict_digest"]:
        sys.exit("shared-store daemons diverged on verdict digest")
    verify = subprocess.run(
        [sys.executable, "-m", "repro", "cache", "verify",
         "--store", shared],
        capture_output=True, text=True)
    if verify.returncode != 0:
        sys.exit(f"shared store failed verification after the race:\n"
                 f"{verify.stdout}{verify.stderr}")
    log(f"shared store survived two daemons + gc race: "
        f"{verify.stdout.strip()}")

    log("OK")


if __name__ == "__main__":
    main()
