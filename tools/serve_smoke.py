#!/usr/bin/env python3
"""CI smoke test for ``repro serve`` — the acceptance scenario end to
end against a real daemon:

1. submit the full 56-test check suite, ``kill -9`` a worker mid-job
   (the job is re-dispatched);
2. submit a synth job, then ``kill -9`` the *daemon* mid-queue;
3. restart the daemon on the same state directory: the ledger resumes
   both jobs, and the final check report digest is identical to a
   one-shot ``repro check`` of the same model;
4. recycle the (idle) worker and submit a second synth job: its
   summary must report persistent-store verdict hits and no check —
   cross-process reuse from the content-addressed store.

Usage: ``serve_smoke.py [state-dir] [oneshot-report.json]``
(run with PYTHONPATH=src or the package installed).
"""

import json
import os
import signal
import subprocess
import sys
import time

from repro.errors import ServiceError
from repro.service import ServiceClient, default_socket_path

STATE_DIR = sys.argv[1] if len(sys.argv) > 1 else "build/serve-state"
ONESHOT = sys.argv[2] if len(sys.argv) > 2 else "build/check_oneshot.json"


def log(message):
    print(f"[smoke] {message}", flush=True)


def spawn_daemon():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", STATE_DIR, "--workers", "1"])
    client = ServiceClient(default_socket_path(STATE_DIR))
    deadline = time.time() + 60
    while True:
        try:
            client.ping()
            log(f"daemon up (pid {proc.pid})")
            return proc, client
        except ServiceError:
            if proc.poll() is not None:
                sys.exit(f"daemon exited {proc.returncode} during startup")
            if time.time() > deadline:
                proc.kill()
                sys.exit("daemon did not come up in 60s")
            time.sleep(0.2)


def wait_for_running(client, job, timeout=300.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        view = client.status(job)
        if view["state"] == "running":
            return
        if view["state"] not in ("queued", "running"):
            sys.exit(f"{job} reached {view['state']!r} prematurely")
        time.sleep(0.05)
    sys.exit(f"{job} never started running")


def main():
    proc, client = spawn_daemon()

    # 1. Full-suite check job; kill -9 its worker mid-run.
    check_job = client.submit("check", {})
    log(f"submitted {check_job} (full 56-test check)")
    wait_for_running(client, check_job)
    killed = client.kill_worker()
    log(f"killed worker pid {killed['pid']} mid-job")

    # 2. Queue a synth job, then kill -9 the daemon itself.
    synth_job = client.submit("synth", {"design": "multi"})
    log(f"submitted {synth_job}; killing daemon pid {proc.pid} mid-queue")
    time.sleep(1.0)  # let the retry dispatch so the kill is mid-flight
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=60)

    # 3. Restart: the ledger resumes both jobs to completion.
    proc, client = spawn_daemon()
    check_result = client.wait(check_job, timeout=1800)
    synth_result = client.wait(synth_job, timeout=1800)
    for job, result in ((check_job, check_result),
                        (synth_job, synth_result)):
        if result["state"] != "done":
            sys.exit(f"{job} finished {result['state']!r}: "
                     f"{result.get('result')}")
    log(f"both jobs done after restart "
        f"(check attempts={client.status(check_job)['attempts']})")

    # Digest parity with the one-shot CLI run.
    oneshot_digest = json.load(open(ONESHOT))["digest"]
    served_digest = check_result["result"]["digest"]
    report = json.load(open(check_result["artifact"]))
    if served_digest != oneshot_digest or report["digest"] != oneshot_digest:
        sys.exit(f"digest mismatch: one-shot {oneshot_digest} vs "
                 f"served {served_digest} / artifact {report['digest']}")
    log(f"check digest matches one-shot run: {oneshot_digest}")

    # 4. Recycle the worker; a second synth must start warm from the
    # persistent store (cold process memory, hot disk).
    client.kill_worker()
    synth2 = client.submit("synth", {"design": "multi"})
    result2 = client.wait(synth2, timeout=1800)
    if result2["state"] != "done":
        sys.exit(f"{synth2} finished {result2['state']!r}")
    store = result2["result"]["store"]
    checks = result2["result"]["engine"]["checks"]
    if store["verdict_hits"] <= 0 or checks:
        # Every verdict must come from the store; stored refutations
        # are not re-checked for a trace.
        sys.exit(f"second synth did not start warm from the store: "
                 f"{store}, {checks} check(s)")
    if result2["result"]["verdict_digest"] != \
            synth_result["result"]["verdict_digest"]:
        sys.exit("synth verdict digests diverged across store reuse")
    log(f"second synth reused the store: verdict_hits="
        f"{store['verdict_hits']}, 0 checks")

    client.shutdown()
    proc.wait(timeout=120)
    log("OK")


if __name__ == "__main__":
    main()
