"""A run terminated while a set-up probe is starting the serve daemon
must leave no daemon or worker behind.  This starts real processes
(about 10 s); run with ``python3 -m pytest perfbench/tests``."""

import os
import signal
import subprocess
import sys
import time

from perfbench import procfs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode()
    except OSError:
        return ""


def serve_processes(state_tag: str):
    """Live processes whose command line names ``state_tag``."""
    return [int(pid) for pid in os.listdir("/proc")
            if pid.isdigit() and state_tag in cmdline(int(pid))]


def wait_for(predicate, seconds: float):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    return predicate()


def test_sigterm_mid_probe_leaves_no_serve_process():
    run = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "serve_check", "--seed", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        def probe():
            return [pid for pid in procfs.descendants(run.pid)
                    if "--probe-setup" in cmdline(pid)]
        probes = wait_for(probe, 60)
        assert probes, "no set-up probe started"
        tag = f"serve-{probes[0]}"
        # the probe's daemon is up: its set-up is under way
        assert wait_for(lambda: serve_processes(tag), 60)
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=150) == 143
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
    assert wait_for(lambda: not serve_processes(tag), 10), \
        f"left behind: {serve_processes(tag)}"
