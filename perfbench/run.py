#!/usr/bin/env python3
"""The repo benchmark: one workload per run, or all of them.

Run from the root of a checkout (no install needed)::

    python3 perfbench/run.py --workload litmus_sweep --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` measures the end-to-end metrics listed in
``BENCHMARK.json``: ``setup_s`` (median of several fresh-process
set-ups), ``op_ms`` (median op time), ``ops_per_s`` and
``peak_rss_mb``.  ``--trace 1`` is a separate run that alternates
untraced and traced ops on the same inputs and reports the per-layer
metrics plus the tracing overhead; its spans go to
``.bench_run/traces/``.  Every op's output is checked against an
oracle.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the full record,
with host facts, seed and input digests, goes to
``.bench_run/results/``.  The exit code is 0 only when every op was
correct.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import inputs, procfs, stats  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import RUN_DIR, WORKLOADS, OpFailure  # noqa: E402

#: fresh-process set-ups per run; sub-second set-ups vary by +-20%
SETUP_SAMPLES = 5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@contextlib.contextmanager
def child(argv):
    """A child run of this script with its standard output piped.  On
    the way out (an error, or SIGTERM raising ``SystemExit``) a child
    still running is sent SIGTERM, so that it stops its own processes,
    and is waited for."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=90)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


def teardown(workload) -> None:
    """Stop the workload's processes with SIGTERM ignored, so that a
    SIGTERM arriving meanwhile cannot cut the teardown short."""
    previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        workload.teardown()
    finally:
        signal.signal(signal.SIGTERM, previous)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has done the
    workload's whole set-up (imports included)."""
    start = time.monotonic()
    with child([sys.executable, os.path.abspath(__file__), "--workload",
                workload, "--seed", str(seed), "--probe-setup"]) as proc:
        line = proc.stdout.readline()
        elapsed = time.monotonic() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed "
                           f"(exit {proc.returncode})")
    return elapsed


def run_op(workload, index: int, tracer=None):
    """Run one op; returns ``(seconds, failure reason or None)``."""
    if tracer is not None:
        workload.patch(tracer)
    start = time.perf_counter()
    try:
        workload.op(index, tracer)
        failure = None
    except OpFailure as exc:
        failure = str(exc)
    except Exception as exc:  # an op that raises is a failed op
        failure = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.unpatch_all()
    return elapsed, failure


def measure(workload, seconds: float):
    """Untraced ops from the start of the cycle until the next op would
    likely end past ``seconds``; at least one op."""
    durations, failures = [], []
    start = time.monotonic()
    index = 0
    while True:
        elapsed, failure = run_op(workload, index)
        durations.append(elapsed)
        if failure:
            failures.append(failure)
        index += 1
        if time.monotonic() - start + stats.median(durations) > seconds:
            return durations, failures, time.monotonic() - start


def measure_traced(workload, tracer: Tracer, seconds: float):
    """Pairs of one untraced and one traced op on the same input, the
    order alternating between pairs; at least one pair."""
    plain, traced, failures, traced_ids = [], [], [], []
    start = time.monotonic()
    index = 0
    while True:
        for with_trace in ((False, True) if index % 2 == 0
                           else (True, False)):
            if with_trace:
                tracer.op_id = index
                traced_ids.append(index)
                elapsed, failure = run_op(workload, index, tracer)
                traced.append(elapsed)
            else:
                elapsed, failure = run_op(workload, index)
                plain.append(elapsed)
            if failure:
                failures.append(failure)
        index += 1
        if (time.monotonic() - start + stats.median(plain)
                + stats.median(traced)) > seconds:
            return plain, traced, failures, traced_ids


def write_record(kind: str, name: str, record: dict) -> str:
    directory = os.path.join(RUN_DIR, kind)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_workload(args) -> int:
    spec = load_spec()
    workload = WORKLOADS[args.workload](args.seed)
    cpus = procfs.host_facts()["nproc"]
    if cpus < workload.workers:
        print(f"{args.workload} needs {workload.workers} CPUs to run its "
              f"workers; this host has {cpus}", file=sys.stderr)
        return 2
    if args.probe_setup:
        try:
            workload.setup()
            print("ready", flush=True)
        finally:
            teardown(workload)
        return 0

    setup_samples = [] if args.trace else \
        [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    tracer = Tracer() if args.trace else None
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": procfs.host_facts()}
    try:
        workload.setup(tracer)
        record["inputs_digest"] = inputs.digest(workload.inputs())
        record["inputs"] = workload.inputs()
        workload.begin_window()
        if args.trace:
            plain, traced, failures, traced_ids = measure_traced(
                workload, tracer, args.seconds)
            attempted = len(plain) + len(traced)
            layers = workload.layer_metrics(tracer, traced_ids)
            failures += [f"traced run: {reason}"
                         for reason in workload.untraced_layers(tracer)]
        else:
            durations, failures, wall = measure(workload, args.seconds)
            attempted = len(durations)
            peak = workload.peak_rss_mb()
        failures += workload.finish()
    finally:
        teardown(workload)

    if args.trace:
        plain_ms = stats.median(plain) * 1000.0
        traced_ms = stats.median(traced) * 1000.0
        layers.update({
            "trace.op_ms_untraced": plain_ms,
            "trace.op_ms_traced": traced_ms,
            "trace.overhead_ratio": traced_ms / plain_ms - 1.0,
            "trace.spans_per_op": len([s for s in tracer.spans
                                       if s.op_id >= 0]) / len(traced),
        })
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
        trace_path = os.path.join(
            RUN_DIR, "traces",
            f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        tracer.write_jsonl(trace_path)
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
        record["op_pairs"] = len(traced)
    else:
        values = {
            "setup_s": stats.median(setup_samples),
            "op_ms": stats.median(durations) * 1000.0,
            "ops_per_s": len(durations) / wall,
            "peak_rss_mb": peak,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        record["setup_samples_s"] = setup_samples
        record["op_seconds"] = durations
        tail = stats.tail(durations)
        if tail is not None:
            record[f"op_ms_p{tail[0]}"] = tail[1] * 1000.0
    failed = len(failures)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(result)
    record["failures"] = failures
    path = write_record(
        "results", f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                   f"{os.getpid()}.json", record)

    host = record["host"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed; nproc={host['nproc']} "
          f"python={host['python']}; "
          f"inputs {record['inputs_digest'][:12]}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:14.4f} {metric['unit']}")
    for key in sorted(record):
        if key.startswith("op_ms_p"):
            print(f"  {key:<32} {record[key]:14.4f} ms")
    for failure in failures[:5]:
        print(f"  FAILED: {failure}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; non-zero if any op failed."""
    status = 0
    for name in WORKLOADS:
        with child([sys.executable, os.path.abspath(__file__), "--workload",
                    name, "--seed", str(args.seed), "--seconds",
                    str(args.seconds), "--trace", str(args.trace)]) as proc:
            output = proc.stdout.read()
            proc.wait()
        lines = output.splitlines()
        print("\n".join(lines[:-1]) if proc.returncode in (0, 1)
              else output, flush=True)
        if proc.returncode != 0:
            status = 1
    return status


def main(argv=None) -> int:
    # a terminated run still tears its workload down (stops the daemon)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
