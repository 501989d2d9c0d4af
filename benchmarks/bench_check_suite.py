"""Check-layer benchmark: the litmus suite and the sweep at jobs 1 and N.

Times the 56-test litmus suite and the exhaustive small-program sweep,
each at ``--jobs 1`` and ``--jobs N``.

Each workload has one decision path: a suite test is decided by
``solve_observability`` (fresh ground+encode+solve), a sweep program by
``ProgramSolver`` (one retained solver per program, its conditions
decided in turn).  The job counts must produce the identical report
(asserted); timings land in ``BENCH_check.json``.

The record already at ``--output`` is nested whole under ``before``,
so running the script on a parent commit and then on a change, in one
session and against one file, gives a parent-versus-change record.
The nested records keep the frozen A/B rows: the fresh-versus-
incremental stages of both workloads, the unbatched ``incremental-seq``
engine, the per-clause-object SAT core, the 41.9 s all-pairs seed
sweep and the SCC-local reachability encoding that lazy cycle cuts
replaced.

With ``--serve STATE_DIR`` the same workloads run against an already
running ``repro serve`` fleet instead of in-process: ``bench`` jobs
time warm-versus-cold suite/synth passes and a sharded sweep is raced
against the unsharded one (byte-identical digests asserted).  The warm
synth job's ``store.verdict_hits`` and ``engine.checks`` (0 when every
verdict came from the store) and the shard counts land in the record's
``serve`` section.

Standalone (not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_check_suite.py --quick
    PYTHONPATH=src python benchmarks/bench_check_suite.py --jobs 4
    PYTHONPATH=src python benchmarks/bench_check_suite.py \
        --quick --serve /tmp/repro-serve --shards 4
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

#: schema of the in-process record written to ``--output``
SCHEMA = "repro-bench-check/6"


def _sweep_signature(report):
    return (report.programs, report.outcomes_checked,
            tuple(report.unsound), tuple(report.overstrict))


def run_sweep_stage(model, name, limit, jobs):
    from repro.check import verify_exactness

    start = time.perf_counter()
    report = verify_exactness(model, limit=limit, jobs=jobs)
    elapsed = time.perf_counter() - start
    print(f"  {name:<22} {elapsed:8.2f}s  {report.summary()}")
    return {
        "name": name,
        "jobs": jobs,
        "seconds": round(elapsed, 3),
        "programs": report.programs,
        "outcomes": report.outcomes_checked,
        "exact": report.exact,
    }, _sweep_signature(report)


def run_suite_stage(model, tests, name, jobs):
    from repro.check import Checker, suite_digest

    start = time.perf_counter()
    verdicts = Checker(model).check_suite(tests, jobs=jobs)
    elapsed = time.perf_counter() - start
    failures = sum(0 if v.passed else 1 for v in verdicts)
    print(f"  {name:<22} {elapsed:8.2f}s  "
          f"{len(verdicts)} tests, {failures} failures")
    return {
        "name": name,
        "jobs": jobs,
        "seconds": round(elapsed, 3),
        "tests": len(verdicts),
        "failures": failures,
        "digest": suite_digest(verdicts),
    }


def _read_artifact(result):
    with open(result["artifact"], "r", encoding="utf-8") as handle:
        return json.load(handle)


def _serve_job(client, kind, params, label):
    start = time.perf_counter()
    job = client.submit(kind, params)
    result = client.wait(job, timeout=1800)
    elapsed = time.perf_counter() - start
    if result["state"] != "done":
        raise RuntimeError(
            f"{label}: job {job} ended {result['state']}: {result}")
    print(f"  {label:<22} {elapsed:8.2f}s  (round trip)")
    return result, elapsed


def run_serve_mode(args, limit):
    """Benchmark an already-running ``repro serve`` fleet.

    Returns the ``serve`` section for the record: warm/cold bench
    timings, the sharded-versus-unsharded sweep race, and the warm
    synth job's verdict-store hits and engine checks.
    """
    from repro.service import ServiceClient, default_socket_path

    client = ServiceClient(default_socket_path(args.serve))
    client.ping()
    sweep_limit = limit or 40
    print(f"service fleet at {args.serve} "
          f"(sweep limit={sweep_limit}, shards={args.shards}):")

    bench_check, _ = _serve_job(
        client, "bench", {"workload": "check", "repeat": 2},
        "bench_check")
    check_payload = _read_artifact(bench_check)

    bench_synth, _ = _serve_job(
        client, "bench", {"workload": "synth", "design": "multi",
                          "repeat": 2},
        "bench_synth")
    synth_payload = _read_artifact(bench_synth)

    sweep_params = {"threads": 2, "length": 3, "limit": sweep_limit}
    plain, plain_s = _serve_job(client, "sweep", dict(sweep_params),
                                "sweep_unsharded")
    sharded, sharded_s = _serve_job(
        client, "sweep", {**sweep_params, "shards": args.shards},
        f"sweep_{args.shards}_shards")
    plain_digest = plain["result"]["digest"]
    sharded_digest = sharded["result"]["digest"]
    assert plain_digest == sharded_digest, \
        f"sharded sweep diverged: {plain_digest} != {sharded_digest}"

    status = client.status()
    return {
        "state_dir": args.serve,
        "workers": len(status["fleet"]["workers"]),
        "bench_check": {
            "times_ms": check_payload["times_ms"],
            "cold_ms": bench_check["result"]["cold_ms"],
            "warm_ms": bench_check["result"]["warm_ms"],
            "digest": check_payload["digest"],
        },
        "bench_synth": {
            "times_ms": synth_payload["times_ms"],
            "cold_ms": bench_synth["result"]["cold_ms"],
            "warm_ms": bench_synth["result"]["warm_ms"],
            "store_verdict_hits": synth_payload["store"].get(
                "verdict_hits", 0),
            "engine_checks": synth_payload["engine"].get("checks", 0),
        },
        "sweep": {
            "limit": sweep_limit,
            "shards": args.shards,
            "unsharded_seconds": round(plain_s, 3),
            "sharded_seconds": round(sharded_s, 3),
            "digest": plain_digest,
            "digests_match": True,
        },
        "shards_dispatched": status["shards"]["dispatch_sites"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, default=0,
                        help="bound the sweep's program count (0 = all 230)")
    parser.add_argument("--quick", action="store_true",
                        help="shortcut for --limit 40")
    parser.add_argument("--jobs", type=int, default=4,
                        help="workers for the parallel stage")
    parser.add_argument("--serve", metavar="STATE_DIR", default=None,
                        help="benchmark the running repro-serve fleet at "
                             "this state dir instead of in-process stages")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for the --serve sweep race")
    parser.add_argument("--output", default="BENCH_check.json",
                        help="where to write the JSON record")
    args = parser.parse_args(argv)
    limit = 40 if args.quick else (args.limit or None)

    if args.serve:
        serve = run_serve_mode(args, limit)
        record = {
            "schema": "repro-bench-check-serve/1",
            "scope": f"limit={limit or 40}",
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "serve": serve,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nfleet bench: warm check {serve['bench_check']['warm_ms']}ms"
              f" (cold {serve['bench_check']['cold_ms']}ms), sharded sweep "
              f"{serve['sweep']['sharded_seconds']}s vs unsharded "
              f"{serve['sweep']['unsharded_seconds']}s — record in "
              f"{args.output}")
        return 0
    cpus = os.cpu_count() or 1
    # A jobs>1 row on a single-CPU box times process-pool overhead, not
    # parallel scaling — skip those rows and say so in the record rather
    # than publishing a phantom slowdown.
    parallel_skipped = None
    if cpus <= 1:
        parallel_skipped = (f"host exposes {cpus} CPU; jobs>1 rows would "
                            "measure process overhead, not scaling")
        print(f"skipping --jobs {args.jobs} rows: {parallel_skipped}")

    from repro.designs.models import load_reference_model
    from repro.litmus import load_suite

    model = load_reference_model()
    tests = load_suite()

    jobs_plan = [1] if parallel_skipped else [1, args.jobs]
    print(f"litmus suite ({len(tests)} tests):")
    suite_stages = [run_suite_stage(model, tests, f"suite_jobs{jobs}", jobs)
                    for jobs in jobs_plan]
    digests = {stage["digest"] for stage in suite_stages}
    assert len(digests) == 1, f"suite verdicts diverged: {digests}"

    scope = f"limit={limit}" if limit else "all canonical 2x2 programs"
    print(f"exhaustive sweep ({scope}):")
    sweep_stages = []
    signatures = set()
    for jobs in jobs_plan:
        stage, signature = run_sweep_stage(model, f"sweep_jobs{jobs}",
                                           limit, jobs)
        sweep_stages.append(stage)
        signatures.add(signature)
    assert len(signatures) == 1, "sweep reports diverged across job counts"

    before = None
    if os.path.exists(args.output):
        with open(args.output, "r", encoding="utf-8") as handle:
            before = json.load(handle)
    record = {
        "schema": SCHEMA,
        "scope": scope,
        "cpu_count": cpus,
        "parallel_skipped": parallel_skipped,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "suite": suite_stages,
        "sweep": sweep_stages,
        "before": before,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nsuite {suite_stages[0]['seconds']}s, sweep "
          f"{sweep_stages[0]['seconds']}s at jobs 1 — record in "
          f"{args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
