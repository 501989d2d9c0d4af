"""Formal-engine benchmark: the shipped engine on the SVA corpus.

Runs the multi-V-scale SVA corpus end to end (``synthesize_uspec``)
on the shipped formal engine (one retained packed-arena CDCL solver per
SVA, frame-by-frame BMC, monotone k-escalation, shared bitblast):

* ``incremental_arena`` — serial discharge;
* ``arena_parallel``    — the same at ``--jobs N`` (skipped on a
  1-CPU host);
* ``compose_serial`` / ``compose_parallel`` — hierarchical
  compositional synthesis.

Every monolithic row must produce the identical per-SVA verdict digest
and byte-identical ``.uarch`` text, and the compose rows the same
``.uarch`` and verdict trichotomy (asserted); timings land in
``BENCH_synth.json``.  Rewriting the file nests the previous record
under ``before``, so the chain of ``before`` sections keeps every
earlier run, including stages that no longer exist (the one-shot
engine, ``scan`` branch order, the per-clause-object SAT core, the
168 s seed row and the ``arena_portfolio`` racer).

Standalone (not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_formal_engine.py --quick
    PYTHONPATH=src python benchmarks/bench_formal_engine.py --jobs 4
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

#: the CI smoke scope: one core's pipeline + the shared memory
QUICK_CANDIDATES = ["core_gen[0].core.inst_DX", "core_gen[0].core.PC_DX",
                    "core_gen[0].core.regfile", "the_mem.mem"]


def verdict_digest(result) -> str:
    """Order-independent hash of every per-SVA verdict field the
    synthesizer consumes (trace bytes and wall times excluded)."""
    hasher = hashlib.sha256()
    for key in sorted(repr((r.signature, r.verdict.status, r.verdict.method,
                            r.verdict.induction_k, r.verdict.reason))
                      for r in result.sva_records):
        hasher.update(key.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def run_stage(name, jobs, candidates, compose=False):
    from repro import synthesize_uspec
    from repro.formal import PropertyChecker
    from repro.uspec import format_model

    checker = PropertyChecker(bound=12, max_k=2)
    start = time.perf_counter()
    result = synthesize_uspec(checker=checker, jobs=jobs,
                              candidate_filter=candidates, compose=compose)
    elapsed = time.perf_counter() - start
    uarch = format_model(result.model).encode("utf-8")
    stats = checker.stats
    discharge = result.discharge_stats
    print(f"  {name:<18} {elapsed:8.2f}s  {int(stats['checks'])} checks, "
          f"sat {stats['sat_time']:.2f}s, "
          f"{int(stats['bmc_frames'])} bmc frames" +
          (f", {discharge.fingerprint_dedup} deduped" if compose else ""))
    return {
        "name": name,
        "jobs": jobs,
        "compose": compose,
        "seconds": round(elapsed, 3),
        "checks": int(stats["checks"]),
        "sat_seconds": round(stats["sat_time"], 3),
        "sat_propagations": int(stats.get("sat_propagations", 0)),
        "sat_conflicts": int(stats.get("sat_conflicts", 0)),
        "sat_reductions": int(stats.get("sat_reductions", 0)),
        "arena_bytes": int(stats.get("arena_bytes", 0)),
        "bmc_frames": int(stats["bmc_frames"]),
        "blast_hits": int(stats["blast_hits"]),
        "blast_misses": int(stats["blast_misses"]),
        "executed": discharge.executed,
        "fingerprint_dedup": discharge.fingerprint_dedup,
        "per_module": discharge.per_module,
        "verdict_digest": verdict_digest(result),
        "trichotomy_digest": result.verdict_digest(),
        "uarch_sha256": hashlib.sha256(uarch).hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="restrict the corpus to the CI smoke scope "
                             "(one core + memory) instead of all SVAs")
    parser.add_argument("--jobs", type=int, default=4,
                        help="workers for the parallel parity runs")
    parser.add_argument("--output", default="BENCH_synth.json",
                        help="where to write the JSON record")
    parser.add_argument("--skip-parallel", action="store_true",
                        help="skip the --jobs parity runs (serial only)")
    args = parser.parse_args(argv)
    candidates = QUICK_CANDIDATES if args.quick else None
    scope = "quick (CI smoke candidates)" if args.quick \
        else "full multi-V-scale SVA corpus"
    cpus = os.cpu_count() or 1

    print(f"shipped engine ({scope}, serial):")
    stages = [run_stage("incremental_arena", 1, candidates)]

    # jobs>1 wall clock on a single-CPU box measures scheduling overhead,
    # not parallel speedup; the rows would read as a regression (ROADMAP
    # item: the recorded BENCH numbers came from a 1-CPU container).
    parallel_skipped = None
    if args.skip_parallel:
        parallel_skipped = "--skip-parallel"
    elif cpus <= 1:
        parallel_skipped = (f"host exposes {cpus} CPU; jobs>1 rows would "
                            "measure process overhead, not scaling")
        print(f"skipping --jobs {args.jobs} parity rows: {parallel_skipped}")
    parity = []
    if parallel_skipped is None:
        print(f"jobs parity (--jobs {args.jobs}):")
        parity = [run_stage("arena_parallel", args.jobs, candidates)]

    print("compose vs monolithic (hierarchical compositional synthesis):")
    compose_rows = [
        run_stage("compose_serial", 1, candidates, compose=True),
    ]
    if parallel_skipped is None:
        compose_rows.append(
            run_stage("compose_parallel", args.jobs, candidates,
                      compose=True))

    every = stages + parity
    verdict_digests = {stage["verdict_digest"] for stage in every}
    assert len(verdict_digests) == 1, \
        f"per-SVA verdicts diverged across stages: {verdict_digests}"
    uarch_digests = {stage["uarch_sha256"] for stage in every}
    assert len(uarch_digests) == 1, \
        f".uarch bytes diverged across stages: {uarch_digests}"
    # Compose reaches the same model/verdicts on different proof
    # obligations (module-scoped, k-induction depths differ), so it is
    # held to the trichotomy digest and byte-identical .uarch — not the
    # strict per-verdict digest above.
    for row in compose_rows:
        assert row["uarch_sha256"] == stages[-1]["uarch_sha256"], \
            f"compose .uarch diverged: {row['name']}"
        assert row["trichotomy_digest"] == stages[-1]["trichotomy_digest"], \
            f"compose verdict trichotomy diverged: {row['name']}"
        assert row["fingerprint_dedup"] > 0, \
            "compose mode deduplicated no isomorphic problems"

    before = None
    if os.path.exists(args.output):
        with open(args.output, "r", encoding="utf-8") as handle:
            before = json.load(handle)
    record = {
        "schema": "repro-bench-synth/4",
        "scope": scope,
        "cpu_count": cpus,
        "parallel_skipped": parallel_skipped,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "trajectory": stages,
        "parity": parity,
        "compose": compose_rows,
        "verdict_digest": verdict_digests.pop(),
        "uarch_sha256": uarch_digests.pop(),
        "before": before,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nserial {stages[0]['seconds']:.2f}s, digests agree across "
          f"{len(every) + len(compose_rows)} row(s) — record in "
          f"{args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
