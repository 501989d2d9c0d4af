"""Parallel SVA discharge: serial vs. process-pool wall clock.

The paper's synthesis cost is dominated by property checking (122 SVAs,
3.34 s average, 6.84 min total on multi-V-scale) and notes the SVAs are
largely independent.  This benchmark measures the plan/execute
scheduler's payoff on the multi-V-scale flow with a cold cache:

* ``jobs=1``  — the historical serial discharge,
* ``jobs=N``  — obligation batches fanned out to N worker processes,
* warm cache — a second run against the verdict store file, where
  plan-time probes mean (almost) nothing reaches the checker at all.

On a >= 2-core runner the parallel run must be >= 1.5x faster than
serial; on a single core the speedup is recorded but not asserted.
By default the flow is scoped to a representative candidate set (a few
minutes); REPRO_BENCH_FULL=1 runs the complete candidate set.
"""

import os
import time

from conftest import FULL_SCALE, write_report

from repro import PropertyChecker, synthesize_uspec
from repro.formal import VerdictStore

SCOPED_CANDIDATES = [
    "core_gen[0].core.inst_DX",
    "core_gen[0].core.PC_DX",
    "core_gen[0].core.wdata",
    "core_gen[0].core.regfile",
    "the_mem.mem",
]


def _run(jobs, cache_path=None):
    checker = PropertyChecker(bound=12, max_k=1)
    verdicts = VerdictStore(cache_path) if cache_path is not None else None
    candidates = None if FULL_SCALE else SCOPED_CANDIDATES
    start = time.perf_counter()
    try:
        result = synthesize_uspec(checker=checker,
                                  candidate_filter=candidates, jobs=jobs,
                                  verdicts=verdicts)
    finally:
        if verdicts is not None:
            verdicts.close()
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_parallel_discharge_speedup(tmp_path):
    cores = os.cpu_count() or 1
    jobs = max(2, cores)

    serial_result, serial_s = _run(jobs=1)
    parallel_result, parallel_s = _run(jobs=jobs)
    speedup = serial_s / parallel_s if parallel_s else float("inf")

    # Warm-cache run: plan-time probes satisfy every obligation.
    cache_path = str(tmp_path / "verdicts.jsonl")
    _, cold_cache_s = _run(jobs=jobs, cache_path=cache_path)
    warm_result, warm_s = _run(jobs=jobs, cache_path=cache_path)

    scope = "full" if FULL_SCALE else f"scoped({len(SCOPED_CANDIDATES)} states)"
    stats = parallel_result.discharge_stats
    lines = [
        f"# Parallel SVA discharge ({scope}, {cores} core(s))", "",
        f"serial   jobs=1      {serial_s:8.2f} s "
        f"({serial_result.stats.total_svas()} SVAs)",
        f"parallel jobs={jobs:<2}     {parallel_s:8.2f} s  "
        f"(speedup {speedup:.2f}x, {stats.pool_tasks} pool tasks, "
        f"{stats.batches} batches)",
        f"cold cache jobs={jobs:<2}   {cold_cache_s:8.2f} s",
        f"warm cache jobs={jobs:<2}   {warm_s:8.2f} s  "
        f"({warm_result.discharge_stats.cache_hits} plan-time hits, "
        f"{warm_result.discharge_stats.executed - warm_result.discharge_stats.cache_hits:+d} checks)",
        "",
        "paper context: 122 SVAs at 3.34 s avg, 6.84 min total serial "
        "(multi-V-scale, JasperGold).",
    ]
    write_report("parallel_discharge.txt", "\n".join(lines) + "\n")

    # Correctness invariants hold at any scale and core count.
    assert {(r.signature, r.verdict.status) for r in serial_result.sva_records} \
        == {(r.signature, r.verdict.status) for r in parallel_result.sva_records}
    assert warm_result.discharge_stats.cache_hits > 0
    if cores >= 2:
        assert speedup >= 1.5, (
            f"expected >= 1.5x parallel speedup on {cores} cores, "
            f"got {speedup:.2f}x")
