#!/usr/bin/env python3
"""A/A check: measure the same commit as two sets of runs and print,
for every end-to-end metric, each set's spread and the shift between
the set medians against the metric's bound from ``BENCHMARK.json``.

    python3 perfbench/aa.py --workload serve_check

The two sets are interleaved: seed ``i`` runs once for each set, and
which set goes first alternates, so a slow drift in the host's speed
falls on both sets alike instead of showing as a shift.  A metric is
``FAIL`` when a set's spread or the worsening of the second median
exceeds the bound, and ``NOISY`` when either exceeds a third of the
bound: the benchmark is then too noisy for that bound to separate a
regression from chance.  The spread of ``setup_s`` is not judged, as
in the benchmark's acceptance rule; its shift is.  The exit code is 0
only when every metric is ``ok``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT]

from perfbench import stats  # noqa: E402

#: runs per set, one per seed 1..RUNS
RUNS = 10

#: metrics whose run-to-run spread is not held to the bound (set-up is
#: still held to it through the shift between set medians)
SPREAD_EXEMPT = ("setup_s",)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def judge(name: str, first: Sequence[float], second: Sequence[float],
          bound: float, better: str) -> Dict[str, object]:
    """Compare two sets of one metric's values from identical code."""
    spreads = [stats.spread(first), stats.spread(second)]
    shift = worsening(stats.median(first), stats.median(second), better)
    held = [] if name in SPREAD_EXEMPT else spreads
    if shift > bound or any(value > bound for value in held):
        verdict = "FAIL"
    elif abs(shift) > bound / 3 or any(value > bound / 3 for value in held):
        verdict = "NOISY"
    else:
        verdict = "ok"
    return {"metric": name, "bound": bound, "spreads": spreads,
            "medians": [stats.median(first), stats.median(second)],
            "shift": shift, "verdict": verdict}


def schedule(runs: int) -> List[Tuple[int, int]]:
    """``(seed, set)`` in run order: seeds 1..runs, each run once for
    set 0 and once for set 1, with the first of the pair alternating."""
    return [(seed, which) for seed in range(1, runs + 1)
            for which in ((0, 1) if seed % 2 else (1, 0))]


def run_once(workload: str, seed: int) -> Dict[str, float]:
    """One ``--trace 0`` run at run.py's own ``run_seconds``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    sets: List[Dict[str, List[float]]] = [{}, {}]
    for seed, which in schedule(RUNS):
        values = run_once(args.workload, seed)
        for name, value in values.items():
            sets[which].setdefault(name, []).append(value)
        print(f"  set {which + 1} seed {seed}: " + ", ".join(
            f"{name}={value:.4g}" for name, value in values.items()),
            flush=True)
    rows = [judge(m["name"], sets[0][m["name"]], sets[1][m["name"]],
                  m["bound"], m["better"]) for m in spec["end_to_end"]]
    print(f"{'metric':<14}{'bound':>7}{'spread1':>9}{'spread2':>9}"
          f"{'shift':>8}  verdict")
    for row in rows:
        print(f"{row['metric']:<14}{row['bound']:>7.2f}"
              f"{row['spreads'][0]:>9.3f}{row['spreads'][1]:>9.3f}"
              f"{row['shift']:>+8.3f}  {row['verdict']}")
    return 0 if all(row["verdict"] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
