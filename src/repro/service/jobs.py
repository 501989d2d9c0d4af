"""Job kinds, parameter validation, and warm execution contexts.

A job is ``(kind, params)`` where ``kind`` is one of
:data:`JOB_KINDS` and ``params`` is a JSON-safe dict validated and
normalized by :func:`validate_params` *at submission time* — a bad
request is rejected at the socket, never discovered by a worker.

Execution (:func:`execute_job`) is **deterministic**: the result
summary and artifact bytes depend only on ``(kind, params)`` and the
repo's bundled designs/suite.  That is the property the whole
resilience story rests on — a job re-run after a daemon ``kill -9``,
or re-dispatched after its worker died, reproduces byte-identical
artifacts, so crash recovery is indistinguishable from slowness.

:class:`WorkerContext` is the warm state a service worker keeps
between jobs — the reason ``repro serve`` exists:

* elaborated design netlists (``parse`` once, reuse for every synth);
* one :class:`~repro.formal.PropertyChecker` and one
  :class:`~repro.formal.VerdictStore` per (design, bound, k), whose
  retained solvers, in-memory BlastCache and verdicts survive across
  jobs;
* the persistent store tier (the verdict store's artifact-store
  backend), so verdict reuse also crosses process and daemon
  restarts.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from ..errors import ServiceError
from ..resilience import Budget
from .store import ArtifactStore

JOB_KINDS = ("parse", "synth", "check", "sweep", "generate", "bench")

#: designs a parse/synth job may name (mirrors ``repro pipeline``)
JOB_DESIGNS = ("multi", "unicore")

#: workloads a bench job may time against the warm fleet
BENCH_WORKLOADS = ("check", "synth")

#: per-kind allowed parameter names and defaults (None = optional)
_PARAM_DEFAULTS: Dict[str, Dict[str, object]] = {
    "parse": {"design": "multi"},
    "synth": {"design": "multi", "bound": None, "max_k": None,
              "candidates": None, "timeout": None},
    "check": {"model_text": None, "tests": None, "timeout": None,
              "shards": None},
    "sweep": {"model_text": None, "threads": 2, "length": 2, "limit": None,
              "timeout": None, "shards": None, "generate": None},
    "generate": {"spec": "threads=2,len=2", "count": 1000, "tests": False},
    "bench": {"workload": "check", "design": "multi", "tests": None,
              "repeat": 2, "timeout": None},
}


def validate_params(kind: str, params: Optional[Dict]) -> Dict:
    """Normalize one submission's parameters; raise
    :class:`ServiceError` on anything malformed.  The returned dict has
    every key of the kind's schema (defaults filled in), in canonical
    form — two submissions asking for the same work validate to equal
    dicts."""
    if kind not in JOB_KINDS:
        raise ServiceError(f"unknown job kind {kind!r} "
                           f"(expected one of {JOB_KINDS})")
    params = dict(params or {})
    schema = _PARAM_DEFAULTS[kind]
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ServiceError(f"unknown {kind} parameter(s): "
                           f"{', '.join(unknown)}")
    normalized = dict(schema)
    normalized.update(params)
    if kind in ("parse", "synth") and \
            normalized["design"] not in JOB_DESIGNS:
        raise ServiceError(f"unknown design {normalized['design']!r} "
                           f"(expected one of {JOB_DESIGNS})")
    for key in ("bound", "max_k", "threads", "length", "limit", "count",
                "shards", "repeat"):
        if key in normalized and normalized[key] is not None:
            if not isinstance(normalized[key], int) or \
                    isinstance(normalized[key], bool) or normalized[key] < 0:
                raise ServiceError(f"{kind} parameter {key!r} must be a "
                                   f"non-negative integer")
    if "shards" in normalized and normalized["shards"] is not None:
        from .shards import MAX_SHARDS
        if normalized["shards"] > MAX_SHARDS:
            raise ServiceError(f"{kind} parameter 'shards' must be at "
                               f"most {MAX_SHARDS}")
    if kind == "sweep" and normalized.get("generate") is not None:
        if not isinstance(normalized["generate"], str):
            raise ServiceError("sweep parameter 'generate' must be a "
                               "corpus spec string")
        from ..check.exhaustive import normalize_limit
        from ..errors import LitmusError
        from ..litmus.generator import parse_spec
        try:
            parse_spec(normalized["generate"])
        except LitmusError as exc:
            raise ServiceError(f"bad sweep generate spec: {exc}")
        if normalize_limit(normalized["limit"]) is None:
            raise ServiceError("sweep with 'generate' needs a positive "
                               "'limit' (generated corpora are unbounded)")
    if kind == "bench":
        if normalized["workload"] not in BENCH_WORKLOADS:
            raise ServiceError(f"unknown bench workload "
                               f"{normalized['workload']!r} (expected one "
                               f"of {BENCH_WORKLOADS})")
        if normalized["design"] not in JOB_DESIGNS:
            raise ServiceError(f"unknown design {normalized['design']!r} "
                               f"(expected one of {JOB_DESIGNS})")
        if not normalized["repeat"]:
            normalized["repeat"] = 1
    if kind == "generate":
        if not isinstance(normalized["spec"], str):
            raise ServiceError("generate parameter 'spec' must be a "
                               "corpus spec string")
        if not isinstance(normalized["tests"], bool):
            raise ServiceError("generate parameter 'tests' must be a "
                               "boolean")
        from ..errors import LitmusError
        from ..litmus.generator import parse_spec
        try:
            parse_spec(normalized["spec"])
        except LitmusError as exc:
            raise ServiceError(f"bad generate spec: {exc}")
    if normalized.get("timeout") is not None:
        if not isinstance(normalized["timeout"], (int, float)) or \
                isinstance(normalized["timeout"], bool) or \
                normalized["timeout"] <= 0:
            raise ServiceError(f"{kind} parameter 'timeout' must be a "
                               f"positive number of seconds")
    if normalized.get("model_text") is not None and \
            not isinstance(normalized["model_text"], str):
        raise ServiceError(f"{kind} parameter 'model_text' must be the "
                           f"model file's text")
    # ("tests" is a bool for generate jobs — validated above — and a
    # list of test names for check jobs.)
    tests = normalized.get("tests")
    if tests is not None and kind != "generate":
        if not isinstance(tests, list) or \
                not all(isinstance(name, str) for name in tests):
            raise ServiceError("check parameter 'tests' must be a list "
                               "of test names")
    try:
        json.dumps(normalized)
    except (TypeError, ValueError):
        raise ServiceError(f"{kind} parameters are not JSON-serializable")
    return normalized


# ----------------------------------------------------------------------
# Warm execution context (lives in one worker process)
# ----------------------------------------------------------------------
class WorkerContext:
    """Per-worker warm state: elaborated designs, retained checkers,
    and the persistent store tier."""

    def __init__(self, store_root: str,
                 store_byte_budget: Optional[int] = None):
        self.store = ArtifactStore(store_root,
                                   byte_budget=store_byte_budget)
        self._presets: Dict[str, Tuple] = {}
        self._checkers: Dict[Tuple, object] = {}
        #: jobs executed by this context (recycling bookkeeping)
        self.jobs_executed = 0

    def preset(self, design: str) -> Tuple:
        """The (cached) elaborated design preset."""
        if design not in self._presets:
            from ..pipeline import design_preset
            self._presets[design] = design_preset(design)
        return self._presets[design]

    def checker(self, design: str, bound: int, max_k: int,
                timeout: Optional[float]) -> Tuple:
        """The ``(PropertyChecker, VerdictStore)`` pair of one problem
        shape, kept warm across jobs.  The verdict store is
        store-backed, so a cold *process* still starts warm from disk
        and runs no check it has a verdict for.  The store never holds
        an UNKNOWN (the scheduler records decided verdicts only), so a
        job's budget never leaks into a later job's result."""
        key = (design, bound, max_k)
        if key not in self._checkers:
            from ..formal import PropertyChecker, VerdictStore
            self._checkers[key] = (PropertyChecker(bound=bound, max_k=max_k),
                                   VerdictStore(artifacts=self.store))
        checker, verdicts = self._checkers[key]
        # Per-job budget without losing the warm caches.
        checker.timeout_seconds = timeout
        return checker, verdicts

    def close(self) -> None:
        try:
            self.store.close()
        except OSError:
            # Counter folds are diagnostics; a full disk (or the fault
            # plan's store budget) must not turn a clean worker exit into a
            # crash.
            pass


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_job(kind: str, params: Dict, ctx: WorkerContext
                ) -> Tuple[Dict, Optional[bytes], Optional[str]]:
    """Run one validated job; returns ``(summary, artifact_bytes,
    artifact_name)``.  Summary and artifact are deterministic functions
    of ``(kind, params)``; errors raise (the fleet maps them to a
    ``failed`` job)."""
    ctx.jobs_executed += 1
    if kind == "parse":
        return _run_parse(params, ctx)
    if kind == "synth":
        return _run_synth(params, ctx)
    if kind == "check":
        return _run_check(params, ctx)
    if kind == "sweep":
        return _run_sweep(params, ctx)
    if kind == "generate":
        return _run_generate(params, ctx)
    if kind == "bench":
        return _run_bench(params, ctx)
    raise ServiceError(f"unknown job kind {kind!r}")


def _load_model(model_text: Optional[str]):
    from ..uspec import parse_model
    if model_text:
        return parse_model(model_text)
    from ..designs.models import load_reference_model
    return load_reference_model()


def _run_parse(params: Dict, ctx: WorkerContext):
    from ..netlist import netlist_fingerprint
    sim_netlist, formal_netlist = ctx.preset(params["design"])[:2]
    summary = {
        "design": params["design"],
        "fingerprints": {
            "sim": netlist_fingerprint(sim_netlist),
            "formal": netlist_fingerprint(formal_netlist),
        },
        "stats": sim_netlist.stats(),
    }
    artifact = (json.dumps(summary, indent=2, sort_keys=True) + "\n"
                ).encode("utf-8")
    return summary, artifact, "parse.json"


def _run_synth(params: Dict, ctx: WorkerContext):
    from ..core.synthesizer import Rtl2Uspec
    from ..uspec import format_model
    sim_netlist, formal_netlist, metadata, bound, max_k, candidates, \
        formal_cores = ctx.preset(params["design"])
    bound = params["bound"] if params["bound"] is not None else bound
    max_k = params["max_k"] if params["max_k"] is not None else max_k
    if params["candidates"] is not None:
        candidates = params["candidates"]
    checker, verdicts = ctx.checker(params["design"], bound, max_k,
                                    params["timeout"])
    with Rtl2Uspec(sim_netlist, formal_netlist, metadata,
                   checker=checker, verdicts=verdicts,
                   formal_cores=formal_cores,
                   candidate_filter=candidates, jobs=1) as synthesizer:
        result = synthesizer.synthesize()
    engine_stats = checker.stats
    summary = {
        "design": params["design"],
        "verdict_digest": result.verdict_digest(),
        "engine": {
            "checks": int(engine_stats.get("checks", 0)),
            "blast_hits": int(engine_stats.get("blast_hits", 0)),
            "blast_misses": int(engine_stats.get("blast_misses", 0)),
        },
        "store": {"verdict_hits": verdicts.store_hits},
    }
    artifact = format_model(result.model).encode("utf-8")
    return summary, artifact, "model.uarch"


def _run_check(params: Dict, ctx: WorkerContext):
    from ..check import run_suite, suite_digest, suite_report_json
    from ..litmus import load_suite, resolve_tests
    from .shards import (CHECK_REPORT_MODEL, check_report_bytes,
                         shard_address, shard_bounds)
    model = _load_model(params["model_text"])
    tests = resolve_tests(params["tests"]) if params["tests"] \
        else load_suite()
    address = shard_address(params)
    if address is not None:
        start, end = shard_bounds(len(tests), *address)
        tests = tests[start:end]
    budget = Budget(timeout_seconds=params["timeout"]) \
        if params["timeout"] else None
    run = run_suite(model, tests, jobs=1, budget=budget)
    report = suite_report_json(run.verdicts, model=CHECK_REPORT_MODEL,
                               deterministic=True)
    if address is not None:
        # A shard ships its slice of the deterministic report; the
        # daemon concatenates slices (contiguous, in shard order) and
        # rebuilds the byte-identical single-worker report.json.
        from .shards import CHECK_SHARD_SCHEMA
        payload = {
            "schema": CHECK_SHARD_SCHEMA,
            "shard": address[0],
            "of": address[1],
            "tests": report["tests"],
        }
        summary = {
            "shard": address[0],
            "of": address[1],
            "tests": len(run.verdicts),
            "failures": report["failures"],
            "undecided": report["undecided"],
        }
        artifact = (json.dumps(payload, indent=2, sort_keys=True) + "\n"
                    ).encode("utf-8")
        return summary, artifact, f"shard-{address[0]}.json"
    summary = {
        "digest": suite_digest(run.verdicts),
        "tests": len(run.verdicts),
        "failures": report["failures"],
        "undecided": report["undecided"],
        "passed": report["failures"] == 0 and report["undecided"] == 0,
    }
    return summary, check_report_bytes(report), "report.json"


def _run_generate(params: Dict, ctx: WorkerContext):
    import itertools

    from ..litmus.generator import (corpus_digest, iter_programs, iter_tests,
                                    parse_spec)
    spec = parse_spec(params["spec"])
    count = params["count"] or None
    if params["tests"]:
        stream = (test.name for test in iter_tests(spec))
    else:
        stream = ("gen-" + fp for fp, _ in iter_programs(spec))
    if count is not None:
        stream = itertools.islice(stream, count)
    names = list(stream)
    digest = corpus_digest(name[len("gen-"):] for name in names)
    payload = {
        "schema": "repro-litmus-generate/1",
        "spec": spec.describe(),
        "tests": bool(params["tests"]),
        "count": len(names),
        "digest": digest,
        "names": names,
    }
    summary = {
        "spec": spec.describe(),
        "tests": bool(params["tests"]),
        "count": len(names),
        "digest": digest,
        "sample": names[:10],
    }
    artifact = (json.dumps(payload, indent=2, sort_keys=True) + "\n"
                ).encode("utf-8")
    return summary, artifact, "corpus.json"


def _run_bench(params: Dict, ctx: WorkerContext):
    """Time a workload against this worker's *warm* context.

    The one job kind whose artifact is deliberately not deterministic:
    the per-repeat wall times are the product.  The digests inside it
    still are, and a re-run after a crash produces the same verdicts —
    only the timings differ.  ``benchmarks/bench_check_suite.py
    --serve`` submits these to record warm-fleet rows (verdict-store
    hits, engine checks, shard counts) into ``BENCH_check.json``.
    """
    import time
    repeat = params["repeat"] or 1
    times_ms: list = []
    if params["workload"] == "synth":
        inner = {"design": params["design"], "bound": None, "max_k": None,
                 "candidates": None, "timeout": params["timeout"]}
        summary = {}
        for _ in range(repeat):
            started = time.perf_counter()
            summary, _artifact, _name = _run_synth(inner, ctx)
            times_ms.append(round((time.perf_counter() - started) * 1e3, 3))
        digest = summary.get("verdict_digest", "")
        store_counters = summary.get("store", {})
        engine_counters = summary.get("engine", {})
        detail = {"design": params["design"]}
    else:
        from ..check import run_suite, suite_digest
        from ..litmus import load_suite, resolve_tests
        model = _load_model(None)
        tests = resolve_tests(params["tests"]) if params["tests"] \
            else load_suite()
        budget = Budget(timeout_seconds=params["timeout"]) \
            if params["timeout"] else None
        digest = ""
        for _ in range(repeat):
            started = time.perf_counter()
            run = run_suite(model, tests, jobs=1, budget=budget)
            times_ms.append(round((time.perf_counter() - started) * 1e3, 3))
            digest = suite_digest(run.verdicts)
        store_counters = {"verdict_hits": 0}
        engine_counters = {}
        detail = {"tests": len(tests)}
    payload = {
        "schema": "repro-bench-service/1",
        "workload": params["workload"],
        "repeat": repeat,
        "times_ms": times_ms,
        "digest": digest,
        "engine": engine_counters,
        "store": store_counters,
        **detail,
    }
    summary = {
        "workload": params["workload"],
        "repeat": repeat,
        "digest": digest,
        "warm_ms": times_ms[-1] if times_ms else 0.0,
        "cold_ms": times_ms[0] if times_ms else 0.0,
        "store": store_counters,
    }
    artifact = (json.dumps(payload, indent=2, sort_keys=True) + "\n"
                ).encode("utf-8")
    return summary, artifact, "bench.json"


def _run_sweep(params: Dict, ctx: WorkerContext):
    from ..check import verify_exactness
    from .shards import (SWEEP_SHARD_SCHEMA, shard_address, shard_bounds,
                         sweep_payload_bytes, sweep_program_list)
    model = _load_model(params["model_text"])
    budget = Budget(timeout_seconds=params["timeout"]) \
        if params["timeout"] else None
    programs = sweep_program_list(params)
    address = shard_address(params)
    if address is not None:
        start, end = shard_bounds(len(programs), *address)
        programs = programs[start:end]
    report = verify_exactness(
        model, limit=None, jobs=1, budget=budget, programs=programs)
    if address is not None:
        payload = {
            "schema": SWEEP_SHARD_SCHEMA,
            "shard": address[0],
            "of": address[1],
            "programs": report.programs,
            "outcomes_checked": report.outcomes_checked,
            "unsound": [formatted for formatted, _ in report.unsound],
            "overstrict": [formatted for formatted, _ in report.overstrict],
            "undecided": [formatted for formatted, _ in report.undecided],
        }
        summary = {
            "shard": address[0],
            "of": address[1],
            "programs": report.programs,
            "outcomes_checked": report.outcomes_checked,
            "undecided": len(report.undecided),
        }
        artifact = (json.dumps(payload, indent=2, sort_keys=True) + "\n"
                    ).encode("utf-8")
        return summary, artifact, f"shard-{address[0]}.json"
    payload = {
        "schema": "repro-check-sweep/2",
        "digest": report.digest(),
        "programs": report.programs,
        "outcomes_checked": report.outcomes_checked,
        "exact": report.exact,
        "unsound": [formatted for formatted, _ in report.unsound],
        "overstrict": [formatted for formatted, _ in report.overstrict],
        "undecided": [formatted for formatted, _ in report.undecided],
    }
    summary = {
        "digest": report.digest(),
        "programs": report.programs,
        "outcomes_checked": report.outcomes_checked,
        "exact": report.exact,
        "undecided": len(report.undecided),
    }
    return summary, sweep_payload_bytes(payload), "sweep.json"
