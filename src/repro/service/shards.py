"""Fleet sharding for sweep/check service jobs.

A sweep job used to occupy one warm worker end-to-end no matter how
many sat idle.  This module splits one submitted job into
``shards`` deterministic chunks the daemon dispatches across the
fleet, then merges the shard results back into **the byte-identical
single-worker artifact** — same digest, same JSON bytes.

The design keeps shards cheap and the merge exact:

* a shard is addressed, not serialized: the dispatch carries only
  ``(shard_index, shard_count)`` (the hidden ``_shard`` parameter) and
  the worker re-derives the full deterministic member list — the same
  :func:`~repro.check.exhaustive.enumerate_sweep_programs` /
  generator-spec enumeration / suite resolution every path uses — and
  takes its contiguous stripe (:func:`shard_bounds`);
* stripes are contiguous and merged in shard order, so concatenating
  shard results reproduces exactly the single-worker enumeration
  order; the merged payload is serialized by the *same* code that
  serializes the unsharded artifact (:func:`sweep_payload_bytes`,
  :func:`check_report_bytes`), which is what makes byte-identity a
  structural property rather than a test-enforced coincidence;
* a shard whose worker crashed/hung is re-dispatched up to
  ``--max-attempts``; past that its members degrade to first-class
  UNKNOWN in a **partial** report — ``"partial": true``, the lost
  members enumerated, job state ``unknown`` (exit code 1) — instead
  of failing the whole job and discarding the shards that finished.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ServiceError

#: job kinds that accept a ``shards`` parameter
SHARDABLE_KINDS = ("check", "sweep")

#: upper bound on the shard fan-out of one job (sanity, not tuning)
MAX_SHARDS = 64

#: shard artifact schemas (worker -> daemon, never user-facing)
CHECK_SHARD_SCHEMA = "repro-check-shard/1"
SWEEP_SHARD_SCHEMA = "repro-sweep-shard/1"

_PROJECTION_KEYS = ("name", "status", "observable", "permitted_sc",
                    "passed", "overstrict")


# ----------------------------------------------------------------------
# Shard addressing
# ----------------------------------------------------------------------
def normalize_shards(params: Dict) -> int:
    """The effective shard count of a submission (>= 1)."""
    shards = params.get("shards")
    if shards is None or shards == 0:
        return 1
    return int(shards)


def shard_id(job_id: str, index: int) -> str:
    """The fleet-facing id of one shard dispatch."""
    return f"{job_id}#s{index}"


def split_shard_id(dispatch_id: str) -> Optional[Tuple[str, int]]:
    """``(parent_job_id, shard_index)`` or None for a whole job."""
    if "#s" not in dispatch_id:
        return None
    parent, _, suffix = dispatch_id.rpartition("#s")
    try:
        return parent, int(suffix)
    except ValueError:
        return None


def shard_bounds(total: int, index: int, count: int) -> Tuple[int, int]:
    """The contiguous ``[start, end)`` stripe of shard ``index`` over
    ``total`` members.  Stripes are balanced (sizes differ by at most
    one), cover everything, and never overlap — concatenating them in
    index order reproduces the full list."""
    if count <= 0 or not 0 <= index < count:
        raise ServiceError(f"bad shard address {index}/{count}")
    base, remainder = divmod(total, count)
    start = index * base + min(index, remainder)
    end = start + base + (1 if index < remainder else 0)
    return start, end


def shard_params(params: Dict, index: int, count: int) -> Dict:
    """The parameter dict dispatched for one shard: the parent's
    params minus the ``shards`` fan-out key, plus the hidden
    ``_shard`` address the worker slices by."""
    sliced = {key: value for key, value in params.items()
              if key != "shards"}
    sliced["_shard"] = [index, count]
    return sliced


def shard_address(params: Dict) -> Optional[Tuple[int, int]]:
    """The ``(index, count)`` a worker was dispatched, or None."""
    address = params.get("_shard")
    if address is None:
        return None
    index, count = address
    return int(index), int(count)


# ----------------------------------------------------------------------
# Member enumeration (daemon side, for partial reports)
# ----------------------------------------------------------------------
def format_program(program) -> str:
    """One-line deterministic rendering of a sweep program, used to
    name lost-shard members in partial reports."""
    threads = []
    for thread in program:
        parts = []
        for access in thread:
            if access.kind == "W":
                parts.append(f"W {access.addr}={access.value}")
            elif access.kind == "F":
                parts.append("F")
            else:
                parts.append(f"R {access.addr}->{access.reg}")
        threads.append(" ; ".join(parts))
    return " | ".join(threads)


def sweep_program_list(params: Dict) -> List:
    """The deterministic program list one sweep submission covers —
    the single source both the unsharded run and every shard slice
    from.  ``generate`` substitutes a generator-spec corpus for the
    built-in shape enumeration (``limit`` caps either)."""
    from ..check.exhaustive import enumerate_sweep_programs, normalize_limit
    spec_text = params.get("generate")
    if not spec_text:
        return enumerate_sweep_programs(params["threads"], params["length"],
                                        ("x", "y"), params["limit"])
    from ..litmus.generator import iter_programs, parse_spec
    cap = normalize_limit(params["limit"])
    if cap is None:
        raise ServiceError("sweep with 'generate' needs a positive "
                           "'limit' (generated corpora are unbounded)")
    programs = []
    for _fingerprint, program in iter_programs(parse_spec(spec_text)):
        programs.append(program)
        if len(programs) >= cap:
            break
    return programs


def shard_member_names(kind: str, params: Dict, index: int,
                       count: int) -> List[str]:
    """The display names of one shard's members (test names for check,
    program renderings for sweep) — computed lazily, only when a lost
    shard must be enumerated in a partial report."""
    if kind == "check":
        from ..litmus import load_suite, resolve_tests
        tests = resolve_tests(params["tests"]) if params.get("tests") \
            else load_suite()
        members = [test.name for test in tests]
    elif kind == "sweep":
        members = [format_program(program)
                   for program in sweep_program_list(params)]
    else:
        raise ServiceError(f"job kind {kind!r} is not shardable")
    start, end = shard_bounds(len(members), index, count)
    return members[start:end]


# ----------------------------------------------------------------------
# Artifact assembly (single source for sharded AND unsharded paths)
# ----------------------------------------------------------------------
def _artifact_bytes(payload: Dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n"
            ).encode("utf-8")


def sweep_payload_bytes(payload: Dict) -> bytes:
    """Serialize one ``repro-check-sweep/2`` payload — shared by
    :func:`repro.service.jobs._run_sweep` and the shard merge so the
    two can only ever agree byte-for-byte."""
    return _artifact_bytes(payload)


def check_report_bytes(report: Dict) -> bytes:
    """Serialize one ``repro-check-suite/4`` report (same sharing)."""
    return _artifact_bytes(report)


def check_digest_from_entries(entries: Sequence[Dict]) -> str:
    """:func:`repro.check.verifier.suite_digest` recomputed from
    report test entries instead of live verdicts — same canonical
    projection, same bytes, same hash."""
    projection = [{key: entry[key] for key in _PROJECTION_KEYS}
                  for entry in entries]
    canonical = json.dumps(projection, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def assemble_check_report(entries: Sequence[Dict], engine: str,
                          engine_used: str) -> Dict:
    """Rebuild the deterministic ``repro-check-suite/4`` report from
    per-test entries (the shape :func:`suite_report_json` emits with
    ``deterministic=True`` and the service's fixed ``model`` label)."""
    return {
        "schema": "repro-check-suite/4",
        "model": "submitted",
        "engine": engine,
        "engine_used": engine_used or engine,
        "digest": check_digest_from_entries(entries),
        "failures": sum(1 for e in entries
                        if e["status"] == "DECIDED" and e["observable"]
                        and not e["permitted_sc"]),
        "undecided": sum(1 for e in entries if e["status"] != "DECIDED"),
        "tests": list(entries),
    }


def unknown_check_entry(name: str) -> Dict:
    """The placeholder entry for a test whose shard exhausted its
    attempts: first-class UNKNOWN, conservatively not a pass."""
    return {
        "name": name,
        "status": "UNKNOWN",
        "observable": False,
        "permitted_sc": False,
        "passed": False,
        "overstrict": False,
        "stats": {},
    }


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def merge_check_shards(params: Dict, payloads: Dict[int, Dict],
                       lost: Dict[int, List[str]]
                       ) -> Tuple[str, Dict, bytes, str]:
    """Merge check shard payloads (+ lost-shard member names) into the
    final job result: ``(state, summary, artifact_bytes, name)``.

    With no lost shards the artifact is byte-identical to the
    single-worker ``report.json``; with lost shards it is a partial
    report whose UNKNOWN set is exactly the lost shards' members.
    """
    count = len(payloads) + len(lost)
    entries: List[Dict] = []
    engine_used = ""
    for index in range(count):
        if index in payloads:
            shard = payloads[index]
            entries.extend(shard["tests"])
            engine_used = engine_used or shard.get("engine_used", "")
        else:
            entries.extend(unknown_check_entry(name)
                           for name in lost[index])
    report = assemble_check_report(entries, params["engine"], engine_used)
    if lost:
        report["partial"] = True
        report["unknown_shards"] = sorted(lost)
        report["unknown_tests"] = [name for index in sorted(lost)
                                   for name in lost[index]]
    summary = {
        "digest": report["digest"],
        "tests": len(entries),
        "failures": report["failures"],
        "undecided": report["undecided"],
        "passed": report["failures"] == 0 and report["undecided"] == 0,
        "shards": count,
    }
    if lost:
        summary["partial"] = True
        summary["unknown_shards"] = sorted(lost)
    state = "unknown" if report["undecided"] else "done"
    return state, summary, check_report_bytes(report), "report.json"


def merge_sweep_shards(params: Dict, payloads: Dict[int, Dict],
                       lost: Dict[int, List[str]]
                       ) -> Tuple[str, Dict, bytes, str]:
    """Merge sweep shard payloads into the final ``sweep.json``:
    byte-identical to the single-worker artifact when nothing was
    lost, a ``partial: true`` report naming the lost programs (the
    UNKNOWN set) otherwise."""
    count = len(payloads) + len(lost)
    programs = outcomes = 0
    unsound: List[str] = []
    overstrict: List[str] = []
    undecided: List[str] = []
    unknown_programs: List[str] = []
    for index in range(count):
        if index in payloads:
            shard = payloads[index]
            programs += shard["programs"]
            outcomes += shard["outcomes_checked"]
            unsound.extend(shard["unsound"])
            overstrict.extend(shard["overstrict"])
            undecided.extend(shard["undecided"])
        else:
            programs += len(lost[index])
            unknown_programs.extend(lost[index])
    digest = _sweep_digest(programs, outcomes, unsound, overstrict,
                           undecided)
    exact = not unsound and not overstrict and not undecided \
        and not unknown_programs
    payload = {
        "schema": "repro-check-sweep/2",
        "digest": digest,
        "programs": programs,
        "outcomes_checked": outcomes,
        "exact": exact,
        "unsound": unsound,
        "overstrict": overstrict,
        "undecided": undecided,
    }
    if lost:
        payload["partial"] = True
        payload["unknown_shards"] = sorted(lost)
        payload["unknown_programs"] = unknown_programs
    summary = {
        "digest": digest,
        "programs": programs,
        "outcomes_checked": outcomes,
        "exact": exact,
        "undecided": len(undecided) + len(unknown_programs),
        "shards": count,
    }
    if lost:
        summary["partial"] = True
        summary["unknown_shards"] = sorted(lost)
    state = "unknown" if summary["undecided"] else "done"
    return state, summary, sweep_payload_bytes(payload), "sweep.json"


def _sweep_digest(programs: int, outcomes: int, unsound: Sequence[str],
                  overstrict: Sequence[str],
                  undecided: Sequence[str]) -> str:
    """:meth:`ExactnessReport.digest` recomputed from the formatted
    projections shards carry (same canonical JSON, same hash)."""
    canonical = json.dumps({
        "programs": programs,
        "outcomes_checked": outcomes,
        "unsound": list(unsound),
        "overstrict": list(overstrict),
        "undecided": list(undecided),
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Daemon-side shard tracking
# ----------------------------------------------------------------------
class ShardedJob:
    """One in-flight sharded job: which shards delivered payloads,
    which exhausted their attempts, and the merge once all are
    terminal.  The authoritative copy of delivered payloads is the
    ledger (``record_shard``); this object is rebuilt from it after a
    daemon restart."""

    def __init__(self, job_id: str, kind: str, params: Dict, count: int):
        if kind not in SHARDABLE_KINDS:
            raise ServiceError(f"job kind {kind!r} is not shardable")
        self.job_id = job_id
        self.kind = kind
        self.params = params
        self.count = count
        self.payloads: Dict[int, Dict] = {}
        self.lost: Set[int] = set()
        self.attempts: Dict[int, int] = {i: 0 for i in range(count)}

    def shard_params(self, index: int) -> Dict:
        return shard_params(self.params, index, self.count)

    def pending(self) -> List[int]:
        return [index for index in range(self.count)
                if index not in self.payloads and index not in self.lost]

    def record(self, index: int, payload: Dict) -> None:
        self.payloads[index] = payload
        self.lost.discard(index)

    def record_lost(self, index: int) -> None:
        if index not in self.payloads:
            self.lost.add(index)

    def finished(self) -> bool:
        return len(self.payloads) + len(self.lost) >= self.count

    def merge(self) -> Tuple[str, Dict, bytes, str]:
        lost = {index: shard_member_names(self.kind, self.params, index,
                                          self.count)
                for index in sorted(self.lost)}
        if self.kind == "check":
            return merge_check_shards(self.params, self.payloads, lost)
        return merge_sweep_shards(self.params, self.payloads, lost)
