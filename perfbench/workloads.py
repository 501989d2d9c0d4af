"""The benchmark's three workloads.

Each workload turns ``--seed`` into a fixed cycle of op inputs
(:mod:`perfbench.inputs`) or repeats one input on every op, does its
one-time work in :meth:`setup`, and runs one op per :meth:`op` call,
checking the op's output against an oracle.  The program only ever
sees the generated inputs.

* ``synth_compose`` -- rtl2uspec synthesis of one fixed scope,
  compositional, over a 2-process pool: the paper's synthesis path (SAT
  most of the op, then bit-blasting, unrolling and encoding) plus
  shared-base blasting, fingerprint dedupe and the scheduler's
  process-pool path.
* ``litmus_sweep``  -- exactness of the reference model over a fixed
  batch of generated programs per op: check, litmus and mcm do the
  work; thousands of small SAT instances instead of synthesis' few
  large ones.
* ``serve_check``   -- a ``repro serve`` daemon with 2 workers and one
  closed-loop client submitting sharded 8-test check jobs: service
  overhead (submit, ledger, dispatch, frames, shard merge).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from perfbench import inputs, procfs
from perfbench.tracer import totals

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: scratch space for daemon state and trace output, inside the checkout
RUN_DIR = os.path.join(ROOT, ".bench_run")


class OpFailure(Exception):
    """An op's output disagreed with its oracle."""


class Workload:
    name = ""
    #: processes that compute at once; a host with fewer CPUs is refused
    workers = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tracer=None) -> None:
        """All one-time work, including a warm-up op where the program
        fills caches or finishes lazy set-up on its first op."""

    def inputs(self):
        """JSON description of the op cycle (digested into results)."""
        raise NotImplementedError

    def op(self, index: int, tracer=None) -> None:
        """Run op ``index`` of the cycle; raise :class:`OpFailure` when
        its output is wrong.  With a ``tracer``, record layer spans."""
        raise NotImplementedError

    def begin_window(self) -> None:
        """Called right before the timed loop starts."""

    def finish(self) -> List[str]:
        """Oracle checks deferred until after the timed loop: one reason
        per failed op."""
        return []

    def peak_rss_mb(self) -> float:
        return procfs.peak_rss_mb()

    def patch(self, tracer) -> None:
        """Swap the layer entry points for timed wrappers (undone by
        ``tracer.unpatch_all()`` after the op)."""

    def layer_metrics(self, tracer, op_ids) -> Dict[str, float]:
        """Per-layer figures over the traced ops ``op_ids`` (records of
        a traced op are kept under ``tracer.op_id``)."""
        return {}

    #: spans and counters every traced run must record; one missing
    #: means an entry point is no longer intercepted, and the metrics
    #: built on it would quietly read 0
    traced_spans: Tuple[str, ...] = ()
    traced_counters: Tuple[str, ...] = ()

    def untraced_layers(self, tracer) -> List[str]:
        """One reason per declared span or counter the run lacks."""
        seen = {span.name for span in tracer.spans}
        return ([f"span {name} was never recorded"
                 for name in self.traced_spans if name not in seen]
                + [f"counter {name} stayed 0"
                   for name in self.traced_counters
                   if not tracer.counters.get(name)])

    def teardown(self) -> None:
        """Stop every process the workload started."""


def _per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_ms(spans, name: str, ops: int, key: str = "seconds") -> float:
    """Per-op milliseconds of span ``name`` in a :func:`totals` table."""
    return _per_op(spans.get(name, {}).get(key, 0.0) * 1000.0, ops)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

#: the synthesized scope: the fetch front end (without it synthesis
#: raises SynthesisError), the memory (without it MergePlan.loc raises a
#: raw KeyError) and one writeback element.  Every op and every seed
#: synthesize this one scope: a run holds one or two ops, and the four
#: writeback elements' scopes differ in cost (12-18 s apiece
#: monolithically here), so a seeded element would set a run's median.
SCOPE = ("core_gen[0].core.inst_DX", "the_mem.mem",
         "core_gen[0].core.PC_WB")

#: (.uarch sha256, verdict-trichotomy digest) of :data:`SCOPE`, the
#: same for monolithic and compositional synthesis
SYNTH_PIN = (
    "2319b9072eaee644b1ff7e906d98357a13c9c6cfb12b5f685965e1f4f79c601d",
    "9dca33648a9957288e31fcc017bf27724b294b570d08112a89162f2520ecb4eb")


class SynthCompose(Workload):
    """One op = elaborate the RTL and synthesize :data:`SCOPE`
    compositionally over a 2-process pool with a fresh
    ``PropertyChecker(bound=12, max_k=2)``."""

    name = "synth_compose"
    workers = 2
    # checks run in pool children; the parent only waits on the pool
    traced_spans = ("core.synthesize", "verilog.elaborate", "sva.monitor",
                    "uspec.emit", "formal.pool")
    traced_counters = ("netlist.cells",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.op_records: Dict[int, Dict[str, float]] = {}
        self._pool_peak_mb = 0.0
        self._close_original = None

    def setup(self, tracer=None) -> None:
        import repro
        from repro.formal import scheduler
        self.repro = repro
        self.scheduler_cls = scheduler.DischargeScheduler
        self._watch_pool_memory()

    def _watch_pool_memory(self) -> None:
        """Read the pool workers' VmHWM just before the scheduler shuts
        its pool down, so ``peak_rss_mb`` includes pool children.  This
        is a memory probe, not tracing: it runs on every op."""
        original = self.scheduler_cls.close
        self._close_original = original
        workload = self

        def close(scheduler):
            pool = scheduler._pool
            if pool is not None:
                pids = list((getattr(pool, "_processes", None) or {}))
                peak = sum(procfs.peak_rss_mb(pid) for pid in pids)
                workload._pool_peak_mb = max(workload._pool_peak_mb, peak)
            return original(scheduler)
        self.scheduler_cls.close = close

    def teardown(self) -> None:
        if self._close_original is not None:
            self.scheduler_cls.close = self._close_original
            self._close_original = None

    def inputs(self):
        return {"scope": list(SCOPE),
                "bound": 12, "max_k": 2, "compose": True,
                "jobs": self.workers}

    def patch(self, tracer) -> None:
        from repro.core import obligations, synthesizer
        from repro.designs import loader

        def count_cells(result, _args, _kwargs):
            netlist = getattr(result, "flat", result)
            tracer.count("netlist.cells", len(netlist.cells))
        tracer.patch(loader, "compile_verilog", "verilog.elaborate",
                     after=count_cells)
        tracer.patch(loader, "compile_verilog_hier", "verilog.elaborate",
                     after=count_cells)
        tracer.patch(obligations, "build_problem", "sva.monitor")
        # compositional checks run in pool children; the parent's wait
        # for them is formal time, not core time
        tracer.patch(self.scheduler_cls, "_run_pool", "formal.pool")
        tracer.patch(synthesizer, "emit_model", "uspec.emit")

    def op(self, index: int, tracer=None) -> None:
        repro = self.repro
        checker = repro.PropertyChecker(bound=12, max_k=2)
        span = tracer.begin("core.synthesize") if tracer else None
        try:
            result = repro.synthesize_uspec(
                checker=checker, jobs=self.workers,
                candidate_filter=list(SCOPE), compose=True)
        finally:
            if tracer:
                tracer.end(span)
        span = tracer.begin("uspec.emit") if tracer else None
        text = repro.format_model(result.model)
        if tracer:
            tracer.end(span)
        uarch = hashlib.sha256(text.encode("utf-8")).hexdigest()
        verdicts = Counter(record.verdict.status
                           for record in result.sva_records)
        stats = checker.stats
        discharge = result.discharge_stats
        if tracer:
            self.op_records[tracer.op_id] = {
                "checks": stats["checks"],
                "sat_time": stats["sat_time"],
                "sat_solves": stats["sat_solves"],
                "sat_propagations": stats["sat_propagations"],
                "sat_conflicts": stats["sat_conflicts"],
                "sat_decisions": stats["sat_decisions"],
                "bmc_frames": stats["bmc_frames"],
                "blast_hits": stats["blast_hits"],
                "blast_misses": stats["blast_misses"],
                "planned": discharge.planned,
                "executed": discharge.executed,
                "dedup": discharge.fingerprint_dedup,
                "retries": discharge.retries,
                "wall_seconds": discharge.wall_seconds,
                "check_seconds": discharge.check_seconds,
                "jobs": discharge.jobs,
                "proven": verdicts["PROVEN"],
                "bounded": verdicts["PROVEN_BOUNDED"],
                "refuted": verdicts["REFUTED"],
                "unknown": verdicts["UNKNOWN"],
            }
        if verdicts["UNKNOWN"]:
            raise OpFailure(f"{verdicts['UNKNOWN']} UNKNOWN verdict(s)")
        got = (uarch, result.verdict_digest())
        if got != SYNTH_PIN:
            raise OpFailure(f"digests {got} differ from the pinned "
                            f"{SYNTH_PIN}")

    def peak_rss_mb(self) -> float:
        return procfs.peak_rss_mb() + self._pool_peak_mb

    def layer_metrics(self, tracer, op_ids) -> Dict[str, float]:
        ops = len(op_ids)
        spans = totals(tracer.spans, set(op_ids))
        recs = [self.op_records[i] for i in op_ids if i in self.op_records]

        def total(key):
            return sum(rec[key] for rec in recs)

        checks = total("checks")
        sat_ms = total("sat_time") * 1000.0
        solves = total("sat_solves")
        props = total("sat_propagations")
        hits, misses = total("blast_hits"), total("blast_misses")
        wall = total("wall_seconds")
        checker_s = total("check_seconds")
        planned, executed = total("planned"), total("executed")
        return {
            "verilog.elaborate_ms": _span_ms(spans, "verilog.elaborate", ops),
            "netlist.cells": _per_op(tracer.counters["netlist.cells"], ops),
            "core.self_ms": _span_ms(spans, "core.synthesize", ops,
                                     "self_seconds"),
            "core.obligations_planned": _per_op(planned, ops),
            "core.obligations_executed": _per_op(executed, ops),
            "core.executed_ratio": _ratio(executed, planned),
            "sva.monitor_ms": _span_ms(spans, "sva.monitor", ops),
            "uspec.emit_ms": _span_ms(spans, "uspec.emit", ops),
            "formal.checks": _per_op(checks, ops),
            "formal.check_ms_per_sva": _ratio(checker_s * 1000.0, checks),
            "formal.self_ms": _per_op(checker_s * 1000.0 - sat_ms, ops),
            "formal.bmc_frames": _per_op(total("bmc_frames"), ops),
            "formal.verdicts_proven": _per_op(total("proven"), ops),
            "formal.verdicts_bounded": _per_op(total("bounded"), ops),
            "formal.verdicts_refuted": _per_op(total("refuted"), ops),
            "formal.verdicts_unknown": _per_op(total("unknown"), ops),
            "formal.blast_hits": _per_op(hits, ops),
            "formal.blast_misses": _per_op(misses, ops),
            "formal.blast_hit_ratio": _ratio(hits, hits + misses),
            "formal.dedup": _per_op(total("dedup"), ops),
            "formal.pool_wall_s": _per_op(wall, ops),
            "formal.pool_checker_s": _per_op(checker_s, ops),
            "formal.pool_efficiency": _ratio(
                checker_s, sum(rec["wall_seconds"] * rec["jobs"]
                               for rec in recs)),
            "resilience.pool_retries": _per_op(total("retries"), ops),
            "sat.solves": _per_op(solves, ops),
            "sat.solve_ms": _per_op(sat_ms, ops),
            "sat.ms_per_solve": _ratio(sat_ms, solves),
            "sat.propagations": _per_op(props, ops),
            "sat.conflicts": _per_op(total("sat_conflicts"), ops),
            "sat.decisions": _per_op(total("sat_decisions"), ops),
            "sat.props_per_ms": _ratio(props, sat_ms),
        }


# ---------------------------------------------------------------------------
# Litmus exactness sweep
# ---------------------------------------------------------------------------

CORPUS_SPEC = "threads=2,len=3"
CORPUS_SIZE = 954
CORPUS_DIGEST = \
    "154faaabbd1e87343e470ba98a96d31fc05554ae660faa8dfd16f16d5d6105b2"
#: programs in one op: one per cost stratum of the corpus
LITMUS_BATCH = 8


def program_cost_key(item):
    """Cost proxy for one ``(fingerprint, program)``: access count per
    thread (heaviest first), then load count; the fingerprint breaks
    ties.  A program's sweep time grows with both (about 10 ms for 1+1
    accesses, about 350 ms for 3+3)."""
    fingerprint, program = item
    lengths = sorted((len(thread) for thread in program), reverse=True)
    loads = sum(1 for thread in program for access in thread
                if access.kind == "R")
    return (lengths, loads, fingerprint)


def corpus_sample(corpus):
    """The middle program of each of ``LITMUS_BATCH`` cost strata."""
    return [stratum[len(stratum) // 2] for stratum in
            inputs.strata(corpus, program_cost_key, LITMUS_BATCH)]


def litmus_batch(corpus, seed: int):
    """The corpus sample in seeded order: every op sweeps all of it.

    Single programs cost 40-560 ms here, and one host's speed swings by
    +-20% within seconds, so the median of single-program ops moved by
    20-26% between runs of the same code.  A batch of one program per
    cost stratum makes every op the same ~2.4 s of work, so the median
    no longer depends on which programs a run reached.
    """
    return inputs.seeded_cycle(corpus_sample(corpus), seed,
                               "litmus_sweep")


class LitmusSweep(Workload):
    """One op = ``verify_exactness(reference model, programs=batch)``
    with the batch from :func:`litmus_batch`."""

    name = "litmus_sweep"
    traced_spans = ("uspec.parse", "litmus.generate", "check.verify",
                    "mcm.sc", "check.ground", "check.decide", "sat.solve")
    traced_counters = ("sat.propagations", "sat.decisions")

    def setup(self, tracer=None) -> None:
        from repro.check.exhaustive import verify_exactness
        from repro.designs.models import load_reference_model
        from repro.litmus.generator import (corpus_digest, iter_programs,
                                            parse_spec)
        self.verify_exactness = verify_exactness
        span = tracer.begin("uspec.parse") if tracer else None
        self.model = load_reference_model()
        if tracer:
            tracer.end(span)
            span = tracer.begin("litmus.generate")
        corpus = list(iter_programs(parse_spec(CORPUS_SPEC)))
        if tracer:
            tracer.end(span)
        digest = corpus_digest(fingerprint for fingerprint, _ in corpus)
        if len(corpus) != CORPUS_SIZE or digest != CORPUS_DIGEST:
            raise OpFailure(f"corpus {CORPUS_SPEC} changed: {len(corpus)} "
                            f"programs, digest {digest}")
        self.batch = litmus_batch(corpus, self.seed)
        self.outcomes: Dict[int, int] = {}
        # warm-up on the sample's cheapest program, the same for every
        # seed, so set-up time does not depend on the seed
        self.sweep([corpus_sample(corpus)[0]])

    def inputs(self):
        return {"spec": CORPUS_SPEC, "corpus_digest": CORPUS_DIGEST,
                "batch": [fingerprint for fingerprint, _ in self.batch]}

    def patch(self, tracer) -> None:
        from repro.check import exhaustive, incremental
        from repro.sat.arena import ArenaSolver
        tracer.patch(exhaustive, "sc_outcomes", "mcm.sc")
        tracer.patch(incremental.ProgramSolver, "__init__", "check.ground")
        tracer.patch(incremental.ProgramSolver, "decide_batch",
                     "check.decide")

        def timed_solve(original):
            def solve(solver, *args, **kwargs):
                before = (solver.propagations, solver.conflicts,
                          solver.decisions)
                span = tracer.begin("sat.solve")
                try:
                    return original(solver, *args, **kwargs)
                finally:
                    tracer.end(span)
                    tracer.count("sat.propagations",
                                 solver.propagations - before[0])
                    tracer.count("sat.conflicts",
                                 solver.conflicts - before[1])
                    tracer.count("sat.decisions",
                                 solver.decisions - before[2])
            return solve
        tracer.patch(ArenaSolver, "solve", "sat.solve", wrap=timed_solve)

    def sweep(self, batch):
        report = self.verify_exactness(
            self.model, programs=[program for _, program in batch])
        if report.programs != len(batch) or not report.exact:
            raise OpFailure(f"programs {[fp for fp, _ in batch]}: "
                            f"{report.summary()}")
        return report

    def op(self, index: int, tracer=None) -> None:
        span = tracer.begin("check.verify") if tracer else None
        try:
            report = self.sweep(self.batch)
        finally:
            if tracer:
                tracer.end(span)
        if tracer:
            self.outcomes[tracer.op_id] = report.outcomes_checked

    def layer_metrics(self, tracer, op_ids) -> Dict[str, float]:
        ops = len(op_ids)
        spans = totals(tracer.spans, set(op_ids))
        setup = totals(tracer.spans, {-1})
        solves = spans.get("sat.solve", {}).get("count", 0)
        sat_ms = _span_ms(spans, "sat.solve", 1)
        props = tracer.counters["sat.propagations"]
        check_self = sum(_span_ms(spans, name, ops, "self_seconds")
                         for name in ("check.verify", "check.ground",
                                      "check.decide"))
        return {
            "check.ground_ms": _span_ms(spans, "check.ground", ops),
            "check.decide_ms": _span_ms(spans, "check.decide", ops),
            "check.self_ms": check_self,
            "check.outcomes": _per_op(sum(self.outcomes.get(i, 0)
                                          for i in op_ids), ops),
            "mcm.sc_ms": _span_ms(spans, "mcm.sc", ops),
            "litmus.generate_ms": _span_ms(setup, "litmus.generate", 1),
            "uspec.parse_ms": _span_ms(setup, "uspec.parse", 1),
            "sat.solves": _per_op(solves, ops),
            "sat.solve_ms": _per_op(sat_ms, ops),
            "sat.ms_per_solve": _ratio(sat_ms, solves),
            "sat.propagations": _per_op(props, ops),
            "sat.conflicts": _per_op(tracer.counters["sat.conflicts"], ops),
            "sat.decisions": _per_op(tracer.counters["sat.decisions"], ops),
            "sat.props_per_ms": _ratio(props, sat_ms),
        }


# ---------------------------------------------------------------------------
# Verification service
# ---------------------------------------------------------------------------

SERVE_WORKERS = 2
SERVE_GROUP = 8
SERVE_SHARDS = 2
#: fixed client poll interval; the client's 100 ms default quantizes
#: job latency into 100 ms steps
POLL_SECONDS = 0.01


#: the suite cut into groups of ``SERVE_GROUP`` tests of about equal
#: check cost: suite tests differ in cost by up to 30x (6 to 180 ms of
#: in-process checking on a 2-vCPU VM), so groups cut in suite order
#: cost 130 to 650 ms a job; the run median then sat on whichever job
#: ranked in the middle, and its spread over ten runs was 14%.  Built
#: longest test first, each to the cheapest group with room.
SERVE_PARTITION = (
    ("iriw", "2+2w", "safe042", "cowr", "safe039", "safe024", "safe003",
     "safe018"),
    ("mp+stale", "mp", "safe020", "safe006", "safe037", "safe035",
     "safe040", "safe002"),
    ("rwc", "safe010", "safe008", "safe022", "safe011", "safe033",
     "safe005", "safe016"),
    ("wrc", "safe001", "s", "safe021", "safe019", "safe023", "safe014",
     "safe017"),
    ("ssl", "safe028", "sb", "safe012", "safe009", "safe031", "safe025",
     "safe004"),
    ("safe030", "safe027", "r", "safe007", "safe015", "safe034", "safe032",
     "corw"),
    ("safe041", "safe029", "lb", "safe013", "corr", "safe036", "safe038",
     "safe026"),
)


def serve_groups(names: List[str], seed: int) -> List[List[str]]:
    """The job cycle: :data:`SERVE_PARTITION` in seeded order.  The
    partition is fixed, so every seed runs the same jobs; it must cover
    the suite ``names`` exactly."""
    if sorted(name for group in SERVE_PARTITION for name in group) != \
            sorted(names):
        raise OpFailure("the litmus suite changed; SERVE_PARTITION no "
                        "longer covers it")
    return inputs.seeded_cycle([list(group) for group in SERVE_PARTITION],
                               seed, "serve_check")


class ServeCheck(Workload):
    """One op = a closed-loop client submits a ``check`` job over 8 suite
    tests with ``shards: 2`` to a 2-worker ``repro serve`` daemon and
    waits for it, polling every 10 ms."""

    name = "serve_check"
    workers = SERVE_WORKERS
    traced_spans = ("service.submit", "service.queued", "service.result")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.proc: Optional[subprocess.Popen] = None
        self.state_dir = None
        #: (group index, report digest) of every job that passed
        self.digests: List[tuple] = []
        #: attempts of every job since the window began
        self.attempts: List[int] = []
        self.polls: Dict[int, int] = {}
        self.log = None

    def setup(self, tracer=None) -> None:
        from repro.errors import ServiceError
        from repro.litmus import load_suite
        from repro.service import ServiceClient
        from repro.service.daemon import ACTIVE_STATES
        self.active_states = ACTIVE_STATES
        names = [test.name for test in load_suite()]
        self.groups = serve_groups(names, self.seed)
        os.makedirs(RUN_DIR, exist_ok=True)
        self.state_dir = os.path.join(RUN_DIR, f"serve-{os.getpid()}")
        shutil.rmtree(self.state_dir, ignore_errors=True)
        os.makedirs(self.state_dir)
        # Relative socket paths (daemon from the checkout root, client
        # from its own directory) stay under the AF_UNIX length limit
        # however deep the checkout is.
        socket_path = os.path.join(self.state_dir, "serve.sock")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.log = open(os.path.join(self.state_dir, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", self.state_dir,
             "--socket", os.path.relpath(socket_path, ROOT),
             "--workers", str(SERVE_WORKERS)],
            cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        self.client = ServiceClient(os.path.relpath(socket_path))
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.ping()
                break
            except ServiceError:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"daemon exited with "
                                       f"{self.proc.returncode} at start")
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon did not answer a ping "
                                       "within 60 s")
                time.sleep(POLL_SECONDS)
        # warm-up: the workers load the model on their first job; the
        # partition's first group for every seed, so set-up time does
        # not depend on the seed
        self.op(self.groups.index(list(SERVE_PARTITION[0])))

    def inputs(self):
        return {"groups": self.groups, "shards": SERVE_SHARDS,
                "workers": SERVE_WORKERS, "poll_seconds": POLL_SECONDS}

    def op(self, index: int, tracer=None) -> None:
        params = {"tests": self.groups[index % len(self.groups)],
                  "shards": SERVE_SHARDS}
        if tracer is None:
            job = self.client.submit("check", params)
            view = self.client.wait(job, timeout=120.0,
                                    poll_interval=POLL_SECONDS)
        else:
            view = self._traced_op(params, tracer)
        self.attempts.append(view.get("attempts", 0))
        if view.get("state") != "done":
            raise OpFailure(f"job {view.get('job')} ended "
                            f"{view.get('state')!r}: {view.get('result')}")
        result = view.get("result") or {}
        if not result.get("passed"):
            raise OpFailure(f"job {view.get('job')} did not pass: {result}")
        self.digests.append((index % len(self.groups),
                             result.get("digest", "")))

    def _traced_op(self, params, tracer):
        """The untraced op's requests (submit, then ``result`` polls as
        in ``ServiceClient.wait``), with the job's queued and running
        stretches and the last poll, which carries the report, timed."""
        span = tracer.begin("service.submit")
        job = self.client.submit("check", params)
        tracer.end(span)
        deadline = time.monotonic() + 120.0
        polls = 0
        span, stage = tracer.begin("service.queued"), "queued"
        while True:
            sent = time.monotonic()
            view = self.client.result(job)
            polls += 1
            if not view.get("pending"):
                break
            if view.get("state") != "queued" and stage == "queued":
                tracer.end(span)
                span, stage = tracer.begin("service.running"), "running"
            if time.monotonic() > deadline:
                raise OpFailure(f"job {job} timed out after 120 s")
            time.sleep(POLL_SECONDS)
        tracer.end(span, at=sent)
        tracer.end(tracer.begin("service.result", at=sent))
        self.polls[tracer.op_id] = polls
        return view

    def finish(self) -> List[str]:
        """Each job's report digest must equal an in-process check of the
        same tests (computed once per distinct group)."""
        from repro.check import run_suite, suite_digest
        from repro.designs.models import load_reference_model
        from repro.litmus import resolve_tests
        model = load_reference_model()
        expected: Dict[int, str] = {}
        failures = []
        for group, digest in self.digests:
            if group not in expected:
                run = run_suite(model, resolve_tests(self.groups[group]),
                                engine="fresh")
                expected[group] = suite_digest(run.verdicts)
            if digest != expected[group]:
                failures.append(f"group {group}: report digest {digest} != "
                                f"in-process {expected[group]}")
        return failures

    # -- process facts ------------------------------------------------------
    def fleet_pids(self) -> List[int]:
        return procfs.descendants(self.proc.pid) if self.proc else []

    def cpu_snapshot(self) -> Dict[int, float]:
        pids = [self.proc.pid] + self.fleet_pids()
        return {pid: procfs.cpu_seconds(pid) for pid in pids}

    def ledger_bytes(self) -> int:
        path = os.path.join(self.state_dir, "jobs.jsonl")
        return os.path.getsize(path) if os.path.exists(path) else 0

    def artifact_bytes(self) -> int:
        total = 0
        for base, _dirs, files in os.walk(os.path.join(self.state_dir,
                                                       "jobs")):
            for name in files:
                total += os.path.getsize(os.path.join(base, name))
        return total

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid] + self.fleet_pids() if self.proc else []
        return procfs.peak_rss_mb() + sum(procfs.peak_rss_mb(pid)
                                          for pid in pids)

    def begin_window(self) -> None:
        """Start the accounting window for per-op process figures."""
        self.attempts.clear()
        self.window = (time.monotonic(), self.cpu_snapshot(),
                       self.ledger_bytes(), self.artifact_bytes())

    def layer_metrics(self, tracer, op_ids) -> Dict[str, float]:
        start, cpu0, ledger0, artifacts0 = self.window
        wall = time.monotonic() - start
        cpu1 = self.cpu_snapshot()
        done = len(self.attempts)        # every op in the window
        daemon = self.proc.pid
        worker_cpu = [cpu1[pid] - cpu0.get(pid, 0.0)
                      for pid in cpu1 if pid != daemon]
        ops = len(op_ids)
        spans = totals(tracer.spans, set(op_ids))
        worker_peaks = [procfs.peak_rss_mb(pid) for pid in self.fleet_pids()]
        return {
            "service.submit_ms": _span_ms(spans, "service.submit", ops),
            "service.queued_ms": _span_ms(spans, "service.queued", ops),
            "service.running_ms": _span_ms(spans, "service.running", ops),
            "service.result_ms": _span_ms(spans, "service.result", ops),
            "service.polls_per_op": _per_op(sum(self.polls.get(i, 0)
                                                for i in op_ids), ops),
            "service.shard_imbalance": _ratio(max(worker_cpu, default=0.0),
                                              min(worker_cpu, default=0.0)),
            "service.worker_busy_ratio": _ratio(
                sum(worker_cpu), wall * SERVE_WORKERS),
            "service.worker_cpu_ms_per_op": _per_op(sum(worker_cpu) * 1000.0,
                                                    done),
            "service.daemon_cpu_ms_per_op": _per_op(
                (cpu1[daemon] - cpu0.get(daemon, 0.0)) * 1000.0, done),
            "service.ledger_bytes_per_op": _per_op(
                self.ledger_bytes() - ledger0, done),
            "service.artifact_bytes_per_op": _per_op(
                self.artifact_bytes() - artifacts0, done),
            "service.attempts_per_op": _per_op(sum(self.attempts), done),
            "service.worker_rss_mb": max(worker_peaks, default=0.0),
        }

    def teardown(self) -> None:
        if self.proc is not None:
            fleet = self.fleet_pids()
            from repro.errors import ServiceError
            try:
                self.client.shutdown()
                self.proc.wait(timeout=30)
            except (ServiceError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=30)
            for pid in fleet:
                # a worker the daemon left behind (pids checked, so a
                # reused pid is never signalled)
                if procfs.is_repro(pid):
                    os.kill(pid, signal.SIGKILL)
            self.proc = None
        if self.log is not None:
            self.log.close()
            self.log = None
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)
            self.state_dir = None


WORKLOADS = {
    "synth_compose": SynthCompose,
    "litmus_sweep": LitmusSweep,
    "serve_check": ServeCheck,
}
