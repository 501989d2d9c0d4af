"""Unit tests for the parallel discharge scheduler (execute half of
plan/execute), on a tiny counter design.

The ``TinyFactory`` repurposes the ``never_updates`` builder slot: its
``args`` carry just an assertion wire name, so obligations map directly
onto the counter's always-true (``ok``) and falsifiable (``bad``)
outputs.  The class is module-level so it pickles into pool workers.
"""

import pytest

from repro.core.obligations import ObligationGraph, SvaObligation
from repro.formal import PropertyChecker, SafetyProblem, VerdictStore
from repro.formal.scheduler import DischargeScheduler
from repro.verilog import compile_verilog

SRC = """
module counter(input wire clk, input wire reset, output reg [3:0] c,
               output wire ok, output wire bad);
    always @(posedge clk) begin
        if (reset) c <= 4'd0;
        else if (c < 4'd9) c <= c + 4'd1;
    end
    assign ok = (c <= 4'd9);
    assign bad = (c <= 4'd8);
endmodule
"""


class TinyFactory:
    """Factory stand-in: one obligation = assert one 1-bit wire."""

    def __init__(self, netlist):
        self.netlist = netlist

    def never_updates(self, wire, _event):
        return SafetyProblem(self.netlist, [], [wire], name=f"assert[{wire}]")


def assert_wire(wire, sig=None, after=(), gate=("always",)):
    return SvaObligation(signature=sig or ("p", wire), category="intra",
                         builder="never_updates", args=(wire, None),
                         after=after, gate=gate)


@pytest.fixture(scope="module")
def factory():
    return TinyFactory(compile_verilog(SRC, "counter"))


def make_scheduler(factory, jobs=1, verdicts=None):
    return DischargeScheduler(PropertyChecker(bound=12, max_k=2), factory,
                              jobs=jobs, verdicts=verdicts)


class TestSerialDischarge:
    def test_verdicts_and_order(self, factory):
        graph = ObligationGraph()
        graph.add(assert_wire("ok"))
        graph.add(assert_wire("bad"))
        results = make_scheduler(factory).discharge(graph)
        assert [ob.signature for ob, _ in results] == [("p", "ok"), ("p", "bad")]
        verdicts = {ob.signature: v for ob, v in results}
        assert verdicts[("p", "ok")].proven
        assert verdicts[("p", "bad")].refuted
        assert verdicts[("p", "bad")].trace is not None

    def test_gate_skips_after_proof(self, factory):
        graph = ObligationGraph()
        graph.add(assert_wire("ok"))
        graph.add(assert_wire("bad", after=(("p", "ok"),),
                              gate=("unproven", ("p", "ok"))))
        scheduler = make_scheduler(factory)
        results = scheduler.discharge(graph)
        assert [ob.signature for ob, _ in results] == [("p", "ok")]
        assert scheduler.stats.executed == 1
        assert scheduler.stats.skipped == 1

    def test_gate_fires_after_refutation(self, factory):
        graph = ObligationGraph()
        graph.add(assert_wire("bad"))
        graph.add(assert_wire("ok", after=(("p", "bad"),),
                              gate=("unproven", ("p", "bad"))))
        results = make_scheduler(factory).discharge(graph)
        assert len(results) == 2

    def test_known_verdicts_not_reexecuted(self, factory):
        graph = ObligationGraph()
        graph.add(assert_wire("ok"))
        scheduler = make_scheduler(factory)
        first = scheduler.discharge(graph)
        known = {ob.signature: v for ob, v in first}
        again = scheduler.discharge(graph, known=known)
        assert again == []
        assert scheduler.stats.executed == 1

    def test_deadlock_detected(self, factory):
        graph = ObligationGraph()
        graph.add(assert_wire("ok", after=(("missing",),)))
        from repro.errors import FormalError
        with pytest.raises(FormalError):
            make_scheduler(factory).discharge(graph)


class TestCacheIntegration:
    def test_plan_time_probe_serves_hits(self, factory, tmp_path):
        cache = VerdictStore(str(tmp_path / "cache.jsonl"))
        graph = ObligationGraph()
        graph.add(assert_wire("ok"))
        first = make_scheduler(factory, verdicts=cache)
        first.discharge(graph)
        assert first.stats.cache_misses == 1 and first.stats.cache_hits == 0

        graph2 = ObligationGraph()
        graph2.add(assert_wire("ok"))
        second = make_scheduler(factory, verdicts=cache)
        results = second.discharge(graph2)
        assert second.stats.cache_hits == 1 and second.stats.cache_misses == 0
        assert results[0][1].proven
        # a cache hit never touches the SAT engine
        assert second._engine.stats["checks"] == 0


class TestParallelDischarge:
    def test_jobs2_matches_serial(self, factory):
        def run(jobs):
            graph = ObligationGraph()
            graph.add(assert_wire("ok"))
            graph.add(assert_wire("bad"))
            graph.add(assert_wire("ok", sig=("retry", "ok"),
                                  after=(("p", "bad"),),
                                  gate=("unproven", ("p", "bad"))))
            with make_scheduler(factory, jobs=jobs) as scheduler:
                results = scheduler.discharge(graph)
                stats = scheduler.stats
            return [(ob.signature, v.status) for ob, v in results], stats

        serial, _ = run(1)
        parallel, stats = run(2)
        assert serial == parallel
        assert stats.pool_tasks >= 2

    def test_jobs_zero_means_cpu_count(self, factory):
        import os
        scheduler = make_scheduler(factory, jobs=1)
        auto = DischargeScheduler(PropertyChecker(), factory, jobs=0)
        assert scheduler.jobs == 1
        assert auto.jobs == (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Fault tolerance (PR 2): injected crashes/hangs/garbage must never
# change verdicts, only statistics.
# ----------------------------------------------------------------------
from repro.errors import DischargeTimeout, FormalError, WorkerCrashError  # noqa: E402
from repro.resilience import parse_fault_spec  # noqa: E402


def faulty_scheduler(factory, plan, jobs=1, **kwargs):
    return DischargeScheduler(PropertyChecker(bound=12, max_k=2), factory,
                              jobs=jobs, retry_backoff=0.0,
                              fault_plan=plan, **kwargs)


def two_wire_graph():
    graph = ObligationGraph()
    graph.add(assert_wire("ok"))
    graph.add(assert_wire("bad"))
    return graph


def statuses(results):
    return [(ob.signature, v.status) for ob, v in results]


@pytest.fixture(scope="module")
def fault_free(factory):
    scheduler = make_scheduler(factory)
    return statuses(scheduler.discharge(two_wire_graph()))


class TestFaultInjectionInline:
    def test_hang_is_retried_to_convergence(self, factory, fault_free):
        scheduler = faulty_scheduler(factory, parse_fault_spec("hang:0"))
        results = statuses(scheduler.discharge(two_wire_graph()))
        assert results == fault_free
        assert scheduler.stats.timeouts == 1
        assert scheduler.stats.retries == 1
        assert scheduler.stats.faults_observed() == 1

    def test_crash_is_retried_to_convergence(self, factory, fault_free):
        plan = parse_fault_spec("kill:0,soft")
        scheduler = faulty_scheduler(factory, plan)
        results = statuses(scheduler.discharge(two_wire_graph()))
        assert results == fault_free
        assert scheduler.stats.worker_crashes == 1
        assert scheduler.stats.retries == 1

    def test_garbage_verdict_is_rejected_and_retried(self, factory, fault_free):
        scheduler = faulty_scheduler(factory, parse_fault_spec("garbage:1"))
        results = statuses(scheduler.discharge(two_wire_graph()))
        assert results == fault_free
        assert scheduler.stats.garbage_verdicts == 1
        assert scheduler.stats.retries == 1
        # The eventual verdict is the real one, trace included.
        refuted = [v for _, v in
                   faulty_scheduler(factory, parse_fault_spec("garbage:1"))
                   .discharge(two_wire_graph()) if v.refuted]
        assert refuted and refuted[0].trace is not None

    def test_persistent_fault_exhausts_retries_and_raises(self, factory):
        plan = parse_fault_spec("kill:0,soft,attempts=99")
        scheduler = faulty_scheduler(factory, plan)
        with pytest.raises(WorkerCrashError):
            scheduler.discharge(two_wire_graph())
        assert scheduler.stats.worker_crashes == scheduler.max_retries + 1

    def test_persistent_hang_raises_discharge_timeout(self, factory):
        plan = parse_fault_spec("hang:0,attempts=99")
        scheduler = faulty_scheduler(factory, plan)
        with pytest.raises(DischargeTimeout):
            scheduler.discharge(two_wire_graph())


class TestFaultInjectionPool:
    def test_hard_worker_crash_recovers(self, factory, fault_free):
        # os._exit(43) in the worker: the parent sees BrokenProcessPool,
        # rebuilds the pool, and still converges to fault-free verdicts.
        plan = parse_fault_spec("kill:0")
        with faulty_scheduler(factory, plan, jobs=2) as scheduler:
            results = statuses(scheduler.discharge(two_wire_graph()))
        assert results == fault_free
        assert scheduler.stats.worker_crashes >= 1
        assert scheduler.stats.retries >= 1

    def test_soft_faults_fall_back_inline_after_retries(self, factory,
                                                        fault_free):
        # attempts=max_retries+1: every pool attempt hangs, the final
        # inline fallback (attempt index max_retries+1) succeeds.
        plan = parse_fault_spec("hang:0,attempts=4")
        with faulty_scheduler(factory, plan, jobs=2, max_retries=3) as sched:
            results = statuses(sched.discharge(two_wire_graph()))
        assert results == fault_free
        assert sched.stats.inline_fallbacks == 1
        assert sched.stats.timeouts == 4
        assert sched.stats.retries == 3

    def test_garbage_from_pool_worker_rejected(self, factory, fault_free):
        plan = parse_fault_spec("garbage:0,garbage:1")
        with faulty_scheduler(factory, plan, jobs=2) as scheduler:
            results = statuses(scheduler.discharge(two_wire_graph()))
        assert results == fault_free
        assert scheduler.stats.garbage_verdicts == 2


class TestWorkerStatsMerge:
    def test_pool_check_counters_reach_parent(self, factory):
        # Pre-PR-2 the parent's engine.stats stayed at zero for pool
        # runs; workers now return per-check deltas that are merged.
        with make_scheduler(factory, jobs=2) as scheduler:
            scheduler.discharge(two_wire_graph())
        assert scheduler.stats.pool_tasks >= 2
        assert scheduler._engine.stats["checks"] == 2
        assert scheduler._engine.stats["sat_time"] > 0.0


class TestJournalIntegration:
    def test_resume_serves_verdicts_without_reexecution(self, factory,
                                                        tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with VerdictStore(path, resume=False) as journal:
            first = DischargeScheduler(PropertyChecker(bound=12, max_k=2),
                                       factory, verdicts=journal)
            first.discharge(two_wire_graph())
        resumed = VerdictStore(path)
        second = DischargeScheduler(PropertyChecker(bound=12, max_k=2),
                                    factory, verdicts=resumed)
        results = second.discharge(two_wire_graph())
        assert second.stats.cache_hits == 2
        assert second.stats.pool_tasks == 0
        assert second._engine.stats["checks"] == 0
        assert {ob.signature: v.status for ob, v in results} == {
            ("p", "ok"): "PROVEN", ("p", "bad"): "REFUTED"}
        resumed.close()

    def test_journal_commits_on_deadlock_abort(self, factory, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        graph = ObligationGraph()
        graph.add(assert_wire("ok"))
        graph.add(assert_wire("stuck", after=(("missing",),)))
        with VerdictStore(path, resume=False) as journal:
            scheduler = DischargeScheduler(
                PropertyChecker(bound=12, max_k=2), factory, verdicts=journal)
            with pytest.raises(FormalError):
                scheduler.discharge(graph)
        # The verdict decided before the deadlock was checkpointed.
        assert len(VerdictStore(path)) == 1

    def test_mid_batch_interrupt_keeps_decided_verdicts(self, factory,
                                                        tmp_path):
        """Verdicts are recorded as the pool finalizes them, so an
        interrupt inside a batch keeps the ones decided before it."""
        path = str(tmp_path / "journal.jsonl")
        graph = ObligationGraph()
        for wire in ("ok", "bad", "$t1"):  # one batch, three problems
            graph.add(assert_wire(wire))
        with VerdictStore(path, resume=False) as journal:
            scheduler = faulty_scheduler(
                factory, parse_fault_spec("interrupt:2"),
                verdicts=journal)
            with pytest.raises(KeyboardInterrupt):
                scheduler.discharge(graph)
        assert scheduler.stats.batches == 1
        assert scheduler._engine.stats["checks"] == 2
        assert len(VerdictStore(path)) == 2


class TestDeadlockRobustness:
    def test_stats_survive_deadlock_and_scheduler_stays_usable(self, factory):
        scheduler = make_scheduler(factory)
        graph = ObligationGraph()
        graph.add(assert_wire("ok"))
        graph.add(assert_wire("stuck", after=(("missing",),)))
        with pytest.raises(FormalError, match="deadlock"):
            scheduler.discharge(graph)
        assert scheduler.stats.rounds == 1
        assert scheduler.stats.executed == 1
        assert scheduler.stats.wall_seconds > 0.0
        # The scheduler is not poisoned: a well-formed graph still runs.
        results = scheduler.discharge(two_wire_graph())
        assert len(results) == 2
        assert scheduler.stats.rounds == 2
