"""Fault tolerance of the Check layer (ISSUE acceptance criteria).

The guarantee pinned here: verdicts and suite digests for the full
56-test litmus suite are byte-identical across a clean run, a run with
injected worker crashes/hangs/garbage, and an interrupted-then-resumed
run — at ``--jobs 1`` and ``--jobs 4``.  Faults change timing and pool
statistics, never verdicts.
"""

import pytest

from repro.check import (SUITE_CODEC, SWEEP_CODEC, run_suite, suite_digest,
                         verify_exactness)
from repro.check.verifier import _verdict_projection
from repro.errors import InterruptedRun
from repro.formal import VerdictStore
from repro.resilience import Budget, FaultPlan

TRANSIENT = FaultPlan(crashes=frozenset({0}), hangs=frozenset({4}),
                      garbage=frozenset({2}), hard_crashes=False)


@pytest.fixture(scope="module")
def clean_suite(reference_model, litmus_suite):
    run = run_suite(reference_model, litmus_suite, jobs=1)
    return (_verdict_projection(run.verdicts), suite_digest(run.verdicts))


class TestFaultedSuiteParity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_crashes_hangs_garbage_do_not_change_verdicts(
            self, reference_model, litmus_suite, clean_suite, jobs):
        run = run_suite(reference_model, litmus_suite, jobs=jobs,
                        fault_plan=TRANSIENT)
        projection, digest = clean_suite
        assert _verdict_projection(run.verdicts) == projection
        assert suite_digest(run.verdicts) == digest
        assert run.pool_stats.faults_observed()
        assert run.pool_stats.retries >= 3

    def test_hard_crash_in_pool_mode_recovers(
            self, reference_model, litmus_suite, clean_suite):
        plan = FaultPlan(crashes=frozenset({1}))  # kills the worker process
        run = run_suite(reference_model, litmus_suite, jobs=4,
                        fault_plan=plan)
        assert suite_digest(run.verdicts) == clean_suite[1]


class TestInterruptResumeParity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_interrupt_then_resume_matches_clean(
            self, reference_model, litmus_suite, clean_suite, tmp_path, jobs):
        journal = str(tmp_path / f"check-{jobs}.jsonl")
        plan = FaultPlan(interrupts=frozenset({20}))
        with pytest.raises(InterruptedRun) as excinfo, \
                VerdictStore(journal, codec=SUITE_CODEC) as store:
            run_suite(reference_model, litmus_suite, jobs=jobs,
                      store=store,
                      fault_plan=plan)
        assert excinfo.value.resumable
        with VerdictStore(journal, codec=SUITE_CODEC) as store:
            resumed = run_suite(reference_model, litmus_suite, jobs=jobs,
                                store=store)
        assert resumed.resumed >= 1  # checkpointed verdicts were replayed
        projection, digest = clean_suite
        assert _verdict_projection(resumed.verdicts) == projection
        assert suite_digest(resumed.verdicts) == digest

    def test_interrupt_without_journal_is_not_resumable(
            self, reference_model, litmus_suite):
        plan = FaultPlan(interrupts=frozenset({3}))
        with pytest.raises(InterruptedRun) as excinfo:
            run_suite(reference_model, litmus_suite[:8], jobs=1,
                      fault_plan=plan)
        assert not excinfo.value.resumable
        assert len(excinfo.value.partial) == 3


class TestBudgetExpiry:
    def test_expired_budget_yields_conservative_timeouts(
            self, reference_model, litmus_suite):
        run = run_suite(reference_model, litmus_suite[:6], jobs=1,
                        budget=Budget(timeout_seconds=1e-9))
        assert all(not v.decided for v in run.verdicts)
        assert all(not v.passed for v in run.verdicts)  # never PASS
        assert all(v.status == "TIMEOUT" for v in run.verdicts)

    def test_undecided_verdicts_are_retried_on_resume(
            self, reference_model, litmus_suite, tmp_path):
        journal = str(tmp_path / "check.jsonl")
        with VerdictStore(journal, codec=SUITE_CODEC) as store:
            starved = run_suite(reference_model, litmus_suite[:4], jobs=1,
                                store=store,
                                budget=Budget(timeout_seconds=1e-9))
        assert all(not v.decided for v in starved.verdicts)
        with VerdictStore(journal, codec=SUITE_CODEC) as store:
            retried = run_suite(reference_model, litmus_suite[:4], jobs=1,
                                store=store)
        assert retried.resumed == 0  # TIMEOUT verdicts were never journaled
        assert all(v.decided for v in retried.verdicts)


class TestSweepFaultTolerance:
    @pytest.fixture(scope="class")
    def clean_sweep(self, reference_model):
        return verify_exactness(reference_model, limit=16, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_faulted_sweep_matches_clean(self, reference_model, clean_sweep,
                                         jobs):
        report = verify_exactness(reference_model, limit=16, jobs=jobs,
                                  fault_plan=TRANSIENT)
        assert report.digest() == clean_sweep.digest()
        assert report.exact == clean_sweep.exact

    def test_interrupted_sweep_resumes_to_same_digest(
            self, reference_model, clean_sweep, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        plan = FaultPlan(interrupts=frozenset({6}))
        with pytest.raises(InterruptedRun) as excinfo, \
                VerdictStore(journal, codec=SWEEP_CODEC) as store:
            verify_exactness(reference_model, limit=16, jobs=1,
                             store=store,
                             fault_plan=plan)
        assert excinfo.value.resumable
        with VerdictStore(journal, codec=SWEEP_CODEC) as store:
            report = verify_exactness(reference_model, limit=16, jobs=1,
                                      store=store)
        assert report.resumed >= 1
        assert report.digest() == clean_sweep.digest()

    def test_starved_sweep_is_not_exact(self, reference_model):
        report = verify_exactness(reference_model, limit=8, jobs=1,
                                  budget=Budget(timeout_seconds=1e-9))
        assert report.undecided
        assert not report.exact
