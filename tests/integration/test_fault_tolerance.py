"""Integration: fault tolerance is an exact optimization.

Injected worker crashes (real ``os._exit`` deaths under ``jobs>1``),
hangs, and garbage verdicts may change the wall clock and the fault
statistics — never the synthesized model.  And an interrupted run must
resume from its verdict store file without re-executing a single
recorded SVA, again byte-identically.

Runs on the scoped unicore (same scope as the parallel-determinism
suite) to keep repeated synthesis fast.
"""

import pytest

from repro.core import Rtl2Uspec
from repro.designs import load_unicore, unicore_metadata
from repro.errors import WorkerCrashError
from repro.formal import PropertyChecker, VerdictStore
from repro.resilience import parse_fault_spec
from repro.uspec import format_model

CANDIDATES = ["ir_de", "gpr", "dstore.cells"]

#: one transient fault of each flavor, at the plan-order execution
#: indices the scheduler assigns identically for every job count
TRANSIENT = parse_fault_spec("kill:0,hang:4,garbage:2")


def synthesizer(checker, jobs=1, verdicts=None, fault_plan=None):
    return Rtl2Uspec(
        load_unicore(), load_unicore(formal=True), unicore_metadata(),
        checker=checker, formal_cores=1, candidate_filter=CANDIDATES,
        jobs=jobs, verdicts=verdicts, fault_plan=fault_plan)


def synthesize(checker, jobs=1, verdicts=None, fault_plan=None):
    with synthesizer(checker, jobs=jobs, verdicts=verdicts,
                     fault_plan=fault_plan) as synth:
        return synth.synthesize()


@pytest.fixture(scope="module")
def golden():
    """Fault-free serial reference run."""
    return synthesize(PropertyChecker(bound=10, max_k=1))


@pytest.fixture(scope="module")
def golden_bytes(golden):
    return format_model(golden.model).encode("utf-8")


class TestFaultedRunsConverge:
    def test_serial_faulted_run_is_byte_identical(self, golden, golden_bytes):
        result = synthesize(PropertyChecker(bound=10, max_k=1), jobs=1,
                            fault_plan=TRANSIENT)
        assert format_model(result.model).encode("utf-8") == golden_bytes
        stats = result.discharge_stats
        # All three injection sites fired and were retried away.
        assert stats.worker_crashes == 1
        assert stats.timeouts == 1
        assert stats.garbage_verdicts == 1
        assert stats.retries == 3
        assert stats.executed == golden.discharge_stats.executed

    def test_parallel_faulted_run_is_byte_identical(self, golden_bytes):
        # jobs=4 makes the crash site a *real* worker death (os._exit):
        # the parent must survive BrokenProcessPool, rebuild the pool,
        # and still emit the fault-free model.
        result = synthesize(PropertyChecker(bound=10, max_k=1), jobs=4,
                            fault_plan=TRANSIENT)
        assert format_model(result.model).encode("utf-8") == golden_bytes
        stats = result.discharge_stats
        assert stats.worker_crashes >= 1
        assert stats.retries >= 1
        assert stats.faults_observed() >= 1

    def test_verdict_sequences_match_fault_free(self, golden):
        result = synthesize(PropertyChecker(bound=10, max_k=1), jobs=1,
                            fault_plan=TRANSIENT)
        assert [(r.signature, r.verdict.status) for r in result.sva_records] \
            == [(r.signature, r.verdict.status) for r in golden.sva_records]


class TestInterruptAndResume:
    def test_aborted_run_resumes_without_reexecution(self, golden,
                                                     golden_bytes, tmp_path):
        path = str(tmp_path / "verdicts.jsonl")
        total = golden.discharge_stats.executed
        assert total >= 2

        # Run 1: a persistent crash at the last execution site survives
        # every retry, so synthesis aborts — but everything decided
        # before it is checkpointed in the journal.
        plan = parse_fault_spec(f"kill:{total - 1},soft,attempts=99")
        journal = VerdictStore(path, resume=False)
        with synthesizer(PropertyChecker(bound=10, max_k=1),
                         verdicts=journal, fault_plan=plan) as synth:
            with pytest.raises(WorkerCrashError):
                synth.synthesize()
        journal.close()

        checkpointed = len(VerdictStore(path))
        assert 1 <= checkpointed < total

        # Run 2: resume with a healthy checker. Every journaled SVA is
        # replayed, zero of them re-executed, and the model matches the
        # uninterrupted run byte for byte.
        healthy = PropertyChecker(bound=10, max_k=1)
        resumed = VerdictStore(path)
        with synthesizer(healthy, verdicts=resumed) as synth:
            result = synth.synthesize()
        resumed.close()

        assert format_model(result.model).encode("utf-8") == golden_bytes
        stats = result.discharge_stats
        assert stats.cache_hits == checkpointed
        assert healthy.stats["checks"] == total - checkpointed
        # The finished journal now holds the complete verdict set.
        assert len(VerdictStore(path)) == total
