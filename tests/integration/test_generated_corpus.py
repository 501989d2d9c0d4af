"""Integration: sweeping a generated corpus through the checker.

The contract under test: feeding :func:`run_sweep` an explicit
generated-program list produces a report digest invariant to job
count, chunk size, and store resume — including resuming with a
*smaller* limit than the store holds.
"""

import itertools

from repro.check import SWEEP_CODEC, ExactnessReport, run_sweep
from repro.check.exhaustive import merge_program_results
from repro.formal import VerdictStore
from repro.litmus.generator import iter_programs, parse_spec

SPEC = "threads=2,len=2,fences=full"
LIMIT = 24


def _corpus(limit=LIMIT):
    return [program for _, program in
            itertools.islice(iter_programs(parse_spec(SPEC)), limit)]


def _chunked_sweep(model, programs, chunk_size, jobs, store):
    total = ExactnessReport()
    for start in range(0, len(programs), chunk_size):
        chunk = programs[start:start + chunk_size]
        report = run_sweep(model, programs=chunk, jobs=jobs, store=store)
        total.programs += report.programs
        total.resumed += report.resumed
        merge_program_results(
            total, [(report.outcomes_checked, report.unsound,
                     report.overstrict, report.undecided)])
    return total


class TestGeneratedSweepParity:
    def test_digest_invariant_to_jobs_and_chunking(self, reference_model,
                                                   tmp_path):
        programs = _corpus()
        whole = run_sweep(reference_model, programs=programs, jobs=1)
        with VerdictStore(str(tmp_path / "serial.jsonl"),
                          codec=SWEEP_CODEC) as store:
            chunked_serial = _chunked_sweep(reference_model, programs, 7, 1,
                                            store)
        with VerdictStore(str(tmp_path / "parallel.jsonl"),
                          codec=SWEEP_CODEC) as store:
            chunked_parallel = _chunked_sweep(reference_model, programs, 7,
                                              4, store)
        assert whole.exact
        assert whole.digest() == chunked_serial.digest()
        assert whole.digest() == chunked_parallel.digest()
        assert whole.programs == LIMIT

    def test_limit_caps_programs_list(self, reference_model):
        programs = _corpus()
        report = run_sweep(reference_model, programs=programs, limit=5)
        assert report.programs == 5
        # limit=0 means unlimited, not zero programs.
        report = run_sweep(reference_model, programs=programs, limit=0)
        assert report.programs == LIMIT

    def test_resume_with_smaller_limit(self, reference_model, tmp_path):
        """A store written at limit N must satisfy a later run with
        limit M < N entirely from the store (regression: the resumed
        run used to re-derive its own cap and mismatch)."""
        journal = str(tmp_path / "sweep.jsonl")
        programs = _corpus()
        with VerdictStore(journal, codec=SWEEP_CODEC) as store:
            full = run_sweep(reference_model, programs=programs, store=store)
        with VerdictStore(journal, codec=SWEEP_CODEC) as store:
            resumed = run_sweep(reference_model, programs=programs[:10],
                                store=store)
        assert resumed.programs == 10
        assert resumed.resumed == 10  # all served from the store
        fresh = run_sweep(reference_model, programs=programs[:10])
        assert resumed.digest() == fresh.digest()
        assert full.digest() != fresh.digest()  # different corpora differ

    def test_fenced_programs_check_exact(self, reference_model):
        """The synthesized model stays exact on corpora containing
        fences (in-order multi-V-scale: fence is a no-op, and the µhb
        grounding skips it while preserving program order)."""
        fenced = [program for _, program in
                  itertools.islice(
                      iter_programs(parse_spec("threads=2,len=2,fences=full")),
                      LIMIT)
                  if any(a.kind == "F" for t in program for a in t)]
        assert fenced, "corpus should contain fenced programs"
        report = run_sweep(reference_model, programs=fenced)
        assert report.exact
