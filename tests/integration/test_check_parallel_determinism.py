"""Determinism of the parallel Check layer, and agreement between its
two deciders.

The hard guarantee pinned here: suite and sweep verdicts are
byte-identical across ``--jobs`` values.  The suite is decided by
``solve_observability`` and the sweep by ``ProgramSolver``; the
cross-check tests compare the two deciders directly on both workloads.
"""

import json

from repro.check import (
    Checker,
    ExactnessReport,
    ProgramSolver,
    enumerate_sweep_programs,
    solve_observability,
    suite_digest,
    verify_exactness,
)
from repro.check.exhaustive import (
    _check_program,
    _program_conditions,
    merge_program_results,
)
from repro.check.verifier import _verdict_projection
from repro.cli import main
from repro.litmus import LitmusTest
from repro.mcm import sc_outcomes


def _projection(verdicts):
    return _verdict_projection(verdicts)


#: verdict digest of the 56-test suite on the reference model
SUITE_DIGEST = \
    "0d753e56fff26bf9cf9d3d467ab947fbdba7716cf2a0389cc665b3565223fb39"
#: report digest of the default 230-program exhaustive sweep
SWEEP_DIGEST = \
    "3a5658e5e249a5edbed3736c0ffeaa06e11bae752a3dea7ce8cf25ecaee6850e"
#: report digest of the first 40 programs of that sweep
LIMITED_SWEEP_DIGEST = \
    "d74bfd1779412410106c14fd9f3ede44d84b1de3373847a1226d6472c997662b"


def _reference_program_result(model, program):
    """One sweep program decided condition by condition with
    ``solve_observability`` — the reference ``_check_program`` (which
    runs ``ProgramSolver``) must match."""
    reference = sc_outcomes(program)
    checked = 0
    unsound, overstrict, undecided = [], [], []
    for condition in _program_conditions(program, True):
        test = LitmusTest("sweep", program, condition)
        permitted = any(test.outcome_matches(o) for o in reference)
        result = solve_observability(model, test)
        checked += 1
        if not result.decided:
            undecided.append((test.format(), condition))
        elif result.observable and not permitted:
            unsound.append((test.format(), condition))
        elif permitted and not result.observable:
            overstrict.append((test.format(), condition))
    return checked, unsound, overstrict, undecided


class TestSuiteDeterminism:
    def test_jobs_1_vs_4_identical(self, reference_model, litmus_suite):
        checker = Checker(reference_model)
        serial = checker.check_suite(litmus_suite[:12], jobs=1)
        parallel = checker.check_suite(litmus_suite[:12], jobs=4)
        assert _projection(serial) == _projection(parallel)
        assert suite_digest(serial) == suite_digest(parallel)

    def test_fresh_vs_incremental_identical(self, reference_model,
                                            litmus_suite):
        """``ProgramSolver.decide`` (the sweep's decider) and
        ``solve_observability`` (the suite's) agree on every test."""
        for test in litmus_suite:
            fresh = solve_observability(reference_model, test)
            incremental = ProgramSolver(reference_model, test) \
                .decide(test.final)
            assert incremental.decided and fresh.decided, test.name
            assert incremental.observable == fresh.observable, test.name
        verdicts = Checker(reference_model).check_suite(litmus_suite)
        assert suite_digest(verdicts) == SUITE_DIGEST


class TestPinnedDigests:
    def test_suite_digest_pinned(self, reference_model, litmus_suite):
        verdicts = Checker(reference_model).check_suite(litmus_suite)
        assert suite_digest(verdicts) == SUITE_DIGEST

    def test_sweep_digest_pinned(self, reference_model):
        report = verify_exactness(reference_model)
        assert report.programs == 230
        assert report.exact
        assert report.digest() == SWEEP_DIGEST

    def test_limit40_digest_pinned(self, reference_model):
        report = verify_exactness(reference_model, limit=40)
        assert report.programs == 40
        assert report.digest() == LIMITED_SWEEP_DIGEST


class TestSweepDeterminism:
    def test_jobs_and_engine_invariant(self, reference_model):
        """The first 40 programs: a per-condition ``solve_observability``
        reference, ``_check_program`` and the sweep at jobs 1 and 4
        all agree, and the reference digests to the pinned value."""
        programs = enumerate_sweep_programs(limit=40)
        reference = ExactnessReport(programs=len(programs))
        results = []
        for program in programs:
            expected = _reference_program_result(reference_model, program)
            got = _check_program(reference_model, program, True)
            assert got[:3] == expected[:3], program
            results.append(expected)
        merge_program_results(reference, results)
        assert reference.digest() == LIMITED_SWEEP_DIGEST
        for jobs in (1, 4):
            report = verify_exactness(reference_model, limit=40, jobs=jobs)
            assert report.outcomes_checked == reference.outcomes_checked
            assert report.unsound == reference.unsound
            assert report.overstrict == reference.overstrict
            assert report.digest() == LIMITED_SWEEP_DIGEST, jobs


class TestCliReportDigest:
    def test_report_json_digest_matches_across_jobs(
            self, reference_model, tmp_path, capsys):
        digests = {}
        for jobs in ("1", "4"):
            path = tmp_path / f"jobs{jobs}.json"
            rc = main(["check", "mp", "sb", "lb", "corr", "iriw", "wrc",
                       "--report-json", str(path), "--jobs", jobs])
            capsys.readouterr()
            assert rc == 0
            digests[jobs] = json.loads(path.read_text())["digest"]
        assert len(set(digests.values())) == 1
