"""Determinism of the parallel/incremental Check engine.

The hard guarantee pinned here (an ISSUE acceptance criterion): suite
and sweep verdicts are byte-identical across ``--jobs`` values and
across the ``fresh``/``incremental`` solver modes.
"""

import json

from repro.check import Checker, suite_digest, verify_exactness
from repro.check.verifier import _verdict_projection
from repro.cli import main


def _projection(verdicts):
    return _verdict_projection(verdicts)


class TestSuiteDeterminism:
    def test_jobs_1_vs_4_identical(self, reference_model, litmus_suite):
        checker = Checker(reference_model, engine="incremental")
        serial = checker.check_suite(litmus_suite[:12], jobs=1)
        parallel = checker.check_suite(litmus_suite[:12], jobs=4)
        assert _projection(serial) == _projection(parallel)
        assert suite_digest(serial) == suite_digest(parallel)

    def test_fresh_vs_incremental_identical(self, reference_model,
                                            litmus_suite):
        fresh = Checker(reference_model, engine="fresh") \
            .check_suite(litmus_suite)
        inc = Checker(reference_model, engine="incremental") \
            .check_suite(litmus_suite)
        assert _projection(fresh) == _projection(inc)
        assert suite_digest(fresh) == suite_digest(inc)



#: verdict digest of the 56-test suite on the reference model
SUITE_DIGEST = \
    "0d753e56fff26bf9cf9d3d467ab947fbdba7716cf2a0389cc665b3565223fb39"
#: report digest of the default 230-program exhaustive sweep
SWEEP_DIGEST = \
    "3a5658e5e249a5edbed3736c0ffeaa06e11bae752a3dea7ce8cf25ecaee6850e"
#: report digest of the first 40 programs of that sweep
LIMITED_SWEEP_DIGEST = \
    "d74bfd1779412410106c14fd9f3ede44d84b1de3373847a1226d6472c997662b"


class TestPinnedDigests:
    def test_suite_digest_pinned(self, reference_model, litmus_suite):
        for engine in ("fresh", "incremental"):
            verdicts = Checker(reference_model, engine=engine) \
                .check_suite(litmus_suite)
            assert suite_digest(verdicts) == SUITE_DIGEST, engine

    def test_sweep_digest_pinned(self, reference_model):
        report = verify_exactness(reference_model, engine="incremental")
        assert report.programs == 230
        assert report.exact
        assert report.digest() == SWEEP_DIGEST

    def test_limit40_digest_pinned(self, reference_model):
        fresh = verify_exactness(reference_model, limit=40, engine="fresh")
        inc = verify_exactness(reference_model, limit=40,
                               engine="incremental")
        assert fresh.programs == inc.programs == 40
        assert fresh.digest() == inc.digest() == LIMITED_SWEEP_DIGEST


class TestSweepDeterminism:
    def test_jobs_and_engine_invariant(self, reference_model):
        kwargs = dict(limit=20)
        baseline = verify_exactness(reference_model, jobs=1,
                                    engine="fresh", **kwargs)
        for jobs, engine in ((1, "incremental"), (4, "incremental"),
                             (4, "fresh")):
            report = verify_exactness(reference_model, jobs=jobs,
                                      engine=engine, **kwargs)
            assert report.programs == baseline.programs
            assert report.outcomes_checked == baseline.outcomes_checked
            assert report.unsound == baseline.unsound
            assert report.overstrict == baseline.overstrict


class TestCliReportDigest:
    def test_report_json_digest_matches_across_jobs_and_engines(
            self, reference_model, tmp_path, capsys):
        digests = {}
        for tag, argv in {
            "serial": ["--jobs", "1", "--engine", "fresh"],
            "parallel": ["--jobs", "4", "--engine", "fresh"],
            "incremental": ["--jobs", "1", "--engine", "incremental"],
        }.items():
            path = tmp_path / f"{tag}.json"
            rc = main(["check", "mp", "sb", "lb", "corr", "iriw", "wrc",
                       "--report-json", str(path)] + argv)
            capsys.readouterr()
            assert rc == 0
            digests[tag] = json.loads(path.read_text())["digest"]
        assert len(set(digests.values())) == 1
