"""Unit tests for the Check layer's verdict stores.

The suite and sweep codecs on :class:`repro.formal.VerdictStore`
(``tests/unit/test_journal.py`` covers the file format itself):
round trips, torn-tail quarantine, corrupt records, the
never-persist-undecided policy, files of one kind refusing to replay
as another, and files written by the suite and sweep journals that the
store replaced replaying unchanged under ``--cache``."""

import json
import os

import pytest

from repro.check import SUITE_CODEC, SWEEP_CODEC, model_fingerprint, \
    program_fingerprint
from repro.check import TestVerdict as Verdict
from repro.check import test_fingerprint as fingerprint_test
from repro.cli import main
from repro.errors import JournalError
from repro.formal import VerdictStore
from repro.litmus import load_suite
from repro.mcm.events import R, W
from repro.resilience import DECIDED, TIMEOUT, UNKNOWN


def verdict(name="mp", status=DECIDED, observable=False, permitted=False):
    return Verdict(name=name, observable=observable,
                   permitted_sc=permitted, time_ms=1.0, iterations=1,
                   vars=10, clauses=20, status=status)


def suite_store(path, resume=True):
    return VerdictStore(path, resume=resume, codec=SUITE_CODEC)


def sweep_store(path, resume=True):
    return VerdictStore(path, resume=resume, codec=SWEEP_CODEC)


def write_header(path, format):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"format": format, "version": 2}) + "\n")


class TestSuiteJournalRoundTrip:
    def test_record_commit_replay(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with suite_store(path) as store:
            store.record("fp-a", verdict("mp"))
            store.record("fp-b", verdict("sb", observable=True,
                                         permitted=True))
            store.commit()
        with suite_store(path) as resumed:
            assert len(resumed) == 2
            replayed = resumed.lookup("fp-a")
            assert replayed.name == "mp" and replayed.passed
            assert replayed.time_ms == 0.0  # the work was done earlier
            assert replayed.vars == 10 and replayed.clauses == 20
            other = resumed.lookup("fp-b")
            assert other.observable and other.permitted_sc
            assert resumed.lookup("fp-missing") is None

    def test_undecided_verdicts_are_never_journaled(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with suite_store(path) as store:
            store.record("fp-t", verdict(status=TIMEOUT))
            store.record("fp-u", verdict(status=UNKNOWN))
            store.record("fp-d", verdict())
        with suite_store(path) as resumed:
            assert len(resumed) == 1
            assert resumed.lookup("fp-d") is not None
            assert resumed.lookup("fp-t") is None
            assert resumed.lookup("fp-u") is None

    def test_fresh_open_truncates(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with suite_store(path) as store:
            store.record("fp", verdict())
        with suite_store(path, resume=False) as store:
            assert len(store) == 0


class TestSuiteJournalQuarantine:
    def _journal_bytes(self, tmp_path, n=3):
        path = str(tmp_path / "j.jsonl")
        with suite_store(path) as store:
            for i in range(n):
                store.record(f"fp-{i}", verdict(f"t{i}"))
        with open(path, "rb") as handle:
            return path, handle.read()

    def test_torn_tail_is_quarantined(self, tmp_path):
        path, raw = self._journal_bytes(tmp_path)
        with open(path, "wb") as handle:
            handle.write(raw[:-15])  # crash mid-append
        resumed = suite_store(path)
        assert len(resumed) == 2
        assert resumed.quarantined_records == 1
        assert os.path.exists(resumed.quarantined)
        resumed.record("fp-new", verdict("new"))
        resumed.close()
        with suite_store(path) as again:
            assert len(again) == 3
            assert again.lookup("fp-new").name == "new"

    def test_corrupt_interior_record_truncates_there(self, tmp_path):
        path, raw = self._journal_bytes(tmp_path)
        lines = raw.split(b"\n")
        lines[2] = b'{"key": "fp-1", "entry": {"hacked": true}}'
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        with suite_store(path) as resumed:
            # only the record before the corruption
            assert len(resumed) == 1
            assert resumed.lookup("fp-0") is not None

    def test_checksum_mismatch_is_rejected(self, tmp_path):
        path, raw = self._journal_bytes(tmp_path)
        text = raw.decode("utf-8").replace('"observable":false',
                                           '"observable":true')
        with open(path, "wb") as handle:
            handle.write(text.encode("utf-8"))
        with suite_store(path) as resumed:
            assert len(resumed) == 0  # bit-flipped records do not replay

    def test_wrong_format_raises(self, tmp_path):
        """An SVA verdict file does not replay as suite verdicts."""
        path = str(tmp_path / "j.jsonl")
        write_header(path, "rtl2uspec-verdict-journal")
        with pytest.raises(JournalError):
            suite_store(path)


class TestSweepJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "sw.jsonl")
        condition = (((1, "r1"), 0),)
        with sweep_store(path) as store:
            store.record("fp-p", (12, [("formatted-test", condition)], [],
                                   []))
        with sweep_store(path) as resumed:
            checked, unsound, overstrict, undecided = \
                resumed.lookup("fp-p")
            assert checked == 12
            assert unsound == [("formatted-test", condition)]
            assert overstrict == [] and undecided == []

    def test_programs_with_undecided_conditions_are_not_journaled(
            self, tmp_path):
        path = str(tmp_path / "sw.jsonl")
        with sweep_store(path) as store:
            store.record("fp-p", (5, [], [], [("t", ())]))
            store.record("fp-q", (5, [], [], []))
        with sweep_store(path) as resumed:
            assert len(resumed) == 1
            assert resumed.lookup("fp-q") is not None
            assert resumed.lookup("fp-p") is None

    def test_suite_and_sweep_journals_do_not_cross_replay(self, tmp_path):
        suite_path = str(tmp_path / "suite.jsonl")
        with suite_store(suite_path) as store:
            store.record("fp", verdict())
        sweep_path = str(tmp_path / "sweep.jsonl")
        with sweep_store(sweep_path) as store:
            store.record("fp", (5, [], [], []))
        sva_path = str(tmp_path / "sva.jsonl")
        write_header(sva_path, "rtl2uspec-verdict-journal")
        with pytest.raises(JournalError):
            sweep_store(suite_path)
        with pytest.raises(JournalError):
            suite_store(sweep_path)
        with pytest.raises(JournalError):
            sweep_store(sva_path)
        for path in (suite_path, sweep_path):
            with pytest.raises(JournalError):
                VerdictStore(path)  # the SVA codec


class TestFingerprints:
    def test_test_fingerprint_depends_on_model_and_test(self, reference_model):
        fp_model = model_fingerprint(reference_model)
        tests = load_suite()[:2]
        a = fingerprint_test(fp_model, tests[0])
        b = fingerprint_test(fp_model, tests[1])
        assert a != b
        assert fingerprint_test("other-model", tests[0]) != a
        assert fingerprint_test(fp_model, tests[0]) == a  # stable

    def test_program_fingerprint_stable_and_distinct(self):
        p1 = ((W("x", 1),), (R("x", "r1"),))
        p2 = ((W("y", 1),), (R("y", "r1"),))
        assert program_fingerprint("m", p1) == program_fingerprint("m", p1)
        assert program_fingerprint("m", p1) != program_fingerprint("m", p2)
        assert program_fingerprint("m", p1) != program_fingerprint("n", p1)


#: ``rtl2uspec check mp sb --journal F`` as written by the suite
#: journal the store replaced (reference model)
LEGACY_SUITE = (
    '{"format":"rtl2uspec-check-suite-journal","version":2}\n'
    '{"key":"b53bc19e242bf9035cea97bbba666a6afe173650db54d6a07dc001b96a807ba5",'
    '"entry":{"name":"mp","status":"DECIDED","observable":false,'
    '"permitted_sc":false,"iterations":1,"vars":190,"clauses":420},'
    '"c":"a558b9829a8f"}\n'
    '{"key":"d5c2769a2e36f7c460eca2b91cad472a7dd09820201e28f39db0ec83edceb8b2",'
    '"entry":{"name":"sb","status":"DECIDED","observable":false,'
    '"permitted_sc":false,"iterations":1,"vars":194,"clauses":424},'
    '"c":"cc1cbc24ded5"}\n')

#: ``rtl2uspec sweep --limit 3 --journal F`` as written by the sweep
#: journal the store replaced (reference model)
LEGACY_SWEEP = (
    '{"format":"rtl2uspec-check-sweep-journal","version":2}\n'
    '{"key":"8f7ba4ba5a5385b3efc42ae3454163fd4b7f6292bcca01abdde21b69b2c695d1",'
    '"entry":{"checked":2,"unsound":[],"overstrict":[]},'
    '"c":"a956027a2f6d"}\n'
    '{"key":"9fbfaf7d798a937863d99192b4175792927ef18a9f3516f766a5d64238a3b1aa",'
    '"entry":{"checked":2,"unsound":[],"overstrict":[]},'
    '"c":"356ac1de4d81"}\n'
    '{"key":"64ed8b29681a730496cdfc836d8cb49b626d7c535d3497778d4a3493960abad6",'
    '"entry":{"checked":2,"unsound":[],"overstrict":[]},'
    '"c":"b2b3c6749d00"}\n')

#: the digest of ``sweep --limit 3`` against the reference model
LEGACY_SWEEP_DIGEST = \
    "4930a23eff8ad118930f7fb429026cf8414efb781758878cba01fee80836e161"


class TestLegacyJournalFiles:
    def test_suite_journal_file_replays_under_cache(self, tmp_path, capsys):
        path = tmp_path / "check.jsonl"
        path.write_text(LEGACY_SUITE)
        assert main(["check", "mp", "sb", "--cache", str(path)]) == 0
        out = capsys.readouterr().out
        assert "resumed: 2 verdict(s) replayed" in out
        assert "ALL TESTS PASS" in out
        # A fresh --cache run writes the same bytes.
        fresh = tmp_path / "fresh.jsonl"
        assert main(["check", "mp", "sb", "--cache", str(fresh)]) == 0
        assert fresh.read_text() == LEGACY_SUITE

    def test_sweep_journal_file_replays_under_cache(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        path.write_text(LEGACY_SWEEP)
        report = tmp_path / "report.json"
        assert main(["sweep", "--limit", "3", "--cache", str(path),
                     "--report-json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["resumed"] == 3
        assert payload["digest"] == LEGACY_SWEEP_DIGEST
        fresh = tmp_path / "fresh.jsonl"
        assert main(["sweep", "--limit", "3", "--cache", str(fresh)]) == 0
        assert fresh.read_text() == LEGACY_SWEEP
