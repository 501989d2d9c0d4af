"""Unit tests for the verdict store's file (checkpoint/resume): the
shared append-only journal format with verdict records."""

import json
import os

import pytest

from repro.errors import JournalError
from repro.formal import UNKNOWN, Verdict, VerdictStore


def verdict(status="PROVEN", name="p", reason=None):
    return Verdict(status=status, method="bmc", bound=10, time_seconds=0.5,
                   name=name, reason=reason)


class TestRoundTrip:
    def test_record_commit_replay(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with VerdictStore(path, resume=False) as journal:
            journal.record("fp-a", verdict("PROVEN", name="a"))
            journal.record("fp-b", verdict("REFUTED", name="b"))
            journal.commit()

        resumed = VerdictStore(path)
        assert len(resumed) == 2
        assert resumed.lookup("fp-a").proven
        assert resumed.lookup("fp-b").refuted
        assert resumed.lookup("fp-missing") is None
        assert resumed.hits == 2
        resumed.close()

    def test_unknown_verdicts_are_not_replayed(self, tmp_path):
        """A budget-shaped UNKNOWN stays in the run that produced it: a
        re-run with a larger budget must decide the problem again."""
        path = str(tmp_path / "j.jsonl")
        with VerdictStore(path, resume=False) as journal:
            journal.record("fp-u", verdict(UNKNOWN, reason="timeout"))
            assert journal.lookup("fp-u").unknown  # same run: served
        resumed = VerdictStore(path)
        assert resumed.lookup("fp-u") is None
        assert len(resumed) == 0
        resumed.close()

    def test_close_commits_pending(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = VerdictStore(path, resume=False)
        journal.record("fp", verdict())
        journal.close()  # no explicit commit
        assert len(VerdictStore(path)) == 1

    def test_fresh_open_truncates(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with VerdictStore(path, resume=False) as journal:
            journal.record("fp", verdict())
        # resume=False = a brand-new run: prior entries are discarded
        with VerdictStore(path, resume=False) as journal:
            assert len(journal) == 0
        assert len(VerdictStore(path)) == 0

    def test_resume_missing_file_starts_empty(self, tmp_path):
        journal = VerdictStore(str(tmp_path / "nope.jsonl"))
        assert len(journal) == 0
        journal.close()


class TestCrashResilience:
    def _journal_bytes(self, tmp_path, n=3):
        path = str(tmp_path / "j.jsonl")
        with VerdictStore(path, resume=False) as journal:
            for i in range(n):
                journal.record(f"fp-{i}", verdict(name=f"p{i}"))
        with open(path, "rb") as handle:
            return path, handle.read()

    def test_torn_tail_is_dropped(self, tmp_path):
        path, raw = self._journal_bytes(tmp_path)
        # Simulate a crash mid-append: cut the last record in half.
        with open(path, "wb") as handle:
            handle.write(raw[:-20])
        resumed = VerdictStore(path)
        assert len(resumed) == 2  # the complete records survive
        resumed.record("fp-new", verdict(name="new"))
        resumed.close()
        # The torn line was truncated away, so the stream stays parseable.
        again = VerdictStore(path)
        assert len(again) == 3
        assert again.lookup("fp-new") is not None
        again.close()

    def test_garbage_interior_line_truncates_there(self, tmp_path):
        path, raw = self._journal_bytes(tmp_path)
        lines = raw.split(b"\n")
        lines[2] = b"{not json at all"
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        resumed = VerdictStore(path)
        assert len(resumed) == 1  # header + first record survive
        resumed.close()

    def test_unreadable_first_line_quarantines_whole_file(self, tmp_path):
        """Nothing replays from a file whose first line does not parse
        (like the JSON-envelope caches older versions wrote): the
        whole file moves to ``.quarantine`` before the header is
        written, instead of being silently truncated."""
        path = str(tmp_path / "j.jsonl")
        older = '{\n"format": "rtl2uspec-verdict-cache",\n"version": 2\n}\n'
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(older)
        journal = VerdictStore(path)
        assert len(journal) == 0
        assert journal.quarantined == path + ".quarantine"
        assert journal.quarantined_records == 4
        with open(path + ".quarantine", "r", encoding="utf-8") as handle:
            assert handle.read() == older
        journal.record("fp", verdict())
        journal.close()
        assert len(VerdictStore(path)) == 1

    def test_empty_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        open(path, "w").close()
        journal = VerdictStore(path)
        assert len(journal) == 0
        journal.record("fp", verdict())
        journal.close()
        assert len(VerdictStore(path)) == 1

    def test_commit_is_idempotent_and_appends_once(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with VerdictStore(path, resume=False) as journal:
            journal.record("fp", verdict())
            journal.commit()
            journal.commit()
            journal.commit()
        with open(path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert sum(1 for r in records if "key" in r) == 1


class TestErrors:
    def test_wrong_format_raises(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(JournalError):
            VerdictStore(path)

    def test_unopenable_path_raises(self, tmp_path):
        directory = str(tmp_path / "adir")
        os.makedirs(directory)
        with pytest.raises(JournalError):
            # a directory cannot be a journal
            VerdictStore(directory, resume=False)
