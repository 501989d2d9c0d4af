"""Integration: formal discharge is deterministic across job counts.

A scoped unicore synthesis at ``--jobs 1`` and ``--jobs 4`` must
produce the identical per-SVA verdict set, byte-identical emitted
``.uarch`` models, and identical verdict journals (modulo the
wall-clock ``time_seconds`` field, which no two runs can share).  All
three are also pinned to golden sha256 values, taken while a second
(one-CNF-per-query) formal engine still agreed with them.
"""

import hashlib
import json

import pytest

from repro.core import Rtl2Uspec
from repro.designs import load_unicore, unicore_metadata
from repro.formal import PropertyChecker, VerdictStore
from repro.uspec import format_model

CANDIDATES = ["ir_de", "gpr", "dstore.cells"]

UARCH_SHA256 = \
    "5366e0e994c85b755453a330d924eb851573b584233053d1617291bf60e54c10"
VERDICT_DIGEST = \
    "ac10e977e3b3f4489e1eefb33a5fa6ff78ca5dd8200aa320367d4cb88f7cdca6"
#: sha256 of the normalized journal as compact sorted-key JSON
JOURNAL_SHA256 = \
    "dae9c4236a350dd89cf789b69395fb96b1a242096e8cb4ebbaaab7e1473089a3"


def synthesize(tmp_path, jobs):
    journal_path = tmp_path / f"j{jobs}.jsonl"
    journal = VerdictStore(str(journal_path), resume=False)
    checker = PropertyChecker(bound=10, max_k=1)
    try:
        synthesizer = Rtl2Uspec(
            load_unicore(), load_unicore(formal=True), unicore_metadata(),
            checker=checker, formal_cores=1, candidate_filter=CANDIDATES,
            jobs=jobs, verdicts=journal)
        result = synthesizer.synthesize()
    finally:
        journal.close()
    return result, journal_path, checker


def normalized_journal(path):
    """Journal records with the wall-clock field (and the checksum that
    covers it) zeroed: everything else (order, fingerprints, statuses,
    bounds, induction depths) must match across job counts."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "entry" in record:
                record["entry"]["time_seconds"] = 0.0
                record.pop("c", None)
            records.append(record)
    return records


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("journals")
    return {jobs: synthesize(tmp_path, jobs) for jobs in (1, 4)}


class TestEngineParity:
    def test_identical_verdicts(self, runs):
        keyed = {
            config: [(r.signature, r.verdict.status, r.verdict.method,
                      r.verdict.induction_k)
                     for r in result.sva_records]
            for config, (result, _, _) in runs.items()}
        assert keyed[1]  # the scoped run discharges a non-trivial corpus
        assert keyed[4] == keyed[1]
        for result, _, _ in runs.values():
            assert result.verdict_digest() == VERDICT_DIGEST

    def test_byte_identical_uarch(self, runs):
        models = {config: format_model(result.model).encode("utf-8")
                  for config, (result, _, _) in runs.items()}
        assert models[4] == models[1]
        assert hashlib.sha256(models[1]).hexdigest() == UARCH_SHA256

    def test_identical_journals(self, runs):
        journals = {config: normalized_journal(path)
                    for config, (_, path, _) in runs.items()}
        assert len(journals[1]) > 1  # header + at least one verdict
        assert journals[4] == journals[1]
        canonical = json.dumps(journals[1], sort_keys=True,
                               separators=(",", ":"))
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == \
            JOURNAL_SHA256

    def test_repeat_checks_hit_the_blast_cache(self, runs):
        """Each SVA grafts its own monitor netlist, so a cold single
        pass blasts every problem exactly once (misses == checks and
        zero hits).  Re-checking any problem — the scheduler-retry path
        the shared cache exists for — must skip straight to
        unrolling."""
        _, _, checker = runs[1]
        assert checker.stats["checks"] > 0
        # Check a problem twice through the same checker: the second
        # pass must be served from the blast cache (keyed on content,
        # so a freshly rebuilt problem instance hits too).
        from repro.sva import SvaFactory
        factory = SvaFactory(load_unicore(formal=True), unicore_metadata())
        first = checker.check(factory.functional_correctness())
        hits_before = checker.stats["blast_hits"]
        misses_before = checker.stats["blast_misses"]
        second = checker.check(factory.functional_correctness())
        assert checker.stats["blast_hits"] == hits_before + 1
        assert checker.stats["blast_misses"] == misses_before
        assert (first.status, first.induction_k) == \
            (second.status, second.induction_k)
