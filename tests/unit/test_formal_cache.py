"""Verdict-store tests: fingerprint stability and hit/miss behaviour."""

import pytest

from repro.formal import (
    PropertyChecker,
    SafetyProblem,
    VerdictStore,
    problem_fingerprint,
)
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


@pytest.fixture()
def netlist():
    return compile_verilog(SRC, "counter")


def check(store, checker, problem):
    """The scheduler's plan-time probe, then a record on a miss."""
    fingerprint = problem_fingerprint(problem, checker.bound, checker.max_k)
    verdict = store.lookup(fingerprint)
    if verdict is None:
        verdict = checker.check(problem)
        store.record(fingerprint, verdict)
    return verdict


class TestFingerprint:
    def test_identical_problems_share_fingerprint(self, netlist):
        p1 = SafetyProblem(netlist, [], ["ok"])
        p2 = SafetyProblem(compile_verilog(SRC, "counter"), [], ["ok"])
        assert problem_fingerprint(p1, 10, 2) == problem_fingerprint(p2, 10, 2)

    def test_different_assertion_changes_fingerprint(self, netlist):
        p1 = SafetyProblem(netlist, [], ["ok"])
        p2 = SafetyProblem(netlist, [], ["bad"])
        assert problem_fingerprint(p1, 10, 2) != problem_fingerprint(p2, 10, 2)

    def test_bound_changes_fingerprint(self, netlist):
        p = SafetyProblem(netlist, [], ["ok"])
        assert problem_fingerprint(p, 10, 2) != problem_fingerprint(p, 12, 2)

    def test_netlist_change_changes_fingerprint(self, netlist):
        p1 = SafetyProblem(netlist, [], ["ok"])
        modified = netlist.copy()
        modified.dffs["c$ff"].init = 5
        p2 = SafetyProblem(modified, [], ["ok"])
        assert problem_fingerprint(p1, 10, 2) != problem_fingerprint(p2, 10, 2)


class TestCachingChecker:
    def test_hit_returns_same_verdict(self, netlist, tmp_path):
        cache = VerdictStore(str(tmp_path / "cache.jsonl"))
        checker = PropertyChecker(bound=12, max_k=2)
        p = SafetyProblem(netlist, [], ["ok"], name="p")
        first = check(cache, checker, p)
        assert cache.misses == 1 and cache.hits == 0
        second = check(cache, checker, p)
        assert cache.hits == 1
        assert second.status == first.status

    def test_cache_persists_to_disk(self, netlist, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = VerdictStore(path)
        verdict = check(cache, PropertyChecker(bound=12, max_k=2),
                        SafetyProblem(netlist, [], ["ok"]))
        cache.close()
        reloaded = VerdictStore(path)
        assert len(reloaded) == 1
        again = check(reloaded, PropertyChecker(bound=12, max_k=2),
                      SafetyProblem(netlist, [], ["ok"]))
        assert again.status == verdict.status
        assert reloaded.hits == 1

    def test_corrupt_cache_file_ignored(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("{not json")
        cache = VerdictStore(str(path))
        assert len(cache) == 0


class TestCrossProcessDeterminism:
    def test_design_fingerprint_is_stable(self):
        """The fingerprint of a monitor-augmented multi-V-scale problem
        must not depend on hash seeds (regression: a set-ordered merge
        in the elaborator once randomized wire naming)."""
        from repro.designs import (FORMAL_CONFIG, LW_SW_ENCODINGS,
                                   load_design, multi_vscale_metadata)
        from repro.sva import EventSpec, InstrSpec, SvaFactory

        def fingerprint():
            netlist = load_design(FORMAL_CONFIG)
            factory = SvaFactory(netlist, multi_vscale_metadata(FORMAL_CONFIG))
            problem = factory.never_updates(
                InstrSpec(0, LW_SW_ENCODINGS[0]),
                EventSpec("core_gen[0].core.inst_DX", 0))
            return problem_fingerprint(problem, 12, 1)

        assert fingerprint() == fingerprint()
        # Cross-process stability is checked implicitly by the CLI cache
        # (see build/verdicts.json usage); within-process determinism is
        # a necessary condition asserted here.


class TestAtomicSave:
    def test_corrupted_cache_round_trip(self, netlist, tmp_path):
        """A garbage file loads as empty, and the store replaces it with
        a valid file that round-trips."""
        path = tmp_path / "cache.jsonl"
        path.write_text("{truncated-by-a-crash")
        cache = VerdictStore(str(path))
        assert len(cache) == 0
        check(cache, PropertyChecker(bound=12, max_k=2),
              SafetyProblem(netlist, [], ["ok"], name="p"))
        cache.close()
        reloaded = VerdictStore(str(path))
        assert len(reloaded) == 1
        assert not list(path.parent.glob("*.tmp")), "temp file left behind"

    def test_failed_save_preserves_previous_file(self, netlist, tmp_path):
        """The file is append-only: an error mid-serialization can never
        truncate what an earlier commit wrote."""
        path = tmp_path / "cache.jsonl"
        cache = VerdictStore(str(path))
        check(cache, PropertyChecker(bound=12, max_k=2),
              SafetyProblem(netlist, [], ["ok"], name="p"))
        cache.commit()
        good = path.read_text()
        cache._file.record_entry("poison", {"status": {1, 2, 3}})
        with pytest.raises(TypeError):
            cache.commit()
        assert path.read_text() == good
        assert not list(path.parent.glob("*.tmp")), "temp file left behind"

    def test_save_creates_parent_directory(self, netlist, tmp_path):
        path = tmp_path / "deep" / "nested" / "cache.jsonl"
        VerdictStore(str(path)).close()
        assert path.exists()


class TestFingerprintCanonicalization:
    def test_stable_under_cell_reordering(self, netlist):
        """Equivalent netlists that emit their cell lists in different
        orders (a netlist is a DAG over named wires) share a
        fingerprint."""
        import random

        base = SafetyProblem(netlist, [], ["ok"])
        reference = problem_fingerprint(base, 10, 2)
        for seed in range(5):
            shuffled = netlist.copy()
            random.Random(seed).shuffle(shuffled.cells)
            assert problem_fingerprint(SafetyProblem(shuffled, [], ["ok"]),
                                       10, 2) == reference

    def test_reordering_does_not_mask_real_change(self, netlist):
        modified = netlist.copy()
        modified.cells.reverse()
        modified.dffs["c$ff"].init = 5
        assert problem_fingerprint(SafetyProblem(modified, [], ["ok"]), 10, 2) \
            != problem_fingerprint(SafetyProblem(netlist, [], ["ok"]), 10, 2)


class TestChecksumQuarantine:
    """Corruption is quarantined (moved aside), never raised and never
    silently served."""

    def _saved_cache(self, netlist, tmp_path):
        path = tmp_path / "cache.jsonl"
        with VerdictStore(str(path)) as cache:
            check(cache, PropertyChecker(bound=12, max_k=2),
                  SafetyProblem(netlist, [], ["ok"], name="p"))
        return path

    def test_garbage_file_is_quarantined(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("{definitely not json")
        cache = VerdictStore(str(path))
        assert len(cache) == 0
        assert cache.quarantined == str(path) + ".quarantine"
        assert (tmp_path / "cache.jsonl.quarantine").read_text() \
            .startswith("{definitely")

    def test_truncated_file_is_quarantined(self, netlist, tmp_path):
        path = self._saved_cache(netlist, tmp_path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])  # torn mid-write by a crash
        cache = VerdictStore(str(path))
        assert len(cache) == 0
        assert cache.quarantined is not None

    def test_checksum_mismatch_is_quarantined(self, netlist, tmp_path):
        import json

        path = self._saved_cache(netlist, tmp_path)
        header, line = path.read_text().splitlines()
        record = json.loads(line)
        record["entry"]["status"] = "PROVEN_FOREVER"  # bit rot
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        cache = VerdictStore(str(path))
        assert len(cache) == 0, "tampered entries must not be served"
        assert cache.quarantined is not None

    def test_intact_v2_file_loads_without_quarantine(self, netlist, tmp_path):
        path = self._saved_cache(netlist, tmp_path)
        cache = VerdictStore(str(path))
        assert len(cache) == 1
        assert cache.quarantined is None
        assert path.exists()


class TestBudgetVerdictsNeverPersist:
    """UNKNOWN verdicts are shaped by the run's budget, which the
    fingerprint excludes — they may be served within one run (one
    process, one budget) but never cross runs via the cache file."""

    def test_save_filters_unknown_entries(self, tmp_path):
        from repro.formal.engine import UNKNOWN, Verdict

        path = str(tmp_path / "cache.jsonl")
        cache = VerdictStore(path)
        cache.record("f" * 64, Verdict(
            status=UNKNOWN, method="bmc", bound=10, time_seconds=0.1,
            reason="timeout"))
        cache.record("a" * 64, Verdict(
            status="PROVEN", method="bmc", bound=10, time_seconds=0.1))
        assert cache.lookup("f" * 64) is not None  # same-run hit is fine
        cache.close()
        reloaded = VerdictStore(path)
        assert reloaded.quarantined is None  # checksum covers the filtered set
        assert reloaded.lookup("a" * 64) is not None
        assert reloaded.lookup("f" * 64) is None

    def test_pre_fix_file_with_unknown_entry_filtered_on_load(self, tmp_path):
        from repro.formal.cache import SVA_CODEC, _StoreFile

        path = str(tmp_path / "cache.jsonl")
        # Older verdict journals recorded UNKNOWN like any verdict.
        with _StoreFile(path, False, SVA_CODEC.format) as older:
            older.record_entry("f" * 64, {
                "status": "UNKNOWN", "method": "bmc", "bound": 10,
                "time_seconds": 0.1, "reason": "timeout"})
            older.record_entry("a" * 64, {
                "status": "PROVEN", "method": "bmc", "bound": 10,
                "time_seconds": 0.1})
        cache = VerdictStore(path)
        assert cache.quarantined is None
        assert cache.lookup("a" * 64) is not None
        assert cache.lookup("f" * 64) is None
