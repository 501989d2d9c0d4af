"""Integration: hierarchical compositional synthesis A/B.

Runs the full SVA corpus twice — monolithic on the 2-core formal
design, compositional on the 4-core one — and pins the compositional
contract (docs/compositional.md):

* the synthesized ``.uarch`` text and per-SVA verdict trichotomy are
  identical to the monolithic flow;
* module-granularity caching works: the engine reuses blasted module
  bases (``blast_hits > 0``) and the scheduler serves isomorphic
  per-module problems without a check (``fingerprint_dedup > 0``),
  so compose checks fewer problems than the monolithic 129 while
  covering twice the cores;
* the per-module counts surface in ``discharge_stats``.

Both runs discharge on two worker processes (``jobs=2``; parallel
discharge is byte-identical to serial, see test_parallel_determinism),
which halves the wall clock of the two full-corpus runs on a 2-CPU
host (~2-3 minutes total instead of ~5).
"""

import pytest

from repro import (
    FORMAL_CONFIG_4CORE,
    PropertyChecker,
    format_model,
    synthesize_uspec,
)

#: discharge workers for both full-corpus runs
JOBS = 2


@pytest.fixture(scope="module")
def mono():
    checker = PropertyChecker(bound=12, max_k=3)
    result = synthesize_uspec(checker=checker, jobs=JOBS)
    return result, checker


@pytest.fixture(scope="module")
def comp4():
    checker = PropertyChecker(bound=12, max_k=3)
    result = synthesize_uspec(checker=checker, compose=True,
                              formal_config=FORMAL_CONFIG_4CORE, jobs=JOBS)
    return result, checker


class TestComposeParity:
    def test_model_bytes_identical(self, mono, comp4):
        assert format_model(comp4[0].model) == format_model(mono[0].model)

    def test_verdict_trichotomy_digest_matches(self, mono, comp4):
        assert comp4[0].verdict_digest() == mono[0].verdict_digest()

    def test_record_signatures_match(self, mono, comp4):
        mono_sigs = sorted(repr(r.signature) for r in mono[0].sva_records)
        comp_sigs = sorted(repr(r.signature) for r in comp4[0].sva_records)
        assert comp_sigs == mono_sigs

    def test_no_bug_reports(self, comp4):
        # In particular: the arbiter-side bounded-service guarantee
        # (the assume half's soundness backing) must prove, not refute.
        assert comp4[0].bug_reports == []


class TestModuleGranularityCaching:
    def test_blast_hits_positive(self, mono, comp4):
        # Monolithic cold pass: every SVA is a unique netlist, no reuse.
        assert mono[1].stats["blast_hits"] == 0
        # Compose: one blast per module base, extended per monitor.
        assert comp4[1].stats["blast_hits"] > 0

    def test_checks_below_monolithic(self, mono, comp4):
        mono_checked = mono[0].discharge_stats.executed
        stats = comp4[0].discharge_stats
        checked = stats.executed - stats.fingerprint_dedup
        assert mono_checked == 129  # the paper-corpus baseline
        assert checked < mono_checked
        assert int(comp4[1].stats["checks"]) == checked

    def test_isomorphic_instances_deduped(self, comp4):
        stats = comp4[0].discharge_stats
        assert stats.fingerprint_dedup > 0
        core = stats.per_module["vscale_core"]
        assert core["executed"] > 0
        assert core["dedupe"] > 0
        # 4 identical cores: well over half the core-module problems
        # are served from instance 0's proofs.
        assert core["dedupe"] >= core["executed"] // 2

    def test_per_module_counts_cover_all_checked(self, comp4):
        stats = comp4[0].discharge_stats
        checked = stats.executed - stats.fingerprint_dedup
        assert sum(m["executed"] for m in stats.per_module.values()) == checked
        assert "arbiter" in stats.per_module
