"""Unit tests for the seeded service-level chaos harness.

Everything here is plan *arithmetic* — determinism of the fault
schedule, the spec grammar, and the store's ENOSPC byte-budget shim —
so the integration chaos tests can assume the plan itself is sound and
only have to prove the daemon converges under it.
"""

import errno
import hashlib

import pytest

from repro.errors import ServiceError
from repro.service.chaos import FAULT_KINDS, ChaosPlan, parse_chaos_spec
from repro.service.store import ArtifactStore


class TestSpecGrammar:
    def test_full_grammar_round_trip(self):
        plan = parse_chaos_spec(
            "seed=7,kill:3,torn:@s1,stall%=25,slow:9,daemon-kill:2,"
            "store-budget=4096,stall-secs=1.5,slow-secs=0.1")
        assert plan.seed == 7
        assert plan.sites["kill"] == frozenset({3})
        assert plan.shard_sites["torn"] == frozenset({1})
        assert plan.rates["stall"] == pytest.approx(0.25)
        assert plan.sites["slow"] == frozenset({9})
        assert plan.daemon_kills == frozenset({2})
        assert plan.store_budget == 4096
        assert plan.stall_seconds == pytest.approx(1.5)
        assert plan.slow_seconds == pytest.approx(0.1)

    def test_empty_spec_is_a_noop_plan(self):
        plan = parse_chaos_spec("")
        assert all(plan.fault_for(site) is None for site in range(50))
        assert not plan.kill_daemon_after(0)

    @pytest.mark.parametrize("bad", [
        "kill", "kill:", "kill:x", "explode:3", "kill%=150",
        "seed=abc", "store-budget=-1", "daemon-kill:", "kill:@s",
    ])
    def test_malformed_tokens_rejected(self, bad):
        with pytest.raises(ServiceError):
            parse_chaos_spec(bad)

    def test_spec_retained_for_logs(self):
        assert parse_chaos_spec("kill:1").describe() == "kill:1"
        assert "empty" in parse_chaos_spec("").describe()


class TestFaultSchedule:
    def test_explicit_sites_fire_exactly_once_each(self):
        plan = parse_chaos_spec("kill:2,torn:5")
        hits = {site: plan.fault_for(site) for site in range(10)}
        assert hits[2] == ("kill",)
        assert hits[5] == ("torn",)
        assert all(fault is None for site, fault in hits.items()
                   if site not in (2, 5))

    def test_shard_sites_fire_on_every_attempt(self):
        # The way to exhaust a shard's retries: every dispatch of
        # shard 1 is killed, whatever site counter it lands on.
        plan = parse_chaos_spec("kill:@s1")
        for site in (0, 7, 23, 100):
            assert plan.fault_for(site, shard_index=1) == ("kill",)
            assert plan.fault_for(site, shard_index=0) is None
            assert plan.fault_for(site) is None

    def test_rates_are_deterministic_and_seeded(self):
        plan_a = parse_chaos_spec("seed=1,kill%=30")
        plan_b = parse_chaos_spec("seed=1,kill%=30")
        plan_c = parse_chaos_spec("seed=2,kill%=30")
        series_a = [plan_a.fault_for(s) for s in range(200)]
        assert series_a == [plan_b.fault_for(s) for s in range(200)]
        assert series_a != [plan_c.fault_for(s) for s in range(200)]
        rate = sum(1 for f in series_a if f) / 200
        assert 0.1 < rate < 0.5  # roughly the asked-for 30%

    def test_rate_extremes(self):
        always = parse_chaos_spec("kill%=100")
        never = parse_chaos_spec("kill%=0")
        assert all(always.fault_for(s) == ("kill",) for s in range(20))
        assert all(never.fault_for(s) is None for s in range(20))

    def test_directives_carry_tuned_durations(self):
        plan = parse_chaos_spec("stall:0,slow:1,stall-secs=9,slow-secs=2")
        assert plan.fault_for(0) == ("stall", 9.0)
        assert plan.fault_for(1) == ("slow", 2.0)

    def test_kind_priority_is_stable(self):
        # One site, two matching kinds: the FAULT_KINDS order decides,
        # deterministically.
        plan = parse_chaos_spec("kill:4,torn:4")
        assert plan.fault_for(4) == (FAULT_KINDS[0],)

    def test_daemon_kill_ordinals(self):
        plan = parse_chaos_spec("daemon-kill:0,daemon-kill:3")
        assert [plan.kill_daemon_after(n) for n in range(5)] == \
            [True, False, False, True, False]

    def test_plan_is_hashable_and_frozen(self):
        plan = ChaosPlan(seed=3)
        with pytest.raises(AttributeError):
            plan.seed = 4


class TestStoreByteBudget:
    def test_budget_exhaustion_raises_enospc(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"), byte_budget=64)
        key = hashlib.sha256(b"a").hexdigest()
        store.put_bytes("misc", key, b"x" * 60)  # fits
        with pytest.raises(OSError) as exc:
            store.put_bytes("misc", hashlib.sha256(b"b").hexdigest(),
                            b"y" * 10)
        assert exc.value.errno == errno.ENOSPC
        assert store.budget_refusals == 1
        # What landed before exhaustion is still readable and intact.
        assert store.get_bytes("misc", key) == (b"x" * 60, "bytes")

    def test_no_budget_means_no_refusals(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put_bytes("misc", hashlib.sha256(b"a").hexdigest(),
                        b"x" * 1_000_000)
        assert store.budget_refusals == 0

    def test_cache_write_through_degrades_not_fails(self, tmp_path):
        from repro.formal import VerdictStore
        from repro.formal.engine import Verdict

        store = ArtifactStore(str(tmp_path / "store"), byte_budget=1)
        cache = VerdictStore(artifacts=store)
        fingerprint = hashlib.sha256(b"problem").hexdigest()
        # The write-through is refused (ENOSPC) but record() must not
        # raise: the in-memory tier keeps the verdict and the job
        # completes — only cross-process reuse is lost.
        cache.record(fingerprint, Verdict(
            status="PROVEN", method="bmc", bound=10, time_seconds=0.1))
        assert cache.store_write_errors == 1
        verdict = cache.lookup(fingerprint)
        assert verdict is not None and verdict.proven
        # A second session sees a plain miss, not an error.
        fresh = VerdictStore(artifacts=store)
        assert fresh.lookup(fingerprint) is None

    def test_worker_context_survives_budget_exhaustion(self, tmp_path):
        from repro.service.jobs import WorkerContext, execute_job, \
            validate_params

        ctx = WorkerContext(str(tmp_path / "store"), store_byte_budget=1)
        params = validate_params("check", {"tests": ["mp"]})
        summary, artifact, name = execute_job("check", params, ctx)
        assert name == "report.json"
        assert summary["tests"] == 1
        ctx.close()  # counter fold hits the budget too; must not raise
