"""Unit tests for the one seeded fault plan and its spec grammar.

Everything here is plan *arithmetic* — determinism of the fault
schedule, the spec grammar, and the store's ENOSPC byte-budget shim —
so the pool and service fault-tolerance tests can assume the plan
itself is sound and only have to prove their layer converges under it.
"""

import errno
import hashlib

import pytest

from repro.errors import ResilienceError
from repro.resilience import (FAULT_KINDS, GARBAGE, HANG, INTERRUPT, KILL,
                              SLOW, parse_fault_spec)
from repro.service.store import ArtifactStore


class TestSpecGrammar:
    def test_full_grammar_round_trip(self):
        plan = parse_fault_spec(
            "seed=7,kill:3,garbage:@s1,hang%=25,slow:9,interrupt:2,"
            "attempts=2,soft,store-budget=4096,hang-secs=1.5,"
            "slow-secs=0.1")
        assert plan.fault_for(3) == KILL
        assert plan.fault_for(9) == SLOW
        assert plan.fault_for(2) == INTERRUPT
        assert plan.fault_for(3, attempt=1) == KILL
        assert plan.fault_for(3, attempt=2) is None
        assert all(plan.fault_for(site, shard=1) == GARBAGE
                   for site in (0, 5, 40))
        hung = [site for site in range(400) if plan.fault_for(site) == HANG]
        assert 0.15 < len(hung) / 400 < 0.35  # roughly the asked-for 25%
        assert plan.soft is True
        assert plan.store_budget == 4096
        assert plan.hang_seconds == pytest.approx(1.5)
        assert plan.slow_seconds == pytest.approx(0.1)

    def test_empty_spec_is_a_noop_plan(self):
        assert parse_fault_spec("") is None
        assert parse_fault_spec(" , ") is None
        plan = parse_fault_spec("seed=3")  # armed, but names no site
        assert all(plan.fault_for(site) is None for site in range(50))
        assert not plan.fires(INTERRUPT, 0)

    @pytest.mark.parametrize("bad", [
        "kill", "kill:", "kill:x", "explode:3", "kill%=150",
        "seed=abc", "store-budget=-1", "interrupt:", "kill:@s",
        "attempts=often", "attempts=0", "kill:-1", "hang-secs=x",
        "crash:0", "kill%=nan",
    ])
    def test_malformed_tokens_rejected(self, bad):
        with pytest.raises(ResilienceError):
            parse_fault_spec(bad)

    def test_spec_retained_for_logs(self):
        assert parse_fault_spec("kill:1").spec == "kill:1"
        assert parse_fault_spec(" seed=2, kill:1 ").spec == "seed=2,kill:1"


class TestFaultSchedule:
    def test_explicit_sites_fire_exactly_once_each(self):
        plan = parse_fault_spec("kill:2,garbage:5")
        hits = {site: plan.fault_for(site) for site in range(10)}
        assert hits[2] == KILL
        assert hits[5] == GARBAGE
        assert all(fault is None for site, fault in hits.items()
                   if site not in (2, 5))

    def test_shard_sites_fire_on_every_attempt(self):
        # The way to exhaust a shard's retries: every dispatch of
        # shard 1 is killed, whatever site counter it lands on.
        plan = parse_fault_spec("kill:@s1")
        for site in (0, 7, 23, 100):
            assert plan.fault_for(site, shard=1) == KILL
            assert plan.fault_for(site, shard=0) is None
            assert plan.fault_for(site) is None

    def test_rates_are_deterministic_and_seeded(self):
        plan_a = parse_fault_spec("seed=1,kill%=30")
        plan_b = parse_fault_spec("seed=1,kill%=30")
        plan_c = parse_fault_spec("seed=2,kill%=30")
        series_a = [plan_a.fault_for(s) for s in range(200)]
        assert series_a == [plan_b.fault_for(s) for s in range(200)]
        assert series_a != [plan_c.fault_for(s) for s in range(200)]
        rate = sum(1 for f in series_a if f) / 200
        assert 0.1 < rate < 0.5  # roughly the asked-for 30%

    def test_seeded_kill_rate_hits_are_pinned(self):
        # The rate draw hashes "{seed}:kill:{site}": these are the
        # dispatch sites the serve smoke's seed=8 plan kills, spaced
        # out so no shard exhausts its retries.
        plan = parse_fault_spec("seed=8,kill%=20")
        assert [s for s in range(30) if plan.fault_for(s)] == \
            [2, 7, 11, 16, 23]

    def test_shifted_plans_keep_absolute_sites(self):
        # A chunk of a longer run asks with chunk-local sites; explicit
        # sites and rate draws both stay keyed by the absolute site.
        plan = parse_fault_spec("seed=8,kill%=20,hang:9")
        chunk = plan.shifted(7)
        assert [chunk.fault_for(s) for s in range(23)] == \
            [plan.fault_for(s + 7) for s in range(23)]
        assert chunk.shifted(3).fault_for(6) == plan.fault_for(16) == KILL
        assert chunk.fault_for(-1) is None

    def test_rate_extremes(self):
        always = parse_fault_spec("kill%=100")
        never = parse_fault_spec("kill%=0")
        assert all(always.fault_for(s) == KILL for s in range(20))
        assert all(never.fault_for(s) is None for s in range(20))

    def test_directives_carry_tuned_durations(self):
        plan = parse_fault_spec("hang:0,slow:1,hang-secs=9,slow-secs=2")
        assert (plan.fault_for(0), plan.hang_seconds) == (HANG, 9.0)
        assert (plan.fault_for(1), plan.slow_seconds) == (SLOW, 2.0)
        defaults = parse_fault_spec("hang:0")
        assert (defaults.hang_seconds, defaults.slow_seconds) == (5.0, 0.25)

    def test_kind_priority_is_stable(self):
        # One site, several matching kinds: the FAULT_KINDS order
        # decides, deterministically, and kill comes first.
        plan = parse_fault_spec("garbage:4,kill:4,interrupt:4")
        assert plan.fault_for(4) == FAULT_KINDS[0] == KILL
        assert parse_fault_spec("interrupt:4,hang:4").fault_for(4) == HANG

    def test_daemon_kill_ordinals(self):
        # The daemon stops after its K-th completion: a separate axis
        # from its dispatch sites, so a kill at the same number does
        # not mask the interrupt.
        plan = parse_fault_spec("interrupt:0,interrupt:3,kill:3")
        assert [plan.fires(INTERRUPT, n) for n in range(5)] == \
            [True, False, False, True, False]

    def test_plan_is_hashable_and_frozen(self):
        plan = parse_fault_spec("seed=3")
        assert hash(plan) == hash(parse_fault_spec("seed=3"))
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
