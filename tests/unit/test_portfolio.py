"""Portfolio racing: race_tasks semantics, config generation, and the
digest-invariance of ``PropertyChecker(portfolio=N)``."""

import time

import pytest

from repro.formal import (
    PROVEN,
    REFUTED,
    PropertyChecker,
    SafetyProblem,
    portfolio_configs,
    race_check,
)
from repro.resilience import race_tasks
from repro.resilience.pool import worker_state
from repro.verilog import compile_verilog

from .test_formal_engine_ab import COUNTER_SRC


@pytest.fixture(scope="module")
def counter_netlist():
    return compile_verilog(COUNTER_SRC, "counter")


# ----------------------------------------------------------------------
# race_tasks primitive
# ----------------------------------------------------------------------
def _racer(item):
    # Slower for higher items, so item 0 should win a fair race; the
    # state marker proves the initializer ran in the worker.
    assert worker_state().get("marker") == "race"
    time.sleep(0.05 * item)
    return ("worker", item * 10)


def _slow_racer(item):
    time.sleep(30)
    return ("worker", item)


def _crashing_racer(item):
    raise RuntimeError(f"racer {item} died")


class TestRaceTasks:
    def test_single_item_runs_inline(self):
        calls = []
        winner, result = race_tasks(
            [7], _racer, lambda item: calls.append(item) or ("inline", item),
            state={})
        assert (winner, result) == (0, ("inline", 7))
        assert calls == [7]

    def test_race_returns_a_winner(self):
        winner, result = race_tasks(
            [0, 1, 2], _racer, lambda item: ("inline", item),
            state={"marker": "race"})
        assert result == ("worker", winner * 10)
        assert 0 <= winner <= 2

    def test_all_racers_crash_falls_back_inline(self):
        winner, result = race_tasks(
            [0, 1], _crashing_racer, lambda item: ("inline", item),
            state={})
        assert (winner, result) == (0, ("inline", 0))

    def test_watchdog_expiry_falls_back_inline(self):
        start = time.monotonic()
        winner, result = race_tasks(
            [0, 1], _slow_racer, lambda item: ("inline", item),
            state={}, watchdog_seconds=0.5)
        assert (winner, result) == (0, ("inline", 0))
        assert time.monotonic() - start < 20  # losers were terminated

    def test_in_worker_degrades_inline(self):
        state = worker_state()
        state["in_worker"] = True
        try:
            winner, result = race_tasks(
                [0, 1, 2], _racer, lambda item: ("inline", item), state={})
        finally:
            state.pop("in_worker", None)
        assert (winner, result) == (0, ("inline", 0))


# ----------------------------------------------------------------------
# Config generation
# ----------------------------------------------------------------------
class TestPortfolioConfigs:
    def test_config_zero_is_the_checker_baseline(self):
        checker = PropertyChecker(phase_seed=9, restart_base=42,
                                  portfolio=4)
        configs = portfolio_configs(checker, 4)
        assert configs[0] == (9, 42)
        assert len(configs) == 4

    def test_configs_are_deterministic_and_diverse(self):
        checker = PropertyChecker()
        a = portfolio_configs(checker, 12)
        b = portfolio_configs(checker, 12)
        assert a == b
        seeds = [seed for seed, _ in a]
        assert len(set(seeds)) == len(seeds)  # no duplicate phase seeds

    def test_portfolio_validated(self):
        with pytest.raises(Exception):
            PropertyChecker(portfolio=0)


# ----------------------------------------------------------------------
# Racing keeps verdicts
# ----------------------------------------------------------------------
class TestPortfolioChecker:
    def _key(self, verdict):
        return (verdict.status, verdict.method, verdict.bound,
                verdict.induction_k)

    def test_verdicts_match_non_portfolio(self, counter_netlist):
        baseline = PropertyChecker(bound=12, max_k=4)
        racing = PropertyChecker(bound=12, max_k=4, portfolio=3)
        for asserts in (["le10"], ["le9"]):
            problem = SafetyProblem(counter_netlist, [], asserts)
            want = baseline.check(problem)
            got = racing.check(problem)
            assert self._key(got) == self._key(want)
        assert want.status in (PROVEN, REFUTED)
        assert racing.stats["portfolio_races"] == 2
        wins = sum(int(v) for k, v in racing.stats.items()
                   if k.startswith("portfolio_wins_"))
        assert wins == 2

    def test_race_check_inline_when_single_config(self, counter_netlist):
        checker = PropertyChecker(bound=12, max_k=4, portfolio=1)
        problem = SafetyProblem(counter_netlist, [], ["le10"])
        verdict = checker.check(problem)
        assert verdict.status == PROVEN
        # portfolio=1 never races, so no race bookkeeping appears.
        assert "portfolio_races" not in checker.stats

    def test_race_check_merges_winner_stats(self, counter_netlist):
        checker = PropertyChecker(bound=12, max_k=4, portfolio=2)
        from repro.formal.engine import CheckParams
        problem = SafetyProblem(counter_netlist, [], ["le10"])
        verdict = race_check(checker, problem, CheckParams())
        assert verdict.status == PROVEN
        assert checker.stats["checks"] >= 1
        assert checker.stats["sat_solves"] >= 1
