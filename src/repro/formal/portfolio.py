"""Portfolio racing: N diversified CDCL configs, first finisher wins.

``PropertyChecker(portfolio=N)`` (CLI: ``repro synth --portfolio N``)
decides each safety problem by racing ``N`` differently-configured
copies of the checker over :func:`repro.resilience.pool.race_tasks`.
Configs vary only *search-path* knobs — initial phase seed and Luby
restart unit — never the formula, so every racer decides
the same CNF and SAT/UNSAT answers agree by soundness: statuses,
bounds, and induction depths are config-invariant, and the verdict
digest (trichotomy over signatures) is identical to a non-portfolio
run.  REFUTED counterexample *traces* may differ between configs (any
satisfying assignment is a valid witness); they are diagnostic.

Config 0 is always the checker's own baseline configuration, and it is
the inline fallback wherever racing is impossible — inside discharge
pool workers (nested pools are refused), on single-config portfolios,
or when every racer dies — so ``--portfolio`` degrades to exactly the
historical behavior rather than failing.

The winner's engine statistics (checks, SAT time, propagation
counters) are merged into the parent checker's ``stats`` the same way
the discharge scheduler merges worker deltas, plus ``portfolio_races``
and per-config ``portfolio_wins_<i>`` counters recording who won.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..resilience.pool import race_tasks, worker_state

#: a portfolio config: (phase_seed, restart_base); restart_base None
#: keeps the solver's default Luby unit
Config = Tuple[int, Optional[int]]

#: (phase_seed, restart_base) variants for configs 1..N-1; the cycle
#: repeats with shifted seeds past its length.  Seeds are small fixed
#: integers, not entropy: determinism of each racer matters, only the
#: *diversity* between them is the point.
_VARIANTS: Tuple[Config, ...] = (
    (1, 32),
    (2, 128),
    (3, 16),
    (4, 256),
    (5, 64),
    (6, 8),
    (7, 512),
)


def portfolio_configs(checker, size: int) -> List[Config]:
    """The deterministic config list for one race: the checker's own
    configuration first, then ``size - 1`` diversification variants."""
    configs: List[Config] = [(checker.phase_seed, checker.restart_base)]
    for i in range(1, max(1, size)):
        seed, restart = _VARIANTS[(i - 1) % len(_VARIANTS)]
        configs.append((seed + 8 * ((i - 1) // len(_VARIANTS)), restart))
    return configs


def _apply_config(checker, config: Config) -> None:
    checker.phase_seed, checker.restart_base = config


def _race_worker(config: Config):
    """Race task: decide the shared problem under one config; returns
    ``(verdict, stats_delta)`` like the discharge scheduler's workers."""
    state = worker_state()
    checker = state["checker"]  # this worker's private unpickled copy
    _apply_config(checker, config)
    before = dict(checker.stats)
    verdict = checker.check_problem(state["problem"], state["params"])
    delta = {key: value - before.get(key, 0)
             for key, value in checker.stats.items()}
    return verdict, delta


def race_check(checker, problem, params):
    """Decide ``problem`` by racing ``checker.portfolio`` configs.

    Returns the winning verdict; the winner's stats delta and the race
    bookkeeping are merged into ``checker.stats``.
    """
    configs = portfolio_configs(checker, checker.portfolio)

    def inline_baseline(_config):
        # Raced inline (single config / in a worker / all racers died):
        # run the checker's own configuration directly.  _in_race stops
        # check() from re-entering the portfolio path.  Delta is None
        # because the counters already landed in checker.stats.
        checker._in_race = True
        try:
            return checker.check_problem(problem, params), None
        finally:
            checker._in_race = False

    winner, (verdict, delta) = race_tasks(
        configs, _race_worker, inline_baseline,
        state={"checker": checker, "problem": problem, "params": params})
    stats: Dict[str, float] = checker.stats
    if delta is not None:
        # A pooled winner's counters arrive as a delta to merge (the
        # inline path wrote into checker.stats directly).
        for key, value in delta.items():
            stats[key] = stats.get(key, 0) + value
    stats["portfolio_races"] = stats.get("portfolio_races", 0) + 1
    key = f"portfolio_wins_{winner}"
    stats[key] = stats.get(key, 0) + 1
    return verdict
